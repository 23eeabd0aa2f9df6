"""Guards that tie the benchmark's committed files to the package, and
guards on the package's own source.

The benchmark replays CLI argv lines against the stdout digests in
``bench/golden.json`` and traces the functions named in ``bench/tracer.py``;
both break silently if the package drifts, so both are checked here in
tier 1: the ``verify`` lines and every ``compute`` line except the five
slowest (``compositions`` at n = 20). ``golden.json`` is only read, never
re-recorded. The source guards read ``src/hgcauchy`` with ``ast``: no module
imports a name it does not use, the package's star re-exports never bind one
name twice, each input rule is stated in one place (caps and sizes in
``errors``, flag bounds where ``cli`` declares the flags), fail records
are built only in ``report``, and no module imports ``dataclasses`` or
``typing``, so a CLI process loads neither (nor ``inspect``, which
``dataclasses`` pulls in).
"""

import ast
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hgcauchy
from hgcauchy import cli
from hgcauchy.cauchy import METHODS

BENCH = Path(__file__).resolve().parent.parent / "bench"
PACKAGE = Path(hgcauchy.__file__).parent
GOLDEN = json.loads((BENCH / "golden.json").read_text())
VERIFY_LINES = sorted(line for line in GOLDEN if line.startswith("verify "))
TRUDI_LINES = sorted(line for line in GOLDEN if line.endswith("--method trudi"))
# every compute line but the five compositions tables at n = 20, which take
# longer than all the others together
SLOWEST = "--n-max 20 --method compositions"
COMPUTE_LINES = sorted(
    line
    for line in GOLDEN
    if line.startswith("compute ") and not line.endswith(SLOWEST)
)


def test_golden_file_holds_the_verify_lines():
    assert "verify --suite all" in VERIFY_LINES
    assert len(VERIFY_LINES) == 4


def _stdout_digest(line):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(line.split())
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("line", VERIFY_LINES)
def test_verify_stdout_matches_golden_digest(line):
    assert _stdout_digest(line) == GOLDEN[line]


def test_golden_file_holds_the_trudi_lines():
    # N = 4 .. 8, r = 1 and 2, n = 8 and the partition cap 24
    assert len(TRUDI_LINES) == 20
    assert "compute --N 8 --r 2 --n-max 24 --method trudi" in TRUDI_LINES


@pytest.mark.parametrize("line", TRUDI_LINES)
def test_trudi_stdout_matches_golden_digest(line):
    assert _stdout_digest(line) == GOLDEN[line]


def test_golden_file_holds_every_method_in_the_compute_lines():
    methods = {line.rpartition("--method ")[2] for line in COMPUTE_LINES}
    assert methods == set(METHODS)
    assert len(GOLDEN) - len(COMPUTE_LINES) == 4 + 16 + 5  # verify, invert, skipped


@pytest.mark.parametrize("method", METHODS)
def test_compute_stdout_matches_golden_digest(method):
    lines = [line for line in COMPUTE_LINES if line.endswith(f"--method {method}")]
    assert lines
    assert [line for line in lines if _stdout_digest(line) != GOLDEN[line]] == []


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    # the tracer looks each name up with vars(), so an inherited or removed
    # attribute counts as missing there and must count as missing here
    missing = []
    for module_name, qualname, _, _ in _load_tracer().TARGETS:
        owner = importlib.import_module(f"hgcauchy.{module_name}")
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if owner is None or vars(owner).get(attr) is None:
            missing.append(f"{module_name}.{qualname}")
    assert missing == []


def _run_traced(body):
    """Run ``body`` in a fresh interpreter with ``bench/tracer.py`` installed
    as ``t``, and return the JSON it prints."""
    src = BENCH.parent / "src"
    script = (
        "import contextlib, io, json, sys\n"
        f"sys.path[:0] = [{str(src)!r}, {str(BENCH)!r}]\n"
        "import hgcauchy.cli, tracer\n"
        "t = tracer.Tracer(); t.install()\n"
    ) + body
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_trudi_time_is_traced_under_hessenberg():
    # the published per-layer metric hessenberg.self_s sums the hessenberg
    # targets, so the Trudi walks must run inside a traced hessenberg function
    report = _run_traced(
        "from hgcauchy import cauchy, higher\n"
        "cauchy.c_via_trudi(3, 20); higher.chor_via_trudi(3, 2, 20)\n"
        "print(json.dumps(t.report()))\n"
    )
    stats = report["metrics"]
    assert report["missing"] == []
    assert stats["hessenberg.trudi_sum.calls"] == 2 * 21
    assert stats["hessenberg.trudi_sum.self_s"] > stats["cauchy.c_via_trudi.self_s"]
    assert stats["hessenberg.trudi_sum.self_s"] > stats["higher.chor_via_trudi.self_s"]


def test_every_route_of_the_table_is_traced():
    # the tracer rebinds module attributes only, so a route table that held
    # the route functions themselves would run them unwrapped and the
    # per-layer metrics would read 0
    report = _run_traced(
        "from hgcauchy import cli, verify\n"
        "calls = lambda: {k: v for k, v in t.stats.items() if k.endswith('.calls')}\n"
        "steps = {}\n"
        "for method in cli.higher.ROUTES:\n"
        "    before = calls()\n"
        "    argv = ['compute', '--N', '3', '--n-max', '6', '--method', method]\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0\n"
        "    steps[method] = [k for k, v in calls().items() if v > before[k]]\n"
        "for suite in ('core', 'higher'):\n"
        "    before = calls()\n"
        "    verify.run_suites(suite)\n"
        "    steps[suite] = [k for k, v in calls().items() if v > before[k]]\n"
        "print(json.dumps({'steps': steps, 'missing': t.report()['missing']}))\n"
    )
    assert report["missing"] == []
    steps = report["steps"]
    traced = {
        "series": "cauchy.c_via_series.calls",
        "recurrence": "higher.chor_via_recurrence.calls",
        "determinant": "higher.chor_via_determinant.calls",
        "compositions": "cauchy.c_via_compositions.calls",
        "trudi": "higher.chor_via_trudi.calls",
        "explicit": "higher.chor_via_explicit.calls",
        "convolution": "higher.chor_via_convolution.calls",
    }
    assert set(traced) == set(METHODS)
    for method, counter in traced.items():
        assert counter in steps[method], method
        assert counter in steps["core"], method
    for method in ("recurrence", "determinant", "trudi", "explicit", "convolution"):
        assert traced[method] in steps["higher"], method


@pytest.mark.parametrize("method", ("convolution", "recurrence"))
def test_order_r_products_run_through_traced_mul(method):
    # series.power and series.mul are published per-layer metrics of the
    # order-r workloads; a power that stopped calling __mul__ would leave
    # series.mul.calls at 0 there
    before, after = _run_traced(
        "from hgcauchy import cli\n"
        "keys = ('series.power.calls', 'series.mul.calls')\n"
        "before = [t.stats[k] for k in keys]\n"
        "argv = ['compute', '--N', '3', '--r', '2', '--n-max', '6',"
        f" '--method', {method!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(argv) == 0\n"
        "print(json.dumps([before, [t.stats[k] for k in keys]]))\n"
    )
    assert after[0] > before[0]
    assert after[1] > before[1]


def _module_names(tree):
    """Every name a module's code reads, and the strings of its ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {
                c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
            }
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    assert sorted(set(imported) - _module_names(tree)) == []


def _calls(tree, name):
    """The calls in ``tree`` of a function or method called ``name``."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def _package_trees():
    return {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def test_cap_exceeded_is_raised_in_one_place():
    trees = _package_trees()
    counts = {name: len(_calls(tree, "CapExceeded")) for name, tree in trees.items()}
    assert {name: n for name, n in counts.items() if n} == {"errors.py": 1}


def test_fail_records_are_built_in_one_place():
    # report.check turns every comparison into a record; no other module
    # builds a fail record itself
    trees = _package_trees()
    counts = {name: len(_calls(tree, "failed")) for name, tree in trees.items()}
    assert {name: n for name, n in counts.items() if n} == {"report.py": 1}
    importers = [
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and any(alias.name == "failed" for alias in node.names)
    ]
    assert importers == []


def test_no_module_imports_dataclasses_or_typing():
    # the records are slotted classes over errors._Record and annotations
    # come from collections.abc; each of the two cost every CLI process
    # milliseconds of import
    banned = {"dataclasses", "typing"}
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        and any(a.name.partition(".")[0] in banned for a in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").partition(".")[0] in banned
    ]
    assert found == []


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S: a site .pth file may import typing before the package does
    script = (
        "import json, sys\n"
        "import hgcauchy.cli\n"
        "print(json.dumps(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert json.loads(out.stdout) == []


def test_no_hand_rolled_negative_size_check():
    # errors._size is the one non-negative rule
    hand_rolled = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and _calls(node.left, "_integer")
        and isinstance(node.ops[0], ast.Lt)
        and getattr(node.comparators[0], "value", None) == 0
    ]
    assert hand_rolled == []


def test_cli_bounds_live_in_the_flag_types():
    # only the --r/--method rule involves two flags, so only it is checked
    # after parsing; every other bound is an argparse type of its flag
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    errors = _calls(tree, "error")
    assert len(errors) == 1
    texts = [c.value for c in ast.walk(errors[0]) if isinstance(c, ast.Constant)]
    assert "supports --r 1 only" in "".join(texts)


def _star_modules():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        importlib.import_module(f"hgcauchy.{node.module}")
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        and node.level == 1
        and [a.name for a in node.names] == ["*"]
    ]


def test_star_reexports_bind_each_name_once():
    # a name in two re-exported __all__ lists would be bound by the later
    # import, silently shadowing the earlier module's object
    modules = _star_modules()
    assert len(modules) == 7
    owners = {}
    for module in modules:
        for name in module.__all__:
            owners.setdefault(name, []).append(module.__name__)
    assert {name: o for name, o in owners.items() if len(o) > 1} == {}


# top-level names that stay exported, whichever module list they come from
KEPT_EXPORTS = """
    CHAIN_CAP CapExceeded CauchyTable ChainIndex DEFAULT_SEED D_inversion
    HessenbergSpec OrderExceeded PARTITION_CAP STRICT_COMPOSITION_CAP
    SUITE_NAMES TruncatedSeries VerificationReport WeightTable ZeroConstantTerm
    c_closed_form c_via_compositions c_via_determinant c_via_recurrence
    c_via_series c_via_trudi cameron_inverse cameron_transform
    chain_example_first chain_example_second chain_sum chor_closed_form
    chor_via_convolution chor_via_determinant chor_via_explicit
    chor_via_recurrence chor_via_trudi classical_bernoulli_det
    classical_euler_det composition_sum cross_order_step descending_chains
    determinant_inversion_roundtrip determinant_sequence
    enumerate_partition_multiplicities hessenberg_det hgc_generating_series
    log1p_series multinomial ratio_inversion run_suites strict_compositions
    trudi_sequence trudi_sum unit_lower_toeplitz_inverse weak_composition_sum
    weak_compositions weight_D weight_D_by_enumeration weight_reference_form
    weight_reference_mismatches
""".split()


def test_package_exports():
    assert len(KEPT_EXPORTS) == 56
    assert len(hgcauchy.__all__) == len(set(hgcauchy.__all__))
    added = {"ROUTES", "c_trudi_printed_variant"}
    assert set(hgcauchy.__all__) == set(KEPT_EXPORTS) | added
    namespace = {}
    exec("from hgcauchy import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hgcauchy.__all__)


def test_each_export_is_its_module_object():
    owners = {"VerificationReport": "report"}
    owners.update(dict.fromkeys(("DEFAULT_SEED", "SUITE_NAMES", "run_suites"), "verify"))
    for module in _star_modules():
        owners.update(dict.fromkeys(module.__all__, module.__name__.rpartition(".")[2]))
    assert set(owners) == set(hgcauchy.__all__)
    for name, module_name in owners.items():
        module = importlib.import_module(f"hgcauchy.{module_name}")
        assert getattr(hgcauchy, name) is getattr(module, name), name
