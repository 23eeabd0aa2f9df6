"""Guards that tie the benchmark's committed files to the package, and
guards on the package's own source.

The benchmark replays CLI argv lines against the stdout digests in
``bench/golden.json`` and traces the functions named in ``bench/tracer.py``;
both break silently if the package drifts, so both are checked here in
tier 1: the ``verify`` and ``invert`` lines and every ``compute`` line, each
once, the five slowest (``compositions`` at n = 20) in a test of their own.
Each replayed ``compute`` table must also meet the denominator bound Q_n(N)
and agree with the residue oracle at two primes.
``golden.json`` is only read, never re-recorded; it holds the text form of
the ``verify`` lines, so the JSON form of ``verify --suite all`` is pinned
by a digest here. The source guards read
``src/hgcauchy`` with ``ast``: no module imports a name it does not use, the
package's star re-exports never bind one name twice, each input rule is
stated in one place (caps and sizes in ``errors``, flag bounds where ``cli``
declares the flags, suite arguments in ``verify._grid``), fail records are
built only in ``report``, the inverse bands are solved only in the
``hessenberg`` inversion chain, no module calls the one-tuple-at-a-time
reference enumerators, and no module imports ``dataclasses`` or ``typing``,
so a CLI process loads neither (nor ``inspect``, which ``dataclasses`` pulls
in). Every public name has a reader outside the tests, and a ledger pins
which functions each pair of compared computations shares; ``recurrence``
and ``determinant`` run one body. Every function the package defines runs
under some CLI command, unless it is a tracer target, an acceptance import
or listed, with its reason, as one a passing run never reaches.
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
from fractions import Fraction
from pathlib import Path
from types import FunctionType

import pytest

import hgcauchy
from hgcauchy import cli
from hgcauchy.cauchy import (
    c_via_compositions,
    c_via_determinant,
    c_via_recurrence,
    c_via_series,
    c_via_trudi,
)
from hgcauchy.higher import (
    ROUTES,
    chor_via_convolution,
    chor_via_determinant,
    chor_via_explicit,
    chor_via_recurrence,
    chor_via_trudi,
)
from oracles import (
    _function_names,
    denominator_bound_misses,
    profiled_functions,
    residue_misses,
)

# the seven --method names, read from the one route table
METHODS = tuple(ROUTES)
BENCH = Path(__file__).resolve().parent.parent / "bench"
PACKAGE = Path(hgcauchy.__file__).parent
GOLDEN = json.loads((BENCH / "golden.json").read_text())
VERIFY_LINES = sorted(line for line in GOLDEN if line.startswith("verify "))
INVERT_LINES = sorted(line for line in GOLDEN if line.startswith("invert "))
TRUDI_LINES = sorted(line for line in GOLDEN if line.endswith("--method trudi"))
# every compute line but the five compositions tables at n = 20, which take
# longer than all the others together and replay in their own test
SLOWEST = "--n-max 20 --method compositions"
COMPUTE_LINES = sorted(
    line
    for line in GOLDEN
    if line.startswith("compute ") and not line.endswith(SLOWEST)
)
SLOWEST_LINES = sorted(line for line in GOLDEN if line.endswith(SLOWEST))


def test_golden_file_holds_the_verify_lines():
    assert "verify --suite all" in VERIFY_LINES
    assert len(VERIFY_LINES) == 4


def _stdout(line):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(line.split())
    assert code == 0
    return out.getvalue()


def _digest(stdout):
    return hashlib.sha256(stdout.encode()).hexdigest()


def _stdout_digest(line):
    return _digest(_stdout(line))


def _bound_misses(stdout):
    """The n of a ``compute`` JSON table whose c_n/n! has a denominator
    that does not divide Q_n(N)."""
    payload = json.loads(stdout)
    return denominator_bound_misses(payload["N"], map(Fraction, payload["values"]))


def _residue_misses(stdout):
    """The n at which a ``compute`` JSON table differs from the residue
    oracle's c^(r)(N, n) at either of two primes."""
    payload = json.loads(stdout)
    return residue_misses(payload["N"], payload["r"], map(Fraction, payload["values"]))


@pytest.mark.parametrize("line", VERIFY_LINES)
def test_verify_stdout_matches_golden_digest(line):
    assert _stdout_digest(line) == GOLDEN[line]


# golden.json holds the text form of the verify lines only
VERIFY_ALL_JSON_DIGEST = "49061252f1d66d744646ffd258a1b109a6ae956aa24945cc77276333881ea186"


def test_verify_all_json_stdout_matches_its_digest():
    assert _stdout_digest("verify --suite all --format json") == VERIFY_ALL_JSON_DIGEST


def test_golden_file_holds_the_invert_lines():
    # the hgc rule at N = 15 .. 22, n = 20 and 100
    assert len(INVERT_LINES) == 16
    assert "invert --rule hgc --N 22 --n-max 100" in INVERT_LINES


@pytest.mark.parametrize("line", INVERT_LINES)
def test_invert_stdout_matches_golden_digest(line):
    assert _stdout_digest(line) == GOLDEN[line]


def test_golden_file_holds_the_trudi_lines():
    # N = 4 .. 8, r = 1 and 2, n = 8 and the partition cap 24
    assert len(TRUDI_LINES) == 20
    assert "compute --N 8 --r 2 --n-max 24 --method trudi" in TRUDI_LINES


def test_compute_replay_covers_the_trudi_lines():
    # test_compute_stdout_matches_golden_digest[trudi] replays each of them
    assert set(TRUDI_LINES) <= set(COMPUTE_LINES)


def test_golden_file_holds_every_method_in_the_compute_lines():
    methods = {line.rpartition("--method ")[2] for line in COMPUTE_LINES}
    assert methods == set(METHODS)
    assert len(GOLDEN) - len(COMPUTE_LINES) == 4 + 16 + 5  # verify, invert, skipped


@pytest.mark.parametrize("method", METHODS)
def test_compute_stdout_matches_golden_digest(method):
    lines = [line for line in COMPUTE_LINES if line.endswith(f"--method {method}")]
    assert lines
    stdout = {line: _stdout(line) for line in lines}
    assert [line for line in lines if _digest(stdout[line]) != GOLDEN[line]] == []
    assert [line for line in lines if _bound_misses(stdout[line])] == []
    assert [line for line in lines if _residue_misses(stdout[line])] == []


def test_golden_file_holds_the_slowest_compute_lines():
    assert len(SLOWEST_LINES) == 5


@pytest.mark.parametrize("line", SLOWEST_LINES)
def test_slowest_compute_stdout_matches_golden_digest(line):
    stdout = _stdout(line)
    assert _digest(stdout) == GOLDEN[line]
    assert _bound_misses(stdout) == []
    assert _residue_misses(stdout) == []


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
    core = [traced[method] for method in ("series", "compositions", "trudi")]
    assert [c for c in traced.values() if c in steps["core"]] == core
    for method in ("recurrence", "trudi", "explicit", "convolution"):
        assert traced[method] in steps["higher"], method


@pytest.mark.parametrize(
    "method", ("recurrence", "determinant", "explicit", "trudi", "convolution")
)
def test_order_r_products_run_through_traced_mul(method):
    # series.power and series.mul are published per-layer metrics of the
    # order-r workloads; every route that builds the bands D_r reaches them
    # through weight_D, and a power that stopped calling __mul__ would leave
    # series.mul.calls at 0 there. convolution powers by Miller's recurrence
    # and moves neither counter
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
    moved = [a > b for a, b in zip(after, before)]
    assert moved == [method != "convolution"] * 2


# the functions chor_via_convolution shares with chor_via_recurrence: the
# ratios, the integer steps of the kernels and the plumbing of the records.
# A change that makes the two share more fails here, and one that makes them
# share less updates this set.
CONVOLUTION_SHARES_WITH_RECURRENCE = {
    "cauchy.CauchyTable.__init__",
    "cauchy.CauchyTable.from_normalized",
    "cauchy._check_parameters",
    "cauchy._ratios",
    "cauchy._table_values",
    "errors._Record._assign",
    "errors._integer",
    "errors._size",
    "series.TruncatedSeries.__init__",
    "series._fraction",
    "series._fractions",
    "series._horner",
    "series._over_running_lcm",
    "series._scaled",
}


def test_convolution_shares_no_power_and_no_solve_with_the_recurrence():
    convolution = profiled_functions(lambda: chor_via_convolution(3, 2, 8))
    recurrence = profiled_functions(lambda: chor_via_recurrence(3, 2, 8))
    shared = convolution & recurrence
    assert shared == CONVOLUTION_SHARES_WITH_RECURRENCE
    solve = {"series.toeplitz_solve", "series.TruncatedSeries.reciprocal"}
    assert not solve & convolution
    power = {
        "series.TruncatedSeries.power",
        "series.TruncatedSeries.__mul__",
        "series._convolve",
    }
    assert power <= recurrence
    assert not power & shared


# the functions each other pair of compared computations shares at
# (3, r, 8). At r = 1 the solve and the two walks that core compares share
# the ratios N/(N+k), the exact-value rule and the record plumbing, and the
# Trudi walk also the integer scaling of its band. At r = 2 the walks read
# the bands D_r(k), so they share with the recurrence the square-and-multiply
# power that builds them, and its kernels.
SERIES_SHARES_WITH_COMPOSITIONS = {
    "cauchy.CauchyTable.__init__",
    "cauchy.CauchyTable.from_normalized",
    "cauchy._check_parameters",
    "cauchy._ratios",
    "cauchy._table_values",
    "errors._Record._assign",
    "errors._integer",
    "errors._size",
    "series._fraction",
    "series._fractions",
}
SERIES_SHARES_WITH_TRUDI = SERIES_SHARES_WITH_COMPOSITIONS | {"series._scaled"}
RECURRENCE_SHARES_WITH_EXPLICIT = SERIES_SHARES_WITH_TRUDI | {
    "higher.WeightTable.__init__",
    "higher._weights",
    "higher.weight_D",
    "series.TruncatedSeries.__init__",
    "series.TruncatedSeries.__mul__",
    "series.TruncatedSeries.power",
    "series._convolve",
    "series._horner",
    "series._over_running_lcm",
}
RECURRENCE_SHARES_WITH_TRUDI = RECURRENCE_SHARES_WITH_EXPLICIT


@pytest.mark.parametrize(
    "first, second, shared",
    [
        (
            lambda: c_via_series(3, 8),
            lambda: c_via_compositions(3, 8),
            SERIES_SHARES_WITH_COMPOSITIONS,
        ),
        (lambda: c_via_series(3, 8), lambda: c_via_trudi(3, 8), SERIES_SHARES_WITH_TRUDI),
        (
            lambda: chor_via_recurrence(3, 2, 8),
            lambda: chor_via_explicit(3, 2, 8),
            RECURRENCE_SHARES_WITH_EXPLICIT,
        ),
        (
            lambda: chor_via_recurrence(3, 2, 8),
            lambda: chor_via_trudi(3, 2, 8),
            RECURRENCE_SHARES_WITH_TRUDI,
        ),
    ],
    ids=["series-compositions", "series-trudi", "recurrence-explicit", "recurrence-trudi"],
)
def test_sharing_ledger(first, second, shared):
    assert profiled_functions(first) & profiled_functions(second) == shared


@pytest.mark.parametrize(
    "recurrence, determinant, entries",
    [
        (
            lambda: c_via_recurrence(3, 8),
            lambda: c_via_determinant(3, 8),
            ("cauchy.c_via_recurrence", "cauchy.c_via_determinant"),
        ),
        (
            lambda: chor_via_recurrence(3, 2, 8),
            lambda: chor_via_determinant(3, 2, 8),
            ("higher.chor_via_recurrence", "higher.chor_via_determinant"),
        ),
    ],
    ids=["first-order", "order-r"],
)
def test_recurrence_and_determinant_run_one_body(recurrence, determinant, entries):
    # Glaisher's determinant is the band recurrence expanded along its last
    # column, so the two routes run one solve and differ only in their entries
    ran = profiled_functions(recurrence) - {entries[0]}
    assert ran == profiled_functions(determinant) - {entries[1]}
    assert "hessenberg.determinant_sequence" in ran


def test_the_route_table_is_the_one_method_registry():
    # only higher.ROUTES lists all seven --method names; any other module
    # reads them from it, or names a selection of them
    holders = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict))
        and set(METHODS)
        <= {c.value for c in ast.walk(node) if isinstance(c, ast.Constant)}
    ]
    assert [holder.partition(":")[0] for holder in holders] == ["higher.py"], holders


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


def test_inverse_bands_are_solved_in_one_place():
    # the inversion records and invert read hessenberg._inversion_chain
    trees = _package_trees()
    counts = {
        name: len(_calls(tree, "unit_lower_toeplitz_inverse"))
        for name, tree in trees.items()
    }
    assert {name: n for name, n in counts.items() if n} == {"hessenberg.py": 1}


# naive enumerators that yield one tuple at a time, and the per-term helpers
# of their sums: references for the tests; the package sums over its walks
REFERENCE_ONLY = (
    "strict_compositions",
    "weak_compositions",
    "enumerate_partition_multiplicities",
    "multinomial",
    "descending_chains",
    "chain_term",
)


def test_no_module_calls_a_reference_enumerator():
    callers = []
    for name, tree in _package_trees().items():
        # a definition may call itself
        own = {
            id(call)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in REFERENCE_ONLY
            for call in _calls(node, node.name)
        }
        callers += [
            f"{name}:{call.lineno} {reference}"
            for reference in REFERENCE_ONLY
            for call in _calls(tree, reference)
            if id(call) not in own
        ]
    assert callers == []


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
    # only the rules that tie one flag to another (--r 1 for a first-order
    # --method or --rule, --N 1 for --rule cauchy) are checked after parsing,
    # at one error site that names the flag it refuses; every other bound is
    # an argparse type of its flag
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    errors = _calls(tree, "error")
    assert len(errors) == 1
    texts = [c.value for c in ast.walk(errors[0]) if isinstance(c, ast.Constant)]
    assert "".join(texts) == " supports -- 1 only; use "


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
    determinant_sequence enumerate_partition_multiplicities hessenberg_det
    hgc_generating_series log1p_series ratio_inversion run_suites
    strict_compositions trudi_sequence trudi_sum unit_lower_toeplitz_inverse
    weak_composition_sum weak_compositions weight_D weight_D_by_enumeration
    weight_reference_form
""".split()


def test_package_exports():
    assert len(KEPT_EXPORTS) == 53
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


def _names_read(tree):
    """The names a tree reads, as a ``Name`` or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _public_surface():
    """Each exported name, and each public method or property of an
    exported class as ``Class.name``."""
    surface = list(hgcauchy.__all__)
    for name in hgcauchy.__all__:
        owner = getattr(hgcauchy, name)
        if isinstance(owner, type):
            surface += [
                f"{name}.{attr}"
                for attr, value in vars(owner).items()
                if not attr.startswith("_")
                and isinstance(value, (FunctionType, classmethod, staticmethod, property))
            ]
    return surface


def test_every_public_name_is_used():
    # a public name earns its place by a reader: package code outside
    # __init__.py, the acceptance criteria, or a bench/tracer.py target;
    # what only the other tests call belongs in tests/oracles.py
    trees = _package_trees()
    del trees["__init__.py"]
    used = set().union(*map(_names_read, trees.values()))
    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    used |= _names_read(acceptance)
    used |= {
        alias.name
        for node in ast.walk(acceptance)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used |= {qualname.rpartition(".")[2] for _, qualname, _, _ in _load_tracer().TARGETS}
    unused = [name for name in _public_surface() if name.rpartition(".")[2] not in used]
    assert unused == []


# functions a passing CLI run does not reach, each with why it stays
UNREACHED_BY_DESIGN = {
    "combinat.strict_compositions.<locals>.walk": "walk of a reference enumerator",
    "combinat.weak_compositions.<locals>.walk": "walk of a reference enumerator",
    "hessenberg.enumerate_partition_multiplicities.<locals>.fill": (
        "walk of a reference enumerator"
    ),
    "relations.descending_chains.<locals>.walk": "walk of a reference enumerator",
    "relations.ChainIndex.__init__": "the record descending_chains yields",
    "relations.ChainIndex.head": "the record descending_chains yields",
    "relations.ChainIndex.length": "the record descending_chains yields",
    "report.failed": "builds a fail record, which a passing run never makes",
    "series.TruncatedSeries.__str__": "prints a series in a fail record's detail",
    "errors._Record.__delattr__": "record protocol: a record is immutable",
    "errors._Record.__setattr__": "record protocol: a record is immutable",
    "errors._Record.__hash__": "record protocol: records hash by their fields",
    "errors._Record.__reduce__": "record protocol: records pickle and copy",
    "errors._Record.__repr__": "record protocol: records print their fields",
}


def _run_every_command():
    """Each command of the CLI once per choice: both verify formats, every
    route at r = 1 and at r = 2 where it takes r > 1, the csv and normalized
    output, a compute past its cap and every invert rule."""
    codes = []

    def main(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(list(argv)))

    main("verify", "--suite", "all")
    main("verify", "--suite", "all", "--format", "json")
    for method, route in ROUTES.items():
        point = ("compute", "--N", "3", "--n-max", "6", "--method", method)
        main(*point)
        if route.any_order:
            main(*point, "--r", "2")
        main(*point, "--format", "csv", "--normalized")
    main("compute", "--N", "3", "--n-max", "23", "--method", "compositions")
    main("invert", "--rule", "cauchy", "--N", "1", "--n-max", "6")
    main("invert", "--rule", "hgc", "--N", "3", "--n-max", "6")
    main("invert", "--rule", "weights", "--N", "3", "--r", "2", "--n-max", "6")
    return codes


def test_every_package_function_runs():
    # a function earns its place by running: under some CLI command, as a
    # bench/tracer.py target or in the acceptance criteria; the rest of the
    # package is listed in UNREACHED_BY_DESIGN with its reason
    codes = []
    ran = profiled_functions(lambda: codes.extend(_run_every_command()))
    assert codes.count(3) == 1 and set(codes) == {0, 3}
    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    exempt = {
        f"{node.module.removeprefix('hgcauchy.')}.{alias.name}"
        for node in ast.walk(acceptance)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("hgcauchy.")
        for alias in node.names
    }
    exempt |= {f"{module}.{qualname}" for module, qualname, _, _ in _load_tracer().TARGETS}
    names = set(_function_names().values())
    assert set(UNREACHED_BY_DESIGN) <= names - ran - exempt
    assert names - ran - exempt - set(UNREACHED_BY_DESIGN) == set()
