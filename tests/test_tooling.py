"""Guards that tie the benchmark's committed files to the package.

The benchmark replays CLI argv lines against the stdout digests in
``bench/golden.json`` and traces the functions named in ``bench/tracer.py``;
both break silently if the package drifts, so both are checked here in
tier 1: the ``verify`` lines and every ``compute`` line except the five
slowest (``compositions`` at n = 20). ``golden.json`` is only read, never
re-recorded.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from hgcauchy import cli
from hgcauchy.cauchy import METHODS

BENCH = Path(__file__).resolve().parent.parent / "bench"
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


def test_trudi_time_is_traced_under_hessenberg():
    # the published per-layer metric hessenberg.self_s sums the hessenberg
    # targets, so the Trudi walks must run inside a traced hessenberg function
    src = BENCH.parent / "src"
    script = (
        f"import json, sys; sys.path[:0] = [{str(src)!r}, {str(BENCH)!r}]\n"
        "import hgcauchy.cli, tracer\n"
        "t = tracer.Tracer(); t.install()\n"
        "from hgcauchy import cauchy, higher\n"
        "cauchy.c_via_trudi(3, 20); higher.chor_via_trudi(3, 2, 20)\n"
        "print(json.dumps(t.report()))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    report = json.loads(out.stdout)
    stats = report["metrics"]
    assert report["missing"] == []
    assert stats["hessenberg.trudi_sum.calls"] == 2 * 21
    assert stats["hessenberg.trudi_sum.self_s"] > stats["cauchy.c_via_trudi.self_s"]
    assert stats["hessenberg.trudi_sum.self_s"] > stats["higher.chor_via_trudi.self_s"]


def test_every_route_of_the_table_is_traced():
    # the tracer rebinds module attributes only, so a route table that held
    # the route functions themselves would run them unwrapped and the
    # per-layer metrics would read 0
    src = BENCH.parent / "src"
    script = (
        "import contextlib, io, json, sys\n"
        f"sys.path[:0] = [{str(src)!r}, {str(BENCH)!r}]\n"
        "import hgcauchy.cli, tracer\n"
        "t = tracer.Tracer(); t.install()\n"
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
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    report = json.loads(out.stdout)
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
