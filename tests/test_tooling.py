"""Guards that tie the benchmark's committed files to the package.

The benchmark replays CLI argv lines against the stdout digests in
``bench/golden.json`` and traces the functions named in ``bench/tracer.py``;
both break silently if the package drifts, so both are checked here in
tier 1: the ``verify`` lines and the Trudi lines at and below the partition
cap. ``golden.json`` is only read, never re-recorded.
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

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = json.loads((BENCH / "golden.json").read_text())
VERIFY_LINES = sorted(line for line in GOLDEN if line.startswith("verify "))
TRUDI_LINES = sorted(line for line in GOLDEN if line.endswith("--method trudi"))


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
