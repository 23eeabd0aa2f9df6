"""Guards that tie the benchmark's committed files to the package.

The benchmark replays CLI argv lines against the stdout digests in
``bench/golden.json`` and traces the functions named in ``bench/tracer.py``;
both break silently if the package drifts, so both are checked here in
tier 1. ``golden.json`` is only read, never re-recorded.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from hgcauchy import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = json.loads((BENCH / "golden.json").read_text())
VERIFY_LINES = sorted(line for line in GOLDEN if line.startswith("verify "))


def test_golden_file_holds_the_verify_lines():
    assert "verify --suite all" in VERIFY_LINES
    assert len(VERIFY_LINES) == 4


@pytest.mark.parametrize("line", VERIFY_LINES)
def test_verify_stdout_matches_golden_digest(line):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(line.split())
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == GOLDEN[line]


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
