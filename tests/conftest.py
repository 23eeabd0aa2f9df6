import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# pytest's ``pythonpath`` setting reaches this process only; the CLI tests
# start ``python -m hgcauchy.cli`` subprocesses, which need ``src`` as well
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)

_acceptance_lines: list[str] = []


@pytest.fixture
def acceptance():
    """Recorder for the one-line-per-criterion acceptance output."""

    def record(line: str) -> None:
        _acceptance_lines.append(line)
        print(line)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
