"""Record the stdout digest of every argv line any seed can produce.

    python3 bench/golden.py

Writes ``golden.json`` next to this file. The digests are the byte-identical
stdout the oracle demands, so record them only from a commit whose output is
known good, and re-record only when a change means to alter stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from hgcauchy import cli  # noqa: E402


def main() -> int:
    digests = {}
    for name in workloads.NAMES:
        for size in workloads.SIZES:
            for argv in workloads.argv_pool(name, size):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = cli.main(argv)
                if rc != 0:
                    print(f"exit {rc}: {' '.join(argv)}", file=sys.stderr)
                    return 1
                digests[" ".join(argv)] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    with open(BENCH / "golden.json", "w") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} digests written", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
