"""The machine's speed, sampled on the side while a run measures.

    python3 bench/speed.py      # the probe process; run.py starts it

The probe times :func:`reference`, a fixed stdlib computation, every
``EVERY_S`` seconds until its stdin closes, then prints its samples as one
JSON list of ``[monotonic start, seconds]`` pairs. It runs on the core the
worker leaves free, about 5% busy. On a VM shared with other tenants the speed of
both cores swings together by a quarter and more within seconds, so a job's
time divided by the reference time sampled during it does not swing.
:class:`Probe` starts and stops the process and gives that reference time.
"""

from __future__ import annotations

import bisect
import json
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction

EVERY_S = 0.1
# samples within this many seconds of a job count toward it, so even a job
# shorter than EVERY_S has a few
WINDOW_S = 0.25


def reference() -> float:
    """Seconds for a fixed computation of the program's kind, about 5 ms.

    Fraction sums with growing denominators (big-integer gcds) and small-int
    dict updates. It runs no ``hgcauchy`` code, so a change to the program
    never changes it; its time tracks only the machine's speed.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 260):
        total += Fraction(k, k * k + 1)
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i * i
    return time.perf_counter() - start


class Probe:
    """Runs ``speed.py`` while the ``with`` block lasts; then :meth:`ref_s` works."""

    def __enter__(self) -> Probe:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        self._starts: list[float] = []
        self._seconds: list[float] = []
        return self

    def __exit__(self, *exc) -> None:
        try:
            self._proc.stdin.close()
            samples = json.loads(self._proc.stdout.read() or b"[]")
        finally:
            self._proc.kill()
            self._proc.wait()
            self._proc.stdout.close()
        self._starts = [t for t, _ in samples]
        self._seconds = [s for _, s in samples]

    def ref_s(self, start: float, end: float) -> float:
        """Mean reference time of the samples around [start, end] of
        ``time.monotonic()``; of all samples if none is that close."""
        lo = bisect.bisect_left(self._starts, start - WINDOW_S)
        hi = bisect.bisect_right(self._starts, end + WINDOW_S)
        window = self._seconds[lo:hi] or self._seconds
        if not window:
            raise RuntimeError("the speed probe recorded no sample")
        return statistics.fmean(window)

    def median_s(self) -> float:
        """Median reference time over the whole run."""
        return statistics.median(self._seconds)


def main() -> None:
    samples = []
    while True:
        start = time.monotonic()
        samples.append((start, reference()))
        if select.select([sys.stdin], [], [], EVERY_S)[0]:
            break  # stdin closed: the run is over
    print(json.dumps(samples))


if __name__ == "__main__":
    main()
