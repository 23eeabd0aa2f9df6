"""Output checks for benchmark jobs, run outside the timed region.

Nothing here imports ``hgcauchy``: every check uses the benchmark's own
arithmetic, which differs from the route under test.

* every job: exit code 0, no exception, and a stdout digest equal to the one
  recorded in ``golden.json`` (stdout must stay byte-identical);
* ``compute``: the table solves the defining relation
  F_N(x)^r * sum_n (c_n/n!) x^n = 1, checked by multiplying out; tables of
  one (N, r, n) agree across routes; and tables with n <= ``REFERENCE_N_MAX``
  equal the benchmark's own series reciprocal of F_N(x)^r, a polynomial route
  computed here, outside the timing;
* ``invert``: the R column is the rule, ``recovered`` equals R, and the
  inverse bands are (-1)^k R(k);
* ``verify``: no failed record, a count line that matches the records, the
  four erratum-noted identities when the suite is ``all``, and exactly
  ``136 checks: 132 pass, 0 fail, 4 erratum-noted`` at the default grid.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import factorial

REFERENCE_N_MAX = 64

ERRATA = (
    "core/trudi-form-printed-variant",
    "higher/power-identity-example-exponents",
    "inversion/unsigned-inverse-bands",
    "series/sequence-transform-role-swap",
)
DEFAULT_VERIFY_ALL = "136 checks: 132 pass, 0 fail, 4 erratum-noted"

_RECORD = re.compile(r"^\[(pass|fail|erratum-noted)\] (\S+) \(N=\d+, r=\d+, n=\d+\)")
_COUNTS = re.compile(r"^(\d+) checks: (\d+) pass, (\d+) fail, (\d+) erratum-noted$")


class CheckError(Exception):
    """A job's output is wrong; the message says how."""


def _flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def gauss_power(N: int, r: int, n_max: int) -> list[Fraction]:
    """Coefficients of F_N(x)^r to x^n_max, F_N(x) = sum_j (-1)^j N/(N+j) x^j."""
    f = [Fraction((-1) ** j * N, N + j) for j in range(n_max + 1)]
    out = [Fraction(1)] + [Fraction(0)] * n_max
    for _ in range(r):
        out = [sum(out[i] * f[k - i] for i in range(k + 1)) for k in range(n_max + 1)]
    return out


def reference_table(N: int, r: int, n_max: int) -> list[Fraction]:
    """c^(r)(N, n) for n <= n_max as n! [x^n] F_N(x)^-r."""
    g = gauss_power(N, r, n_max)
    h = [Fraction(1)]
    for k in range(1, n_max + 1):
        h.append(-sum(g[j] * h[k - j] for j in range(1, k + 1)))
    return [factorial(k) * v for k, v in enumerate(h)]


def check_defining_relation(N: int, r: int, values: list[Fraction]) -> None:
    """Raise unless F_N(x)^r * sum (c_n/n!) x^n == 1 to the table's order."""
    n_max = len(values) - 1
    g = gauss_power(N, r, n_max)
    b = [v / factorial(k) for k, v in enumerate(values)]
    for k in range(n_max + 1):
        coeff = sum(g[j] * b[k - j] for j in range(k + 1))
        if coeff != (1 if k == 0 else 0):
            raise CheckError(f"F^r * table has coefficient {coeff} at x^{k}")


class Checker:
    """Checks one workload's jobs; route groups are remembered across jobs."""

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self._tables: dict[tuple[int, int, int], list[Fraction]] = {}

    def check_run(self, argv: list[str], result: dict) -> None:
        """Exit code, exception and golden digest; cheap enough for every pass."""
        if result.get("error"):
            raise CheckError(f"raised: {result['error'].strip().splitlines()[-1]}")
        if result.get("rc") != 0:
            raise CheckError(f"exit code {result.get('rc')}: {result.get('stderr', '').strip()}")
        expected = self.golden.get(" ".join(argv))
        if expected is None:
            raise CheckError("no recorded digest for this argv")
        if result["digest"] != expected:
            raise CheckError("stdout digest differs from the recorded one")

    def check_output(self, argv: list[str], stdout: str) -> None:
        """The semantic oracle for one job's stdout."""
        command = argv[0]
        if command == "compute":
            self._check_compute(argv, stdout)
        elif command == "invert":
            self._check_invert(argv, stdout)
        elif command == "verify":
            self._check_verify(argv, stdout)
        else:
            raise CheckError(f"no oracle for command {command!r}")

    def _check_compute(self, argv: list[str], stdout: str) -> None:
        try:
            payload = json.loads(stdout)
            values = [Fraction(v) for v in payload["values"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckError(f"unparseable compute output: {exc}") from None
        N, r, n_max = int(_flag(argv, "--N")), int(_flag(argv, "--r", "1")), int(_flag(argv, "--n-max"))
        if (payload.get("N"), payload.get("r"), len(values)) != (N, r, n_max + 1):
            raise CheckError("table header or length does not match the flags")
        key = (N, r, n_max)
        seen = self._tables.get(key)
        if seen is None:
            check_defining_relation(N, r, values)
            if n_max <= REFERENCE_N_MAX and values != reference_table(N, r, n_max):
                raise CheckError("table differs from the reference reciprocal")
            self._tables[key] = values
        elif values != seen:
            raise CheckError(f"routes disagree at (N, r, n_max) = {key}")

    def _check_invert(self, argv: list[str], stdout: str) -> None:
        rule, N, n_max = _flag(argv, "--rule"), int(_flag(argv, "--N")), int(_flag(argv, "--n-max"))
        if rule != "hgc":
            raise CheckError(f"no oracle for rule {rule!r}")
        lines = stdout.splitlines()
        if not lines or lines[0] != "n\tR\talpha\trecovered\tinverse_band" or len(lines) != n_max + 1:
            raise CheckError("invert table has the wrong header or row count")
        for k, line in enumerate(lines[1:], start=1):
            cells = line.split("\t")
            if len(cells) != 5 or cells[0] != str(k):
                raise CheckError(f"malformed invert row {k}")
            R = Fraction(N, N + k)
            if Fraction(cells[1]) != R or Fraction(cells[3]) != R:
                raise CheckError(f"R or recovered wrong at n = {k}")
            if Fraction(cells[4]) != (-1) ** k * R:
                raise CheckError(f"inverse band at k = {k} is not (-1)^k R(k)")

    def _check_verify(self, argv: list[str], stdout: str) -> None:
        lines = stdout.splitlines()
        counts = {"pass": 0, "fail": 0, "erratum-noted": 0}
        errata = []
        for line in lines[:-1]:
            match = _RECORD.match(line)
            if match is None:
                raise CheckError(f"unparseable verify record {line!r}")
            counts[match[1]] += 1
            if match[1] == "erratum-noted":
                errata.append(match[2])
        summary = _COUNTS.match(lines[-1]) if lines else None
        if summary is None:
            raise CheckError("verify output lacks its count line")
        total, passed, failed, noted = (int(x) for x in summary.groups())
        if (total, passed, failed, noted) != (
            len(lines) - 1, counts["pass"], counts["fail"], counts["erratum-noted"]
        ):
            raise CheckError("count line does not match the records")
        if failed:
            raise CheckError(f"{failed} identities failed")
        suite = _flag(argv, "--suite", "all")
        if suite == "all" and sorted(errata) != sorted(ERRATA):
            raise CheckError(f"erratum-noted identities are {errata}")
        if argv == ["verify", "--suite", "all"] and lines[-1] != DEFAULT_VERIFY_ALL:
            raise CheckError(f"count line reads {lines[-1]!r}")
