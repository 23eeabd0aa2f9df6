"""The benchmark's four workloads, as seeded lists of CLI argv lines.

The seed picks only the N values; every other flag is fixed, so a run's cost
is nearly seed-independent and the golden digests in ``golden.json`` can
cover every argv line any seed can produce (see :func:`argv_pool`).

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in ``README.md``.
"""

from __future__ import annotations

import itertools
import random

NAMES = ("deep-tables", "wide-tables", "enum-caps", "verify-all")
SIZES = ("full", "toy")

# seed used when none is given, and one seed kept out of all tuning so later
# claims can be re-checked on N values nobody optimised for
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017

# N windows are narrow on purpose: table cost grows with the bit size of
# N/(N+k), so a wide window would make wall_s depend on the seed more than
# on the code under test
_DEEP_N = range(15, 23)
_WIDE_N = range(1, 65)
_WIDE_COUNT = {"full": 32, "toy": 3}
_ENUM_N = range(4, 9)

# (r, method) pairs of wide-tables: every polynomial route at orders 1..3
_WIDE_ROUTES = (
    (1, "series"), (1, "recurrence"), (1, "determinant"),
    (2, "recurrence"), (2, "determinant"), (2, "convolution"),
    (3, "recurrence"), (3, "determinant"), (3, "convolution"),
)

_N_MAX = {
    # deep-tables: first-order trio, order-3 trio, invert
    "deep": {"full": (200, 120, 100), "toy": (30, 20, 20)},
    "wide": {"full": 24, "toy": 8},
    # enum-caps: compositions, explicit r=3, trudi r=1 and r=2, chain sums
    "enum": {"full": (20, 16, 24, 14), "toy": (8, 6, 8, 6)},
}


def _compute(N: int, n_max: int, method: str, r: int = 1) -> list[str]:
    argv = ["compute", "--N", str(N), "--n-max", str(n_max), "--method", method]
    if r != 1:
        argv[3:3] = ["--r", str(r)]
    return argv


def _deep(Ns: tuple[int, int, int], size: str) -> list[list[str]]:
    n1, n3, n_inv = _N_MAX["deep"][size]
    N1, N3, N_inv = Ns
    jobs = [_compute(N1, n1, m) for m in ("series", "recurrence", "determinant")]
    jobs += [
        _compute(N3, n3, m, r=3) for m in ("recurrence", "determinant", "convolution")
    ]
    jobs.append(["invert", "--rule", "hgc", "--N", str(N_inv), "--n-max", str(n_inv)])
    return jobs


def _wide(Ns: list[int], size: str) -> list[list[str]]:
    n_max = _N_MAX["wide"][size]
    return [_compute(N, n_max, m, r=r) for N in Ns for r, m in _WIDE_ROUTES]


def _enum(Ns: tuple[int, int, int], size: str) -> list[list[str]]:
    n_comp, n_expl, n_trudi, n_chain = _N_MAX["enum"][size]
    N_comp, N_expl, N_trudi = Ns
    return [
        _compute(N_comp, n_comp, "compositions"),
        _compute(N_expl, n_expl, "explicit", r=3),
        _compute(N_trudi, n_trudi, "trudi"),
        # same partition sizes as the call before: served from the memo
        _compute(N_trudi, n_trudi, "trudi", r=2),
        ["verify", "--suite", "relations", "--N-max", "3", "--n-max", str(n_chain)],
    ]


def _verify_all(size: str) -> list[list[str]]:
    if size == "full":
        return [["verify", "--suite", "all"]]
    return [["verify", "--suite", "all", "--N-max", "2", "--r-max", "2", "--n-max", "4"]]


def jobs(name: str, seed: int, size: str = "full") -> list[list[str]]:
    """The argv lines of one pass over workload ``name``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{name}/{seed}")
    if name == "deep-tables":
        return _deep(tuple(rng.choice(_DEEP_N) for _ in range(3)), size)
    if name == "wide-tables":
        return _wide(rng.sample(_WIDE_N, _WIDE_COUNT[size]), size)
    if name == "enum-caps":
        return _enum(tuple(rng.choice(_ENUM_N) for _ in range(3)), size)
    return _verify_all(size)


def argv_pool(name: str, size: str) -> list[list[str]]:
    """Every argv line that :func:`jobs` can produce for ``name`` at ``size``."""
    if name == "deep-tables":
        lines = itertools.chain.from_iterable(
            _deep((N, N, N), size) for N in _DEEP_N
        )
    elif name == "wide-tables":
        lines = _wide(list(_WIDE_N), size)
    elif name == "enum-caps":
        lines = itertools.chain.from_iterable(_enum((N, N, N), size) for N in _ENUM_N)
    else:
        lines = _verify_all(size)
    unique: dict[str, list[str]] = {}
    for argv in lines:
        unique.setdefault(" ".join(argv), argv)
    return list(unique.values())
