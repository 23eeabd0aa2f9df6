"""Hypergeometric Cauchy numbers c(N, n) by independent exact methods.

The family is defined through the reciprocal of the Gauss series

    F_N(x) = sum_j (-1)^j N/(N+j) x^j,        1/F_N(x) = sum_n c(N, n) x^n/n!,

so N = 1 recovers the classical Cauchy numbers (x/log(1+x) expansion). The
normalized values b_n = c(N, n)/n! are often the more convenient object; every
table here can hand them back via :meth:`CauchyTable.normalized`.

Five routes to the same table are implemented:

``series``        reciprocal of the truncated F_N (the reference oracle)
``recurrence``    bottom-up solution of the defining convolution identity
``determinant``   Toeplitz lower-Hessenberg determinant over bands N/(N+k)
``compositions``  exhaustive signed sum over strict integer compositions
``trudi``         partition-multiset expansion of the same determinant

The first three set the problem up differently but share one exact kernel,
the triangular Toeplitz solve :func:`~hgcauchy.series.toeplitz_solve`, so
their agreement checks the set-up of each route, not the solve itself.
``compositions`` and ``trudi`` share no arithmetic with that kernel; they,
together with the slow reference loops the tests and the benchmark keep, are
the independent cross-checks. ``compositions`` and the order-r ``explicit``
route are one walk, :func:`~hgcauchy.combinat.composition_sum`, over
different weights; at r = 1 they are one route.

The classical validators at the end pin the machinery to well-known sequences
(Bernoulli and Euler numbers as Hessenberg determinants).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .combinat import STRICT_COMPOSITION_CAP, composition_sum, multinomial
from .errors import CapExceeded
from .hessenberg import (
    PARTITION_CAP,
    determinant_sequence,
    enumerate_partition_multiplicities,
    trudi_sequence,
)
from .report import VerificationReport, failed, passed
from .series import TruncatedSeries, toeplitz_solve

__all__ = [
    "CauchyTable",
    "hgc_generating_series",
    "c_via_series",
    "c_via_recurrence",
    "c_via_determinant",
    "c_via_compositions",
    "c_via_trudi",
    "ratio_inversion",
    "classical_bernoulli_det",
    "classical_euler_det",
    "c_closed_form",
    "c_trudi_printed_variant",
]

# every route name a table may carry, in the order the CLI lists them
METHODS = (
    "series",
    "recurrence",
    "determinant",
    "compositions",
    "trudi",
    "explicit",
    "convolution",
)


def _check_parameters(N: int, n_max: int, r: int = 1) -> None:
    for name, value in (("N", N), ("n_max", n_max), ("r", r)):
        if isinstance(value, bool):
            raise TypeError(f"{name} must be an integer, not bool")
        try:
            operator.index(value)
        except TypeError:
            raise TypeError(
                f"{name} must be an integer, got {type(value).__name__} {value!r}"
            ) from None
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    if r < 1:
        raise ValueError(f"r must be a positive integer, got {r}")
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")


@dataclass(frozen=True)
class CauchyTable:
    """Exact values c(N, n) for n = 0 .. n_max at order r.

    ``method`` records which route produced the table; the values themselves
    are method-independent and the verification suites enforce that.
    """

    N: int
    r: int
    n_max: int
    values: tuple[Fraction, ...]
    method: str

    def __post_init__(self):
        _check_parameters(self.N, self.n_max, self.r)
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))
        if len(self.values) != self.n_max + 1:
            raise ValueError("values must list n = 0 .. n_max")
        if self.values[0] != 1:
            raise ValueError("index 0 must be 1")
        if self.n_max >= 1 and self.values[1] != Fraction(self.r * self.N, self.N + 1):
            raise ValueError("index 1 must be r*N/(N+1)")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")

    def normalized(self) -> list[Fraction]:
        """b_n = c(N, n)/n! for n = 0 .. n_max."""
        return [v / factorial(n) for n, v in enumerate(self.values)]


def hgc_generating_series(N: int, order: int) -> TruncatedSeries:
    """The truncated Gauss series F_N: coefficient j is (-1)^j N/(N+j)."""
    _check_parameters(N, order)
    return TruncatedSeries(
        tuple(Fraction((-1) ** j * N, N + j) for j in range(order + 1))
    )


def c_via_series(N: int, n_max: int) -> CauchyTable:
    """Reference method: n! times the reciprocal coefficients of F_N."""
    _check_parameters(N, n_max)
    recip = hgc_generating_series(N, n_max).reciprocal()
    values = tuple(
        factorial(n) * recip.coefficient(n) for n in range(n_max + 1)
    )
    return CauchyTable(N, 1, n_max, values, "series")


def c_via_recurrence(N: int, n_max: int) -> CauchyTable:
    """Bottom-up solution of the defining convolution identity

        sum_{i=0..n} (-1)^i c(N, i) / ((N + n - i) i!) = 0   for n >= 1,

    solved for the i = n term. In the normalized values b_n = c(N, n)/n! it
    reads

        sum_{l=0..n} (-1)^l N/(N+l) b_(n-l) = 0   for n >= 1,   b_0 = 1,

    a triangular Toeplitz system solved by the shared kernel
    :func:`~hgcauchy.series.toeplitz_solve`; the table is n! b_n. The
    ``series`` and ``determinant`` routes reach the same solve, so agreement
    among these three checks their set-up, not the kernel.
    """
    _check_parameters(N, n_max)
    b = toeplitz_solve([Fraction((-1) ** l * N, N + l) for l in range(n_max + 1)])
    c = tuple(factorial(n) * b[n] for n in range(n_max + 1))
    return CauchyTable(N, 1, n_max, c, "recurrence")


def c_via_determinant(N: int, n_max: int) -> CauchyTable:
    """n! times the n x n unit-superdiagonal determinant over bands N/(N+k).

    The determinants come from the band recurrence in
    :func:`~hgcauchy.hessenberg.determinant_sequence`, which is the same
    triangular Toeplitz solve the ``series`` and ``recurrence`` routes use.
    """
    _check_parameters(N, n_max)
    band = [Fraction(N, N + k) for k in range(1, n_max + 1)]
    dets = determinant_sequence(1, band)
    values = tuple(factorial(n) * dets[n] for n in range(n_max + 1))
    return CauchyTable(N, 1, n_max, values, "determinant")


def c_via_compositions(
    N: int, n_max: int, cap: int | None = STRICT_COMPOSITION_CAP
) -> CauchyTable:
    """Exhaustive signed sum over strict compositions:

        c(N, n) = (-1)^n n! sum over compositions (i_1, .., i_k) of n
                  of (-N)^k / prod (N + i_j),

    that is n! times the composition sum of the weights (-1)^(e-1) N/(N+e).
    Every composition is visited once (2^(n-1) per n) by the one shared walk
    :func:`~hgcauchy.combinat.composition_sum`.
    """
    _check_parameters(N, n_max)
    if cap is not None and n_max > cap:
        raise CapExceeded("strict composition enumeration", n_max, cap)
    w = [0] + [Fraction((-1) ** (e - 1) * N, N + e) for e in range(1, n_max + 1)]
    T = composition_sum(w, n_max)
    values = tuple(factorial(n) * T[n] for n in range(n_max + 1))
    return CauchyTable(N, 1, n_max, values, "compositions")


def _trudi_values(band: list[Fraction], cap: int | None) -> tuple[Fraction, ...]:
    """n! times the Trudi expansion of the determinant over band[:n], for
    n = 0 .. len(band): one :func:`~hgcauchy.hessenberg.trudi_sum` walk per n
    (:func:`~hgcauchy.hessenberg.trudi_sequence`), shared by the first-order
    and order-r routes."""
    dets = trudi_sequence(Fraction(1), band, cap)
    return tuple(factorial(n) * d for n, d in enumerate(dets))


def c_via_trudi(
    N: int, n_max: int, cap: int | None = PARTITION_CAP
) -> CauchyTable:
    """Partition-multiset expansion of the determinant route:

        c(N, n) = n! sum over multiplicity vectors (t_1..t_n) of
                  multinomial(t) (-1)^(n - sum t) prod (N/(N+k))^(t_k).

    Every multiplicity vector of every n <= n_max is visited once, by one
    walk per n (:func:`~hgcauchy.hessenberg.trudi_sum`) that shares prefix
    products in integers; the cap is checked before any work.
    """
    _check_parameters(N, n_max)
    if cap is not None and n_max > cap:
        raise CapExceeded("partition multiset enumeration", n_max, cap)
    band = [Fraction(N, N + k) for k in range(1, n_max + 1)]
    return CauchyTable(N, 1, n_max, _trudi_values(band, cap), "trudi")


def c_trudi_printed_variant(
    N: int, n: int, cap: int | None = PARTITION_CAP
) -> Fraction:
    """A commonly printed variant of the partition-multiset expansion whose
    coefficient and sign read binomial(n - sum t; t_1..t_n) * (-1)^(sum t)
    instead of binomial(sum t; t_1..t_n) * (-1)^(n - sum t).

    Multinomial coefficients follow the standard convention (zero unless the
    lower entries sum to the upper one). The variant disagrees with the true
    values (first at N = 1, n = 2: -2/3 against -1/6); it exists so the
    verification suite can document that discrepancy with exact numbers.
    """
    _check_parameters(N, n)
    total = Fraction(0)
    for tvec in enumerate_partition_multiplicities(n, cap):
        t_sum = sum(tvec)
        if n - t_sum != t_sum:
            continue
        term = Fraction(multinomial(tvec) * (-1) ** t_sum)
        for k, t in enumerate(tvec, start=1):
            if t:
                term *= Fraction(N, N + k) ** t
        total += term
    return factorial(n) * total


def ratio_inversion(N: int, n_max: int) -> VerificationReport:
    """Determinants over normalized-value bands recover the defining ratios:

        det of the unit-superdiagonal spec over bands c(N, k)/k!  ==  N/(N+n).
    """
    _check_parameters(N, n_max)
    bands = c_via_series(N, n_max).normalized()[1:]
    dets = determinant_sequence(1, bands)
    identity = "inversion/ratio-recovery"
    for n in range(1, n_max + 1):
        expected = Fraction(N, N + n)
        if dets[n] != expected:
            return failed(identity, (N, 1, n), expected, dets[n])
    return passed(identity, (N, 1, n_max))


def c_closed_form(N: int, n: int) -> Fraction:
    """Closed rational forms of c(N, n) for n = 0 .. 5, as polynomial
    quotients in N; cross-checked against every table route."""
    _check_parameters(N, n)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(N, N + 1)
    if n == 2:
        return Fraction(-2 * N, (N + 1) ** 2 * (N + 2))
    if n == 3:
        return Fraction(
            6 * N * (N**2 + N + 2),
            (N + 1) ** 3 * (N + 2) * (N + 3),
        )
    if n == 4:
        return Fraction(
            -24 * N * (N**5 + 5 * N**4 + 14 * N**3 + 24 * N**2 + 20 * N + 12),
            (N + 1) ** 4 * (N + 2) ** 2 * (N + 3) * (N + 4),
        )
    if n == 5:
        poly = (
            N**7
            + 8 * N**6
            + 35 * N**5
            + 96 * N**4
            + 160 * N**3
            + 184 * N**2
            + 116 * N
            + 48
        )
        return Fraction(
            120 * N * poly,
            (N + 1) ** 5 * (N + 2) ** 2 * (N + 3) * (N + 4) * (N + 5),
        )
    raise ValueError(f"no closed form for n = {n} (have n = 0 .. 5)")


def classical_bernoulli_det(n_max: int) -> list[Fraction]:
    """Bernoulli numbers B_0 .. B_n_max as signed Hessenberg determinants
    over factorial bands 1/(k+1)!; a fixed point for the determinant code."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    band = [Fraction(1, factorial(k + 1)) for k in range(1, n_max + 1)]
    dets = determinant_sequence(1, band)
    return [(-1) ** n * factorial(n) * dets[n] for n in range(n_max + 1)]


def classical_euler_det(n_max: int) -> list[Fraction]:
    """Euler numbers E_0, E_2, .., E_(2 n_max) from even-factorial bands
    1/(2k)!; the secant-series convention (E_2 = -1, E_4 = 5)."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    band = [Fraction(1, factorial(2 * k)) for k in range(1, n_max + 1)]
    dets = determinant_sequence(1, band)
    return [(-1) ** k * factorial(2 * k) * dets[k] for k in range(n_max + 1)]
