"""Hypergeometric Cauchy numbers c(N, n) by independent exact methods.

The family is defined through the reciprocal of the Gauss series

    F_N(x) = sum_j (-1)^j N/(N+j) x^j,        1/F_N(x) = sum_n c(N, n) x^n/n!,

so N = 1 recovers the classical Cauchy numbers (x/log(1+x) expansion). The
normalized values b_n = c(N, n)/n! are often the more convenient object; every
table here can hand them back via :meth:`CauchyTable.normalized`.

Five first-order routes to the same table are implemented:

``series``        reciprocal of the truncated F_N (the reference oracle)
``recurrence``    bottom-up solution of the defining convolution identity
``determinant``   Toeplitz lower-Hessenberg determinant over bands N/(N+k)
``compositions``  exhaustive signed sum over strict integer compositions
``trudi``         partition-multiset expansion of the same determinant

With the order-r routes of :mod:`hgcauchy.higher` they make the seven
``--method`` names of the route table :data:`hgcauchy.higher.ROUTES`, which
holds how each runs, its cap and whether it takes r > 1. The seven run four
computations, each written once over bands d_0 .. d_n (N/(N+k) here,
D_r(k) at order r) and scaled once by :meth:`CauchyTable.from_normalized`:
the triangular Toeplitz solve :func:`~hgcauchy.series.toeplitz_solve`, the
composition walk (``compositions``, ``explicit``), the Trudi walk
(``trudi``) and, in ``higher``, F_N^(-r) taken from the coefficients of
F_N by Miller's recurrence (``convolution``), which runs no solve.
Glaisher's determinant is the defining recurrence expanded along its last
column, so ``recurrence`` and ``determinant`` run one body,
:func:`_solve_table`, which hands the solve the signed bands through
:func:`~hgcauchy.hessenberg.determinant_sequence`;
``series`` hands it the same list, the coefficients of F_N, through
:meth:`~hgcauchy.series.TruncatedSeries.reciprocal`.
The two walks share no arithmetic with the solve, so at r = 1 the
``core/method-agreement`` record of :mod:`hgcauchy.verify` compares one
route of each: ``series``, ``compositions`` and ``trudi``, and ``higher``
compares the four at every r. ``c_via_recurrence``, ``c_via_determinant``,
``c_via_compositions`` and ``c_via_trudi`` stay public as one-line r = 1
entries; :func:`c_trudi_printed_variant` reads the Trudi walk.

The classical validators at the end pin the machinery to well-known sequences
(Bernoulli and Euler numbers as Hessenberg determinants).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import partial
from math import factorial

from .combinat import STRICT_COMPOSITION_CAP, composition_sum
from .errors import _integer, _Record, _size, _within_cap
from .hessenberg import (
    PARTITION_CAP,
    _inversion_chain,
    _recovery_record,
    _trudi_walk,
    determinant_sequence,
    trudi_sequence,
)
from .report import VerificationReport
from .series import TruncatedSeries, _fractions

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

def _check_parameters(N: int, n_max: int, r: int = 1) -> None:
    _integer(N, "N")
    _size(n_max, "n_max")
    _integer(r, "r")
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    if r < 1:
        raise ValueError(f"r must be a positive integer, got {r}")


def _ratios(N: int, r: int, n_max: int) -> list[Fraction]:
    """The first-order bands N/(N+k), k = 0 .. n_max; r is always 1."""
    return [Fraction(N, N + k) for k in range(n_max + 1)]


def _table_values(N: int, r: int, values: Iterable[Fraction | int]) -> tuple:
    """``values`` as Fractions, by the rule of a table at (N, r) of c^(r)(N, n)
    or of D_r(e): N and r are positive integers, the values are exact, the
    first is 1 and the second, if any, is r N/(N+1)."""
    _check_parameters(N, 0, r)
    values = _fractions(values)
    if not values or values[0] != 1:
        raise ValueError("index 0 must be 1")
    if len(values) > 1 and values[1] != Fraction(r * N, N + 1):
        raise ValueError("index 1 must be r*N/(N+1)")
    return values


class CauchyTable(_Record):
    """Exact values c^(r)(N, n) for n = 0 .. n_max. A table holds no trace of
    the route that built it, so tables of equal values are equal records."""

    __slots__ = ("N", "r", "values")

    def __init__(self, N: int, r: int, values: Iterable[Fraction | int]):
        self._assign(N, r, _table_values(N, r, values))

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    @classmethod
    def from_normalized(cls, N: int, r: int, normalized) -> "CauchyTable":
        """The table n! b_n of normalized values b_0 .. b_n; every route scales here."""
        return cls(N, r, (factorial(n) * b for n, b in enumerate(normalized)))

    def normalized(self) -> list[Fraction]:
        """b_n = c(N, n)/n! for n = 0 .. n_max."""
        return [v / factorial(n) for n, v in enumerate(self.values)]


def hgc_generating_series(N: int, order: int) -> TruncatedSeries:
    """The truncated Gauss series F_N: coefficient j is (-1)^j N/(N+j)."""
    _check_parameters(N, 0)
    _size(order, "order")
    return TruncatedSeries(
        tuple((-1) ** j * v for j, v in enumerate(_ratios(N, 1, order)))
    )


def c_via_series(N: int, n_max: int) -> CauchyTable:
    """Reference method: n! times the reciprocal coefficients of F_N."""
    _check_parameters(N, n_max)
    recip = hgc_generating_series(N, n_max).reciprocal()
    return CauchyTable.from_normalized(N, 1, recip.coefficients)


# The solve and the two walks, over bands(N, r, n_max) = [d_0 .. d_n_max].
Bands = Callable[[int, int, int], list[Fraction]]


def _solve_table(N: int, r: int, n_max: int, bands: Bands) -> CauchyTable:
    """n! times the unit-superdiagonal Hessenberg determinants over d_1 .. d_n
    (Glaisher's determinant). Expanded along the last column, they are the
    band recurrence sum_{l=0..n} (-1)^l d_l b_(n-l) = 0 for n >= 1, b_0 = 1,
    so :func:`~hgcauchy.hessenberg.determinant_sequence` takes them by one
    triangular Toeplitz solve."""
    _check_parameters(N, n_max, r)
    dets = determinant_sequence(1, bands(N, r, n_max)[1:])
    return CauchyTable.from_normalized(N, r, dets)


def _composition_table(
    N: int, r: int, n_max: int, bands: Bands, cap: int | None
) -> CauchyTable:
    """n! sum over strict compositions (e_1, .., e_k) of n of
    (-1)^(n-k) d_(e_1) .. d_(e_k), one walk over every n <= n_max
    (:func:`~hgcauchy.combinat.composition_sum`)."""
    _check_parameters(N, n_max, r)
    _within_cap("strict composition enumeration", n_max, cap)
    d = bands(N, r, n_max)
    T = composition_sum([(-1) ** (e + 1) * v for e, v in enumerate(d)], n_max)
    return CauchyTable.from_normalized(N, r, T)


def _trudi_table(
    N: int, r: int, n_max: int, bands: Bands, cap: int | None
) -> CauchyTable:
    """n! sum over multiplicity vectors t with sum k*t_k = n of
    multinomial(t) (-1)^(n - sum t) prod d_k^(t_k), one walk per n
    (:func:`~hgcauchy.hessenberg.trudi_sequence`)."""
    _check_parameters(N, n_max, r)
    _within_cap("partition multiset enumeration", n_max, cap)
    dets = trudi_sequence(Fraction(1), bands(N, r, n_max)[1:], cap)
    return CauchyTable.from_normalized(N, r, dets)


def c_via_recurrence(N: int, n_max: int) -> CauchyTable:
    """Bottom-up solution of the defining convolution identity

        sum_{i=0..n} (-1)^i c(N, i) / ((N + n - i) i!) = 0   for n >= 1,

    which in b_n = c(N, n)/n! is the band recurrence over N/(N+l)."""
    return _solve_table(N, 1, n_max, _ratios)


def c_via_determinant(N: int, n_max: int) -> CauchyTable:
    """n! times the n x n unit-superdiagonal determinant over bands N/(N+k)."""
    return _solve_table(N, 1, n_max, _ratios)


def c_via_compositions(
    N: int, n_max: int, cap: int | None = STRICT_COMPOSITION_CAP
) -> CauchyTable:
    """Exhaustive signed sum over strict compositions:

        c(N, n) = (-1)^n n! sum over compositions (i_1, .., i_k) of n
                  of (-N)^k / prod (N + i_j).
    """
    return _composition_table(N, 1, n_max, _ratios, cap)


def c_via_trudi(
    N: int, n_max: int, cap: int | None = PARTITION_CAP
) -> CauchyTable:
    """Partition-multiset expansion of the determinant over bands N/(N+k)."""
    return _trudi_table(N, 1, n_max, _ratios, cap)


def c_trudi_printed_variant(
    N: int, n: int, cap: int | None = PARTITION_CAP
) -> Fraction:
    """A commonly printed variant of the partition-multiset expansion whose
    coefficient and sign read binomial(n - sum t; t_1..t_n) * (-1)^(sum t)
    instead of binomial(sum t; t_1..t_n) * (-1)^(n - sum t).

    The multinomial is zero unless sum t = n - sum t, so the variant is
    n! (-1)^(n/2) times the s = n/2 accumulator of the Trudi walk over bands
    N/(N+k) (:func:`~hgcauchy.hessenberg._trudi_walk`), and 0 for odd n. It
    disagrees with the true values (first at N = 1, n = 2: -2/3 against
    -1/6); it exists so the verification suite can document that
    discrepancy with exact numbers.
    """
    _check_parameters(N, 0)
    _size(n, "n")
    _within_cap("partition multiset enumeration", n, cap)
    if n % 2:
        return Fraction(0)
    acc, den = _trudi_walk(_ratios(N, 1, n)[1:])
    s = n // 2
    return Fraction(factorial(n) * (-1) ** s * acc[s], den**s)


# (point, ratios, chain) -> the ratio-recovery record of that inversion chain
_ratio_recovery = partial(_recovery_record, "inversion/ratio-recovery")


def ratio_inversion(N: int, n_max: int) -> VerificationReport:
    """Determinants over normalized-value bands recover the defining ratios:

        det of the unit-superdiagonal spec over bands c(N, k)/k!  ==  N/(N+n).

    Read off the inversion chain of N/(N+k), so it restates the point's
    ``determinant-roundtrip`` and ``signed-inverse-bands``. Its alpha is the
    normalized table by Glaisher's determinant; ``core/method-agreement``
    checks that table against the composition and Trudi walks.
    """
    _check_parameters(N, n_max)
    rule = _ratios(N, 1, n_max)[1:]
    return _ratio_recovery((N, 1, n_max), rule, _inversion_chain(rule))


def c_closed_form(N: int, n: int) -> Fraction:
    """Closed rational forms of c(N, n) for n = 0 .. 5, as polynomial
    quotients in N; cross-checked against every table route."""
    _check_parameters(N, 0)
    _integer(n, "n")
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
    _size(n_max, "n_max")
    band = [Fraction(1, factorial(k + 1)) for k in range(1, n_max + 1)]
    dets = determinant_sequence(1, band)
    return [(-1) ** n * factorial(n) * dets[n] for n in range(n_max + 1)]


def classical_euler_det(n_max: int) -> list[Fraction]:
    """Euler numbers E_0, E_2, .., E_(2 n_max) from even-factorial bands
    1/(2k)!; the secant-series convention (E_2 = -1, E_4 = 5)."""
    _size(n_max, "n_max")
    band = [Fraction(1, factorial(2 * k)) for k in range(1, n_max + 1)]
    dets = determinant_sequence(1, band)
    return [(-1) ** k * factorial(2 * k) * dets[k] for k in range(n_max + 1)]
