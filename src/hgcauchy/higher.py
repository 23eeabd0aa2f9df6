"""Higher-order hypergeometric Cauchy numbers c^(r)(N, n).

The order-r family is defined by the r-th power of the first-order generating
relation: (1/F_N(x))^r = sum_n c^(r)(N, n) x^n/n!. The combinatorial engine
is the weight

    D_r(e) = sum over (i_1, .., i_r) >= 0 with i_1+..+i_r = e
             of N^r / ((N+i_1) .. (N+i_r)),

the e-th coefficient of (sum_j N/(N+j) x^j)^r, so F_N(x)^r has coefficients
(-1)^e D_r(e). Four of the five order-r routes below are one-line entries
over the computations of :mod:`hgcauchy.cauchy`, passing the bands D_r(k)
where the first-order entries pass N/(N+k), so at r = 1 each returns the
first-order table: ``recurrence`` and ``determinant`` reach the Toeplitz
solve, ``explicit`` the composition walk (at r = 1 the ``compositions``
route) and ``trudi`` the Trudi walk. ``convolution`` raises the first-order
table to the r-th power and never touches the weights, so it checks
(1/F_N)^r against the solve of F_N^r the other way round. :data:`ROUTES`,
the one table of the seven ``--method`` names, lives here, in the one module
that imports both route families.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from math import comb

from .cauchy import (
    CauchyTable,
    _check_parameters,
    _composition_table,
    _determinant_table,
    _ratios,
    _recurrence_table,
    _trudi_table,
    c_via_compositions,
    c_via_series,
)
from .combinat import STRICT_COMPOSITION_CAP, weak_composition_sum
from .errors import _integer, _Record
from .hessenberg import (
    PARTITION_CAP,
    determinant_sequence,
    unit_lower_toeplitz_inverse,
)
from .report import VerificationReport, check, passed
from .series import TruncatedSeries, _fraction

__all__ = [
    "WeightTable",
    "weight_D",
    "weight_D_by_enumeration",
    "weight_reference_form",
    "weight_reference_mismatches",
    "chor_closed_form",
    "chor_via_recurrence",
    "chor_via_determinant",
    "chor_via_explicit",
    "chor_via_trudi",
    "chor_via_convolution",
    "D_inversion",
    "ROUTES",
]


class WeightTable(_Record):
    """Exact weights D_r(e) for e = 0 .. e_max at a fixed (N, r)."""

    __slots__ = ("N", "r", "e_max", "values")

    def __init__(self, N: int, r: int, e_max: int, values: Iterable[Fraction | int]):
        _check_parameters(N, e_max, r)
        values = tuple(map(_fraction, values))
        if len(values) != e_max + 1:
            raise ValueError("values must list e = 0 .. e_max")
        if values[0] != 1:
            raise ValueError("D_r(0) must be 1")
        if e_max >= 1 and values[1] != Fraction(r * N, N + 1):
            raise ValueError("D_r(1) must be r*N/(N+1)")
        self._assign(N, r, e_max, values)

    def weight(self, e: int) -> Fraction:
        return self.values[e]


def weight_D(N: int, r: int, e_max: int) -> WeightTable:
    """Weights via the r-fold self-convolution of the ratio sequence N/(N+j)."""
    _check_parameters(N, e_max, r)
    powered = TruncatedSeries(tuple(_ratios(N, 1, e_max))).power(r)
    return WeightTable(N, r, e_max, powered.coefficients)


def weight_D_by_enumeration(N: int, r: int, e_max: int) -> list[Fraction]:
    """Brute-force definition of D_r(e): N^r times the sum over weak
    compositions of e into r parts of the products of the weights 1/(N+i),
    walked by :func:`~hgcauchy.combinat.weak_composition_sum`.

    Exponential in e and r; kept as the independent cross-check for
    :func:`weight_D`.
    """
    _check_parameters(N, e_max, r)
    w = [Fraction(1, N + i) for i in range(e_max + 1)]
    return [N**r * weak_composition_sum(w, e, r)[r] for e in range(e_max + 1)]


def weight_reference_form(
    N: int, r: int, e: int, corrected: bool = False
) -> Fraction:
    """Small-e closed forms for D_r(e) grouped by nonzero part multiset,
    transcribed verbatim from the tabulation this package cross-checks.

    The e = 4 form as printed carries a slip in its pair-of-twos term,
    N^2/(N+1)^2 where the definition requires N^2/(N+2)^2; pass
    ``corrected=True`` for the repaired variant. All other forms are exact.
    """
    _check_parameters(N, 1, r)
    _integer(e, "e")
    n1, n2, n3, n4 = N + 1, N + 2, N + 3, N + 4
    if e == 1:
        return Fraction(r * N, n1)
    if e == 2:
        return Fraction(r * N, n2) + Fraction(r * (r - 1) * N**2, 2 * n1**2)
    if e == 3:
        return (
            Fraction(r * N, n3)
            + Fraction(r * (r - 1) * N**2, n1 * n2)
            + comb(r, 3) * Fraction(N**3, n1**3)
        )
    if e == 4:
        pair_of_twos_den = n2**2 if corrected else n1**2
        return (
            Fraction(r * N, n4)
            + Fraction(r * (r - 1) * N**2, n1 * n3)
            + comb(r, 2) * Fraction(N**2, pair_of_twos_den)
            + r * comb(r - 1, 2) * Fraction(N**3, n1**2 * n2)
            + comb(r, 4) * Fraction(N**4, n1**4)
        )
    raise ValueError(f"no reference form for e = {e} (have e = 1 .. 4)")


def weight_reference_mismatches(N: int, r: int, e_max: int = 4) -> list[int]:
    """Indices e <= min(e_max, 4) where the verbatim reference form disagrees
    with the definition. Expected: [] for r = 1, [4] for r >= 2."""
    top = min(e_max, 4)
    definition = weight_D(N, r, top)
    return [
        e
        for e in range(1, top + 1)
        if weight_reference_form(N, r, e) != definition.weight(e)
    ]


def chor_closed_form(N: int, r: int, n: int) -> Fraction:
    """Closed forms of c^(r)(N, n) for n = 0 .. 4 as explicit rational
    expressions in N and r; cross-checked against every table route."""
    _check_parameters(N, 1, r)
    _integer(n, "n")
    n1, n2, n3, n4 = N + 1, N + 2, N + 3, N + 4
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(r * N, n1)
    if n == 2:
        return Fraction(r * (r + 1) * N**2, n1**2) - Fraction(2 * r * N, n2)
    if n == 3:
        return (
            Fraction(r * (r + 1) * (r + 2) * N**3, n1**3)
            - Fraction(6 * r * (r + 1) * N**2, n1 * n2)
            + Fraction(6 * r * N, n3)
        )
    if n == 4:
        return (
            Fraction(r * (r + 1) * (r + 2) * (r + 3) * N**4, n1**4)
            - Fraction(12 * r * (r + 1) * (r + 2) * N**3, n1**2 * n2)
            + Fraction(24 * r * (r + 1) * N**2, n1 * n3)
            + Fraction(12 * r * (r + 1) * N**2, n2**2)
            - Fraction(24 * r * N, n4)
        )
    raise ValueError(f"no closed form for n = {n} (have n = 0 .. 4)")


def _weights(N: int, r: int, n_max: int) -> list[Fraction]:
    """The order-r bands D_r(k), k = 0 .. n_max."""
    return list(weight_D(N, r, n_max).values)


def chor_via_recurrence(N: int, r: int, n_max: int) -> CauchyTable:
    """Reference route for r >= 2: the alternating weight recurrence

        b_n = sum_{l=1..n} (-1)^(l-1) D_r(l) b_(n-l),    b_0 = 1,

    with c^(r)(N, n) = n! b_n."""
    return _recurrence_table(N, r, n_max, _weights)


def chor_via_determinant(N: int, r: int, n_max: int) -> CauchyTable:
    """n! times the Hessenberg determinant over weight bands D_r(1) .. D_r(n)."""
    return _determinant_table(N, r, n_max, _weights)


def chor_via_explicit(
    N: int, r: int, n_max: int, cap: int | None = STRICT_COMPOSITION_CAP
) -> CauchyTable:
    """Exhaustive signed sum over strict compositions with weight products:

        c^(r)(N, n) = n! sum_{k=1..n} (-1)^(n-k)
                      sum over compositions (e_1, .., e_k) of n
                      of D_r(e_1) .. D_r(e_k).
    """
    return _composition_table(N, r, n_max, _weights, cap, "explicit")


def chor_via_trudi(
    N: int, r: int, n_max: int, cap: int | None = PARTITION_CAP
) -> CauchyTable:
    """Partition-multiset expansion of the weight-band determinant."""
    return _trudi_table(N, r, n_max, _weights, cap)


def chor_via_convolution(N: int, r: int, n_max: int) -> CauchyTable:
    """r-fold product of first-order tables, coefficientwise:

        c^(r)(N, n) = sum over (n_1, .., n_r) >= 0 with n_1+..+n_r = n
                      of n!/(n_1! .. n_r!) c(N, n_1) .. c(N, n_r),

    realized as the r-th power of the normalized first-order series. Never
    touches the weights D_r, so it cross-checks the other four routes.
    """
    _check_parameters(N, n_max, r)
    powered = TruncatedSeries(tuple(c_via_series(N, n_max).normalized())).power(r)
    return CauchyTable.from_normalized(N, r, powered.coefficients, "convolution")


Route = namedtuple("Route", ("compute", "cap", "any_order"))
Route.__doc__ = """One ``--method``: its route ``compute(N, r, n_max, cap)``
returning a :class:`~hgcauchy.cauchy.CauchyTable`, its safety cap (an int or
None) and whether it takes r > 1."""


# method -> Route in the order of cauchy.METHODS. A route is called as
# (N, r, n_max, cap) and looks its function up by module-level name when
# called, so a function rebound on its module is the one that runs.
ROUTES = {
    "series": Route(lambda N, r, n, c: c_via_series(N, n), None, False),
    "recurrence": Route(lambda N, r, n, c: chor_via_recurrence(N, r, n), None, True),
    "determinant": Route(lambda N, r, n, c: chor_via_determinant(N, r, n), None, True),
    "compositions": Route(
        lambda N, r, n, c: c_via_compositions(N, n, c), STRICT_COMPOSITION_CAP, False
    ),
    "trudi": Route(lambda N, r, n, c: chor_via_trudi(N, r, n, c), PARTITION_CAP, True),
    "explicit": Route(
        lambda N, r, n, c: chor_via_explicit(N, r, n, c), STRICT_COMPOSITION_CAP, True
    ),
    "convolution": Route(lambda N, r, n, c: chor_via_convolution(N, r, n), None, True),
}


def D_inversion(N: int, r: int, n_max: int) -> VerificationReport:
    """Inversion pair between normalized tables and weights.

    Checks, for every n <= n_max:

    * determinant half: det over bands c^(r)(N, k)/k! equals D_r(n);
    * inverse-band half: the unit lower-triangular Toeplitz inverse of the
      normalized-value bands has gamma_k = (-1)^k D_r(k).

    Reports the first failing n, naming which half failed.
    """
    _check_parameters(N, n_max, r)
    point = (N, r, n_max)
    d = _weights(N, r, n_max)
    b = _recurrence_table(N, r, n_max, lambda *_: d).normalized()[1:]
    dets = determinant_sequence(1, b)
    gamma = unit_lower_toeplitz_inverse(b)
    for half in (
        check(
            "inversion/weight-recovery/determinant",
            point,
            ((n, d[n], dets[n]) for n in range(1, n_max + 1)),
        ),
        check(
            "inversion/weight-recovery/inverse-bands",
            point,
            ((k, (-1) ** k * d[k], gamma[k - 1]) for k in range(1, n_max + 1)),
        ),
    ):
        if not half.ok:
            return half
    return passed("inversion/weight-recovery", point)
