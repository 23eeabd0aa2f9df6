"""Higher-order hypergeometric Cauchy numbers c^(r)(N, n).

The order-r family is defined by the r-th power of the first-order generating
relation: (1/F_N(x))^r = sum_n c^(r)(N, n) x^n/n!. The combinatorial engine
is the weight

    D_r(e) = sum over (i_1, .., i_r) >= 0 with i_1+..+i_r = e
             of N^r / ((N+i_1) .. (N+i_r)),

the e-th coefficient of (sum_j N/(N+j) x^j)^r, so F_N(x)^r has coefficients
(-1)^e D_r(e). Four of the five order-r routes below are one-line entries
over the computations of :mod:`hgcauchy.cauchy` on the bands D_r(k), so at
r = 1 each returns the first-order table: ``recurrence`` and ``determinant``
are two names of one body, the Toeplitz solve of Glaisher's determinant,
``explicit`` reaches the composition walk and ``trudi`` the Trudi walk.
``convolution`` takes F_N^(-r) straight from the coefficients of F_N by
Miller's recurrence (:func:`~hgcauchy.series._power_by_recurrence`): it runs
no solve, and never touches the weights, nor the square-and-multiply power
that builds them. At r = 1 it is a second implementation of the band
recurrence, not the solve.
``higher/method-agreement`` in :mod:`hgcauchy.verify` compares the four
computations, one route each, at every r from 1 against ``recurrence``, so
the solve is checked against three computations that do not run it.
:data:`ROUTES`, the one table of the seven ``--method`` names, lives here,
in the one module that imports both route families.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import comb

from .cauchy import (
    CauchyTable,
    _check_parameters,
    _composition_table,
    _ratios,
    _solve_table,
    _table_values,
    _trudi_table,
    c_via_compositions,
    c_via_series,
    hgc_generating_series,
)
from .combinat import STRICT_COMPOSITION_CAP, weak_composition_sum
from .errors import _integer, _Record, _size
from .hessenberg import (
    PARTITION_CAP,
    Chain,
    _inversion_chain,
    _recovery_record,
    _signed_bands_record,
)
from .report import VerificationReport, passed
from .series import TruncatedSeries, _power_by_recurrence

__all__ = [
    "WeightTable",
    "weight_D",
    "weight_D_by_enumeration",
    "weight_reference_form",
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
    """Exact weights D_r(e) for e = 0 .. len(values) - 1 at a fixed (N, r)."""

    __slots__ = ("N", "r", "values")

    def __init__(self, N: int, r: int, values: Iterable[Fraction | int]):
        self._assign(N, r, _table_values(N, r, values))


def weight_D(N: int, r: int, e_max: int) -> WeightTable:
    """Weights via the r-fold self-convolution of the ratio sequence N/(N+j)."""
    _check_parameters(N, 0, r)
    _size(e_max, "e_max")
    powered = TruncatedSeries(tuple(_ratios(N, 1, e_max))).power(r)
    return WeightTable(N, r, powered.coefficients)


def weight_D_by_enumeration(N: int, r: int, e_max: int) -> list[Fraction]:
    """Brute-force definition of D_r(e): N^r times the sum over weak
    compositions of e into r parts of the products of the weights 1/(N+i),
    walked by :func:`~hgcauchy.combinat.weak_composition_sum`.

    Exponential in e and r; kept as the independent cross-check for
    :func:`weight_D`.
    """
    _check_parameters(N, 0, r)
    _size(e_max, "e_max")
    w = [Fraction(1, N + i) for i in range(e_max + 1)]
    return [N**r * weak_composition_sum(w, e, r)[r] for e in range(e_max + 1)]


def weight_reference_form(N: int, r: int, e: int) -> Fraction:
    """Small-e closed forms for D_r(e) grouped by nonzero part multiset,
    transcribed verbatim from the tabulation this package cross-checks.

    The e = 4 form as printed carries a slip in its pair-of-twos term,
    N^2/(N+1)^2 where the definition requires N^2/(N+2)^2; the tests check
    the repaired form against :func:`weight_D`. All other forms are exact.
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
        return (
            Fraction(r * N, n4)
            + Fraction(r * (r - 1) * N**2, n1 * n3)
            + comb(r, 2) * Fraction(N**2, n1**2)
            + r * comb(r - 1, 2) * Fraction(N**3, n1**2 * n2)
            + comb(r, 4) * Fraction(N**4, n1**4)
        )
    raise ValueError(f"no reference form for e = {e} (have e = 1 .. 4)")


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
    return _solve_table(N, r, n_max, _weights)


def chor_via_determinant(N: int, r: int, n_max: int) -> CauchyTable:
    """n! times the Hessenberg determinant over weight bands D_r(1) .. D_r(n)."""
    return _solve_table(N, r, n_max, _weights)


def chor_via_explicit(
    N: int, r: int, n_max: int, cap: int | None = STRICT_COMPOSITION_CAP
) -> CauchyTable:
    """Exhaustive signed sum over strict compositions with weight products:

        c^(r)(N, n) = n! sum_{k=1..n} (-1)^(n-k)
                      sum over compositions (e_1, .., e_k) of n
                      of D_r(e_1) .. D_r(e_k).
    """
    return _composition_table(N, r, n_max, _weights, cap)


def chor_via_trudi(
    N: int, r: int, n_max: int, cap: int | None = PARTITION_CAP
) -> CauchyTable:
    """Partition-multiset expansion of the weight-band determinant."""
    return _trudi_table(N, r, n_max, _weights, cap)


def chor_via_convolution(N: int, r: int, n_max: int) -> CauchyTable:
    """r-fold product of first-order tables, coefficientwise:

        c^(r)(N, n) = sum over (n_1, .., n_r) >= 0 with n_1+..+n_r = n
                      of n!/(n_1! .. n_r!) c(N, n_1) .. c(N, n_r),

    realized as the (-r)-th power of the Gauss series F_N itself,
    (1/F_N)^r, taken by Miller's recurrence
    (:func:`~hgcauchy.series._power_by_recurrence`) from the coefficients
    (-1)^j N/(N+j) and scaled once. Runs no solve of F_N, and never touches
    the weights D_r nor the square-and-multiply power that builds them, so
    it cross-checks the other four routes.
    """
    _check_parameters(N, n_max, r)
    F = hgc_generating_series(N, n_max).coefficients
    return CauchyTable.from_normalized(N, r, _power_by_recurrence(F, -r))


Route = namedtuple("Route", ("compute", "cap", "any_order"))
Route.__doc__ = """One ``--method``: its route ``compute(N, r, n_max, cap)``
returning a :class:`~hgcauchy.cauchy.CauchyTable`, its safety cap (an int or
None) and whether it takes r > 1."""


# method -> Route, in the order of the --method choices. A route is called
# as (N, r, n_max, cap) and looks its function up by module-level name when
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


def _weight_recovery(
    point: tuple[int, int, int], rule: Sequence[Fraction], chain: Chain
) -> VerificationReport:
    """D_inversion's record of one inversion chain: its first failing half."""
    name = "inversion/weight-recovery"
    halves = (
        _recovery_record(f"{name}/determinant", point, rule, chain),
        _signed_bands_record(f"{name}/inverse-bands", point, rule, chain),
    )
    return next((half for half in halves if not half.ok), passed(name, point))


def D_inversion(N: int, r: int, n_max: int) -> VerificationReport:
    """Inversion pair between normalized tables and weights.

    Checks, for every n <= n_max:

    * determinant half: det over bands c^(r)(N, k)/k! equals D_r(n);
    * inverse-band half: the unit lower-triangular Toeplitz inverse of the
      normalized-value bands has gamma_k = (-1)^k D_r(k).

    Reports the first failing n, naming which half failed. Both halves read
    the inversion chain of D_r(1..n_max): its alpha is the normalized table by
    Glaisher's determinant, checked against both walks in ``higher``.
    """
    _check_parameters(N, n_max, r)
    rule = _weights(N, r, n_max)[1:]
    return _weight_recovery((N, r, n_max), rule, _inversion_chain(rule))
