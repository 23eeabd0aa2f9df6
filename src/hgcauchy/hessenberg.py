"""Toeplitz lower-Hessenberg determinants in exact arithmetic.

The matrix family handled here has a constant superdiagonal entry ``a_0``, a
Toeplitz lower triangle with bands ``a_1 .. a_n`` (``a_1`` on the main
diagonal, ``a_k`` on the k-th subdiagonal), and zeros above the superdiagonal.
Expanding along the last column gives the division-free recurrence

    d_0 = 1,   d_k = sum_{l=1..k} (-1)^(l-1) a_0^(l-1) a_l d_(k-l),

so each d_k is the determinant of the leading k x k matrix, and the whole
sequence is one triangular Toeplitz solve (:func:`determinant_sequence`). The
same values have a closed combinatorial expansion over partition multisets
(Trudi's formula), :func:`trudi_sum`: one depth-first walk over the
partitions of n that shares its prefix products in integers and shares no
arithmetic with the solve; :func:`trudi_sequence` runs it for every leading
spec. For a_0 = 1, d covers band inversion of unit lower-triangular Toeplitz
matrices. The routes are cross-checked in the verification suites.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction

from .errors import _integer, _Record, _size, _within_cap
from .report import VerificationReport, check
from .series import _fraction, _scaled, toeplitz_solve

__all__ = [
    "PARTITION_CAP",
    "HessenbergSpec",
    "determinant_sequence",
    "hessenberg_det",
    "enumerate_partition_multiplicities",
    "trudi_sequence",
    "trudi_sum",
    "unit_lower_toeplitz_inverse",
    "determinant_inversion_roundtrip",
]

# p(24) = 1575 multisets; past this the Trudi path refuses unless uncapped.
PARTITION_CAP = 24


class HessenbergSpec(_Record):
    """Size-n spec: entry (i, j) is band[i-j] for i >= j (0-indexed offsets
    into ``band``, so ``band[0]`` is the main diagonal), ``super_entry`` for
    j = i + 1, and 0 further right."""

    __slots__ = ("super_entry", "band")

    def __init__(self, super_entry: Fraction | int, band: Iterable[Fraction | int]):
        self._assign(_fraction(super_entry), tuple(map(_fraction, band)))

    @property
    def n(self) -> int:
        return len(self.band)

    def matrix(self) -> list[list[Fraction]]:
        """The explicit dense matrix; intended for small-n cross-checks."""
        zero = Fraction(0)
        m = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                if j == i + 1:
                    row.append(self.super_entry)
                elif j <= i:
                    row.append(self.band[i - j])
                else:
                    row.append(zero)
            m.append(row)
        return m


def determinant_sequence(
    super_entry: Fraction, band: Sequence[Fraction]
) -> list[Fraction]:
    """[d_0, d_1, .., d_n]: determinants of all leading specs over ``band``.

    By the band recurrence, D(x) = sum d_k x^k satisfies
    D(x) (1 - sum_l (-a_0)^(l-1) a_l x^l) = 1, so d is one triangular
    Toeplitz solve.
    """
    neg_super = -_fraction(super_entry)
    sign_pow = Fraction(1)
    coefficients = [sign_pow]
    for b in band:
        coefficients.append(-sign_pow * _fraction(b))
        sign_pow *= neg_super
    return toeplitz_solve(coefficients)


def hessenberg_det(spec: HessenbergSpec) -> Fraction:
    """Determinant of the full n x n spec (d_0 = 1 for n = 0)."""
    return determinant_sequence(spec.super_entry, spec.band)[-1]


_partition_memo: dict[int, tuple[tuple[int, ...], ...]] = {}


def enumerate_partition_multiplicities(
    m: int, cap: int | None = PARTITION_CAP
) -> tuple[tuple[int, ...], ...]:
    """Multiplicity vectors (t_1, .., t_m) with sum k*t_k = m, lexicographic.

    Results are memoized per m while m stays within the cap; beyond the cap a
    :class:`CapExceeded` is raised unless ``cap=None``.
    """
    _size(m, "m")
    _within_cap("partition multiset enumeration", m, cap)
    if m in _partition_memo:
        return _partition_memo[m]

    out: list[tuple[int, ...]] = []
    vector = [0] * m

    def fill(k: int, remaining: int) -> None:
        if k > m:
            if remaining == 0:
                out.append(tuple(vector))
            return
        if remaining == 0:
            # all later multiplicities stay 0
            out.append(tuple(vector))
            return
        for t in range(remaining // k + 1):
            vector[k - 1] = t
            fill(k + 1, remaining - k * t)
        vector[k - 1] = 0

    fill(1, m)
    result = tuple(out)
    if m <= PARTITION_CAP:
        _partition_memo[m] = result
    return result


def trudi_sum(spec: HessenbergSpec, cap: int | None = PARTITION_CAP) -> Fraction:
    """Determinant of ``spec`` by the partition-multiset expansion (Trudi):

        d_n = sum over (t_1..t_n) with sum k*t_k = n of
              multinomial(t) * (-a_0)^(n - sum t) * prod a_k^(t_k).

    One depth-first walk visits every multiplicity vector of n once, taking
    the parts in ascending order with t copies of each, and carries three
    running values: s = sum t, the integer multinomial (M <- M*s//t per
    added copy) and the integer band product over D^s, D the lcm of the
    band's denominators. One integer accumulator per s collects the terms;
    (-a_0)^(n - s) is applied at the end and the sum becomes one Fraction.
    Agrees with :func:`hessenberg_det`; exponential in n, hence the cap,
    checked before any work.
    """
    n = spec.n
    _within_cap("partition multiset enumeration", n, cap)
    A, den = _scaled(list(spec.band))
    acc = [0] * (n + 1)

    def extend(first: int, rest: int, s: int, coeff: int, product: int) -> None:
        # rest is still to be filled with parts >= first
        for k in range(first, rest + 1):
            sk, ck, pk = s, coeff, product
            for t in range(1, rest // k + 1):
                sk += 1
                ck = ck * sk // t
                pk *= A[k - 1]
                left = rest - k * t
                if left == 0:
                    acc[sk] += ck * pk
                elif left > k:
                    extend(k + 1, left, sk, ck, pk)

    if n == 0:
        acc[0] = 1
    extend(1, n, 0, 1, 1)
    neg_super = -spec.super_entry
    p, q = neg_super.numerator, neg_super.denominator
    # sum_s acc[s] p^(n-s) / (q^(n-s) D^s), all over (q D)^n
    num = sum(c * p ** (n - s) * q**s * den ** (n - s) for s, c in enumerate(acc))
    return Fraction(num, (q * den) ** n)


def trudi_sequence(
    super_entry: Fraction, band: Sequence[Fraction], cap: int | None = PARTITION_CAP
) -> list[Fraction]:
    """[d_0, d_1, .., d_n] by the partition-multiset expansion: one
    :func:`trudi_sum` walk per leading spec over ``band``. The counterpart of
    :func:`determinant_sequence`; the cap is checked before any walk.
    """
    n = len(band)
    _within_cap("partition multiset enumeration", n, cap)
    return [
        trudi_sum(HessenbergSpec(super_entry, band[:m]), cap) for m in range(n + 1)
    ]


def unit_lower_toeplitz_inverse(
    alpha: Sequence[Fraction], n: int | None = None
) -> list[Fraction]:
    """Bands gamma_1 .. gamma_n of the inverse of the unit lower-triangular
    Toeplitz matrix with subdiagonal bands alpha_1 .. alpha_n:

        gamma_0 = 1,   gamma_k = -sum_{j=1..k} alpha_j gamma_(k-j).

    ``n`` defaults to the band count and otherwise must match it.
    """
    a = [Fraction(v) for v in alpha]
    if n is not None and _integer(n, "n") != len(a):
        raise ValueError(f"alpha has {len(a)} bands, n = {n} given")
    return toeplitz_solve([Fraction(1)] + a)[1:]


def determinant_inversion_roundtrip(
    rule: Callable[[int], Fraction] | Sequence[Fraction],
    n_max: int,
    identity: str = "determinant-inversion-roundtrip",
    point: tuple[int, int, int] | None = None,
) -> VerificationReport:
    """Feed R(1..n) through the determinant and back.

    With alpha_n = det of the unit-superdiagonal spec over bands R(1..n), the
    determinant over bands alpha_1..alpha_n must return R(n). Checks every
    n <= n_max and reports the first failure with both exact values.
    """
    n_max = _size(n_max, "n_max")
    if callable(rule):
        values = [Fraction(rule(k)) for k in range(1, n_max + 1)]
    else:
        values = [Fraction(v) for v in rule[:n_max]]
        if len(values) < n_max:
            raise ValueError(f"rule supplies {len(values)} terms, need {n_max}")
    if point is None:
        point = (0, 0, n_max)
    alpha = determinant_sequence(1, values)[1:]
    recovered = determinant_sequence(1, alpha)[1:]
    return check(identity, point, zip(range(1, n_max + 1), values, recovered))
