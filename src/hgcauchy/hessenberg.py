"""Toeplitz lower-Hessenberg determinants in exact arithmetic.

The matrix family handled here has a constant superdiagonal entry ``a_0``, a
Toeplitz lower triangle with bands ``a_1 .. a_n`` (``a_1`` on the main
diagonal, ``a_k`` on the k-th subdiagonal), and zeros above the superdiagonal.
Expanding along the last column gives the division-free recurrence

    d_0 = 1,   d_k = sum_{l=1..k} (-1)^(l-1) a_0^(l-1) a_l d_(k-l),

so each d_k is the determinant of the leading k x k matrix, and the whole
sequence is one triangular Toeplitz solve (:func:`determinant_sequence`). The
same values have a closed combinatorial expansion over partition multisets
(Trudi's formula), :func:`trudi_sum`, which reads :func:`_trudi_walk`, the
one walk over partitions; it shares no arithmetic with the solve.
:func:`trudi_sequence` and ``cauchy.c_trudi_printed_variant`` read it too,
and :func:`enumerate_partition_multiplicities` is a reference for the tests.
For a_0 = 1, d covers band inversion, done once, in :func:`_inversion_chain`:
from bands R(1..n) it makes alpha = det(R), gamma, the inverse bands of
alpha, and recovered = det(alpha), gamma signed. Every inversion record and
``invert`` read it, so a suite point's three inversion records restate one
comparison, recovered == R as gamma_k == (-1)^k R(k). Over N/(N+k), or
D_r(k), alpha is the normalized table by Glaisher's determinant, which the
``core`` and ``higher`` agreement records check against the two walks.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import _Record, _size, _within_cap
from .report import VerificationReport, check
from .series import _fraction, _fractions, _scaled, toeplitz_solve

__all__ = [
    "PARTITION_CAP",
    "HessenbergSpec",
    "determinant_sequence",
    "hessenberg_det",
    "enumerate_partition_multiplicities",
    "trudi_sequence",
    "trudi_sum",
    "unit_lower_toeplitz_inverse",
]

# p(24) = 1575 multisets; past this the Trudi path refuses unless uncapped.
PARTITION_CAP = 24
# (alpha, recovered, gamma) of one band rule; see _inversion_chain
Chain = tuple[list[Fraction], list[Fraction], list[Fraction]]


class HessenbergSpec(_Record):
    """Size-n spec: entry (i, j) is band[i-j] for i >= j (0-indexed offsets
    into ``band``, so ``band[0]`` is the main diagonal), ``super_entry`` for
    j = i + 1, and 0 further right."""

    __slots__ = ("super_entry", "band")

    def __init__(self, super_entry: Fraction | int, band: Iterable[Fraction | int]):
        self._assign(_fraction(super_entry), _fractions(band))

    @property
    def n(self) -> int:
        return len(self.band)


def _spec(spec) -> HessenbergSpec:
    """``spec`` itself; anything but a HessenbergSpec raises TypeError."""
    if isinstance(spec, HessenbergSpec):
        return spec
    raise TypeError(f"spec must be a HessenbergSpec, got {type(spec).__name__} {spec!r}")


def determinant_sequence(
    super_entry: Fraction, band: Iterable[Fraction]
) -> list[Fraction]:
    """[d_0, d_1, .., d_n]: determinants of all leading specs over ``band``.

    By the band recurrence, D(x) = sum d_k x^k satisfies
    D(x) (1 - sum_l (-a_0)^(l-1) a_l x^l) = 1, so d is one triangular
    Toeplitz solve.
    """
    neg_super = -_fraction(super_entry)
    sign_pow = Fraction(1)
    coefficients = [sign_pow]
    for b in _fractions(band):
        coefficients.append(-sign_pow * b)
        sign_pow *= neg_super
    return toeplitz_solve(coefficients)


def hessenberg_det(spec: HessenbergSpec) -> Fraction:
    """Determinant of the full n x n spec (d_0 = 1 for n = 0)."""
    return determinant_sequence(_spec(spec).super_entry, spec.band)[-1]


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


def _trudi_walk(band: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer accumulators acc[s], s = 0 .. n = len(band), and D, the lcm of
    the band's denominators: acc[s] / D^s sums multinomial(t) prod a_k^(t_k)
    over the multiplicity vectors t of n with sum t = s. One depth-first walk
    visits each t once, parts ascending with t copies each, carrying s, the
    integer multinomial (M <- M*s//t per copy) and the band product over D^s.
    A prefix of largest part k that leaves left < 2(k + 1) for parts > k has
    one completion, the single part left; it gets its own product and add
    inline, so the walk recurses only when left >= 2(k + 1)."""
    n = len(band)
    A, den = _scaled(band)
    acc = [int(n == 0)] + [0] * n  # the empty partition of 0

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
                elif left >= 2 * k + 2:
                    extend(k + 1, left, sk, ck, pk)
                elif left > k:
                    # parts > k fill left < 2(k + 1) only as the one part left
                    acc[sk + 1] += ck * (sk + 1) * pk * A[left - 1]

    extend(1, n, 0, 1, 1)
    return acc, den


def trudi_sum(spec: HessenbergSpec, cap: int | None = PARTITION_CAP) -> Fraction:
    """Determinant of ``spec`` by the partition-multiset expansion (Trudi):

        d_n = sum over (t_1..t_n) with sum k*t_k = n of
              multinomial(t) * (-a_0)^(n - sum t) * prod a_k^(t_k),

    the :func:`_trudi_walk` accumulators times (-a_0)^(n - s), one Fraction;
    exponential in n, hence the cap, checked before any work."""
    n = _spec(spec).n
    _within_cap("partition multiset enumeration", n, cap)
    acc, den = _trudi_walk(spec.band)
    p, q = (-spec.super_entry).as_integer_ratio()
    # sum_s acc[s] p^(n-s) / (q^(n-s) D^s), all over (q D)^n
    num = sum(c * p ** (n - s) * q**s * den ** (n - s) for s, c in enumerate(acc))
    return Fraction(num, (q * den) ** n)


def trudi_sequence(
    super_entry: Fraction, band: Iterable[Fraction], cap: int | None = PARTITION_CAP
) -> list[Fraction]:
    """[d_0, d_1, .., d_n] by the partition-multiset expansion: one
    :func:`trudi_sum` walk per leading spec over ``band``. The counterpart of
    :func:`determinant_sequence`; the cap is checked before any walk.
    """
    band = _fractions(band)
    _within_cap("partition multiset enumeration", len(band), cap)
    specs = (HessenbergSpec(super_entry, band[:m]) for m in range(len(band) + 1))
    return [trudi_sum(spec, cap) for spec in specs]


def unit_lower_toeplitz_inverse(alpha: Iterable[Fraction]) -> list[Fraction]:
    """Bands gamma_1 .. gamma_n of the inverse of the unit lower-triangular
    Toeplitz matrix with subdiagonal bands alpha_1 .. alpha_n:

        gamma_0 = 1,   gamma_k = -sum_{j=1..k} alpha_j gamma_(k-j).
    """
    return toeplitz_solve((Fraction(1),) + _fractions(alpha))[1:]


def _inversion_chain(rule: Sequence[Fraction]) -> Chain:
    """alpha_n = det over R(1..n), recovered_n = det over alpha_1..alpha_n
    (== R(n)) and gamma, the inverse bands of alpha (== (-1)^k R(k)). With
    A(x) = 1 + sum alpha_k x^k, recovered solves A(-x) and gamma A(x), so
    recovered_k = (-1)^k gamma_k: two solves, not three."""
    alpha = determinant_sequence(1, rule)[1:]
    gamma = unit_lower_toeplitz_inverse(alpha)
    return alpha, [-g if k % 2 else g for k, g in enumerate(gamma, 1)], gamma


def _recovery_record(
    identity: str, point: tuple[int, int, int], rule: Sequence[Fraction], chain: Chain
) -> VerificationReport:
    """The record of recovered_n == R(n) for n = 1 .. len(rule)."""
    return check(identity, point, zip(range(1, len(rule) + 1), rule, chain[1]))


def _signed_bands_record(
    identity: str, point: tuple[int, int, int], rule: Sequence[Fraction], chain: Chain
) -> VerificationReport:
    """The record of gamma_k == (-1)^k R(k) for k = 1 .. len(rule)."""
    signed = ((-1) ** k * v for k, v in enumerate(rule, 1))
    return check(identity, point, zip(range(1, len(rule) + 1), signed, chain[2]))
