"""Truncated formal power series over exact rationals.

Coefficients are ``fractions.Fraction`` throughout; every operation is exact.
A series always carries its truncation order, and a binary operation truncates
its result to the smaller order of the two operands.

Products and reciprocals go through two kernels, :func:`_convolve` and
:func:`toeplitz_solve`. Each scales its left operand (the product's ``a``,
the solve's input) once to integers over their common denominator, and keeps
the other side (the product's ``b``, the solve's outputs) as integers over
the running lcm of its denominators. Every dot product is then one Horner
sum in plain integers (:func:`_horner`), reduced once per output coefficient
(delayed normalization), instead of paying a gcd for each term the way a
running ``Fraction`` sum does. A term is only as wide as the denominators
met so far. Every triangular Toeplitz solve in the package (series
reciprocal, determinant recurrence, band inversion, the recurrence routes)
is a call to :func:`toeplitz_solve`.

The divided-power derivative implemented here sends x^m to C(m, n) x^(m-n)
(no factorial in front), which is the convenient normalization when formulas
are phrased in terms of plain coefficient extraction: taking the derivative of
order i and evaluating at 0 reads off coefficient i.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import comb, gcd, lcm

from .errors import OrderExceeded, ZeroConstantTerm, _integer, _Record, _size

__all__ = [
    "TruncatedSeries",
    "log1p_series",
    "cameron_transform",
    "cameron_inverse",
]


class TruncatedSeries(_Record):
    """Coefficients c_0 .. c_order of a series known modulo x^(order+1)."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[Fraction | int]):
        coefficients = tuple(map(_fraction, coefficients))
        if not coefficients:
            raise ValueError("a series needs at least its constant coefficient")
        self._assign(coefficients)

    @classmethod
    def from_coefficients(
        cls, coefficients: Iterable[Fraction | int], order: int | None = None
    ) -> "TruncatedSeries":
        """Build a series, zero-padding or truncating to ``order`` if given."""
        coeffs = list(coefficients)
        if order is not None:
            _size(order, "order")
            coeffs = coeffs[: order + 1]
            coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        return cls(tuple(coeffs))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.from_coefficients([1], order=order)

    def __str__(self) -> str:
        return " ".join(map(str, self.coefficients))

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= _integer(k, "k") <= self.order:
            raise IndexError(f"coefficient {k} of a series of order {self.order}")
        return self.coefficients[k]

    def truncate(self, order: int) -> "TruncatedSeries":
        if _integer(order, "order") > self.order:
            raise OrderExceeded(
                f"cannot extend a series of order {self.order} to order {order}"
            )
        return TruncatedSeries(self.coefficients[: order + 1])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return TruncatedSeries(
            tuple(
                self.coefficients[k] + other.coefficients[k]
                for k in range(order + 1)
            )
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coefficients))

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return TruncatedSeries(_convolve(self.coefficients, other.coefficients))
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return TruncatedSeries(tuple(c * other for c in self.coefficients))
        return NotImplemented

    __rmul__ = __mul__

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse to the same order.

        Raises :class:`ZeroConstantTerm` when the constant coefficient is 0.
        """
        if self.coefficients[0] == 0:
            raise ZeroConstantTerm("series has no reciprocal: constant term is 0")
        return TruncatedSeries(tuple(toeplitz_solve(self.coefficients)))

    def power(self, exponent: int) -> "TruncatedSeries":
        """Repeated product; ``exponent`` must be a non-negative integer."""
        _size(exponent, "exponent")
        if exponent == 0:
            return TruncatedSeries.one(self.order)
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result

    def ht_derivative(self, n: int) -> "TruncatedSeries":
        """Divided-power derivative of order ``n``: x^m -> C(m, n) x^(m-n).

        The result order drops to ``order - n``; asking for ``n > order``
        raises :class:`OrderExceeded`.
        """
        if _size(n, "n") > self.order:
            raise OrderExceeded(
                f"derivative of order {n} of a series of order {self.order}"
            )
        return TruncatedSeries(
            tuple(
                comb(m, n) * self.coefficients[m]
                for m in range(n, self.order + 1)
            )
        )


def _fraction(value) -> Fraction:
    """``value`` as a Fraction: the one coercion of exact values. Only an int
    (not a bool) or a Fraction is exact; anything else raises TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(
        f"an exact value must be an int or a Fraction, "
        f"got {type(value).__name__} {value!r}"
    )


def _scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers V and D with values[j] == V[j] / D, D the lcm of denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _over_running_lcm(value: Fraction, L: int) -> tuple[int, int, int]:
    """Numerator Z, growth g and denominator L*g with value == Z / (L*g),
    where L*g = lcm(L, denominator of ``value``)."""
    den = value.denominator
    grow = den // gcd(L, den)
    L *= grow
    return value.numerator * (L // den), grow, L


def _horner(grow: Iterable[int], Z: Iterable[int], coeffs: Iterable[int]) -> int:
    """acc = acc * grow[j] + coeffs[j] * Z[j] over the shortest of the three:
    the integer numerator of sum_j coeffs[j] * Z[j] / M_j over the last M_j,
    when each Z[j] / M_j is kept over a running lcm M_j = M_(j-1) * grow[j]."""
    acc = 0
    for g, z, coeff in zip(grow, Z, coeffs):
        acc = acc * g + coeff * z
    return acc


def _convolve(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """Coefficients 0 .. min(len(a), len(b)) - 1 of the product of the series
    with coefficients ``a`` and ``b``.

    ``a`` is scaled once to integers A over Da = lcm(denominators). ``b`` is
    kept over its running lcm: b_j = Z_j / M_j, M_j the lcm of the
    denominators of b_0 .. b_j, with growth g_j = M_j / M_(j-1). Coefficient
    k is the Horner sum acc = acc * g_j + A[k-j] * Z_j for j = 0 .. k, over
    Da * M_k, reduced once. Each term is only as wide as the denominators of
    b met so far, not as wide as those of all of b.
    """
    size = min(len(a), len(b))
    A, da = _scaled(a[:size])
    Z, grow, M = [], [], []
    L = 1
    for v in b[:size]:
        z, g, L = _over_running_lcm(v, L)
        Z.append(z)
        grow.append(g)
        M.append(L)
    return [Fraction(_horner(grow, Z, A[k::-1]), da * M[k]) for k in range(size)]


def toeplitz_solve(a: Sequence[Fraction]) -> list[Fraction]:
    """Solve the unit-step triangular Toeplitz system of the series ``a``:
    the list ``out`` with (sum a_j x^j)(sum out_k x^k) = 1 modulo x^len(a).

    ``a[0]`` must be nonzero. The inputs are scaled once to integers A over
    Da = lcm(denominators), so out_k = -(sum_{j=1..k} A_j out_(k-j)) / A_0.
    Output k is kept as an integer numerator Y[k] over L_k, the running lcm
    of the output denominators, with the growth factor m[k] = L_k / L_(k-1).
    A dot product over L_(k-1) then needs no division: in Horner form,
    acc = acc * m[i] + A[k-i] * Y[i] for i = 0 .. k-1 (:func:`_horner`, the
    step of the products too). One Fraction, and so one gcd of large
    integers, is built per coefficient.
    """
    if not a:
        return []
    A, da = _scaled(a)
    a0 = A[0]
    out = []
    Y, m = [], []
    L = 1
    for k in range(len(A)):
        rhs = da if k == 0 else -_horner(m, Y, A[k:0:-1])
        value = Fraction(rhs, a0 * L)
        out.append(value)
        y, grow, L = _over_running_lcm(value, L)
        Y.append(y)
        m.append(grow)
    return out


def log1p_series(order: int) -> TruncatedSeries:
    """log(1 + x) to the given order: x - x^2/2 + x^3/3 - ..."""
    _size(order, "order")
    coeffs = [Fraction(0)]
    for k in range(1, order + 1):
        coeffs.append(Fraction((-1) ** (k - 1), k))
    return TruncatedSeries(tuple(coeffs))


def cameron_transform(x_seq: Sequence[Fraction]) -> list[Fraction]:
    """Sequence transform defined by 1 + sum z_n t^n = (1 - sum x_n t^n)^(-1).

    ``x_seq`` lists x_1 .. x_m; the result lists z_1 .. z_m.
    """
    base = TruncatedSeries(tuple([Fraction(1)] + [-_fraction(v) for v in x_seq]))
    return list(base.reciprocal().coefficients[1:])


def cameron_inverse(z_seq: Sequence[Fraction]) -> list[Fraction]:
    """Inverse transform: recover x_1 .. x_m from z_1 .. z_m."""
    full = TruncatedSeries(tuple([Fraction(1)] + list(z_seq)))
    return [-c for c in full.reciprocal().coefficients[1:]]
