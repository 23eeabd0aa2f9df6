"""Truncated formal power series over exact rationals.

Coefficients are ``fractions.Fraction`` throughout; every operation is exact.
A series always carries its truncation order, and a binary operation truncates
its result to the smaller order of the two operands.

Products and reciprocals go through two kernels, :func:`_convolve` and
:func:`toeplitz_solve`. Both scale their inputs once to integers over a
common denominator, sum every dot product in plain integers, and reduce once
per output coefficient (delayed normalization), instead of paying a gcd for
each term the way a running ``Fraction`` sum does. Every triangular Toeplitz
solve in the package (series reciprocal, determinant recurrence, band
inversion, the recurrence routes) is a call to :func:`toeplitz_solve`.

The divided-power derivative implemented here sends x^m to C(m, n) x^(m-n)
(no factorial in front), which is the convenient normalization when formulas
are phrased in terms of plain coefficient extraction: taking the derivative of
order i and evaluating at 0 reads off coefficient i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import OrderExceeded, ZeroConstantTerm

__all__ = [
    "TruncatedSeries",
    "log1p_series",
    "cameron_transform",
    "cameron_inverse",
]


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0 .. c_order of a series known modulo x^(order+1)."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(
            self, "coefficients", tuple(map(_fraction, self.coefficients))
        )

    @classmethod
    def from_coefficients(
        cls, coefficients: Iterable[Fraction | int], order: int | None = None
    ) -> "TruncatedSeries":
        """Build a series, zero-padding or truncating to ``order`` if given."""
        coeffs = list(coefficients)
        if order is not None:
            if order < 0:
                raise ValueError("order must be non-negative")
            coeffs = coeffs[: order + 1]
            coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        return cls(tuple(coeffs))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.from_coefficients([1], order=order)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} of a series of order {self.order}")
        return self.coefficients[k]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise OrderExceeded(
                f"cannot extend a series of order {self.order} to order {order}"
            )
        return TruncatedSeries(self.coefficients[: order + 1])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
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
        if isinstance(other, (int, Fraction)):
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
        if exponent < 0:
            raise ValueError("negative powers go through reciprocal() explicitly")
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
        if n < 0:
            raise ValueError("derivative order must be non-negative")
        if n > self.order:
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
    """``value`` if it is a Fraction already, else ``Fraction(value)``."""
    return value if isinstance(value, Fraction) else Fraction(value)


def _scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers V and D with values[j] == V[j] / D, D the lcm of denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _convolve(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """Coefficients 0 .. min(len(a), len(b)) - 1 of the product of the series
    with coefficients ``a`` and ``b``.

    Each coefficient is an integer dot product over the denominator Da*Db,
    reduced once.
    """
    size = min(len(a), len(b))
    A, da = _scaled(a[:size])
    B, db = _scaled(b[:size])
    den = da * db
    return [Fraction(sum(map(mul, A[: k + 1], B[k::-1])), den) for k in range(size)]


def toeplitz_solve(a: Sequence[Fraction]) -> list[Fraction]:
    """Solve the unit-step triangular Toeplitz system of the series ``a``:
    the list ``out`` with (sum a_j x^j)(sum out_k x^k) = 1 modulo x^len(a).

    ``a[0]`` must be nonzero. The inputs are scaled once to integers A over
    Da = lcm(denominators), so out_k = -(sum_{j=1..k} A_j out_(k-j)) / A_0.
    Output k is kept as an integer numerator Y[k] over L_k, the running lcm
    of the output denominators, with the growth factor m[k] = L_k / L_(k-1).
    A dot product over L_(k-1) then needs no division: in Horner form,
    acc = acc * m[i] + A[k-i] * Y[i] for i = 0 .. k-1. One Fraction, and so
    one gcd of large integers, is built per coefficient.
    """
    if not a:
        return []
    A, da = _scaled(a)
    a0 = A[0]
    first = Fraction(da, a0)
    out = [first]
    Y = [first.numerator]
    m = [1]
    L = first.denominator
    for k in range(1, len(A)):
        acc = 0
        for grow, y, coeff in zip(m, Y, A[k:0:-1]):
            acc = acc * grow + coeff * y
        value = Fraction(-acc, a0 * L)
        out.append(value)
        g = gcd(L, value.denominator)
        Y.append(value.numerator * (L // g))
        grow = value.denominator // g
        m.append(grow)
        L *= grow
    return out


def log1p_series(order: int) -> TruncatedSeries:
    """log(1 + x) to the given order: x - x^2/2 + x^3/3 - ..."""
    if order < 0:
        raise ValueError("order must be non-negative")
    coeffs = [Fraction(0)]
    for k in range(1, order + 1):
        coeffs.append(Fraction((-1) ** (k - 1), k))
    return TruncatedSeries(tuple(coeffs))


def cameron_transform(x_seq: Sequence[Fraction]) -> list[Fraction]:
    """Sequence transform defined by 1 + sum z_n t^n = (1 - sum x_n t^n)^(-1).

    ``x_seq`` lists x_1 .. x_m; the result lists z_1 .. z_m.
    """
    base = TruncatedSeries(tuple([Fraction(1)] + [-Fraction(v) for v in x_seq]))
    return list(base.reciprocal().coefficients[1:])


def cameron_inverse(z_seq: Sequence[Fraction]) -> list[Fraction]:
    """Inverse transform: recover x_1 .. x_m from z_1 .. z_m."""
    full = TruncatedSeries(tuple([Fraction(1)] + list(z_seq)))
    return [-c for c in full.reciprocal().coefficients[1:]]
