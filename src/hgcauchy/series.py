"""Truncated formal power series over exact rationals.

Coefficients are ``fractions.Fraction`` throughout; every operation is exact.
A series always carries its truncation order, and a product truncates to the
smaller order of its two factors. The operations are the ones the package
runs: product, reciprocal, power and the divided-power derivative.

Products, reciprocals and powers go through three kernels: :func:`_convolve`,
:func:`toeplitz_solve` and :func:`_power_by_recurrence` (J.C.P. Miller's
power recurrence). Each scales its left operand (the product's ``a``, the
solve's and the power's input) once to integers over their common
denominator, and keeps the other side (the product's ``b``, the outputs of
the solve and of the power) as integers over the running lcm of its
denominators. Every dot product is then one Horner sum in plain integers
(:func:`_horner`), reduced once per output coefficient (delayed
normalization), instead of paying a gcd for each term the way a running
``Fraction`` sum does. A term is only as wide as the denominators
met so far. Every triangular Toeplitz solve in the package (series
reciprocal, the determinant recurrence behind the recurrence and
determinant routes, band inversion) is a call to :func:`toeplitz_solve`.
:meth:`TruncatedSeries.power` takes square-and-multiply products and builds
the weights of the order-r routes; :func:`_power_by_recurrence` takes one
O(n^2) pass for any integer exponent and serves only the ``convolution``
route, which takes F_N^(-r) from the coefficients of F_N and runs no solve.
So the two powers check each other, and the solve is checked by a route
that does not run it.

The divided-power derivative implemented here sends x^m to C(m, n) x^(m-n)
(no factorial in front), which is the convenient normalization when formulas
are phrased in terms of plain coefficient extraction: taking the derivative of
order i and evaluating at 0 reads off coefficient i.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import islice
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
        coefficients = _fractions(coefficients)
        if not coefficients:
            raise ValueError("a series needs at least its constant coefficient")
        self._assign(coefficients)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((Fraction(1),) + (Fraction(0),) * _size(order, "order"))

    def __str__(self) -> str:
        return " ".join(map(str, self.coefficients))

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= _integer(k, "k") <= self.order:
            raise IndexError(f"coefficient {k} of a series of order {self.order}")
        return self.coefficients[k]

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return TruncatedSeries(_convolve(self.coefficients, other.coefficients))
        return NotImplemented

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse to the same order.

        Raises :class:`ZeroConstantTerm` when the constant coefficient is 0.
        """
        if self.coefficients[0] == 0:
            raise ZeroConstantTerm("series has no reciprocal: constant term is 0")
        return TruncatedSeries(tuple(toeplitz_solve(self.coefficients)))

    def power(self, exponent: int) -> "TruncatedSeries":
        """The ``exponent``-th power, a non-negative integer, by left-to-right
        square-and-multiply: at most 2 log2(exponent) products, each through
        ``__mul__``. Exponents 2 and 3 take s*s and (s*s)*s."""
        _size(exponent, "exponent")
        if exponent == 0:
            return TruncatedSeries.one(self.order)
        result = self
        for bit in bin(exponent)[3:]:
            result = result * result
            if bit == "1":
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


def _fractions(values, stop: int | None = None, start: int = 0) -> tuple:
    """The entries of ``values`` before index ``stop`` (all of them when
    None), read in one pass: the one coercion of exact sequences. Each entry
    from index ``start`` on goes through :func:`_fraction`; an entry before
    ``start`` is kept as given, unread. A ``values`` that is not iterable
    raises TypeError."""
    try:
        entries = iter(values)
    except TypeError:
        raise TypeError(
            f"exact values must be an iterable of ints and Fractions, "
            f"got {type(values).__name__} {values!r}"
        ) from None
    if stop is not None:
        entries = islice(entries, stop)
    return tuple(islice(entries, start)) + tuple(map(_fraction, entries))


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


def _power_by_recurrence(a: Sequence[Fraction], exponent: int) -> list[Fraction]:
    """Coefficients 0 .. len(a) - 1 of the ``exponent``-th power of the
    series ``a``, for any integer exponent r, by J.C.P. Miller's recurrence
    (Knuth, TAOCP Vol. 2, 4.7): P_0 = a_0^r and
    k a_0 P_k = sum_{j=1..k} ((r+1) j - k) a_j P_(k-j).

    The recurrence is P' a = r a' P read at x^(k-1), so it holds for r < 0
    too: r = -1 gives the reciprocal, the solve of :func:`toeplitz_solve`,
    and -r the reciprocal of the r-th power. ``a[0]`` must be nonzero.
    Built as :func:`toeplitz_solve` is: the inputs are scaled once to
    integers A over their common denominator, which cancels from both
    sides, and output k is kept as Y[k] over L_k, the running lcm of the
    output denominators. Each dot product is one :func:`_horner` over the
    coefficients ((r+1)(k-i) - k) A[k-i], so P_k = acc / (k A_0 L_(k-1)):
    one Fraction per coefficient, O(n^2) multiply-adds for any exponent,
    and no product of two series.
    """
    r = _integer(exponent, "exponent")
    if a[0] == 0:
        raise ZeroConstantTerm("Miller's recurrence needs a nonzero constant term")
    A, _ = _scaled(a)
    a0 = A[0]
    step = r + 1
    out = [Fraction(a[0]) ** r]
    y, grow, L = _over_running_lcm(out[0], 1)
    Y, m = [y], [grow]
    for k in range(1, len(A)):
        coeffs = [(step * j - k) * A[j] for j in range(k, 0, -1)]
        value = Fraction(_horner(m, Y, coeffs), k * a0 * L)
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


def cameron_transform(x_seq: Iterable[Fraction]) -> list[Fraction]:
    """Sequence transform defined by 1 + sum z_n t^n = (1 - sum x_n t^n)^(-1).

    ``x_seq`` lists x_1 .. x_m; the result lists z_1 .. z_m.
    """
    base = TruncatedSeries((Fraction(1), *(-v for v in _fractions(x_seq))))
    return list(base.reciprocal().coefficients[1:])


def cameron_inverse(z_seq: Iterable[Fraction]) -> list[Fraction]:
    """Inverse transform: recover x_1 .. x_m from z_1 .. z_m."""
    full = TruncatedSeries((Fraction(1),) + _fractions(z_seq))
    return [-c for c in full.reciprocal().coefficients[1:]]
