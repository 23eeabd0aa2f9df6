"""Ordered-sum enumeration shared by the explicit expansion formulas.

Every exponential product sum over compositions of numbers is a call to one
of two walks, :func:`composition_sum` over strict compositions and
:func:`weak_composition_sum` over weak compositions. Two walks of the same
kind live next to the objects they sum: the partition-multiset (Trudi)
expansion, :func:`~hgcauchy.hessenberg.trudi_sum`, and the
derivative product rule over weak compositions of series-valued factors,
``verify._product_rule_rhs``. The generators
:func:`strict_compositions` and :func:`weak_compositions` yield the same
compositions one tuple at a time, for naive reference sums.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import factorial

from .errors import _size
from .series import _scaled

__all__ = [
    "STRICT_COMPOSITION_CAP",
    "composition_sum",
    "strict_compositions",
    "weak_composition_sum",
    "weak_compositions",
    "multinomial",
]

# 2**(n-1) tuples for strict compositions of n; the determinant, recurrence and
# series methods stay available far past this point.
STRICT_COMPOSITION_CAP = 22


def strict_compositions(total: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of positive integers summing to ``total``, lexicographic.

    ``total == 0`` yields the empty tuple once.
    """

    def walk(total: int) -> Iterator[tuple[int, ...]]:
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in walk(total - first):
                yield (first,) + rest

    return walk(_size(total, "total"))


def composition_sum(w: Sequence[Fraction], t_max: int) -> list[Fraction]:
    """For t = 0 .. t_max, the sum over strict compositions (e_1, .., e_k)
    of t of the products w[e_1] .. w[e_k]; ``w[0]`` is ignored and entry 0
    is 1.

    One depth-first walk visits every composition of every total <= t_max
    once (2^(t-1) of total t) and shares each prefix product with all its
    extensions. The products stay integers: with D the lcm of the
    denominators of w[1 .. t_max], V[e] = w[e] D^e is an integer, a prefix of
    total t is an integer over D^t, and one accumulator per total becomes one
    Fraction at the end.
    """
    t_max = _size(t_max, "t_max")
    U, den = _scaled(w[1 : t_max + 1])
    V = [0] + [u * den ** (e - 1) for e, u in enumerate(U, start=1)]
    acc = [1] + [0] * t_max

    def extend(total: int, prefix: int) -> None:
        for e in range(1, t_max - total + 1):
            t = total + e
            product = prefix * V[e]
            acc[t] += product
            if t < t_max:
                extend(t, product)

    extend(0, 1)
    return [Fraction(acc[t], den**t) for t in range(t_max + 1)]


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of ``parts`` non-negative integers summing to ``total``."""

    def walk(total: int, parts: int) -> Iterator[tuple[int, ...]]:
        if parts == 0:
            if total == 0:
                yield ()
            return
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in walk(total - first, parts - 1):
                yield (first,) + rest

    return walk(_size(total, "total"), _size(parts, "parts"))


def weak_composition_sum(w: Sequence[Fraction], total: int, parts: int) -> list[Fraction]:
    """For k = 0 .. parts, the sum over weak compositions (i_1, .., i_k) of
    ``total`` of the products w[i_1] .. w[i_k]; entry 0 is 1 at total 0.

    One depth-first walk visits every weak composition of every k <= parts
    once and shares each prefix product with all its extensions, in
    integers: with D the lcm of the denominators of w[0 .. total], a prefix
    of k parts is an integer over D^k, and each k becomes one Fraction.
    """
    total, parts = _size(total, "total"), _size(parts, "parts")
    V, den = _scaled(w[: total + 1])
    acc = [0] * (parts + 1)

    def extend(k: int, left: int, prefix: int) -> None:
        if left == 0:
            acc[k] += prefix
        if k < parts:
            for i in range(left + 1):
                extend(k + 1, left - i, prefix * V[i])

    extend(0, total, 1)
    return [Fraction(acc[k], den**k) for k in range(parts + 1)]


def multinomial(parts: Sequence[int]) -> int:
    """(t_1 + ... + t_m)! / (t_1! ... t_m!); each part meets the
    :func:`~hgcauchy.errors._size` rule."""
    parts = [_size(t, f"multinomial part t_{k}") for k, t in enumerate(parts, 1)]
    out = factorial(sum(parts))
    for t in parts:
        out //= factorial(t)
    return out
