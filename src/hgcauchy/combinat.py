"""Ordered-sum enumeration shared by the explicit expansion formulas.

Every exponential product sum over compositions of numbers is a call to one
of two walks, :func:`composition_sum` over strict compositions and
:func:`weak_composition_sum` over weak compositions. Each composition gets
its own integer product, built on the shared product of its prefix; no sum
of prefixes is factored out, so neither walk turns into the series
arithmetic it cross-checks. The strict walk makes 2^max(t_max - 4, 0) calls:
only a prefix that leaves four or more recurses, and a call loops over a
prebuilt list of exactly those children, then closes the four children that
leave three, two, one and nothing in straight-line code, each of their
fifteen compositions still with one product and one add. The weak walk makes
C(total + m - 1, m), m = max(parts - 2, 0), for total >= 1, and recurses at
most total deep. Both walks read their weights in one pass, so any iterable
will do, and take exact weights only (``series._fractions``). A strict
prefix of total t is an integer over Q[t], the lcm of the part-denominator
products that the compositions of t need, so its width follows the
compositions, not the lcm D of every weight's denominator; a weak prefix of
k parts is an integer over D^k. The partition (Trudi) walk,
:func:`~hgcauchy.hessenberg._trudi_walk`, and the product rule over series,
``verify._product_rule_rhs``, live next to what they sum. No module calls
:func:`strict_compositions` or :func:`weak_compositions`: they are test
references.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from math import lcm

from .errors import _size
from .series import _fractions, _scaled

__all__ = [
    "STRICT_COMPOSITION_CAP",
    "composition_sum",
    "strict_compositions",
    "weak_composition_sum",
    "weak_compositions",
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


def _composition_denominators(dens: Sequence[int], t_max: int) -> list[int]:
    """Q[0 .. t_max]: Q[t] is the lcm, over the strict compositions
    (e_1, .., e_k) of t, of dens[e_1] .. dens[e_k]. Built from
    Q[t] = lcm over e = 1 .. t of Q[t - e] dens[e]; ``dens[0]`` is ignored."""
    Q = [1]
    for t in range(1, t_max + 1):
        Q.append(lcm(*(Q[t - e] * dens[e] for e in range(1, t + 1))))
    return Q


def composition_sum(w: Iterable[Fraction], t_max: int) -> list[Fraction]:
    """For t = 0 .. t_max, the sum over strict compositions (e_1, .., e_k)
    of t of the products w[e_1] .. w[e_k]; ``w`` is read once, up to
    ``w[t_max]``, ``w[0]`` is ignored and entry 0 is 1.

    One depth-first walk visits every composition of every total <= t_max
    once (2^(t-1) of total t) and shares each prefix product with all its
    extensions. Only a prefix that leaves at least four recurses, so a call
    for the prefix of total t loops over a list, built once, of its children
    t' <= t_max - 4 and their steps, and per child does one product, one add
    and the recursive call. Its other four children are closed in
    straight-line code: t_max - 3 with its completions (1), (1, 1), (2),
    (1, 1, 1), (1, 2), (2, 1) and (3), t_max - 2 with (1), (1, 1) and (2),
    t_max - 1 with (1), and t_max itself; the six steps past t_max - 3 are
    the same for every prefix. Below t_max = 4 the walk runs at 4 with zero
    weights past t_max and drops the entries past t_max, so the root always
    has those four children. The walk makes 2^max(t_max - 4, 0) calls, each
    of the fifteen compositions a call closes gets its own product and its
    own add, and no tail sum is merged. The products stay integers: with
    Q[t] the lcm, over the compositions of t, of the products of their part
    denominators, a prefix of total t is an integer over Q[t]. Part e takes
    it to total t + e through the integer step
    M[t][e] = num(w[e]) Q[t + e] / (Q[t] den(w[e])), exact because
    Q[t] den(w[e]) divides Q[t + e], and one accumulator per total becomes
    one Fraction at the end. Q[t] divides D^t, D the lcm of
    the denominators of w[1 .. t_max], and is often far smaller: 113 against
    647 bits for the ratios N/(N + e) at N = 5, t = 20.
    """
    t_max = _size(t_max, "t_max")
    w = _fractions(w, t_max + 1, start=1)
    if t_max and len(w) <= t_max:
        raise ValueError(
            f"w supplies {len(w)} terms, need {t_max + 1} to read w[1..{t_max}]"
        )
    top = max(t_max, 4)
    w = [0, *w[1:]] + [0] * (top - t_max)
    dens = [v.denominator for v in w]
    Q = _composition_denominators(dens, top)
    M = [
        [0]
        + [
            w[e].numerator * (Q[t + e] // (Q[t] * dens[e]))
            for e in range(1, top - t + 1)
        ]
        for t in range(top + 1)
    ]
    # for each total t <= top - 4: the children that recurse, (t', M[t][t' - t])
    # for t < t' <= top - 4, then the steps to the children that leave three,
    # two, one and nothing, which close
    plan = [
        (
            tuple((u, M[t][u - t]) for u in range(t + 1, top - 3)),
            M[t][top - 3 - t],
            M[t][top - 2 - t],
            M[t][top - 1 - t],
            M[t][top - t],
        )
        for t in range(top - 3)
    ]
    # the steps past top - 3, the same for every prefix
    three_by_1, three_by_2, three_by_3 = M[top - 3][1], M[top - 3][2], M[top - 3][3]
    two_by_1, two_by_2, one_by_1 = M[top - 2][1], M[top - 2][2], M[top - 1][1]
    # acc[-4] .. acc[-1] are the totals top - 3 .. top
    acc = [1] + [0] * top

    def extend(total: int, prefix: int) -> None:
        # a prefix that leaves top - total >= 4, or the root
        children, to_three, to_two, to_one, to_top = plan[total]
        for t, step in children:
            product = prefix * step
            acc[t] += product
            extend(t, product)
        # the child that leaves three, then (1), (1, 1), (2), (1, 1, 1),
        # (1, 2), (2, 1) and (3) after it; the child that leaves two, then
        # (1), (1, 1) and (2); the child that leaves one, then (1); the child
        # at top: fifteen compositions, each its own product and add
        three = prefix * to_three
        three_1 = three * three_by_1
        three_1_1 = three_1 * two_by_1
        three_2 = three * three_by_2
        two = prefix * to_two
        two_1 = two * two_by_1
        one = prefix * to_one
        acc[-4] += three
        acc[-3] += three_1 + two
        acc[-2] += three_1_1 + three_2 + two_1 + one
        acc[-1] += (
            three_1_1 * one_by_1
            + three_1 * two_by_2
            + three_2 * one_by_1
            + three * three_by_3
            + two_1 * one_by_1
            + two * two_by_2
            + one * one_by_1
            + prefix * to_top
        )

    extend(0, 1)
    return [Fraction(acc[t], Q[t]) for t in range(t_max + 1)]


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


def weak_composition_sum(w: Iterable[Fraction], total: int, parts: int) -> list[Fraction]:
    """For k = 0 .. parts, the sum over weak compositions (i_1, .., i_k) of
    ``total`` of the products w[i_1] .. w[i_k]; entry 0 is 1 at total 0.

    One depth-first walk gives every weak composition of every k <= parts
    its own product and one add into the accumulator of k, and shares each
    prefix product with all its extensions. It forms only prefixes that can
    still be completed: a prefix of parts - 1 parts reads its last part off
    what is left, and a prefix that uses up ``total`` is padded with zero
    parts in one loop, each padding its own product. For total >= 1 the walk
    makes C(total + m - 1, m) calls, m = max(parts - 2, 0), one per prefix
    of at most m parts that leaves something over and ends in no zero part:
    a zero part continues its parent's loop, so the walk recurses at most
    total deep. The products are integers: with D the lcm of the
    denominators of w[0 .. total], a prefix of k parts is an integer over
    D^k, and each k becomes one Fraction. ``w`` is read once, up to
    ``w[total]``; with no parts no weight is read.
    """
    total, parts = _size(total, "total"), _size(parts, "parts")
    w = _fractions(w, total + 1) if parts else ()
    if parts and len(w) <= total:
        raise ValueError(
            f"w supplies {len(w)} terms, need {total + 1} to read w[0..{total}]"
        )
    V, den = _scaled(w)
    acc = [0] * (parts + 1)

    def close(k: int, product: int) -> None:
        # a composition of k parts that uses up total, then each padding
        # with zero parts up to ``parts``
        acc[k] += product
        for j in range(k + 1, parts + 1):
            product *= V[0]
            acc[j] += product

    def extend(k: int, left: int, prefix: int) -> None:
        # a prefix of k <= max(parts - 2, 0) parts that leaves left > 0
        while k + 2 < parts:
            for i in range(1, left):
                extend(k + 1, left - i, prefix * V[i])
            close(k + 1, prefix * V[left])
            k, prefix = k + 1, prefix * V[0]
        if k + 2 == parts:
            for i in range(left):
                acc[parts] += prefix * V[i] * V[left - i]
        close(k + 1, prefix * V[left])

    if total == 0:
        close(0, 1)
    elif parts:
        extend(0, total, 1)
    return [Fraction(acc[k], den**k) for k in range(parts + 1)]
