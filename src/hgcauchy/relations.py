"""Relations connecting the families at adjacent first parameters N and N-1.

Two independent bridges are verified here, both stated for N >= 2:

* a single-step convolution identity,

      c(N, n) = c(N-1, n)
                - N/((n+1)(N-1)) sum_{m=0..n-1} C(n+1, m) c(N, m) c(N-1, n-m+1),

* a full expansion of c(N, n) over descending index chains
  n = i_0 > i_1 > .. > i_m >= 0 with products of c(N-1, .) values,

      c(N, n) = sum_{m=0..n} (N/(1-N))^m
                sum over chains of (n!/i_m!) c(N-1, i_m)
                prod_{k=1..m} c(N-1, i_(k-1)-i_k+1) / (i_(k-1)-i_k+1)!.

The chains are exactly the subsets of {0, .., n-1} joined with the forced
head i_0 = n, so there are 2^n of them. The gaps g_k = i_(k-1) - i_k of a
chain with tail t = i_m form a strict composition of n - t, so one
:func:`~hgcauchy.combinat.composition_sum` walk sums every chain of every
head n <= n_max through 2^n_max - 1 prefixes; hence the safety cap.
:func:`descending_chains` and :func:`chain_term` are the per-chain reference.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from .cauchy import c_via_series
from .combinat import composition_sum
from .errors import _integer, _Record, _size, _within_cap
from .report import VerificationReport, check

__all__ = [
    "CHAIN_CAP",
    "ChainIndex",
    "descending_chains",
    "cross_order_step",
    "chain_sum",
    "chain_example_first",
    "chain_example_second",
]

# 2^n chains at top index n
CHAIN_CAP = 14


class ChainIndex(_Record):
    """A strictly decreasing index chain (i_0, i_1, .., i_m), i_m >= 0."""

    __slots__ = ("indices",)

    def __init__(self, indices: Iterable[int]):
        indices = tuple(indices)
        if not indices:
            raise ValueError("a chain holds at least its head index")
        for k, i in enumerate(indices):
            _integer(i, f"chain index i_{k}")
        for a, b in zip(indices, indices[1:]):
            if a <= b:
                raise ValueError(f"chain {indices} is not strictly decreasing")
        if indices[-1] < 0:
            raise ValueError("chain indices must be non-negative")
        self._assign(indices)

    @property
    def head(self) -> int:
        return self.indices[0]

    @property
    def length(self) -> int:
        """The m in (i_0, .., i_m)."""
        return len(self.indices) - 1


def descending_chains(n: int) -> Iterator[ChainIndex]:
    """All 2^n chains with head n: subsets of {0, .., n-1} in ascending size,
    lexicographic within each size, listed in decreasing order after the head.
    ``n`` is checked when called, not when the chains are first iterated."""

    def walk(n: int) -> Iterator[ChainIndex]:
        for m in range(n + 1):
            for subset in combinations(range(n), m):
                yield ChainIndex((n,) + tuple(sorted(subset, reverse=True)))

    return walk(_size(n, "n"))


def _tables(N: int, n_max: int) -> tuple[list[Fraction], list[Fraction]]:
    """Values for N and N-1; the N-1 table reaches one index further because
    both identities consume c(N-1, n+1)."""
    if _integer(N, "N") < 2:
        raise ValueError(f"relations need N >= 2, got {N}")
    current = list(c_via_series(N, n_max).values)
    previous = list(c_via_series(N - 1, n_max + 1).values)
    return current, previous


def cross_order_step(N: int, n_max: int) -> VerificationReport:
    """Single-step identity down from N to N-1, checked for n = 0 .. n_max."""
    current, previous = _tables(N, n_max)

    def rhs(n: int) -> Fraction:
        acc = sum(comb(n + 1, m) * current[m] * previous[n - m + 1] for m in range(n))
        return previous[n] - Fraction(N, (n + 1) * (N - 1)) * acc

    return check(
        "relations/cross-order-step",
        (N, 1, n_max),
        ((n, current[n], rhs(n)) for n in range(n_max + 1)),
    )


def chain_term(
    chain: ChainIndex, N: int, previous: list[Fraction]
) -> Fraction:
    """The contribution of one chain to the expansion of c(N, head)."""
    n = chain.head
    m = chain.length
    tail = chain.indices[-1]
    term = (
        Fraction(N, 1 - N) ** m
        * Fraction(factorial(n), factorial(tail))
        * previous[tail]
    )
    for a, b in zip(chain.indices, chain.indices[1:]):
        gap = a - b + 1
        term *= previous[gap] / factorial(gap)
    return term


def chain_sum(
    N: int, n_max: int, cap: int | None = CHAIN_CAP
) -> VerificationReport:
    """Full descending-chain expansion, checked for n = 1 .. n_max. With
    b_t = c(N-1, t)/t!, the chains of head n and tail t sum to n! b_t S[n-t],
    where S is the composition sum of the gap weights N/(1-N) b_(g+1)."""
    _within_cap("descending chain enumeration", _size(n_max, "n_max"), cap)
    current, previous = _tables(N, n_max)
    b = [v / factorial(t) for t, v in enumerate(previous)]
    # gap g weighs N/(1-N) b[g+1], entry g of this list
    S = composition_sum([Fraction(N, 1 - N) * v for v in b[1:]], n_max)
    return check(
        "relations/descending-chain-expansion",
        (N, 1, n_max),
        (
            (n, current[n], factorial(n) * sum(b[t] * S[n - t] for t in range(n + 1)))
            for n in range(1, n_max + 1)
        ),
    )


def chain_example_first(N: int) -> VerificationReport:
    """The n = 1 chain expansion written out:
    c(N, 1) = c(N-1, 1) + N/(1-N) * c(N-1, 0) c(N-1, 2) / 2."""
    current, previous = _tables(N, 1)
    rhs = previous[1] + Fraction(N, 1 - N) * previous[0] * previous[2] / 2
    identity = "relations/chain-example-first-order"
    return check(identity, (N, 1, 1), [(1, current[1], rhs)])


def chain_example_second(N: int) -> VerificationReport:
    """The n = 2 chain expansion written out:
    c(N, 2) = c(N-1, 2) + N/(1-N) (c(N-1, 3)/3 + c(N-1, 1) c(N-1, 2))
              + (N/(1-N))^2 c(N-1, 2)^2 / 2."""
    current, previous = _tables(N, 2)
    factor = Fraction(N, 1 - N)
    rhs = (
        previous[2]
        + factor * (previous[3] / 3 + previous[1] * previous[2])
        + factor**2 * previous[2] ** 2 / 2
    )
    identity = "relations/chain-example-second-order"
    return check(identity, (N, 1, 2), [(2, current[2], rhs)])
