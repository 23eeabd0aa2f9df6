"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: dense cofactor determinants, direct
enumeration sums, term-by-term Fraction loops for series products and
triangular Toeplitz solves, and generators for random exact-rational inputs.
Slow on purpose, trusted because there is nothing to get wrong. The residue
oracle (:func:`residues`) runs the same naive loops in a second arithmetic,
integers modulo a large prime, so it reaches sizes the Fraction loops do not.
"""

from __future__ import annotations

import importlib
import pkgutil
import random
import sys
from fractions import Fraction
from math import factorial, lcm
from operator import add, mul
from types import CodeType

import hgcauchy
from hgcauchy.combinat import strict_compositions, weak_compositions
from hgcauchy.hessenberg import HessenbergSpec, enumerate_partition_multiplicities
from hgcauchy.series import TruncatedSeries


def dense_determinant(matrix: list[list[Fraction]]) -> Fraction:
    """Cofactor expansion along the first row; fine up to about 7x7."""
    size = len(matrix)
    if size == 0:
        return Fraction(1)
    if size == 1:
        return matrix[0][0]
    total = Fraction(0)
    for col in range(size):
        entry = matrix[0][col]
        if entry == 0:
            continue
        minor = [row[:col] + row[col + 1 :] for row in matrix[1:]]
        sign = -1 if col % 2 else 1
        total += sign * entry * dense_determinant(minor)
    return total


def dense_matrix(spec: HessenbergSpec) -> list[list[Fraction]]:
    """The explicit n x n matrix of ``spec``: band[i - j] on and below the
    diagonal, the super entry just above it, zeros further right."""
    zero = Fraction(0)
    return [
        [
            spec.band[i - j] if j <= i else spec.super_entry if j == i + 1 else zero
            for j in range(spec.n)
        ]
        for i in range(spec.n)
    ]


def multinomial(parts: list[int]) -> int:
    """(t_1 + ... + t_m)! / (t_1! ... t_m!)."""
    out = factorial(sum(parts))
    for t in parts:
        out //= factorial(t)
    return out


def naive_product(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Coefficients 0 .. min(len(a), len(b)) - 1 of the product of two series,
    one Fraction add per term."""
    out = []
    for k in range(min(len(a), len(b))):
        acc = Fraction(0)
        for j in range(k + 1):
            acc += a[j] * b[k - j]
        out.append(acc)
    return out


def naive_reciprocal(a: list[Fraction]) -> list[Fraction]:
    """Reciprocal series coefficients by the textbook recurrence
    out_k = -(1/a_0) sum_{j=1..k} a_j out_(k-j)."""
    inv0 = 1 / Fraction(a[0])
    out = [inv0]
    for k in range(1, len(a)):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += a[j] * out[k - j]
        out.append(-inv0 * acc)
    return out


def naive_determinant_sequence(
    super_entry: Fraction, band: list[Fraction]
) -> list[Fraction]:
    """d_k = sum_{l=1..k} (-a_0)^(l-1) a_l d_(k-l), d_0 = 1, term by term."""
    a0 = Fraction(super_entry)
    d = [Fraction(1)]
    for k in range(1, len(band) + 1):
        acc = Fraction(0)
        sign_pow = Fraction(1)
        for l in range(1, k + 1):
            acc += sign_pow * band[l - 1] * d[k - l]
            sign_pow *= -a0
        d.append(acc)
    return d


def naive_toeplitz_inverse(alpha: list[Fraction]) -> list[Fraction]:
    """gamma_1 .. gamma_n with gamma_0 = 1 and
    gamma_k = -sum_{j=1..k} alpha_j gamma_(k-j), term by term."""
    gamma = [Fraction(1)]
    for k in range(1, len(alpha) + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += alpha[j - 1] * gamma[k - j]
        gamma.append(-acc)
    return gamma[1:]


def partition_count(m: int) -> int:
    """Number of integer partitions of m, by the standard coin-style DP."""
    counts = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            counts[total] += counts[total - part]
    return counts[m]


def brute_weight(N: int, r: int, e: int) -> Fraction:
    """Direct sum of N^r / ((N+i_1)...(N+i_r)) over weak compositions."""

    def gen(parts: int, remaining: int):
        if parts == 1:
            yield (remaining,)
            return
        for head in range(remaining + 1):
            for rest in gen(parts - 1, remaining - head):
                yield (head,) + rest

    total = Fraction(0)
    for comp in gen(r, e):
        den = 1
        for i in comp:
            den *= N + i
        total += Fraction(N**r, den)
    return total


def naive_composition_sum(w: list[Fraction], t_max: int) -> list[Fraction]:
    """For t = 0 .. t_max, the sum over strict compositions of t of the
    products of the weights w[e_j]: one Fraction product per tuple."""
    out = []
    for t in range(t_max + 1):
        total = Fraction(0)
        for parts in strict_compositions(t):
            product = Fraction(1)
            for e in parts:
                product *= w[e]
            total += product
        out.append(total)
    return out


def naive_composition_denominators(dens: list[int], t_max: int) -> list[int]:
    """For t = 0 .. t_max, the lcm over the strict compositions of t of the
    products of the part denominators dens[e_j]: one product per tuple."""
    out = []
    for t in range(t_max + 1):
        common = 1
        for parts in strict_compositions(t):
            product = 1
            for e in parts:
                product *= dens[e]
            common = lcm(common, product)
        out.append(common)
    return out


def naive_weak_composition_sum(
    w: list[Fraction], total: int, parts: int
) -> list[Fraction]:
    """For k = 0 .. parts, the sum over weak compositions of ``total`` into
    k parts of the products of the weights w[i_j]: one Fraction product per
    tuple."""
    out = []
    for k in range(parts + 1):
        acc = Fraction(0)
        for comp in weak_compositions(total, k):
            product = Fraction(1)
            for i in comp:
                product *= w[i]
            acc += product
        out.append(acc)
    return out


def naive_trudi_sum(spec: HessenbergSpec) -> Fraction:
    """Determinant of ``spec`` by the partition-multiset expansion

        sum over (t_1..t_n) of multinomial(t) * (-a_0)^(n - sum t)
                                              * prod a_k^(t_k),

    one Fraction product per multiplicity vector."""
    n = spec.n
    if n == 0:
        return Fraction(1)
    neg_super = -spec.super_entry
    total = Fraction(0)
    for tvec in enumerate_partition_multiplicities(n, cap=None):
        t_sum = sum(tvec)
        term = Fraction(multinomial(tvec)) * neg_super ** (n - t_sum)
        for k, t in enumerate(tvec, start=1):
            if t:
                term *= spec.band[k - 1] ** t
        total += term
    return total


def naive_trudi_printed_variant(N: int, n: int) -> Fraction:
    """The commonly printed variant of the partition-multiset expansion over
    bands N/(N+k), one Fraction term per multiplicity vector t of n:

        n! sum of binomial(n - sum t; t_1..t_n) * (-1)^(sum t)
                  * prod (N/(N+k))^(t_k),

    where the multinomial is zero unless its lower entries sum to the upper
    one."""
    total = Fraction(0)
    for tvec in enumerate_partition_multiplicities(n, cap=None):
        t_sum = sum(tvec)
        if n - t_sum != t_sum:
            continue
        term = Fraction(multinomial(tvec) * (-1) ** t_sum)
        for k, t in enumerate(tvec, start=1):
            if t:
                term *= Fraction(N, N + k) ** t
        total += term
    return factorial(n) * total


def naive_sum(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """The coefficient-wise sum of two series, to the smaller order."""
    return TruncatedSeries(tuple(map(add, a.coefficients, b.coefficients)))


def naive_product_rule_rhs(
    factors: list[TruncatedSeries], n: int
) -> TruncatedSeries:
    """The sum over weak compositions (i_1, .., i_k) of n of the products of
    the derivatives H^(i_j) f_j, each term multiplied from scratch as
    series and summed by :func:`naive_sum`."""
    rhs = None
    for parts in weak_compositions(n, len(factors)):
        term = factors[0].ht_derivative(parts[0])
        for f, i in zip(factors[1:], parts[1:]):
            term = term * f.ht_derivative(i)
        rhs = term if rhs is None else naive_sum(rhs, term)
    return rhs


def denominator_bound(N: int, n: int) -> int:
    """Q_n(N) = prod_{k=1..n} (N+k)^floor(n/k): the nonzero parts of the
    compositions behind c^(r)(N, n)/n! form a partition of n, in which part
    k occurs at most floor(n/k) times, so Q_n(N) is a multiple of its
    denominator."""
    bound = 1
    for k in range(1, n + 1):
        bound *= (N + k) ** (n // k)
    return bound


def denominator_bound_misses(N: int, values) -> list[int]:
    """The n at which the denominator of values[n] / n! (values the table
    c(N, n) of any order) does not divide :func:`denominator_bound`."""
    return [
        n
        for n, v in enumerate(values)
        if denominator_bound(N, n) % (v / factorial(n)).denominator
    ]


# Mersenne primes for the residue oracle, tried in this order
RESIDUE_PRIMES = (2**61 - 1, 2**89 - 1, 2**127 - 1)


def reduced(values, p: int) -> list[int]:
    """Each Fraction of ``values`` modulo the prime p, which must divide no
    denominator."""
    return [v.numerator * pow(v.denominator, -1, p) % p for v in values]


def product_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Coefficients 0 .. min(len(a), len(b)) - 1 of the product of two
    series over GF(p), term by term."""
    size = min(len(a), len(b))
    return [sum(map(mul, a[: k + 1], b[k::-1])) % p for k in range(size)]


def power_mod(a: list[int], exponent: int, p: int) -> list[int]:
    """The ``exponent``-th power of a series over GF(p): that many naive
    products, starting from 1."""
    result = [1] + [0] * (len(a) - 1)
    for _ in range(exponent):
        result = product_mod(result, a, p)
    return result


def reciprocal_mod(a: list[int], p: int) -> list[int]:
    """The reciprocal of a series over GF(p) by the textbook recurrence
    out_k = -(1/a_0) sum_{j=1..k} a_j out_(k-j)."""
    inv0 = pow(a[0], -1, p)
    out = [inv0]
    for k in range(1, len(a)):
        out.append(-inv0 * sum(map(mul, a[1 : k + 1], out[::-1])) % p)
    return out


_residue_cache: dict[tuple[int, int, int], list[int]] = {}


def residues(N: int, r: int, n: int, p: int) -> list[int]:
    """c^(r)(N, k) mod p for k = 0 .. n, in integers mod p only: the bands
    N/(N+k) reduced by pow(N + k, -1, p), their r-fold naive convolution
    D_r(k), the band recurrence b_k = sum_{l=1..k} (-1)^(l-1) D_r(l) b_(k-l)
    (the reciprocal of sum (-1)^l D_r(l) x^l), and k! b_k. The prime p must
    divide no N + k. Kept per (N, r, p) at the largest n asked for."""
    cached = _residue_cache.get((N, r, p), [])
    if len(cached) > n:
        return cached[: n + 1]
    ratios = [N * pow(N + k, -1, p) % p for k in range(n + 1)]
    weights = power_mod(ratios, r, p)
    b = reciprocal_mod([(-1) ** l * w for l, w in enumerate(weights)], p)
    out, scale = [], 1
    for k, v in enumerate(b):
        scale = scale * max(k, 1) % p
        out.append(scale * v % p)
    _residue_cache[N, r, p] = out
    return out


def residue_misses(N: int, r: int, values) -> list[int]:
    """The k at which values[k], a table c^(r)(N, k) of exact rationals,
    differs from :func:`residues` modulo either of the first two primes of
    :data:`RESIDUE_PRIMES` that divide no N + k, k <= n."""
    values = list(values)
    n = len(values) - 1
    # p divides some N + k exactly when [N, N + n] holds a multiple of p
    primes = [p for p in RESIDUE_PRIMES if (N + n) // p == (N - 1) // p][:2]
    assert len(primes) == 2, (N, n)
    return sorted(
        {
            k
            for p in primes
            for k, (got, want) in enumerate(zip(reduced(values, p), residues(N, r, n, p)))
            if got != want
        }
    )


def profiled_arguments(outer, name: str | None, call):
    """Run ``call()`` under ``sys.setprofile`` and record the arguments of
    each call of the function ``name`` defined inside the function ``outer``
    (e.g. the ``extend`` of a walk), or of ``outer`` itself when ``name`` is
    None; returns the result and one dict per call, in call order. The code
    under test carries no counter of its own."""
    target = outer.__code__ if name is None else next(
        c for c in outer.__code__.co_consts if getattr(c, "co_name", None) == name
    )
    arguments = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is target:
            arguments.append(dict(frame.f_locals))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(previous)
    return result, arguments


def profiled_calls(outer, name: str, call):
    """:func:`profiled_arguments`, counting the calls: the result and the count."""
    result, arguments = profiled_arguments(outer, name, call)
    return result, len(arguments)


def _function_names() -> dict:
    """``module.qualname`` (``series.TruncatedSeries.power``) of the code of
    every function and method defined in ``hgcauchy``, nested functions
    included; nested comprehensions and lambdas are left out."""
    names = {}

    def add(code, qualname):
        names[code] = qualname
        for const in code.co_consts:
            if isinstance(const, CodeType) and not const.co_name.startswith("<"):
                add(const, f"{qualname}.<locals>.{const.co_name}")

    for info in pkgutil.iter_modules(hgcauchy.__path__):
        module = importlib.import_module(f"hgcauchy.{info.name}")
        members = list(vars(module).values())
        for cls in [m for m in members if isinstance(m, type)]:
            for m in vars(cls).values():
                members.append(getattr(m, "fget", None) or getattr(m, "__func__", m))
        for member in members:
            code = getattr(member, "__code__", None)
            if code is not None and member.__module__ == module.__name__:
                add(code, f"{info.name}.{member.__qualname__}")
    return names


def profiled_functions(call) -> set[str]:
    """The ``hgcauchy`` functions ``call()`` runs, recorded under
    ``sys.setprofile`` like :func:`profiled_arguments` and named as
    :func:`_function_names` names them."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    names = _function_names()
    return {names[code] for code in codes if code in names}


def random_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    num = rng.randint(-50, 50)
    while nonzero and num == 0:
        num = rng.randint(-50, 50)
    return Fraction(num, rng.randint(1, 50))


def random_coefficients(
    rng: random.Random, order: int, nonzero_constant: bool = False
) -> tuple[Fraction, ...]:
    head = random_fraction(rng, nonzero=nonzero_constant)
    return (head,) + tuple(random_fraction(rng) for _ in range(order))
