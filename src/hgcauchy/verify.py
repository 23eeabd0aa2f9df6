"""Identity verification suites.

Each suite walks one family of identities over a parameter grid and returns a
deterministic list of :class:`VerificationReport` records; ``run_suites`` is
what the command line drives. Reports appear in a fixed order and random
sweeps draw from a fixed documented seed, so two runs with equal flags emit
byte-identical output. Every suite takes its grid arguments by the rules of
the ``verify`` flags (:func:`_grid`), so a call the command line would refuse
raises TypeError or ValueError here too.

The two method-agreement records compare computations, not route names
(:func:`_method_agreement`). ``core/method-agreement`` compares the three
computations of c(N, n) at r = 1: the triangular solve (``series``), the
composition walk (``compositions``) and the Trudi walk (``trudi``); the
other routes rerun one of these at r = 1. ``higher/method-agreement``
compares the four of c^(r)(N, n) at every r from 1: the solve
(``recurrence``), the two walks (``explicit``, ``trudi``) and F_N^(-r)
(``convolution``), taken by Miller's recurrence from the coefficients of
F_N. ``convolution`` runs no solve, and shares no series product with the
square-and-multiply power behind the weights D_r, so the solve is checked
against three computations that do not run it. ``determinant`` is the
solve's other name: it runs the same body as ``recurrence``, so comparing
the two would check nothing.

The erratum-noted records: four identities fail as literally printed in the
source material this package was transcribed from, while their corrected
forms verify exactly. Each suite that owns one emits exactly one such record,
carrying (as-printed value, corrected value) when the two differ numerically.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from fractions import Fraction
from functools import reduce
from math import comb, factorial
from operator import add, mul

from . import cauchy, higher, relations
from .combinat import composition_sum, weak_composition_sum
from .errors import _integer, _size
from .hessenberg import _inversion_chain, _recovery_record, _signed_bands_record
from .report import VerificationReport, check, erratum
from .series import (
    TruncatedSeries,
    _scaled,
    cameron_inverse,
    cameron_transform,
    log1p_series,
)

__all__ = [
    "DEFAULT_SEED",
    "RANDOM_BOUND",
    "SUITE_NAMES",
    "core_suite",
    "higher_suite",
    "relations_suite",
    "inversion_suite",
    "series_rules_suite",
    "run_suites",
]

# one fixed seed for every random sweep: identical flags, identical records
DEFAULT_SEED = 1729
# numerators and denominators of generated rationals stay within +/- 50
RANDOM_BOUND = 50


def _grid(N_max, r_max, n_max, capped) -> tuple[int, int, int, bool]:
    """The grid arguments every suite takes, by the rules of the ``verify``
    flags: ``N_max`` and ``r_max`` are integers >= 1, ``n_max`` meets the
    :func:`~hgcauchy.errors._size` rule and ``capped`` is a bool. A bool or a
    value that is not integral raises TypeError naming the argument."""
    N_max, r_max = _integer(N_max, "N_max"), _integer(r_max, "r_max")
    for name, value in (("N_max", N_max), ("r_max", r_max)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if not isinstance(capped, bool):
        raise TypeError(
            f"capped must be a bool, got {type(capped).__name__} {capped!r}"
        )
    return N_max, r_max, _size(n_max, "n_max"), capped


def _random_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    num = rng.randint(-RANDOM_BOUND, RANDOM_BOUND)
    while nonzero and num == 0:
        num = rng.randint(-RANDOM_BOUND, RANDOM_BOUND)
    return Fraction(num, rng.randint(1, RANDOM_BOUND))


def _random_series(
    rng: random.Random, order: int, nonzero_constant: bool = False
) -> TruncatedSeries:
    coeffs = [_random_fraction(rng, nonzero=nonzero_constant)]
    coeffs += [_random_fraction(rng) for _ in range(order)]
    return TruncatedSeries(tuple(coeffs))


# the three computations of c(N, n) at r = 1, the solve first: the other
# routes at r = 1 rerun one of these on equal bands (see hgcauchy.cauchy),
# apart from ``convolution``, which ``higher`` compares at every r
_FIRST_ORDER_METHODS = ("series", "compositions", "trudi")
# the four order-r computations, the solve first; ``determinant`` runs its body
_ORDER_R_METHODS = ("recurrence", "trudi", "explicit", "convolution")


def _method_agreement(
    identity: str, N: int, r: int, n_max: int, capped: bool, methods: Sequence[str]
) -> tuple[VerificationReport, dict[str, cauchy.CauchyTable]]:
    """The table of each route in ``methods`` at (N, r), and the record of
    every table prefix-compared against the first one's. When capped, an
    enumeration route stops at its safety cap, so its table may be shorter."""
    tables = {}
    for method in methods:
        route = higher.ROUTES[method]
        cap = route.cap if capped else None
        top = n_max if cap is None else min(n_max, cap)
        tables[method] = route.compute(N, r, top, cap)
    reference, *others = tables.values()
    record = check(
        identity,
        (N, r, reference.n_max),
        (
            (n, reference.values[n], other.values[n])
            for other in others
            for n in range(min(reference.n_max, other.n_max) + 1)
        ),
    )
    return record, tables


def core_suite(
    N_max: int = 4, r_max: int = 3, n_max: int = 12, capped: bool = True
) -> list[VerificationReport]:
    """First-order identities: the composition and Trudi walks against the
    solve (``series``), the defining residual, closed forms, classical
    specializations, and the printed-variant erratum."""
    N_max, r_max, n_max, capped = _grid(N_max, r_max, n_max, capped)
    records = []
    for N in range(1, N_max + 1):
        record, tables = _method_agreement(
            "core/method-agreement", N, 1, n_max, capped, _FIRST_ORDER_METHODS
        )
        records.append(record)
        records.append(_defining_residual(tables["series"]))
        records.append(_core_closed_forms(tables["series"]))

    records.append(_second_kind_normalization(n_max))
    records.append(_bernoulli_record())
    records.append(_euler_record())

    # the partition-form variant with coefficient binom(n - sum t; t) and sign
    # (-1)^(sum t), as commonly printed; disagrees with the true value first
    # at N = 1, n = 2
    printed = cauchy.c_trudi_printed_variant(1, 2)
    corrected = cauchy.c_via_series(1, 2).values[2]
    records.append(
        erratum("core/trudi-form-printed-variant", (1, 1, 2), printed, corrected)
    )
    return records


def _defining_residual(table: cauchy.CauchyTable) -> VerificationReport:
    N = table.N

    def residual(n: int) -> Fraction:
        return sum(
            (-1) ** i * table.values[i] / ((N + n - i) * factorial(i))
            for i in range(n + 1)
        )

    return check(
        "core/defining-recurrence-residual",
        (N, 1, table.n_max),
        ((n, Fraction(0), residual(n)) for n in range(1, table.n_max + 1)),
    )


def _core_closed_forms(table: cauchy.CauchyTable) -> VerificationReport:
    N = table.N
    top = min(5, table.n_max)
    return check(
        "core/small-index-closed-forms",
        (N, 1, top),
        ((n, cauchy.c_closed_form(N, n), table.values[n]) for n in range(1, top + 1)),
    )


def _second_kind_normalization(n_max: int) -> VerificationReport:
    """c(1, n)/n! against the reciprocal of log(1+x)/x, built from the
    alternating harmonic series rather than the ratio sequence."""
    log_over_x = TruncatedSeries(log1p_series(n_max + 1).coefficients[1:])
    oracle = log_over_x.reciprocal().coefficients
    table = cauchy.c_via_series(1, n_max).normalized()
    return check(
        "core/second-kind-normalization",
        (1, 1, n_max),
        ((n, oracle[n], table[n]) for n in range(n_max + 1)),
    )


def _bernoulli_record() -> VerificationReport:
    top = 12
    computed = cauchy.classical_bernoulli_det(top)
    expgen = TruncatedSeries(
        tuple(Fraction(1, factorial(k + 1)) for k in range(top + 1))
    )
    oracle = expgen.reciprocal().coefficients
    return check(
        "core/bernoulli-determinant",
        (1, 1, top),
        ((n, factorial(n) * oracle[n], computed[n]) for n in range(top + 1)),
    )


def _euler_record() -> VerificationReport:
    pairs = 6  # E_0 .. E_12
    computed = cauchy.classical_euler_det(pairs)
    cosh = TruncatedSeries(
        tuple(Fraction(1, factorial(2 * k)) for k in range(pairs + 1))
    )
    oracle = cosh.reciprocal().coefficients
    return check(
        "core/euler-determinant",
        (1, 1, 2 * pairs),
        (
            (2 * k, factorial(2 * k) * oracle[k], computed[k])
            for k in range(pairs + 1)
        ),
    )


def higher_suite(
    N_max: int = 4, r_max: int = 3, n_max: int = 12, capped: bool = True
) -> list[VerificationReport]:
    """Order-r identities: the four order-r computations against the solve,
    the weak-composition residual, weight cross-checks, closed forms, and the
    power-identity example erratum."""
    N_max, r_max, n_max, capped = _grid(N_max, r_max, n_max, capped)
    records = []
    for N in range(1, N_max + 1):
        for r in range(1, r_max + 1):
            record, tables = _method_agreement(
                "higher/method-agreement", N, r, n_max, capped, _ORDER_R_METHODS
            )
            brute = higher.weight_D_by_enumeration(N, r, min(n_max, 10))
            weights = higher.weight_D(N, r, max(3, len(brute) - 1))
            records.append(record)
            records.append(_weak_composition_residual(tables["convolution"], brute))
            records.append(_weight_enumeration(weights, brute))
            records.append(_weight_closed_forms(weights))
            records.append(_order_closed_forms(tables["recurrence"]))

    # the worked examples of the power identity print exponents r+1 and N-1
    # where the identity itself forces r and r-1; numerically coincident
    # because index 0 of every table is 1, hence no value pair
    records.append(
        erratum("higher/power-identity-example-exponents", (1, 2, 0))
    )
    return records


def _weak_composition_residual(
    table: cauchy.CauchyTable, brute: list[Fraction]
) -> VerificationReport:
    """The order-r defining relation, evaluated by brute-force enumeration:

        sum_{m=0..n} sum over weak compositions (i_1..i_r) of n-m
        of (-1)^(n-m) c^(r)(N, m) / (m! (N+i_1) .. (N+i_r))  ==  0,

    for n up to the last index of ``brute``, the weights D_r(0 ..) of
    :func:`~hgcauchy.higher.weight_D_by_enumeration`: each inner sum is
    D_r(n-m)/N^r. Checked on the convolution-method table so neither side
    shares code with the weight recurrence.
    """
    N, r = table.N, table.r
    top = len(brute) - 1
    scale = N**r
    b = table.normalized()

    def residual(n: int) -> Fraction:
        return sum((-1) ** (n - m) * b[m] * brute[n - m] for m in range(n + 1)) / scale

    return check(
        "higher/defining-recurrence-residual",
        (N, r, top),
        ((n, Fraction(0), residual(n)) for n in range(1, top + 1)),
    )


def _weight_enumeration(
    weights: higher.WeightTable, brute: list[Fraction]
) -> VerificationReport:
    top = len(brute) - 1
    return check(
        "higher/weight-enumeration-agreement",
        (weights.N, weights.r, top),
        ((e, brute[e], weights.values[e]) for e in range(top + 1)),
    )


def _weight_closed_forms(weights: higher.WeightTable) -> VerificationReport:
    """The e = 1 .. 3 closed-form displays; the e = 4 display carries a
    documented slip and is exercised in the test suite instead."""
    N, r, table = weights.N, weights.r, weights.values
    return check(
        "higher/weight-closed-forms",
        (N, r, 3),
        ((e, higher.weight_reference_form(N, r, e), table[e]) for e in range(1, 4)),
    )


def _order_closed_forms(table: cauchy.CauchyTable) -> VerificationReport:
    N, r = table.N, table.r
    top = min(4, table.n_max)
    return check(
        "higher/order-closed-forms",
        (N, r, top),
        (
            (n, higher.chor_closed_form(N, r, n), table.values[n])
            for n in range(top + 1)
        ),
    )


def relations_suite(
    N_max: int = 4, r_max: int = 3, n_max: int = 12, capped: bool = True
) -> list[VerificationReport]:
    """Cross-order identities, N against N-1; always covers at least N = 2."""
    N_max, r_max, n_max, capped = _grid(N_max, r_max, n_max, capped)
    chain_cap = relations.CHAIN_CAP if capped else None
    chain_top = min(n_max, relations.CHAIN_CAP) if capped else n_max
    records = []
    for N in range(2, max(N_max, 2) + 1):
        records.append(relations.cross_order_step(N, n_max))
        records.append(relations.chain_sum(N, chain_top, cap=chain_cap))
        records.append(relations.chain_example_first(N))
        records.append(relations.chain_example_second(N))
    return records


def inversion_suite(
    N_max: int = 4, r_max: int = 3, n_max: int = 12, capped: bool = True
) -> list[VerificationReport]:
    """Determinant round trips, ratio and weight recovery, the sign-corrected
    inverse-band identity, and the unsigned-display erratum. The bands of
    each (N, r) are D_r(1 .. n_max), at r = 1 the ratios N/(N+k). Each point
    builds one inversion chain, and its three records restate one comparison
    (36 pass records on 12 at the defaults); the chain's alpha is the
    normalized table by Glaisher's determinant, which ``core`` and ``higher``
    check against the composition and Trudi walks."""
    N_max, r_max, n_max, capped = _grid(N_max, r_max, n_max, capped)
    Ns = range(1, N_max + 1)
    grid = [(N, 1) for N in Ns] + [(N, r) for N in Ns for r in range(2, r_max + 1)]
    rules = {(N, r): higher.weight_D(N, r, n_max).values[1:] for N, r in grid}
    chains = {p: ((*p, n_max), R, _inversion_chain(R)) for p, R in rules.items()}
    records = [
        _recovery_record("inversion/determinant-roundtrip", *chains[N, r])
        for N, r in grid
    ]
    records += [
        (cauchy._ratio_recovery if r == 1 else higher._weight_recovery)(*chains[N, r])
        for N, r in grid
    ]
    records += [
        _signed_bands_record("inversion/signed-inverse-bands", *chains[p])
        for p in sorted(chains)
    ]

    # the inverse-matrix display as printed claims bands R(k); the computed
    # bands carry the alternating sign, seen in the one band R(1) = 1/2
    R1 = Fraction(1, 2)
    gamma = _inversion_chain([R1])[2]
    records.append(erratum("inversion/unsigned-inverse-bands", (1, 1, 1), R1, gamma[0]))
    return records


def series_rules_suite(
    N_max: int = 4,
    r_max: int = 3,
    n_max: int = 12,
    capped: bool = True,
    instances: int = 200,
) -> list[VerificationReport]:
    """Seeded random sweeps of the series laws plus the sequence-transform
    identities and the transform-direction erratum."""
    N_max, r_max, n_max, capped = _grid(N_max, r_max, n_max, capped)
    instances = _size(instances, "instances")
    records = [
        _reciprocal_unit_product(DEFAULT_SEED),
        _product_rule_sweep(instances, DEFAULT_SEED),
        _quotient_rule_strict_sweep(instances, DEFAULT_SEED),
        _quotient_rule_weighted_sweep(instances, DEFAULT_SEED),
        _transform_roundtrip(DEFAULT_SEED),
    ]
    for N in range(1, N_max + 1):
        records.append(_transform_correspondence(N, n_max))

    # the printed correspondence assigns x_n = c(N, n)/n!; feeding that
    # through the transform does not return the alternating ratio sequence
    b_values = cauchy.c_via_series(1, 2).normalized()[1:]
    actual = cameron_transform(b_values)[1]
    printed = Fraction((-1) ** (2 - 1) * 1, 1 + 2)
    records.append(
        erratum("series/sequence-transform-role-swap", (1, 0, 2), printed, actual)
    )
    return records


def _reciprocal_unit_product(seed: int) -> VerificationReport:
    """a times 1/a is the unit series, for one random a of each order
    0 .. 25; yields one case per order to :func:`~hgcauchy.report.check`."""

    def cases():
        rng = random.Random(seed)
        for order in range(26):
            a = _random_series(rng, order, nonzero_constant=True)
            yield order, TruncatedSeries.one(order), a * a.reciprocal()

    return check("series/reciprocal-unit-product", (0, 0, 25), cases())


def _product_rule_sweep(instances: int, seed: int) -> VerificationReport:
    """H^(n) of a product expands over weak compositions of n across the
    factors; checked as full series, not just one coefficient. The lhs goes
    through ``TruncatedSeries.__mul__`` and ``ht_derivative``; the rhs is
    :func:`_product_rule_rhs`, which shares no product or derivative
    arithmetic with either (only the lcm scaling ``series._scaled``). Yields
    one case per instance to :func:`~hgcauchy.report.check`."""

    def cases():
        rng = random.Random(seed + 1)
        for _ in range(instances):
            k = rng.randint(2, 4)
            order = rng.randint(1, 10)
            n = rng.randint(1, min(order, 6))
            factors = [_random_series(rng, order) for _ in range(k)]
            lhs = reduce(mul, factors).ht_derivative(n)
            yield n, lhs, _product_rule_rhs(factors, n)

    return check("series/derivative-product-rule", (0, 0, instances), cases())


def _product_rule_rhs(factors: Sequence[TruncatedSeries], n: int) -> TruncatedSeries:
    """The sum over weak compositions (i_1, .., i_k) of n of the products
    H^(i_1) f_1 .. H^(i_k) f_k, to order (smallest factor order) - n.

    Factor j is scaled once to integers F_j over D_j, so H^(i) f_j is the
    integer list C(m, i) F_j[m] over the same D_j and every term lies over
    D_1 .. D_k. One depth-first walk over the positions carries integer
    prefix products, truncated to the output length; at the last position
    the part is forced, and its product goes into one integer accumulator.
    Each coefficient becomes one Fraction.
    """
    size = min(f.order for f in factors) - n + 1
    derivatives = []
    den = 1
    for f in factors:
        F, d = _scaled(f.coefficients)
        den *= d
        derivatives.append(
            [[comb(m, i) * F[m] for m in range(i, i + size)] for i in range(n + 1)]
        )
    acc = [0] * size
    last = len(factors) - 1

    def extend(j: int, left: int, prefix: list[int] | None) -> None:
        for i in range(left + 1) if j < last else (left,):
            row = derivatives[j][i]
            product = row if prefix is None else _truncated_product(prefix, row)
            if j < last:
                extend(j + 1, left - i, product)
            else:
                acc[:] = map(add, acc, product)

    extend(0, n, None)
    return TruncatedSeries(tuple(Fraction(c, den) for c in acc))


def _truncated_product(a: list[int], b: list[int]) -> list[int]:
    """The first len(a) coefficients of the product of two integer series
    of equal length."""
    size = len(a)
    out = [0] * size
    for i in range(size):
        for j in range(size - i):
            out[i + j] += a[i] * b[j]
    return out


def _quotient_rule_strict_sweep(instances: int, seed: int) -> VerificationReport:
    """Coefficient n of 1/f as a strict-composition sum with sign (-1)^k and
    factor f_0^-(k+1): 1/f_0 times the composition sum of the weights
    -f_e/f_0, walked by :func:`~hgcauchy.combinat.composition_sum`. Yields
    one case per instance to :func:`~hgcauchy.report.check`."""

    def cases():
        rng = random.Random(seed + 2)
        for _ in range(instances):
            order = rng.randint(1, 8)
            n = rng.randint(1, order)
            f = _random_series(rng, order, nonzero_constant=True)
            lhs = f.reciprocal().ht_derivative(n).coefficient(0)
            f0 = f.coefficient(0)
            yield n, lhs, composition_sum([-c / f0 for c in f.coefficients], n)[n] / f0

    return check("series/derivative-quotient-rule-strict", (0, 0, instances), cases())


def _quotient_rule_weighted_sweep(instances: int, seed: int) -> VerificationReport:
    """Same target through binomial(n+1, k+1) weights over weak compositions
    of n into k parts, one walk of the coefficients of f for every k by
    :func:`~hgcauchy.combinat.weak_composition_sum`. Yields one case per
    instance to :func:`~hgcauchy.report.check`."""

    def cases():
        rng = random.Random(seed + 3)
        for _ in range(instances):
            order = rng.randint(1, 8)
            n = rng.randint(1, order)
            f = _random_series(rng, order, nonzero_constant=True)
            lhs = f.reciprocal().ht_derivative(n).coefficient(0)
            f0 = f.coefficient(0)
            W = weak_composition_sum(f.coefficients, n, n)
            yield n, lhs, sum(
                comb(n + 1, k + 1) * (-1) ** k / f0 ** (k + 1) * W[k]
                for k in range(1, n + 1)
            )

    return check("series/derivative-quotient-rule-weighted", (0, 0, instances), cases())


def _transform_roundtrip(seed: int) -> VerificationReport:
    """The transform inverts on a random sequence and fixes the zero one;
    yields both cases to :func:`~hgcauchy.report.check` as series, so that a
    fail record lists the terms."""
    order = 20

    def cases():
        as_series = TruncatedSeries
        rng = random.Random(seed + 4)
        x = [_random_fraction(rng) for _ in range(order)]
        yield order, as_series(x), as_series(cameron_inverse(cameron_transform(x)))
        zeros = [Fraction(0)] * order
        yield order, as_series(zeros), as_series(cameron_transform(zeros))

    return check("series/sequence-transform-roundtrip", (0, 0, order), cases())


def _transform_correspondence(N: int, n_max: int) -> VerificationReport:
    """Feeding the alternating ratio sequence through the transform yields
    the normalized first-order values; this is the direction that verifies.
    Both sides hand ``toeplitz_solve`` one list, so the record checks the
    sign convention of x, not the kernel."""
    x = [Fraction((-1) ** (n - 1) * N, N + n) for n in range(1, n_max + 1)]
    z = cameron_transform(x)
    table = cauchy.c_via_series(N, n_max).normalized()
    return check(
        "series/sequence-transform-correspondence",
        (N, 1, n_max),
        ((n, table[n], z[n - 1]) for n in range(1, n_max + 1)),
    )


# suite name -> suite, in the order "all" runs them
_SUITE_FUNCTIONS = {
    "core": core_suite,
    "higher": higher_suite,
    "relations": relations_suite,
    "inversion": inversion_suite,
    "series-rules": series_rules_suite,
}
SUITE_NAMES = tuple(_SUITE_FUNCTIONS)


def run_suites(
    suite: str = "all",
    N_max: int = 4,
    r_max: int = 3,
    n_max: int = 12,
    capped: bool = True,
) -> list[VerificationReport]:
    """Run one named suite, or all of them in a fixed order."""
    if suite == "all":
        names = SUITE_NAMES
    elif suite in _SUITE_FUNCTIONS:
        names = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}")
    records = []
    for name in names:
        records.extend(_SUITE_FUNCTIONS[name](N_max, r_max, n_max, capped))
    return records
