"""Identity verification suites.

Each suite walks one family of identities over a parameter grid and returns a
deterministic list of :class:`VerificationReport` records; ``run_suites`` is
what the command line drives. Reports appear in a fixed order and random
sweeps draw from a fixed documented seed, so two runs with equal flags emit
byte-identical output.

The erratum-noted records: four identities fail as literally printed in the
source material this package was transcribed from, while their corrected
forms verify exactly. Each suite that owns one emits exactly one such record,
carrying (as-printed value, corrected value) when the two differ numerically.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial
from operator import add, mul
from typing import Iterable, Sequence

from . import cauchy, higher, relations
from .combinat import composition_sum, weak_composition_sum
from .hessenberg import (
    determinant_sequence,
    determinant_inversion_roundtrip,
    unit_lower_toeplitz_inverse,
)
from .report import VerificationReport, erratum, failed, passed
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

SUITE_NAMES = ("core", "higher", "relations", "inversion", "series-rules")


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


def _agreement(
    identity: str,
    reference: cauchy.CauchyTable,
    others: Iterable[cauchy.CauchyTable],
) -> VerificationReport:
    """Prefix-compare every table against the reference; the enumeration
    methods may stop at their safety cap and so may be shorter."""
    point = (reference.N, reference.r, reference.n_max)
    for other in others:
        for n in range(min(reference.n_max, other.n_max) + 1):
            if other.values[n] != reference.values[n]:
                return failed(
                    identity,
                    (reference.N, reference.r, n),
                    reference.values[n],
                    other.values[n],
                )
    return passed(identity, point)


def _route_tables(
    N: int, r: int, n_max: int, capped: bool, order_r_only: bool
) -> dict[str, cauchy.CauchyTable]:
    """Each route's table at (N, r), or only the routes that take r > 1;
    when capped, an enumeration route stops at its safety cap."""
    tables = {}
    for method, route in higher.ROUTES.items():
        if order_r_only and not route.any_order:
            continue
        cap = route.cap if capped else None
        top = n_max if cap is None else min(n_max, cap)
        tables[method] = route.compute(N, r, top, cap)
    return tables


def core_suite(
    N_max: int = 4, r_max: int = 3, n_max: int = 12, capped: bool = True
) -> list[VerificationReport]:
    """First-order identities: every route at r = 1 against ``series``, the
    defining residual, closed forms, classical specializations, and the
    printed-variant erratum."""
    records = []
    for N in range(1, N_max + 1):
        others = _route_tables(N, 1, n_max, capped, order_r_only=False)
        ref = others.pop("series")
        records.append(_agreement("core/method-agreement", ref, others.values()))
        records.append(_defining_residual(ref))
        records.append(_core_closed_forms(ref))

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
    identity = "core/defining-recurrence-residual"
    N = table.N
    for n in range(1, table.n_max + 1):
        acc = Fraction(0)
        for i in range(n + 1):
            acc += (
                (-1) ** i * table.values[i] / ((N + n - i) * factorial(i))
            )
        if acc != 0:
            return failed(identity, (N, 1, n), Fraction(0), acc)
    return passed(identity, (N, 1, table.n_max))


def _core_closed_forms(table: cauchy.CauchyTable) -> VerificationReport:
    identity = "core/small-index-closed-forms"
    N = table.N
    top = min(5, table.n_max)
    for n in range(1, top + 1):
        expected = cauchy.c_closed_form(N, n)
        if table.values[n] != expected:
            return failed(identity, (N, 1, n), expected, table.values[n])
    return passed(identity, (N, 1, top))


def _second_kind_normalization(n_max: int) -> VerificationReport:
    """c(1, n)/n! against the reciprocal of log(1+x)/x, built from the
    alternating harmonic series rather than the ratio sequence."""
    identity = "core/second-kind-normalization"
    log_over_x = TruncatedSeries(log1p_series(n_max + 1).coefficients[1:])
    oracle = log_over_x.reciprocal()
    table = cauchy.c_via_series(1, n_max).normalized()
    for n in range(n_max + 1):
        if table[n] != oracle.coefficient(n):
            return failed(identity, (1, 1, n), oracle.coefficient(n), table[n])
    return passed(identity, (1, 1, n_max))


def _bernoulli_record() -> VerificationReport:
    identity = "core/bernoulli-determinant"
    top = 12
    computed = cauchy.classical_bernoulli_det(top)
    expgen = TruncatedSeries(
        tuple(Fraction(1, factorial(k + 1)) for k in range(top + 1))
    )
    oracle = expgen.reciprocal()
    for n in range(top + 1):
        expected = factorial(n) * oracle.coefficient(n)
        if computed[n] != expected:
            return failed(identity, (1, 1, n), expected, computed[n])
    return passed(identity, (1, 1, top))


def _euler_record() -> VerificationReport:
    identity = "core/euler-determinant"
    pairs = 6  # E_0 .. E_12
    computed = cauchy.classical_euler_det(pairs)
    cosh = TruncatedSeries(
        tuple(Fraction(1, factorial(2 * k)) for k in range(pairs + 1))
    )
    oracle = cosh.reciprocal()
    for k in range(pairs + 1):
        expected = factorial(2 * k) * oracle.coefficient(k)
        if computed[k] != expected:
            return failed(identity, (1, 1, 2 * k), expected, computed[k])
    return passed(identity, (1, 1, 2 * pairs))


def higher_suite(
    N_max: int = 4, r_max: int = 3, n_max: int = 12, capped: bool = True
) -> list[VerificationReport]:
    """Order-r identities: every order-r route against ``recurrence``, the
    weak-composition residual, weight cross-checks, closed forms, and the
    power-identity example erratum."""
    records = []
    for N in range(1, N_max + 1):
        for r in range(1, r_max + 1):
            others = _route_tables(N, r, n_max, capped, order_r_only=True)
            ref = others.pop("recurrence")
            records.append(_agreement("higher/method-agreement", ref, others.values()))
            records.append(_weak_composition_residual(others["convolution"]))
            records.append(_weight_enumeration(N, r, n_max))
            records.append(_weight_closed_forms(N, r))
            records.append(_order_closed_forms(ref))

    # the worked examples of the power identity print exponents r+1 and N-1
    # where the identity itself forces r and r-1; numerically coincident
    # because index 0 of every table is 1, hence no value pair
    records.append(
        erratum("higher/power-identity-example-exponents", (1, 2, 0))
    )
    return records


def _weak_composition_residual(table: cauchy.CauchyTable) -> VerificationReport:
    """The order-r defining relation, evaluated by brute-force enumeration:

        sum_{m=0..n} sum over weak compositions (i_1..i_r) of n-m
        of (-1)^(n-m) c^(r)(N, m) / (m! (N+i_1) .. (N+i_r))  ==  0,

    the inner sums walked over the weights 1/(N+i) by
    :func:`~hgcauchy.combinat.weak_composition_sum`. Checked on the
    convolution-method table so neither side shares code with the weight
    recurrence.
    """
    identity = "higher/defining-recurrence-residual"
    N, r = table.N, table.r
    top = min(table.n_max, 10)
    w = [Fraction(1, N + i) for i in range(top + 1)]
    inner = [weak_composition_sum(w, d, r)[r] for d in range(top + 1)]
    for n in range(1, top + 1):
        acc = sum(
            (-1) ** (n - m) * table.values[m] / factorial(m) * inner[n - m]
            for m in range(n + 1)
        )
        if acc != 0:
            return failed(identity, (N, r, n), Fraction(0), acc)
    return passed(identity, (N, r, top))


def _weight_enumeration(N: int, r: int, n_max: int) -> VerificationReport:
    identity = "higher/weight-enumeration-agreement"
    top = min(n_max, 10)
    table = higher.weight_D(N, r, top)
    brute = higher.weight_D_by_enumeration(N, r, top)
    for e in range(top + 1):
        if table.weight(e) != brute[e]:
            return failed(identity, (N, r, e), brute[e], table.weight(e))
    return passed(identity, (N, r, top))


def _weight_closed_forms(N: int, r: int) -> VerificationReport:
    """The e = 1 .. 3 closed-form displays; the e = 4 display carries a
    documented slip and is exercised in the test suite instead."""
    identity = "higher/weight-closed-forms"
    table = higher.weight_D(N, r, 3)
    for e in range(1, 4):
        expected = higher.weight_reference_form(N, r, e)
        if table.weight(e) != expected:
            return failed(identity, (N, r, e), expected, table.weight(e))
    return passed(identity, (N, r, 3))


def _order_closed_forms(table: cauchy.CauchyTable) -> VerificationReport:
    identity = "higher/order-closed-forms"
    N, r = table.N, table.r
    top = min(4, table.n_max)
    for n in range(top + 1):
        expected = higher.chor_closed_form(N, r, n)
        if table.values[n] != expected:
            return failed(identity, (N, r, n), expected, table.values[n])
    return passed(identity, (N, r, top))


def relations_suite(
    N_max: int = 4, r_max: int = 3, n_max: int = 12, capped: bool = True
) -> list[VerificationReport]:
    """Cross-order identities, N against N-1; always covers at least N = 2."""
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
    inverse-band identity, and the unsigned-display erratum."""
    records = []
    for N in range(1, N_max + 1):
        records.append(
            determinant_inversion_roundtrip(
                [Fraction(N, N + k) for k in range(1, n_max + 1)],
                n_max,
                identity="inversion/determinant-roundtrip",
                point=(N, 1, n_max),
            )
        )
    for N in range(1, N_max + 1):
        for r in range(2, r_max + 1):
            records.append(
                determinant_inversion_roundtrip(
                    list(higher.weight_D(N, r, n_max).values[1:]),
                    n_max,
                    identity="inversion/determinant-roundtrip",
                    point=(N, r, n_max),
                )
            )
    for N in range(1, N_max + 1):
        records.append(cauchy.ratio_inversion(N, n_max))
    for N in range(1, N_max + 1):
        for r in range(2, r_max + 1):
            records.append(higher.D_inversion(N, r, n_max))
    for N in range(1, N_max + 1):
        for r in range(1, r_max + 1):
            records.append(_signed_inverse_bands(N, r, n_max))

    # the inverse-matrix display as printed claims bands R(k); the computed
    # bands carry the alternating sign, seen in the one band R(1) = 1/2
    rule = [Fraction(1, 2)]
    alpha = determinant_sequence(1, rule)[1:]
    gamma = unit_lower_toeplitz_inverse(alpha)
    records.append(
        erratum("inversion/unsigned-inverse-bands", (1, 1, 1), rule[0], gamma[0])
    )
    return records


def _signed_inverse_bands(N: int, r: int, n_max: int) -> VerificationReport:
    identity = "inversion/signed-inverse-bands"
    rule = list(higher.weight_D(N, r, n_max).values[1:])
    alpha = determinant_sequence(1, rule)[1:]
    gamma = unit_lower_toeplitz_inverse(alpha)
    for k in range(1, n_max + 1):
        expected = (-1) ** k * rule[k - 1]
        if gamma[k - 1] != expected:
            return failed(identity, (N, r, k), expected, gamma[k - 1])
    return passed(identity, (N, r, n_max))


def series_rules_suite(
    N_max: int = 4,
    r_max: int = 3,
    n_max: int = 12,
    capped: bool = True,
    instances: int = 200,
    seed: int = DEFAULT_SEED,
) -> list[VerificationReport]:
    """Seeded random sweeps of the series laws plus the sequence-transform
    identities and the transform-direction erratum."""
    records = [
        _reciprocal_unit_product(seed),
        _product_rule_sweep(instances, seed),
        _quotient_rule_strict_sweep(instances, seed),
        _quotient_rule_weighted_sweep(instances, seed),
        _transform_roundtrip(seed),
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
    identity = "series/reciprocal-unit-product"
    rng = random.Random(seed)
    for order in range(26):
        a = _random_series(rng, order, nonzero_constant=True)
        product = a * a.reciprocal()
        unit = TruncatedSeries.one(order)
        if product != unit:
            return failed(
                identity,
                (0, 0, order),
                "unit series",
                " ".join(str(c) for c in product.coefficients),
            )
    return passed(identity, (0, 0, 25))


def _product_rule_sweep(instances: int, seed: int) -> VerificationReport:
    """H^(n) of a product expands over weak compositions of n across the
    factors; checked as full series, not just one coefficient. The lhs goes
    through ``TruncatedSeries.__mul__`` and ``ht_derivative``; the rhs is
    :func:`_product_rule_rhs`, which shares no product or derivative
    arithmetic with either (only the lcm scaling ``series._scaled``)."""
    identity = "series/derivative-product-rule"
    rng = random.Random(seed + 1)
    for _ in range(instances):
        k = rng.randint(2, 4)
        order = rng.randint(1, 10)
        n = rng.randint(1, min(order, 6))
        factors = [_random_series(rng, order) for _ in range(k)]
        product = factors[0]
        for f in factors[1:]:
            product = product * f
        lhs = product.ht_derivative(n)
        rhs = _product_rule_rhs(factors, n)
        if lhs != rhs:
            return failed(
                identity,
                (0, 0, n),
                " ".join(str(c) for c in lhs.coefficients),
                " ".join(str(c) for c in rhs.coefficients),
            )
    return passed(identity, (0, 0, instances))


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
    return [sum(map(mul, a[: k + 1], b[k::-1])) for k in range(len(a))]


def _quotient_rule_strict_sweep(instances: int, seed: int) -> VerificationReport:
    """Coefficient n of 1/f as a strict-composition sum with sign (-1)^k and
    factor f_0^-(k+1): 1/f_0 times the composition sum of the weights
    -f_e/f_0, walked by :func:`~hgcauchy.combinat.composition_sum`."""
    identity = "series/derivative-quotient-rule-strict"
    rng = random.Random(seed + 2)
    for _ in range(instances):
        order = rng.randint(1, 8)
        n = rng.randint(1, order)
        f = _random_series(rng, order, nonzero_constant=True)
        lhs = f.reciprocal().ht_derivative(n).coefficient(0)
        f0 = f.coefficient(0)
        rhs = composition_sum([-c / f0 for c in f.coefficients], n)[n] / f0
        if lhs != rhs:
            return failed(identity, (0, 0, n), lhs, rhs)
    return passed(identity, (0, 0, instances))


def _quotient_rule_weighted_sweep(instances: int, seed: int) -> VerificationReport:
    """Same target through binomial(n+1, k+1) weights over weak compositions
    of n into k parts, one walk of the coefficients of f for every k by
    :func:`~hgcauchy.combinat.weak_composition_sum`."""
    identity = "series/derivative-quotient-rule-weighted"
    rng = random.Random(seed + 3)
    for _ in range(instances):
        order = rng.randint(1, 8)
        n = rng.randint(1, order)
        f = _random_series(rng, order, nonzero_constant=True)
        lhs = f.reciprocal().ht_derivative(n).coefficient(0)
        f0 = f.coefficient(0)
        W = weak_composition_sum(f.coefficients, n, n)
        rhs = sum(
            comb(n + 1, k + 1) * (-1) ** k / f0 ** (k + 1) * W[k]
            for k in range(1, n + 1)
        )
        if lhs != rhs:
            return failed(identity, (0, 0, n), lhs, rhs)
    return passed(identity, (0, 0, instances))


def _transform_roundtrip(seed: int) -> VerificationReport:
    identity = "series/sequence-transform-roundtrip"
    rng = random.Random(seed + 4)
    order = 20
    x = [_random_fraction(rng) for _ in range(order)]
    recovered = cameron_inverse(cameron_transform(x))
    if recovered != x:
        return failed(
            identity,
            (0, 0, order),
            " ".join(str(v) for v in x),
            " ".join(str(v) for v in recovered),
        )
    zeros = [Fraction(0)] * order
    if cameron_transform(zeros) != zeros:
        return failed(identity, (0, 0, order), "zero sequence", "nonzero")
    return passed(identity, (0, 0, order))


def _transform_correspondence(N: int, n_max: int) -> VerificationReport:
    """Feeding the alternating ratio sequence through the transform yields
    the normalized first-order values; this is the direction that verifies."""
    identity = "series/sequence-transform-correspondence"
    x = [Fraction((-1) ** (n - 1) * N, N + n) for n in range(1, n_max + 1)]
    z = cameron_transform(x)
    table = cauchy.c_via_series(N, n_max).normalized()[1:]
    for n in range(1, n_max + 1):
        if z[n - 1] != table[n - 1]:
            return failed(identity, (N, 1, n), table[n - 1], z[n - 1])
    return passed(identity, (N, 1, n_max))


_SUITE_FUNCTIONS = {
    "core": core_suite,
    "higher": higher_suite,
    "relations": relations_suite,
    "inversion": inversion_suite,
    "series-rules": series_rules_suite,
}


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
