"""The record each identity check emits when a comparison fails.

Every check reports its first mismatch as a ``fail`` record at the point
(N, r, n) of the failing index, with the (expected, actual) pair in a fixed
order. Each test below perturbs one input of one check by +1 at one index,
so exactly one comparison fails, and pins the whole record: identity, point
and detail. The seeded series-rule sweeps stop at their first failing
instance, whose values the fixed seed determines; their detail lists every
coefficient of a series, or both sequences of the transform round trip.
"""

import pytest

from hgcauchy import cauchy, hessenberg, higher, relations, verify
from hgcauchy.cauchy import CauchyTable
from hgcauchy.report import VerificationReport
from hgcauchy.series import TruncatedSeries


def bump(monkeypatch, owner, name, index=None, when=None):
    """Add 1 to what ``owner.name`` returns: to entry ``index`` of a list or
    of a table's values, or to a scalar when ``index`` is None; only on the
    calls whose arguments satisfy ``when``, if given."""
    original = getattr(owner, name)

    def bumped(*args, **kwargs):
        out = original(*args, **kwargs)
        if when is not None and not when(*args, **kwargs):
            return out
        if index is None:
            return out + 1
        values = list(out.values if isinstance(out, CauchyTable) else out)
        values[index] += 1
        if isinstance(out, CauchyTable):
            return CauchyTable(out.N, out.r, values)
        return values

    monkeypatch.setattr(owner, name, bumped)


def failing(records, identity):
    """The one fail record of ``identity`` among ``records``."""
    found = [r for r in records if r.identity == identity and not r.ok]
    assert len(found) == 1, records
    return found[0]


def core():
    return verify.core_suite(N_max=1, n_max=4)


def order_r():
    return verify.higher_suite(N_max=1, r_max=2, n_max=4)


# identity, (owner, function, index bumped, condition), run, point, detail;
# run returns the record, or a suite's records holding the one fail record
SITES = [
    pytest.param(
        "core/method-agreement",
        (higher, "c_via_compositions", 3, None),
        core,
        (1, 1, 3),
        ("1/4", "5/4"),
        id="agreement",
    ),
    pytest.param(
        "core/defining-recurrence-residual",
        (higher, "c_via_series", 3, None),
        core,
        (1, 1, 3),
        ("0", "-1/6"),
        id="defining-residual",
    ),
    pytest.param(
        "core/small-index-closed-forms",
        (cauchy, "c_closed_form", None, lambda N, n: n == 2),
        core,
        (1, 1, 2),
        ("5/6", "-1/6"),
        id="core-closed-forms",
    ),
    pytest.param(
        "core/second-kind-normalization",
        (cauchy, "c_via_series", 2, None),
        core,
        (1, 1, 2),
        ("-1/12", "5/12"),
        id="second-kind-normalization",
    ),
    pytest.param(
        "core/bernoulli-determinant",
        (cauchy, "classical_bernoulli_det", 4, None),
        core,
        (1, 1, 4),
        ("-1/30", "29/30"),
        id="bernoulli",
    ),
    pytest.param(
        "core/euler-determinant",
        (cauchy, "classical_euler_det", 2, None),
        core,
        (1, 1, 4),
        ("5", "6"),
        id="euler",
    ),
    pytest.param(
        "higher/defining-recurrence-residual",
        (higher, "chor_via_convolution", 2, lambda N, r, n: r == 2),
        order_r,
        (1, 2, 2),
        ("0", "1/2"),
        id="weak-composition-residual",
    ),
    pytest.param(
        "higher/weight-enumeration-agreement",
        (higher, "weight_D_by_enumeration", 2, lambda N, r, e: r == 2),
        order_r,
        (1, 2, 2),
        ("23/12", "11/12"),
        id="weight-enumeration",
    ),
    pytest.param(
        "higher/weight-closed-forms",
        (higher, "weight_reference_form", None, lambda N, r, e: (r, e) == (2, 2)),
        order_r,
        (1, 2, 2),
        ("23/12", "11/12"),
        id="weight-closed-forms",
    ),
    pytest.param(
        "higher/order-closed-forms",
        (higher, "chor_closed_form", None, lambda N, r, n: (r, n) == (2, 3)),
        order_r,
        (1, 2, 3),
        ("1", "0"),
        id="order-closed-forms",
    ),
    pytest.param(
        "inversion/signed-inverse-bands",
        (hessenberg, "unit_lower_toeplitz_inverse", 1, lambda alpha: len(alpha) == 4),
        lambda: verify.inversion_suite(N_max=1, r_max=1, n_max=4),
        (1, 1, 2),
        ("1/3", "4/3"),
        id="signed-inverse-bands",
    ),
    pytest.param(
        "series/sequence-transform-correspondence",
        (verify, "cameron_transform", 2, lambda x: len(x) == 4),
        lambda: verify.series_rules_suite(N_max=1, n_max=4, instances=1),
        (1, 1, 3),
        ("1/24", "25/24"),
        id="transform-correspondence",
    ),
    pytest.param(
        "relations/cross-order-step",
        (relations, "c_via_series", 3, lambda N, n: N == 2),
        lambda: relations.cross_order_step(2, 4),
        (2, 1, 3),
        ("53/45", "8/45"),
        id="cross-order-step",
    ),
    pytest.param(
        "relations/descending-chain-expansion",
        (relations, "c_via_series", 3, lambda N, n: N == 2),
        lambda: relations.chain_sum(2, 4),
        (2, 1, 3),
        ("53/45", "8/45"),
        id="chain-sum",
    ),
    pytest.param(
        "relations/chain-example-first-order",
        (relations, "c_via_series", 2, lambda N, n: N == 1),
        lambda: relations.chain_example_first(2),
        (2, 1, 1),
        ("2/3", "-1/3"),
        id="chain-example-first",
    ),
    pytest.param(
        "relations/chain-example-second-order",
        (relations, "c_via_series", 2, lambda N, n: N == 2),
        lambda: relations.chain_example_second(2),
        (2, 1, 2),
        ("8/9", "-1/9"),
        id="chain-example-second",
    ),
    pytest.param(
        "inversion/ratio-recovery",
        (hessenberg, "unit_lower_toeplitz_inverse", 1, None),
        lambda: cauchy.ratio_inversion(2, 4),
        (2, 1, 2),
        ("1/2", "3/2"),
        id="ratio-inversion",
    ),
    pytest.param(
        "inversion/weight-recovery/determinant",
        (hessenberg, "unit_lower_toeplitz_inverse", 1, None),
        lambda: higher.D_inversion(1, 2, 4),
        (1, 2, 2),
        ("11/12", "23/12"),
        id="D-inversion-determinant",
    ),
    pytest.param(
        "inversion/determinant-roundtrip",
        (hessenberg, "unit_lower_toeplitz_inverse", 1, lambda alpha: len(alpha) == 4),
        lambda: verify.inversion_suite(N_max=1, r_max=1, n_max=4),
        (1, 1, 2),
        ("1/3", "4/3"),
        id="determinant-roundtrip",
    ),
]


@pytest.mark.parametrize("identity, perturbed, run, point, detail", SITES)
def test_forced_mismatch_record(monkeypatch, identity, perturbed, run, point, detail):
    owner, name, index, when = perturbed
    bump(monkeypatch, owner, name, index, when)
    record = run()
    if isinstance(record, list):
        record = failing(record, identity)
    assert record == VerificationReport(identity, point, "fail", detail)


def test_every_record_site_is_pinned():
    # nineteen sites: _agreement serves two suites
    assert len({p.values[0] for p in SITES}) == len(SITES) == 19


def bump_last_coefficient(monkeypatch, owner, name, when=lambda *args: True):
    """Add 1 to the last coefficient of the series ``owner.name`` returns, on
    the calls whose arguments satisfy ``when``."""
    original = getattr(owner, name)

    def bumped(*args):
        out = original(*args)
        if not when(*args):
            return out
        return TruncatedSeries(out.coefficients[:-1] + (out.coefficients[-1] + 1,))

    monkeypatch.setattr(owner, name, bumped)


def transform_roundtrip():
    return verify._transform_roundtrip(verify.DEFAULT_SEED)


ROUNDTRIP_X = (
    "-33/34 9 -44/3 25/6 23/20 -33/8 10 -16/25 -7/39 -39/8 "
    "-1 -43/8 -45/43 7/50 47/45 41/45 -9/10 -7/39 22/49"
)
PRODUCT_RULE_HEAD = (
    "-224577/41860 -1376289/230230 -258344577/5640635 9073514883/630139510"
)

# identity, patch, run, point, detail; each patch makes its sweep fail at
# one instance, the first one it perturbs, at the default seed
SWEEP_SITES = [
    pytest.param(
        "series/reciprocal-unit-product",
        lambda mp: bump_last_coefficient(
            mp, TruncatedSeries, "reciprocal", lambda a: a.order == 3
        ),
        lambda: verify._reciprocal_unit_product(verify.DEFAULT_SEED),
        (0, 0, 3),
        ("1 0 0 0", "1 0 0 -1"),
        id="reciprocal-unit-product",
    ),
    pytest.param(
        "series/derivative-product-rule",
        lambda mp: bump_last_coefficient(mp, verify, "_product_rule_rhs"),
        lambda: verify._product_rule_sweep(200, verify.DEFAULT_SEED),
        (0, 0, 2),
        (
            f"{PRODUCT_RULE_HEAD} 2036942469/54794740",
            f"{PRODUCT_RULE_HEAD} 2091737209/54794740",
        ),
        id="product-rule",
    ),
    pytest.param(
        "series/derivative-quotient-rule-strict",
        lambda mp: bump(mp, verify, "composition_sum", -1),
        lambda: verify._quotient_rule_strict_sweep(200, verify.DEFAULT_SEED),
        (0, 0, 2),
        ("8012/3159", "9416/3159"),
        id="quotient-rule-strict",
    ),
    pytest.param(
        "series/derivative-quotient-rule-weighted",
        lambda mp: bump(mp, verify, "weak_composition_sum", -1),
        lambda: verify._quotient_rule_weighted_sweep(200, verify.DEFAULT_SEED),
        (0, 0, 1),
        ("160/729", "-740/729"),
        id="quotient-rule-weighted",
    ),
    pytest.param(
        "series/sequence-transform-roundtrip",
        lambda mp: bump(mp, verify, "cameron_inverse", -1),
        transform_roundtrip,
        (0, 0, 20),
        (f"{ROUNDTRIP_X} -17/21", f"{ROUNDTRIP_X} 4/21"),
        id="transform-roundtrip",
    ),
    pytest.param(
        "series/sequence-transform-roundtrip",
        lambda mp: bump(mp, verify, "cameron_transform", 0, lambda x: not any(x)),
        transform_roundtrip,
        (0, 0, 20),
        (" ".join(["0"] * 20), " ".join(["1"] + ["0"] * 19)),
        id="transform-fixes-zero",
    ),
]


@pytest.mark.parametrize("identity, patch, run, point, detail", SWEEP_SITES)
def test_forced_sweep_mismatch_record(monkeypatch, identity, patch, run, point, detail):
    patch(monkeypatch)
    assert run() == VerificationReport(identity, point, "fail", detail)
