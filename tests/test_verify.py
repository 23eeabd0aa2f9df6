import random
import sys
from fractions import Fraction as F
from operator import mul

import pytest

from hgcauchy import cauchy, higher, series, verify
from hgcauchy.report import VerificationReport, check, erratum, failed, passed
from hgcauchy.verify import (
    core_suite,
    higher_suite,
    inversion_suite,
    relations_suite,
    run_suites,
    series_rules_suite,
)
from oracles import naive_product_rule_rhs


class TestReportType:
    def test_pass_record(self):
        record = passed("some/identity", (1, 2, 3))
        assert record.status == "pass"
        assert record.ok
        assert record.detail is None

    def test_fail_record_carries_values(self):
        record = failed("some/identity", (1, 1, 4), F(1, 2), F(1, 3))
        assert record.status == "fail"
        assert not record.ok
        assert record.detail == ("1/2", "1/3")

    def test_fail_without_detail_rejected(self):
        with pytest.raises(ValueError):
            VerificationReport(
                identity="x", parameter_point=(1, 1, 1), status="fail"
            )

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            VerificationReport(
                identity="x", parameter_point=(1, 1, 1), status="maybe"
            )

    def test_erratum_is_ok(self):
        record = erratum("some/identity", (1, 1, 1), F(1, 2), F(-1, 2))
        assert record.status == "erratum-noted"
        assert record.ok

    def test_check_without_cases_passes_at_the_point(self):
        assert check("x", (1, 2, 3), []) == passed("x", (1, 2, 3))

    def test_check_passes_when_every_case_agrees(self):
        cases = [(n, F(n, 2), F(2 * n, 4)) for n in range(5)]
        assert check("x", (3, 1, 4), cases) == passed("x", (3, 1, 4))

    def test_check_fails_at_the_first_mismatch(self):
        cases = [(0, 1, 1), (1, F(1, 2), F(1, 3)), (2, 5, 6)]
        assert check("x", (3, 2, 9), cases) == failed("x", (3, 2, 1), F(1, 2), F(1, 3))

    def test_check_stops_reading_after_the_first_mismatch(self):
        def cases():
            yield 0, 1, 1
            yield 1, 1, 2
            raise AssertionError("read past the first mismatch")

        assert check("x", (1, 1, 5), cases()) == failed("x", (1, 1, 1), 1, 2)

    def test_as_dict(self):
        record = failed("x/y", (1, 2, 3), F(1), F(2))
        assert record.as_dict() == {
            "identity": "x/y",
            "parameter_point": [1, 2, 3],
            "status": "fail",
            "detail": ["1", "2"],
        }


class TestSuites:
    def test_every_suite_emits_no_failures(self):
        for name, suite in (
            ("core", core_suite),
            ("higher", higher_suite),
            ("relations", relations_suite),
            ("inversion", inversion_suite),
        ):
            records = suite(N_max=2, r_max=2, n_max=6)
            assert records, name
            assert all(r.status != "fail" for r in records), name
        records = series_rules_suite(N_max=2, r_max=2, n_max=6, instances=20)
        assert records
        assert all(r.status != "fail" for r in records)

    def test_relations_suite_covers_n_two_even_for_small_grid(self):
        records = relations_suite(N_max=1, r_max=1, n_max=4)
        assert any(r.parameter_point[0] == 2 for r in records)

    def test_single_erratum_per_owning_suite(self):
        for suite in (core_suite, higher_suite, inversion_suite):
            records = suite(N_max=1, r_max=1, n_max=4)
            errata = [r for r in records if r.status == "erratum-noted"]
            assert len(errata) == 1
        records = series_rules_suite(N_max=1, r_max=1, n_max=4, instances=20)
        assert sum(r.status == "erratum-noted" for r in records) == 1

    def test_run_suites_single_name_matches_direct_call(self):
        assert run_suites("relations", N_max=2, r_max=1, n_max=5) == relations_suite(
            N_max=2, r_max=1, n_max=5
        )

    def test_run_suites_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            run_suites("everything")

    def test_deterministic_records(self):
        once = series_rules_suite(N_max=2, r_max=2, n_max=6, instances=30)
        again = series_rules_suite(N_max=2, r_max=2, n_max=6, instances=30)
        assert once == again

    def test_default_grid_erratum_identities(self):
        records = run_suites("all")
        errata = sorted(
            r.identity for r in records if r.status == "erratum-noted"
        )
        assert errata == [
            "core/trudi-form-printed-variant",
            "higher/power-identity-example-exponents",
            "inversion/unsigned-inverse-bands",
            "series/sequence-transform-role-swap",
        ]
        assert not any(r.status == "fail" for r in records)

    def test_large_n_max_clamps_enumeration_methods(self):
        # n deeper than the chain cap must not raise while capped
        records = relations_suite(N_max=2, r_max=1, n_max=15)
        assert all(r.status == "pass" for r in records)


class TestSuiteArguments:
    # the rules of the verify flags, for every suite and for run_suites
    @pytest.fixture(params=["run_suites", *verify.SUITE_NAMES])
    def run(self, request):
        if request.param == "run_suites":
            return lambda **kw: run_suites("all", **kw)
        return verify._SUITE_FUNCTIONS[request.param]

    @pytest.mark.parametrize("name", ["N_max", "r_max", "n_max"])
    @pytest.mark.parametrize(
        "value, message",
        [
            (True, "must be an integer, not bool"),
            (2.0, "must be an integer, got float 2.0"),
            (F(2), "must be an integer, got Fraction"),
        ],
        ids=["bool", "float", "fraction"],
    )
    def test_sizes_must_be_integers(self, run, name, value, message):
        with pytest.raises(TypeError, match=f"^{name} {message}"):
            run(**{name: value})

    @pytest.mark.parametrize("name", ["N_max", "r_max"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_grid_bounds_are_at_least_one(self, run, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be at least 1, got {value}$"):
            run(**{name: value})

    def test_n_max_is_non_negative(self, run):
        with pytest.raises(ValueError, match="^n_max must be non-negative, got -1$"):
            run(n_max=-1)

    @pytest.mark.parametrize("value", [1, 0, None, "yes"])
    def test_capped_must_be_a_bool(self, run, value):
        with pytest.raises(TypeError, match="^capped must be a bool, got "):
            run(capped=value)

    @pytest.mark.parametrize(
        "kw, error, message",
        [
            ({"instances": True}, TypeError, "^instances must be an integer, not bool"),
            ({"instances": 20.0}, TypeError, "^instances must be an integer, got float"),
            ({"instances": -1}, ValueError, "^instances must be non-negative, got -1$"),
        ],
        ids=["instances-bool", "instances-float", "instances-negative"],
    )
    def test_series_rules_sweep_arguments(self, kw, error, message):
        with pytest.raises(error, match=message):
            series_rules_suite(N_max=1, r_max=1, n_max=2, **kw)

    def test_smallest_grid_and_negative_seed_still_run(self):
        assert run_suites("core", N_max=1, r_max=1, n_max=0)


class TestStrictSweepSensitivity:
    def test_walk_wrong_at_its_last_total_fails_the_sweep(self, monkeypatch):
        walk = verify.composition_sum

        def off_by_one_at_the_end(w, t_max):
            sums = walk(w, t_max)
            sums[-1] += 1
            return sums

        assert verify._quotient_rule_strict_sweep(200, 1729).status == "pass"
        monkeypatch.setattr(verify, "composition_sum", off_by_one_at_the_end)
        assert verify._quotient_rule_strict_sweep(200, 1729).status == "fail"


class TestWeightedSweepSensitivity:
    def test_walk_wrong_at_its_last_part_count_fails_the_sweep(self, monkeypatch):
        walk = verify.weak_composition_sum

        def off_by_one_at_the_end(w, total, parts):
            sums = walk(w, total, parts)
            sums[-1] += 1
            return sums

        assert verify._quotient_rule_weighted_sweep(200, 1729).status == "pass"
        monkeypatch.setattr(verify, "weak_composition_sum", off_by_one_at_the_end)
        assert verify._quotient_rule_weighted_sweep(200, 1729).status == "fail"


class TestProductRuleWalk:
    @pytest.mark.parametrize("seed", [1729, 1, 2, 3, 99])
    def test_walk_equals_naive_rhs_on_every_sweep_instance(self, monkeypatch, seed):
        walk = verify._product_rule_rhs
        calls = []

        def checked(factors, n):
            rhs = walk(factors, n)
            assert rhs == naive_product_rule_rhs(factors, n)
            calls.append(n)
            return rhs

        monkeypatch.setattr(verify, "_product_rule_rhs", checked)
        assert verify._product_rule_sweep(200, seed).status == "pass"
        assert len(calls) == 200

    def test_walk_wrong_in_its_last_coefficient_fails_the_sweep(self, monkeypatch):
        walk = verify._product_rule_rhs

        def off_by_one_at_the_end(factors, n):
            coefficients = list(walk(factors, n).coefficients)
            coefficients[-1] += 1
            return verify.TruncatedSeries(tuple(coefficients))

        assert verify._product_rule_sweep(200, 1729).status == "pass"
        monkeypatch.setattr(verify, "_product_rule_rhs", off_by_one_at_the_end)
        assert verify._product_rule_sweep(200, 1729).status == "fail"


def test_truncated_product_equals_slice_sums():
    # the reference is the per-coefficient form sum_(i<=k) a[i] b[k-i],
    # taken over slices; seeded lists with zeros and negative entries
    rng = random.Random(20261018)
    for size in range(1, 12):
        for _ in range(20):
            a = [rng.choice((0, rng.randint(-10**9, 10**9))) for _ in range(size)]
            b = [rng.choice((0, rng.randint(-10**9, 10**9))) for _ in range(size)]
            expected = [sum(map(mul, a[: k + 1], b[k::-1])) for k in range(size)]
            assert verify._truncated_product(a, b) == expected


class TestTrudiWalkSensitivity:
    def test_walk_wrong_at_its_last_n_fails_method_agreement(self, monkeypatch):
        walk = cauchy.trudi_sequence

        def off_by_one_at_the_end(super_entry, band, cap):
            dets = walk(super_entry, band, cap)
            dets[-1] += 1
            return dets

        def agreement(records):
            return [r.status for r in records if r.identity == "core/method-agreement"]

        assert set(agreement(core_suite(N_max=2, n_max=8))) == {"pass"}
        monkeypatch.setattr(cauchy, "trudi_sequence", off_by_one_at_the_end)
        assert agreement(core_suite(N_max=2, n_max=8)) == ["fail", "fail"]


def record_route_calls(monkeypatch):
    """Wrap every ``higher.ROUTES`` entry; the returned list collects the
    (method, r) of each route table built."""
    calls = []
    for method, route in higher.ROUTES.items():

        def compute(N, r, n_max, cap, method=method, inner=route.compute):
            calls.append((method, r))
            return inner(N, r, n_max, cap)

        monkeypatch.setitem(higher.ROUTES, method, route._replace(compute=compute))
    return calls


# method -> the computation it runs (see hgcauchy.cauchy)
COMPUTATIONS = {
    "series": "solve",
    "recurrence": "solve",
    "determinant": "solve",
    "compositions": "composition walk",
    "explicit": "composition walk",
    "trudi": "Trudi walk",
    "convolution": "F_N^(-r) by Miller's recurrence, no solve",
}
ORDER_R = ["recurrence", "trudi", "explicit", "convolution"]


class TestComputationsCompared:
    def test_all_suites_compute_every_method_at_first_order(self, monkeypatch):
        # every computation runs at r = 1 and at r = 2; ``determinant``
        # reruns the solve and is left to the golden replay
        assert set(COMPUTATIONS) == set(higher.ROUTES)
        calls = record_route_calls(monkeypatch)
        run_suites("all", N_max=1, r_max=2, n_max=4)
        first = {method for method, r in calls if r == 1}
        assert {COMPUTATIONS[method] for method in first} == set(COMPUTATIONS.values())
        assert {method for method, r in calls if r == 2} == set(ORDER_R)
        assert "determinant" not in {method for method, r in calls}

    def test_higher_builds_four_tables_per_point(self, monkeypatch):
        calls = record_route_calls(monkeypatch)
        higher_suite()
        points = [(N, r) for N in range(1, 5) for r in range(1, 4)]
        assert calls == [(method, r) for N, r in points for method in ORDER_R]

    def test_core_builds_three_tables_per_N(self, monkeypatch):
        calls = record_route_calls(monkeypatch)
        core_suite(N_max=3, n_max=4)
        assert calls == [("series", 1), ("compositions", 1), ("trudi", 1)] * 3

    # the Trudi walk, the third computation, is TestTrudiWalkSensitivity
    @pytest.mark.parametrize(
        "owner, name",
        [(series, "toeplitz_solve"), (cauchy, "composition_sum")],
        ids=["solve", "composition-walk"],
    )
    def test_computation_wrong_at_its_last_index_fails_core_agreement(
        self, monkeypatch, owner, name
    ):
        computation = getattr(owner, name)

        def off_by_one_at_the_end(*args):
            out = computation(*args)
            out[-1] += 1
            return out

        def agreement(records):
            return [r.status for r in records if r.identity == "core/method-agreement"]

        assert set(agreement(core_suite(N_max=2, n_max=8))) == {"pass"}
        monkeypatch.setattr(owner, name, off_by_one_at_the_end)
        assert agreement(core_suite(N_max=2, n_max=8)) == ["fail", "fail"]


def count_calls(monkeypatch, *targets):
    """Count the calls of each ``(owner, name)`` of ``targets``, wrapped in
    every ``hgcauchy`` module that binds the same function; the returned
    dict maps each name to its count."""
    counts = {}
    modules = [m for k, m in sys.modules.items() if k.startswith("hgcauchy.")]
    for owner, name in targets:
        original = getattr(owner, name)
        counts[name] = 0

        def counted(*args, name=name, original=original, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        for module in modules:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


class TestInputsBuiltOnce:
    def test_inversion_suite_builds_one_chain_per_point(self, monkeypatch):
        counts = count_calls(
            monkeypatch, (series, "toeplitz_solve"), (higher, "weight_D")
        )
        inversion_suite()
        # 12 (N, r) points and the erratum's one band: three solves each
        assert counts["toeplitz_solve"] <= 39
        assert counts["weight_D"] == 12

    def test_higher_suite_builds_one_weight_check_table_per_point(self, monkeypatch):
        counts = count_calls(monkeypatch, (higher, "weight_D"))
        higher_suite()
        # per (N, r): the three weight routes, and one table for both checks
        assert counts["weight_D"] == 48
