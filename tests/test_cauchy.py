from fractions import Fraction as F
from math import factorial

import pytest

import hgcauchy
from hgcauchy.cauchy import (
    CauchyTable,
    c_closed_form,
    c_trudi_printed_variant,
    c_via_compositions,
    c_via_determinant,
    c_via_recurrence,
    c_via_series,
    c_via_trudi,
    classical_bernoulli_det,
    classical_euler_det,
    hgc_generating_series,
    ratio_inversion,
)
from hgcauchy.errors import CapExceeded
from hgcauchy.hessenberg import (
    PARTITION_CAP,
    HessenbergSpec,
    determinant_sequence,
    enumerate_partition_multiplicities,
    trudi_sequence,
    trudi_sum,
)
from hgcauchy.higher import chor_via_explicit, chor_via_trudi
from hgcauchy.relations import chain_sum
from hgcauchy.series import TruncatedSeries, log1p_series
from oracles import denominator_bound_misses, naive_trudi_printed_variant

ALL_METHODS = (
    c_via_series,
    c_via_recurrence,
    c_via_determinant,
    c_via_compositions,
    c_via_trudi,
)


class TestKnownValues:
    def test_classical_table(self):
        table = c_via_series(1, 5)
        assert table.values == (F(1), F(1, 2), F(-1, 6), F(1, 4), F(-19, 30), F(9, 4))

    def test_classical_normalized(self):
        assert c_via_series(1, 5).normalized() == [
            F(1),
            F(1, 2),
            F(-1, 12),
            F(1, 24),
            F(-19, 720),
            F(3, 160),
        ]

    def test_n_two_table(self):
        table = c_via_recurrence(2, 3)
        assert table.values[1] == F(2, 3)
        assert table.values[2] == F(-1, 9)
        assert table.values[3] == F(8, 45)

    def test_first_value_rule(self):
        for N in range(1, 8):
            assert c_via_series(N, 1).values[1] == F(N, N + 1)

    def test_zero_length_table(self):
        assert c_via_recurrence(3, 0).values == (F(1),)


class TestTableValidation:
    def test_rejects_wrong_leading_value(self):
        with pytest.raises(ValueError):
            CauchyTable(N=1, r=1, values=(F(2),))
        with pytest.raises(ValueError, match="index 0 must be 1"):
            CauchyTable(N=1, r=1, values=())

    def test_rejects_wrong_first_index(self):
        with pytest.raises(ValueError):
            CauchyTable(N=1, r=1, values=(F(1), F(1, 3)))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            c_via_series(0, 3)
        with pytest.raises(ValueError):
            c_via_series(1, -1)

    def test_rejects_bool_parameters(self):
        with pytest.raises(TypeError, match="N must be an integer, not bool"):
            c_via_series(True, 3)
        with pytest.raises(TypeError, match="n_max must be an integer, not bool"):
            c_via_recurrence(2, False)
        with pytest.raises(TypeError, match="not bool"):
            CauchyTable(N=True, r=1, values=(F(1),))

    def test_classical_determinants_reject_bool_and_float(self):
        with pytest.raises(TypeError, match="n_max must be an integer, not bool"):
            classical_bernoulli_det(True)
        with pytest.raises(TypeError, match="n_max must be an integer, got float"):
            classical_euler_det(1.5)

    def test_rejects_non_integer_parameters(self):
        with pytest.raises(TypeError, match="N must be an integer, got float 2.5"):
            c_via_series(2.5, 3)
        with pytest.raises(TypeError, match="n_max must be an integer"):
            c_via_determinant(2, F(3))


class TestGeneratingSeries:
    def test_coefficients_are_alternating_ratios(self):
        s = hgc_generating_series(3, 5)
        for j in range(6):
            assert s.coefficient(j) == F((-1) ** j * 3, 3 + j)

    def test_errors_name_order(self):
        with pytest.raises(ValueError, match="order must be non-negative, got -1"):
            hgc_generating_series(2, -1)


class TestMethodAgreement:
    def test_all_methods_identical(self):
        for N in range(1, 7):
            reference = c_via_series(N, 12)
            for method in ALL_METHODS[1:]:
                assert method(N, 12).values == reference.values

    def test_composition_walk_equals_the_solve_at_enum_caps_shape(self):
        for N in (4, 8):
            assert c_via_compositions(N, 20).values == c_via_series(N, 20).values

    def test_composition_walk_equals_the_solve_at_a_huge_N(self):
        N = 10**30
        table = c_via_compositions(N, 14)
        assert table.values == c_via_series(N, 14).values
        assert denominator_bound_misses(N, table.values) == []


class TestDefiningRecurrence:
    def test_residual_vanishes(self):
        for N in range(1, 6):
            table = c_via_series(N, 15)
            for n in range(1, 16):
                residual = sum(
                    F((-1) ** i, 1)
                    * table.values[i]
                    / ((N + n - i) * factorial(i))
                    for i in range(n + 1)
                )
                assert residual == 0


class TestSignPattern:
    def test_consecutive_values_alternate(self):
        for N in range(1, 7):
            values = c_via_series(N, 20).values
            for n in range(1, 20):
                assert values[n] * values[n + 1] < 0


class TestSpecialization:
    def test_second_kind_normalization(self):
        # c(1, n)/n! are the coefficients of the reciprocal of log(1+x)/x
        log_over_x = TruncatedSeries(log1p_series(13).coefficients[1:])
        oracle = log_over_x.reciprocal()
        table = c_via_recurrence(1, 12).normalized()
        for n in range(13):
            assert table[n] == oracle.coefficient(n)


class TestClosedForms:
    def test_small_indices(self):
        for N in range(1, 7):
            table = c_via_series(N, 5)
            for n in range(6):
                assert c_closed_form(N, n) == table.values[n]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            c_closed_form(1, 6)

    def test_errors_name_n(self):
        with pytest.raises(ValueError, match="no closed form for n = -1"):
            c_closed_form(1, -1)
        with pytest.raises(TypeError, match="^n must be an integer, not bool"):
            c_closed_form(1, True)
        with pytest.raises(ValueError, match="^N must be a positive integer, got 0"):
            c_closed_form(0, 2)


class TestRatioInversion:
    def test_grid(self):
        for N in range(1, 7):
            report = ratio_inversion(N, 15)
            assert report.status == "pass", report

    def test_middle_ratio_value(self):
        # the n-th determinant over normalized bands returns N/(N+n)
        bands = c_via_series(5, 10).normalized()[1:]
        dets = determinant_sequence(F(1), bands)
        assert dets[10] == F(1, 3)


class TestPrintedVariant:
    def test_small_values(self):
        assert c_trudi_printed_variant(1, 0) == F(1)
        # the rearranged binomial top vanishes against the lone partition of
        # 1, so the n = 1 term drops out entirely
        assert c_trudi_printed_variant(1, 1) == F(0)

    def test_counterexample_at_n_two(self):
        literal = c_trudi_printed_variant(1, 2)
        assert literal == F(-2, 3)
        assert literal != c_via_series(1, 2).values[2]

    def test_errors_name_n(self):
        with pytest.raises(ValueError, match="^n must be non-negative, got -1"):
            c_trudi_printed_variant(1, -1)
        with pytest.raises(TypeError, match="^n must be an integer, not bool"):
            c_trudi_printed_variant(1, True)

    @pytest.mark.parametrize("N", [1, 2, 5, 64])
    def test_equals_the_term_by_term_sum(self, N):
        # the s = n/2 slice of the Trudi walk against one Fraction term per
        # multiplicity vector, odd n (where it is 0) included
        for n in range(17):
            assert c_trudi_printed_variant(N, n) == naive_trudi_printed_variant(N, n)

    def test_uncapped_past_the_cap(self):
        n = PARTITION_CAP + 2
        uncapped = c_trudi_printed_variant(2, n, cap=None)
        assert uncapped == naive_trudi_printed_variant(2, n)

    def test_cap_checked_before_the_walk(self, monkeypatch):
        def refuse(band):
            raise AssertionError("the Trudi walk ran past the cap")

        monkeypatch.setattr(hgcauchy.cauchy, "_trudi_walk", refuse)
        for n in (PARTITION_CAP + 1, PARTITION_CAP + 2):
            with pytest.raises(CapExceeded) as exc:
                c_trudi_printed_variant(3, n)
            assert str(exc.value) == (
                f"partition multiset enumeration: size {n} exceeds the safety "
                f"cap {PARTITION_CAP} (pass cap=None, or --unsafe-caps on the "
                "command line, to override)"
            )


class TestCaps:
    def test_compositions_cap(self):
        with pytest.raises(CapExceeded):
            c_via_compositions(1, 23)

    def test_trudi_cap(self):
        with pytest.raises(CapExceeded):
            c_via_trudi(1, 25)

    def test_trudi_cap_checked_before_any_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("trudi_sum ran for an over-cap table")

        for module in (hgcauchy.cauchy, hgcauchy.higher, hgcauchy.hessenberg):
            monkeypatch.setattr(module, "trudi_sum", refuse, raising=False)
        with pytest.raises(CapExceeded):
            c_via_trudi(3, 25)
        with pytest.raises(CapExceeded):
            chor_via_trudi(3, 2, 25)

    def test_trudi_cap_checked_before_the_walk(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("trudi_sequence ran for an over-cap table")

        for module in (hgcauchy.cauchy, hgcauchy.higher, hgcauchy.hessenberg):
            monkeypatch.setattr(module, "trudi_sequence", refuse, raising=False)
        with pytest.raises(CapExceeded):
            c_via_trudi(3, 25)
        with pytest.raises(CapExceeded):
            chor_via_trudi(3, 2, 25)

    def test_uncapped_small_case_runs(self):
        assert c_via_compositions(1, 5, cap=None).values == c_via_series(1, 5).values


# every public function that takes a cap, called at enumeration size SIZE
SIZE = 4
BAND = [F(2, 3), F(1, 2), F(2, 5), F(1, 3)]
CAPPED = {
    "c_via_compositions": lambda cap: c_via_compositions(2, SIZE, cap),
    "c_via_trudi": lambda cap: c_via_trudi(2, SIZE, cap),
    "c_trudi_printed_variant": lambda cap: c_trudi_printed_variant(2, SIZE, cap),
    "chor_via_explicit": lambda cap: chor_via_explicit(2, 3, SIZE, cap),
    "chor_via_trudi": lambda cap: chor_via_trudi(2, 3, SIZE, cap),
    "trudi_sum": lambda cap: trudi_sum(HessenbergSpec(F(1), BAND), cap),
    "trudi_sequence": lambda cap: trudi_sequence(F(1), BAND, cap),
    "enumerate_partition_multiplicities": (
        lambda cap: enumerate_partition_multiplicities(SIZE, cap)
    ),
    "chain_sum": lambda cap: chain_sum(3, SIZE, cap),
}


@pytest.mark.parametrize("name", CAPPED)
@pytest.mark.parametrize(
    "cap, error, message",
    [
        (True, TypeError, "^cap must be an integer, not bool$"),
        (2.5, TypeError, "^cap must be an integer, got float 2.5$"),
        ("x", TypeError, "^cap must be an integer, got str 'x'$"),
        (-1, ValueError, "^cap must be non-negative, got -1$"),
    ],
    ids=("bool", "float", "str", "negative"),
)
def test_cap_meets_the_size_rule(name, cap, error, message):
    with pytest.raises(error, match=message):
        CAPPED[name](cap)


@pytest.mark.parametrize("name", CAPPED)
def test_cap_bounds_the_size(name):
    CAPPED[name](SIZE)
    with pytest.raises(CapExceeded) as exc:
        CAPPED[name](SIZE - 1)
    assert (exc.value.requested, exc.value.cap) == (SIZE, SIZE - 1)


class TestClassicalDeterminants:
    def test_bernoulli_values(self):
        assert classical_bernoulli_det(12) == [
            F(1),
            F(-1, 2),
            F(1, 6),
            F(0),
            F(-1, 30),
            F(0),
            F(1, 42),
            F(0),
            F(-1, 30),
            F(0),
            F(5, 66),
            F(0),
            F(-691, 2730),
        ]

    def test_euler_values(self):
        assert classical_euler_det(6) == [
            F(1),
            F(-1),
            F(5),
            F(-61),
            F(1385),
            F(-50521),
            F(2702765),
        ]
