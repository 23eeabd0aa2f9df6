from fractions import Fraction as F
from math import factorial

import pytest

from hgcauchy.cauchy import c_via_series
from hgcauchy.combinat import weak_compositions
from hgcauchy.higher import (
    D_inversion,
    WeightTable,
    chor_closed_form,
    chor_via_convolution,
    chor_via_determinant,
    chor_via_explicit,
    chor_via_recurrence,
    chor_via_trudi,
    weight_D,
    weight_D_by_enumeration,
    weight_reference_form,
    weight_reference_mismatches,
)
from oracles import brute_weight

HIGHER_METHODS = (
    chor_via_recurrence,
    chor_via_determinant,
    chor_via_explicit,
    chor_via_trudi,
    chor_via_convolution,
)


class TestWeights:
    def test_known_values_order_two(self):
        table = weight_D(1, 2, 4)
        assert table.values == (F(1), F(1), F(11, 12), F(5, 6), F(137, 180))

    def test_first_weight_rule(self):
        for N in range(1, 5):
            for r in range(1, 5):
                assert weight_D(N, r, 1).weight(1) == F(r * N, N + 1)

    def test_order_one_is_plain_ratio(self):
        table = weight_D(3, 1, 8)
        for e in range(9):
            assert table.weight(e) == F(3, 3 + e)

    def test_convolution_matches_enumeration(self):
        for N in range(1, 4):
            for r in range(1, 5):
                assert weight_D_by_enumeration(N, r, 10) == list(
                    weight_D(N, r, 10).values
                )

    def test_matches_independent_oracle(self):
        for r in range(1, 4):
            for e in range(6):
                assert weight_D(2, r, 6).weight(e) == brute_weight(2, r, e)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            WeightTable(N=1, r=1, e_max=0, values=(F(2),))
        with pytest.raises(ValueError):
            WeightTable(N=1, r=1, e_max=1, values=(F(1), F(1, 3)))

    def test_rejects_bool_and_non_integer_parameters(self):
        with pytest.raises(TypeError, match="r must be an integer, not bool"):
            weight_D(2, True, 3)
        with pytest.raises(TypeError, match="not bool"):
            WeightTable(N=1, r=1, e_max=True, values=(F(1), F(1, 2)))
        for method in HIGHER_METHODS:
            with pytest.raises(TypeError, match="r must be an integer, got float"):
                method(2, 2.0, 3)


class TestWeightDisplays:
    def test_low_weights_match(self):
        for N in range(1, 5):
            for r in range(1, 5):
                table = weight_D(N, r, 3)
                for e in (1, 2, 3):
                    assert weight_reference_form(N, r, e) == table.weight(e)

    def test_fourth_display_slips_for_r_at_least_two(self):
        # the printed pair-of-twos denominator reads (N+1)^2; the correct
        # factor is (N+2)^2, visible from r = 2 on
        assert weight_reference_mismatches(1, 1) == []
        for N in range(1, 4):
            for r in range(2, 5):
                assert weight_reference_mismatches(N, r) == [4]

    def test_fourth_display_values_at_base_point(self):
        assert weight_reference_form(1, 2, 4) == F(9, 10)
        assert weight_reference_form(1, 2, 4, corrected=True) == F(137, 180)
        assert weight_D(1, 2, 4).weight(4) == F(137, 180)

    def test_corrected_display_matches_everywhere(self):
        for N in range(1, 4):
            for r in range(1, 5):
                assert weight_reference_form(N, r, 4, corrected=True) == weight_D(
                    N, r, 4
                ).weight(4)

    def test_third_display_spot_value(self):
        assert weight_D(2, 3, 3).weight(3) == F(472, 135)


class TestMethodAgreement:
    def test_five_ways_small_grid(self):
        for N in range(1, 4):
            for r in range(1, 4):
                reference = chor_via_recurrence(N, r, 10)
                for method in HIGHER_METHODS[1:]:
                    assert method(N, r, 10).values == reference.values

    def test_order_one_reduces_to_first_order(self):
        reference = c_via_series(2, 10)
        for method in HIGHER_METHODS:
            assert method(2, 1, 10).values == reference.values

    def test_known_second_order_value(self):
        # c^(2)(1, 2) = 2! (D_2(1)^2 - D_2(2)) = 2 (1 - 11/12) = 1/6
        assert chor_via_recurrence(1, 2, 2).values[2] == F(1, 6)


class TestDefiningResidual:
    def test_weak_composition_residual(self):
        # sum over m and weak compositions of n-m into r parts of
        # (-1)^(n-m) c^(r)(N, m) / (m! (N+i_1)...(N+i_r)) vanishes
        for N in range(1, 4):
            for r in range(1, 4):
                table = chor_via_convolution(N, r, 10)
                for n in range(1, 11):
                    acc = F(0)
                    for m in range(n + 1):
                        scale = table.values[m] / factorial(m)
                        for parts in weak_compositions(n - m, r):
                            den = 1
                            for i in parts:
                                den *= N + i
                            acc += F((-1) ** (n - m), 1) * scale / den
                    assert acc == 0, (N, r, n)


class TestClosedForms:
    def test_polynomial_displays(self):
        for N in range(1, 5):
            for r in range(1, 6):
                table = chor_via_recurrence(N, r, 4)
                for n in range(5):
                    assert chor_closed_form(N, r, n) == table.values[n], (N, r, n)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            chor_closed_form(1, 1, 5)


class TestInversion:
    def test_round_trip_reports(self):
        for N in range(1, 4):
            for r in range(1, 4):
                report = D_inversion(N, r, 10)
                assert report.status == "pass", report
