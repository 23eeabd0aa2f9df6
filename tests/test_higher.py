from fractions import Fraction as F
from math import comb, factorial

import pytest

from hgcauchy.cauchy import c_via_series
from hgcauchy.combinat import STRICT_COMPOSITION_CAP, weak_compositions
from hgcauchy.errors import CapExceeded
from hgcauchy.hessenberg import PARTITION_CAP
from hgcauchy.higher import (
    ROUTES,
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
)
from oracles import (
    brute_weight,
    denominator_bound,
    denominator_bound_misses,
    naive_product,
    naive_reciprocal,
)

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
                assert weight_D(N, r, 1).values[1] == F(r * N, N + 1)

    def test_order_one_is_plain_ratio(self):
        table = weight_D(3, 1, 8)
        for e in range(9):
            assert table.values[e] == F(3, 3 + e)

    def test_convolution_matches_enumeration(self):
        for N in range(1, 4):
            for r in range(1, 5):
                assert weight_D_by_enumeration(N, r, 10) == list(
                    weight_D(N, r, 10).values
                )

    def test_matches_independent_oracle(self):
        for r in range(1, 4):
            for e in range(6):
                assert weight_D(2, r, 6).values[e] == brute_weight(2, r, e)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            WeightTable(N=1, r=1, values=(F(2),))
        with pytest.raises(ValueError):
            WeightTable(N=1, r=1, values=(F(1), F(1, 3)))

    def test_rejects_bool_and_non_integer_parameters(self):
        with pytest.raises(TypeError, match="r must be an integer, not bool"):
            weight_D(2, True, 3)
        with pytest.raises(TypeError, match="not bool"):
            WeightTable(N=1, r=True, values=(F(1), F(1, 2)))
        for method in HIGHER_METHODS:
            with pytest.raises(TypeError, match="r must be an integer, got float"):
                method(2, 2.0, 3)

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: weight_D(2, 2, True), TypeError, "e_max must be an integer, not bool"),
            (
                lambda: weight_D_by_enumeration(2, 2, -1),
                ValueError,
                "e_max must be non-negative, got -1",
            ),
        ],
        ids=["weight_D", "weight_D_by_enumeration"],
    )
    def test_errors_name_e_max(self, call, error, message):
        with pytest.raises(error, match=message):
            call()


def corrected_fourth_display(N, r):
    """The e = 4 weight display with its pair-of-twos term repaired:
    N^2/(N+2)^2 where the display prints N^2/(N+1)^2."""
    n1, n2, n3, n4 = N + 1, N + 2, N + 3, N + 4
    return (
        F(r * N, n4)
        + F(r * (r - 1) * N**2, n1 * n3)
        + comb(r, 2) * F(N**2, n2**2)
        + r * comb(r - 1, 2) * F(N**3, n1**2 * n2)
        + comb(r, 4) * F(N**4, n1**4)
    )


class TestWeightDisplays:
    def test_low_weights_match(self):
        for N in range(1, 5):
            for r in range(1, 5):
                table = weight_D(N, r, 3)
                for e in (1, 2, 3):
                    assert weight_reference_form(N, r, e) == table.values[e]

    def test_fourth_display_slips_for_r_at_least_two(self):
        # the printed pair-of-twos denominator reads (N+1)^2; the correct
        # factor is (N+2)^2, visible from r = 2 on
        for N in range(1, 4):
            for r in range(1, 5):
                table = weight_D(N, r, 4).values
                mismatches = [
                    e for e in range(1, 5) if weight_reference_form(N, r, e) != table[e]
                ]
                assert mismatches == ([4] if r >= 2 else []), (N, r)

    def test_fourth_display_values_at_base_point(self):
        assert weight_reference_form(1, 2, 4) == F(9, 10)
        assert corrected_fourth_display(1, 2) == F(137, 180)
        assert weight_D(1, 2, 4).values[4] == F(137, 180)

    def test_corrected_display_matches_everywhere(self):
        for N in range(1, 4):
            for r in range(1, 5):
                assert corrected_fourth_display(N, r) == weight_D(N, r, 4).values[4]

    def test_index_must_be_an_integer(self):
        with pytest.raises(TypeError, match="e must be an integer, not bool"):
            weight_reference_form(1, 2, True)
        with pytest.raises(TypeError, match="e must be an integer, got float"):
            weight_reference_form(1, 2, 1.0)
        with pytest.raises(TypeError, match="n must be an integer, not bool"):
            chor_closed_form(1, 2, True)

    def test_third_display_spot_value(self):
        assert weight_D(2, 3, 3).values[3] == F(472, 135)


class TestMethodAgreement:
    def test_five_ways_small_grid(self):
        for N in range(1, 4):
            for r in range(1, 4):
                reference = chor_via_recurrence(N, r, 10)
                for method in HIGHER_METHODS[1:]:
                    assert method(N, r, 10).values == reference.values

    def test_explicit_equals_the_recurrence_at_a_huge_N(self):
        N = 10**12
        table = chor_via_explicit(N, 3, 12)
        assert table.values == chor_via_recurrence(N, 3, 12).values
        assert denominator_bound_misses(N, table.values) == []

    def test_order_one_reduces_to_first_order(self):
        reference = c_via_series(2, 10)
        for method in HIGHER_METHODS:
            assert method(2, 1, 10).values == reference.values

    def test_known_second_order_value(self):
        # c^(2)(1, 2) = 2! (D_2(1)^2 - D_2(2)) = 2 (1 - 11/12) = 1/6
        assert chor_via_recurrence(1, 2, 2).values[2] == F(1, 6)


# the deep-tables shapes of the convolution route, and one huge N
CONVOLUTION_POINTS = ((22, 3, 120), (20, 3, 120), (10**12, 2, 30))


@pytest.fixture(scope="module")
def convolution_tables():
    return {point: chor_via_convolution(*point) for point in CONVOLUTION_POINTS}


class TestConvolutionByMillersRecurrence:
    @pytest.mark.parametrize("point", CONVOLUTION_POINTS, ids=str)
    def test_equals_the_recurrence(self, convolution_tables, point):
        expected = chor_via_recurrence(*point).values
        assert convolution_tables[point].values == expected

    @pytest.mark.parametrize("point", CONVOLUTION_POINTS, ids=str)
    def test_normalized_values_divide_the_denominator_bound(
        self, convolution_tables, point
    ):
        N = point[0]
        for n, b in enumerate(convolution_tables[point].normalized()):
            assert denominator_bound(N, n) % b.denominator == 0, n

    def test_first_order_table_divides_the_denominator_bound(self):
        for n, b in enumerate(c_via_series(17, 200).normalized()):
            assert denominator_bound(17, n) % b.denominator == 0, n


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


def _oracle_table(N, r, n_max):
    """n! times the reciprocal of F_N^r, F_N(x) = sum_j (-1)^j N/(N+j) x^j,
    by term-by-term products and the textbook reciprocal."""
    f = [F((-1) ** j * N, N + j) for j in range(n_max + 1)]
    power = f
    for _ in range(r - 1):
        power = naive_product(power, f)
    return tuple(factorial(n) * b for n, b in enumerate(naive_reciprocal(power)))


class TestRouteTable:
    def test_keys_are_the_methods(self):
        # the one place the seven --method names are written out, in CLI order
        assert tuple(ROUTES) == (
            "series",
            "recurrence",
            "determinant",
            "compositions",
            "trudi",
            "explicit",
            "convolution",
        )

    @pytest.mark.parametrize("method", tuple(ROUTES))
    def test_route_equals_the_reciprocal_of_the_power(self, method):
        route = ROUTES[method]
        for r in (1, 2, 3) if route.any_order else (1,):
            for N in (1, 2, 5):
                table = route.compute(N, r, 10, route.cap)
                assert (table.N, table.r, table.n_max) == (N, r, 10)
                assert table.values == _oracle_table(N, r, 10), (N, r)

    def test_caps_are_the_enumeration_caps(self):
        caps = {method: route.cap for method, route in ROUTES.items()}
        assert caps == {
            "series": None,
            "recurrence": None,
            "determinant": None,
            "compositions": STRICT_COMPOSITION_CAP,
            "trudi": PARTITION_CAP,
            "explicit": STRICT_COMPOSITION_CAP,
            "convolution": None,
        }

    @pytest.mark.parametrize("method", ["compositions", "trudi", "explicit"])
    def test_route_refuses_past_its_cap(self, method):
        route = ROUTES[method]
        with pytest.raises(CapExceeded):
            route.compute(2, 1, route.cap + 1, route.cap)
