import random
from fractions import Fraction as F
from math import comb

import pytest

from hgcauchy.errors import OrderExceeded, ZeroConstantTerm
from hgcauchy.series import (
    TruncatedSeries,
    cameron_inverse,
    cameron_transform,
    log1p_series,
)
from oracles import random_coefficients, random_fraction

SEED = 1729


def series(*coeffs):
    return TruncatedSeries(tuple(F(c) for c in coeffs))


class TestConstruction:
    def test_order_is_length_minus_one(self):
        assert series(1, 2, 3).order == 2
        assert series(5).order == 0

    def test_from_coefficients_pads(self):
        s = TruncatedSeries.from_coefficients([F(1)], order=3)
        assert s.coefficients == (F(1), F(0), F(0), F(0))

    def test_from_coefficients_truncates(self):
        s = TruncatedSeries.from_coefficients([F(1), F(2), F(3)], order=1)
        assert s.coefficients == (F(1), F(2))

    def test_coefficient_out_of_range(self):
        with pytest.raises(IndexError):
            series(1, 2).coefficient(5)

    def test_truncate_cannot_extend(self):
        with pytest.raises(OrderExceeded):
            series(1, 2).truncate(4)

    def test_one(self):
        assert TruncatedSeries.one(2).coefficients == (F(1), F(0), F(0))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda s: s.power(True), "exponent must be an integer, not bool"),
            (lambda s: s.power(2.0), "exponent must be an integer, got float 2.0"),
            (lambda s: s.ht_derivative(True), "n must be an integer, not bool"),
            (lambda s: s.coefficient(True), "k must be an integer, not bool"),
            (lambda s: s.truncate(1.0), "order must be an integer, got float 1.0"),
            (lambda s: log1p_series(2.5), "order must be an integer, got float"),
            (lambda s: log1p_series(True), "order must be an integer, not bool"),
            (
                lambda s: TruncatedSeries.from_coefficients([1], order=1.0),
                "order must be an integer, got float 1.0",
            ),
        ],
        ids=[
            "power-bool",
            "power-float",
            "ht_derivative",
            "coefficient",
            "truncate",
            "log1p_series-float",
            "log1p_series-bool",
            "from_coefficients",
        ],
    )
    def test_bool_and_float_sizes_rejected(self, call, message):
        with pytest.raises(TypeError, match=message):
            call(series(1, 2, 3))


class TestArithmetic:
    def test_product_example(self):
        # (1 + x/2)(1 + x/3) = 1 + 5/6 x + 1/6 x^2
        a = series(1, F(1, 2), 0)
        b = series(1, F(1, 3), 0)
        assert (a * b).coefficients == (F(1), F(5, 6), F(1, 6))

    def test_mixed_orders_truncate_to_minimum(self):
        a = series(1, 1, 1, 1)
        b = series(1, 1)
        assert (a * b).order == 1
        assert (a + b).order == 1
        assert (a - b).order == 1

    def test_scalar_multiplication(self):
        a = series(1, F(1, 2))
        assert (3 * a).coefficients == (F(3), F(3, 2))
        assert (a * F(1, 3)).coefficients == (F(1, 3), F(1, 6))

    def test_negation_and_subtraction(self):
        a = series(1, 2)
        assert (-a).coefficients == (F(-1), F(-2))
        assert (a - a).coefficients == (F(0), F(0))

    def test_power_matches_repeated_multiplication(self):
        rng = random.Random(SEED)
        a = TruncatedSeries(random_coefficients(rng, 6))
        assert a.power(3) == a * a * a
        assert a.power(1) == a
        assert a.power(0) == TruncatedSeries.one(6)


class TestOperandTypes:
    def test_adding_a_non_series_is_a_type_error(self):
        a = series(1, 2)
        for other in (1, F(1, 2), None, (1, 2)):
            with pytest.raises(TypeError):
                a + other
            with pytest.raises(TypeError):
                other + a
            with pytest.raises(TypeError):
                a - other
        assert a.__add__(1) is NotImplemented

    def test_bool_is_not_a_scalar(self):
        a = series(1, 2)
        for flag in (True, False):
            with pytest.raises(TypeError):
                a * flag
            with pytest.raises(TypeError):
                flag * a
        assert a.__mul__(True) is NotImplemented
        assert (a * 1).coefficients == a.coefficients


class TestReciprocal:
    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroConstantTerm):
            series(0, 1).reciprocal()

    def test_geometric(self):
        one_minus_x = series(1, -1, 0, 0, 0)
        assert one_minus_x.reciprocal().coefficients == (F(1),) * 5

    def test_product_with_reciprocal_is_unit(self):
        rng = random.Random(SEED)
        for order in range(26):
            a = TruncatedSeries(random_coefficients(rng, order, nonzero_constant=True))
            assert a * a.reciprocal() == TruncatedSeries.one(order)


class TestDerivative:
    def test_monomial(self):
        # H^2 of x^3 is C(3,2) x = 3x
        s = series(0, 0, 0, 1)
        assert s.ht_derivative(2).coefficients == (F(0), F(3))

    def test_polynomial(self):
        s = series(1, 2, 3)
        assert s.ht_derivative(1).coefficients == (F(2), F(6))

    def test_zeroth_is_identity(self):
        s = series(4, 5, 6)
        assert s.ht_derivative(0) == s

    def test_beyond_order_rejected(self):
        with pytest.raises(OrderExceeded):
            series(1, 2).ht_derivative(3)

    def test_product_rule(self):
        # H^(n)(f_1 .. f_k) expands over weak compositions of n
        rng = random.Random(SEED)
        for _ in range(60):
            k = rng.randint(2, 4)
            order = rng.randint(1, 10)
            n = rng.randint(1, min(order, 5))
            factors = [
                TruncatedSeries(random_coefficients(rng, order)) for _ in range(k)
            ]
            product = factors[0]
            for f in factors[1:]:
                product = product * f
            lhs = product.ht_derivative(n)

            def comps(parts, total):
                if parts == 1:
                    yield (total,)
                    return
                for head in range(total + 1):
                    for rest in comps(parts - 1, total - head):
                        yield (head,) + rest

            rhs = None
            for parts in comps(k, n):
                term = factors[0].ht_derivative(parts[0])
                for f, i in zip(factors[1:], parts[1:]):
                    term = term * f.ht_derivative(i)
                rhs = term if rhs is None else rhs + term
            assert lhs == rhs

    def test_quotient_rules(self):
        rng = random.Random(SEED + 1)
        for _ in range(60):
            order = rng.randint(1, 8)
            n = rng.randint(1, order)
            f = TruncatedSeries(random_coefficients(rng, order, nonzero_constant=True))
            lhs = f.reciprocal().ht_derivative(n).coefficient(0)
            f0 = f.coefficient(0)

            strict = F(0)
            for k in range(1, n + 1):
                for comp in _strict_comps(n, k):
                    prod = F(1)
                    for i in comp:
                        prod *= f.coefficient(i)
                    strict += F((-1) ** k, 1) / f0 ** (k + 1) * prod
            assert lhs == strict

            weighted = F(0)
            for k in range(1, n + 1):
                for comp in _weak_comps(n, k):
                    prod = F(1)
                    for i in comp:
                        prod *= f.coefficient(i)
                    weighted += comb(n + 1, k + 1) * F((-1) ** k, 1) / f0 ** (
                        k + 1
                    ) * prod
            assert lhs == weighted

    def test_quotient_of_one_minus_x(self):
        # every coefficient of 1/(1-x) is 1, so each extraction gives 1
        f = series(1, -1, 0, 0, 0, 0)
        for n in range(1, 6):
            assert f.reciprocal().ht_derivative(n).coefficient(0) == 1


def _strict_comps(total, parts):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in _strict_comps(total - head, parts - 1):
            yield (head,) + rest


def _weak_comps(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _weak_comps(total - head, parts - 1):
            yield (head,) + rest


class TestLogSeries:
    def test_coefficients(self):
        s = log1p_series(4)
        assert s.coefficients == (F(0), F(1), F(-1, 2), F(1, 3), F(-1, 4))


class TestSequenceTransform:
    def test_all_ones(self):
        assert cameron_transform([F(1), F(0), F(0)]) == [F(1), F(1), F(1)]

    def test_round_trip(self):
        rng = random.Random(SEED + 2)
        x = [random_fraction(rng) for _ in range(20)]
        assert cameron_inverse(cameron_transform(x)) == x
        z = [random_fraction(rng) for _ in range(20)]
        assert cameron_transform(cameron_inverse(z)) == z

    def test_alternating_ratio_sequence(self):
        # x_n = (-1)^(n-1) N/(N+n) at N=1 transforms to the normalized
        # first-order values
        x = [F((-1) ** (n - 1), 1 + n) for n in range(1, 4)]
        assert cameron_transform(x) == [F(1, 2), F(-1, 12), F(1, 24)]

    def test_empty(self):
        assert cameron_transform([]) == []
        assert cameron_inverse([]) == []
