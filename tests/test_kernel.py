"""Differential tests: the integer-numerator kernels behind series products,
reciprocals, Hessenberg determinants and band inversion must equal the naive
term-by-term Fraction loops in ``oracles`` exactly."""

import random
from fractions import Fraction as F
from math import gcd

import pytest

from hgcauchy.errors import ZeroConstantTerm
from hgcauchy.hessenberg import determinant_sequence, unit_lower_toeplitz_inverse
from hgcauchy.series import TruncatedSeries, _power_by_recurrence, toeplitz_solve
from oracles import (
    RESIDUE_PRIMES,
    naive_determinant_sequence,
    naive_product,
    naive_reciprocal,
    naive_toeplitz_inverse,
    power_mod,
    random_coefficients,
    random_fraction,
    reciprocal_mod,
    reduced,
)

SEED = 20180215
ORDER = 80
SUPER_ENTRIES = (F(0), F(1), F(-3, 2), F(7))


def gauss_series(N, order=ORDER):
    """Coefficients (-1)^j N/(N+j) of F_N, the series the package inverts."""
    return [F((-1) ** j * N, N + j) for j in range(order + 1)]


def ratio_band(N, order=ORDER):
    return [F(N, N + k) for k in range(1, order + 1)]


def naive_power(a, exponent):
    result = [F(1)] + [F(0)] * (len(a) - 1)
    for _ in range(exponent):
        result = naive_product(result, a)
    return result


def random_series(rng, order):
    return list(random_coefficients(rng, order, nonzero_constant=True))


@pytest.mark.parametrize("N", (1, 17, 64))
class TestRatioBands:
    def test_reciprocal(self, N):
        a = gauss_series(N)
        assert list(TruncatedSeries(tuple(a)).reciprocal().coefficients) == (
            naive_reciprocal(a)
        )

    def test_product(self, N):
        a = gauss_series(N)
        b = naive_reciprocal(gauss_series(N + 1))
        product = TruncatedSeries(tuple(a)) * TruncatedSeries(tuple(b))
        assert list(product.coefficients) == naive_product(a, b)

    def test_power(self, N):
        a = [abs(c) for c in gauss_series(N)]
        s = TruncatedSeries(tuple(a))
        for exponent in range(5):
            assert list(s.power(exponent).coefficients) == naive_power(a, exponent)

    def test_determinant_sequence(self, N):
        band = ratio_band(N)
        for super_entry in SUPER_ENTRIES:
            assert determinant_sequence(super_entry, band) == (
                naive_determinant_sequence(super_entry, band)
            ), super_entry

    def test_unit_lower_toeplitz_inverse(self, N):
        band = ratio_band(N)
        assert unit_lower_toeplitz_inverse(band) == naive_toeplitz_inverse(band)


class TestRandomFractions:
    def test_reciprocal_and_product(self):
        rng = random.Random(SEED)
        for _ in range(20):
            order = rng.randint(0, 30)
            a = random_series(rng, order)
            b = random_series(rng, rng.randint(0, 30))
            s, t = TruncatedSeries(tuple(a)), TruncatedSeries(tuple(b))
            assert list(s.reciprocal().coefficients) == naive_reciprocal(a)
            assert list((s * t).coefficients) == naive_product(a, b)

    def test_power(self):
        rng = random.Random(SEED + 1)
        for _ in range(5):
            a = list(random_coefficients(rng, rng.randint(0, 20)))
            s = TruncatedSeries(tuple(a))
            for exponent in range(5):
                assert list(s.power(exponent).coefficients) == naive_power(a, exponent)

    def test_determinant_sequence_and_inverse(self):
        rng = random.Random(SEED + 2)
        for _ in range(20):
            band = [random_fraction(rng) for _ in range(rng.randint(0, 30))]
            for super_entry in SUPER_ENTRIES + (random_fraction(rng),):
                assert determinant_sequence(super_entry, band) == (
                    naive_determinant_sequence(super_entry, band)
                )
            assert unit_lower_toeplitz_inverse(band) == naive_toeplitz_inverse(band)


class TestEdgeCases:
    def test_empty_band(self):
        assert toeplitz_solve([]) == []
        for super_entry in SUPER_ENTRIES:
            assert determinant_sequence(super_entry, []) == [F(1)]
        assert unit_lower_toeplitz_inverse([]) == []

    def test_single_coefficient(self):
        for c in (F(1), F(3), F(-2, 5)):
            s = TruncatedSeries((c,))
            assert s.reciprocal().coefficients == (1 / c,)
            assert (s * s).coefficients == (c * c,)
            assert s.power(3).coefficients == (c**3,)
        assert determinant_sequence(F(7), [F(-3, 4)]) == [F(1), F(-3, 4)]
        assert unit_lower_toeplitz_inverse([F(2, 3)]) == [F(-2, 3)]

    def test_zero_interior_coefficients(self):
        cases = (
            [F(1), F(0), F(0), F(0), F(0), F(0)],
            [F(2), F(0), F(0), F(5, 3), F(0), F(0), F(-1, 7), F(0)],
            [F(-1, 3), F(0), F(4), F(0), F(0), F(0), F(0), F(0), F(9, 2)],
        )
        for a in cases:
            s = TruncatedSeries(tuple(a))
            assert list(s.reciprocal().coefficients) == naive_reciprocal(a)
            assert list((s * s).coefficients) == naive_product(a, a)
            band = a[1:]
            for super_entry in SUPER_ENTRIES:
                assert determinant_sequence(super_entry, band) == (
                    naive_determinant_sequence(super_entry, band)
                )
            assert unit_lower_toeplitz_inverse(band) == naive_toeplitz_inverse(band)

    def test_non_unit_and_negative_constant_term(self):
        for head in (F(3), F(-1), F(-7, 4), F(5, 9)):
            a = [head] + [F(1, k + 1) for k in range(1, 25)]
            recip = TruncatedSeries(tuple(a)).reciprocal()
            assert list(recip.coefficients) == naive_reciprocal(a)
            assert recip.coefficients[0] == 1 / head

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroConstantTerm):
            TruncatedSeries((F(0), F(1))).reciprocal()
        with pytest.raises(ZeroDivisionError):
            toeplitz_solve([F(0), F(1)])


def running_lcm_growth(values):
    """g_j = M_j / M_(j-1), M_j the lcm of the denominators of values[0..j]."""
    growth, M = [], 1
    for v in values:
        grow = v.denominator // gcd(M, v.denominator)
        growth.append(grow)
        M *= grow
    return growth


class TestProductOverRunningLcm:
    """Products whose right operand is kept over the running lcm of its own
    denominators: each shape exercises one part of the Horner sum."""

    def test_deep_tables_shape(self):
        # the normalized first-order table at N = 22, n = 120, whose
        # denominators grow at every index: squared on the same object, then
        # the square times itself
        b = naive_reciprocal(gauss_series(22, 120))
        assert all(g > 1 for g in running_lcm_growth(b)[1:])
        s = TruncatedSeries(tuple(b))
        square = s * s
        assert list(square.coefficients) == naive_product(b, b)
        fourth = square * square
        assert list(fourth.coefficients) == naive_product(
            list(square.coefficients), list(square.coefficients)
        )

    def test_non_monotone_right_denominators(self):
        b = [
            F(3, 7), F(-5, 2**61 - 1), F(1), F(0), F(-4), F(2, 7), F(0),
            F(-1, 9), F(6), F(7, 3), F(-1), F(0), F(5, 2**61 - 1), F(11, 27),
        ]
        assert {g == 1 for g in running_lcm_growth(b)} == {True, False}
        rng = random.Random(SEED + 3)
        for a in (
            [F(1)] * len(b),
            gauss_series(5, len(b) - 1),
            list(random_coefficients(rng, len(b) - 1)),
        ):
            s, t = TruncatedSeries(tuple(a)), TruncatedSeries(tuple(b))
            assert list((s * t).coefficients) == naive_product(a, b)
            assert list((t * s).coefficients) == naive_product(b, a)

    def test_unequal_lengths_both_orders(self):
        rng = random.Random(SEED + 4)
        for short, long in ((0, 9), (3, 17), (12, 40)):
            a = list(random_coefficients(rng, short))
            b = naive_reciprocal(gauss_series(3, long))
            s, t = TruncatedSeries(tuple(a)), TruncatedSeries(tuple(b))
            assert (s * t).order == (t * s).order == short
            assert list((s * t).coefficients) == naive_product(a, b)
            assert list((t * s).coefficients) == naive_product(b, a)

    def test_zero_constant_term_either_side(self):
        a = [F(0), F(2, 3), F(-1, 4), F(0), F(5, 6), F(1, 12)]
        b = naive_reciprocal(gauss_series(7, 5))
        for left, right in ((a, b), (b, a), (a, a)):
            s, t = TruncatedSeries(tuple(left)), TruncatedSeries(tuple(right))
            assert list((s * t).coefficients) == naive_product(left, right)


class TestPowerByRecurrence:
    """Miller's power recurrence against square-and-multiply and against
    chains of naive products: two other ways to the same power."""

    @staticmethod
    def seeded_series(rng, order):
        """A mixed, an all-negative and a sparse series, none with a_0 = 1."""
        mixed = random_series(rng, order)
        if mixed[0] == 1:
            mixed[0] = F(-5, 3)
        negative = [-abs(c) or F(-1, 7) for c in random_series(rng, order)]
        sparse = [F(3, 2)] + [
            random_fraction(rng) if rng.random() < 0.3 else F(0)
            for _ in range(order)
        ]
        return mixed, negative, sparse

    def test_matches_power_and_naive_chains(self):
        rng = random.Random(SEED + 5)
        for order in (0, 1, 2, 3, 5, 8, 13, 21, 34, 40):
            for a in self.seeded_series(rng, order):
                s = TruncatedSeries(tuple(a))
                chain = [F(1)] + [F(0)] * order
                for exponent in range(7):
                    powered = _power_by_recurrence(a, exponent)
                    assert powered == chain, (order, exponent)
                    assert powered == list(s.power(exponent).coefficients)
                    chain = naive_product(chain, a)

    def test_negative_exponents_match_the_solve_of_the_power(self):
        # P' a = r a' P holds for r < 0 too: the (-e)-th power is the
        # reciprocal of the e-th, taken here by square-and-multiply and the
        # solve, a third way to the same series
        rng = random.Random(SEED + 6)
        for order in (0, 1, 2, 3, 5, 8, 13, 21, 34, 40):
            for a in self.seeded_series(rng, order):
                s = TruncatedSeries(tuple(a))
                for e in range(1, 7):
                    expected = toeplitz_solve(s.power(e).coefficients)
                    assert _power_by_recurrence(a, -e) == expected, (order, e)

    @pytest.mark.parametrize("N", [1, 3, 22])
    def test_exponent_minus_one_is_the_solve_of_F_N(self, N):
        # the convolution route at r = 1: a second implementation of the
        # band recurrence that the solve runs
        a = gauss_series(N)
        assert _power_by_recurrence(a, -1) == toeplitz_solve(a)

    def test_int_constant_term_stays_exact_at_a_negative_exponent(self):
        # 2 ** -2 is the float 0.25; P_0 must be the Fraction 1/4
        powered = _power_by_recurrence([2, 1, 0, 3], -2)
        assert all(type(v) is F for v in powered)
        assert powered == toeplitz_solve([4, 4, 1, 12])

    def test_zero_constant_term_rejected(self):
        for exponent in (-2, -1, 0, 1, 3):
            with pytest.raises(ZeroConstantTerm):
                _power_by_recurrence([F(0), F(1), F(2, 3)], exponent)

    @pytest.mark.parametrize(
        "exponent, error, message",
        [
            (True, TypeError, "exponent must be an integer, not bool"),
            (2.0, TypeError, "exponent must be an integer, got float 2.0"),
            (F(-1), TypeError, "exponent must be an integer, got Fraction"),
        ],
    )
    def test_exponent_must_be_a_size(self, exponent, error, message):
        with pytest.raises(error, match=message):
            _power_by_recurrence([F(2), F(1)], exponent)


@pytest.mark.parametrize("p", RESIDUE_PRIMES[:2], ids=["2^61-1", "2^89-1"])
def test_kernels_agree_with_residues_at_order_200(p):
    # past the reach of the Fraction loops: the solve, the square-and-multiply
    # power (through _convolve) and Miller's recurrence at exponents 3 and -3,
    # reduced mod p, against naive loops over GF(p)
    rng = random.Random(SEED)
    a = random_coefficients(rng, 200, nonzero_constant=True)
    residues = reduced(a, p)
    assert reduced(toeplitz_solve(a), p) == reciprocal_mod(residues, p)
    cube = power_mod(residues, 3, p)
    assert reduced(TruncatedSeries(a).power(3).coefficients, p) == cube
    assert reduced(_power_by_recurrence(a, 3), p) == cube
    assert reduced(_power_by_recurrence(a, -3), p) == reciprocal_mod(cube, p)
