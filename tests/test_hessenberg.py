import random
import re
from fractions import Fraction as F

import pytest

from hgcauchy.errors import CapExceeded
from hgcauchy.hessenberg import (
    HessenbergSpec,
    PARTITION_CAP,
    _inversion_chain,
    _trudi_walk,
    determinant_sequence,
    enumerate_partition_multiplicities,
    hessenberg_det,
    trudi_sequence,
    trudi_sum,
    unit_lower_toeplitz_inverse,
)
from hgcauchy.series import toeplitz_solve
from oracles import (
    dense_determinant,
    dense_matrix,
    naive_trudi_sum,
    partition_count,
    profiled_arguments,
    profiled_calls,
    random_coefficients,
    random_fraction,
)

SEED = 1729


def random_spec(rng, n):
    coeffs = random_coefficients(rng, n - 1, nonzero_constant=False)
    return HessenbergSpec(
        super_entry=F(rng.randint(-5, 5), rng.randint(1, 5)),
        band=tuple(coeffs),
    )


class TestDeterminant:
    def test_known_two_by_two(self):
        spec = HessenbergSpec(super_entry=F(1), band=(F(1, 2), F(1, 3)))
        # | 1/2   1  |
        # | 1/3  1/2 | has determinant 1/4 - 1/3 = -1/12
        assert hessenberg_det(spec) == F(-1, 12)

    def test_empty_matrix_is_one(self):
        assert hessenberg_det(HessenbergSpec(super_entry=F(1), band=())) == 1

    def test_matches_dense_cofactor_oracle(self):
        rng = random.Random(SEED)
        for _ in range(40):
            n = rng.randint(1, 7)
            spec = random_spec(rng, n)
            assert hessenberg_det(spec) == dense_determinant(dense_matrix(spec))

    def test_sequence_prefix_property(self):
        rng = random.Random(SEED + 1)
        spec = random_spec(rng, 6)
        seq = determinant_sequence(spec.super_entry, list(spec.band))
        assert seq[0] == 1
        for k in range(1, 7):
            leading = HessenbergSpec(
                super_entry=spec.super_entry, band=spec.band[:k]
            )
            assert seq[k] == hessenberg_det(leading)

    def test_cauchy_band_rule_gives_second_kind_values(self):
        band = [F(1, k + 1) for k in range(1, 6)]
        seq = determinant_sequence(F(1), band)
        assert seq == [F(1), F(1, 2), F(-1, 12), F(1, 24), F(-19, 720), F(3, 160)]


class TestTrudi:
    def test_known_three_by_three(self):
        spec = HessenbergSpec(super_entry=F(1), band=(F(1, 2), F(1, 3), F(1, 4)))
        assert trudi_sum(spec) == F(1, 24)
        assert hessenberg_det(spec) == F(1, 24)

    def test_equals_determinant_on_random_specs(self):
        rng = random.Random(SEED + 2)
        for _ in range(100):
            n = rng.randint(0, 9)
            spec = random_spec(rng, n) if n else HessenbergSpec(F(1), ())
            assert trudi_sum(spec) == hessenberg_det(spec)

    def test_sequence_equals_naive_sum_for_every_prefix(self):
        rng = random.Random(SEED + 4)
        for super_entry in (F(0), F(1), F(-3, 2), F(7)):
            for _ in range(25):
                n = rng.randint(0, 10)
                # about a quarter of the entries are zero
                band = [
                    F(0) if rng.random() < 0.25 else random_fraction(rng)
                    for _ in range(n)
                ]
                seq = trudi_sequence(super_entry, band)
                assert len(seq) == n + 1
                for m in range(n + 1):
                    spec = HessenbergSpec(super_entry, tuple(band[:m]))
                    assert seq[m] == naive_trudi_sum(spec)

    @pytest.mark.parametrize("kind", ["zero", "negative", "mixed"])
    def test_walk_equals_naive_sum_up_to_sixteen(self, kind):
        # the walk adds a one-part completion inline; the oracle enumerates
        # every multiplicity vector
        rng = random.Random(SEED + 5)
        for n in range(17):
            if kind == "zero":
                band = [F(0)] * n
            elif kind == "negative":
                band = [-random_fraction(rng, nonzero=True) ** 2 for _ in range(n)]
            else:
                band = [F(0) if k % 3 == 1 else random_fraction(rng) for k in range(n)]
            for super_entry in (F(0), F(1), F(-3, 2)):
                spec = HessenbergSpec(super_entry, tuple(band))
                assert trudi_sum(spec) == naive_trudi_sum(spec), (kind, n)

    def test_walk_recurses_only_where_two_parts_fit(self):
        # a prefix whose parts > k cannot fill two slots has one completion,
        # added inline: every call but the root can still place two parts
        (acc, den), calls = profiled_arguments(
            _trudi_walk, "extend", lambda: _trudi_walk([F(1)] * 14)
        )
        # all-ones band: the multinomials count the 2^13 compositions of 14
        assert den == 1 and sum(acc) == 2**13
        assert (calls[0]["first"], calls[0]["rest"]) == (1, 14)
        assert len(calls) > 1
        assert all(c["rest"] >= 2 * c["first"] for c in calls[1:])

    def test_sequence_takes_a_one_pass_band(self):
        # like determinant_sequence, it reads a band that can be iterated once
        band = [F(1, 2), F(-1, 3), F(0), F(5, 4)]
        assert trudi_sequence(F(1), iter(band)) == determinant_sequence(F(1), iter(band))

    def test_empty_band(self):
        for super_entry in (F(0), F(1), F(-3, 2), F(7)):
            assert trudi_sequence(super_entry, []) == [1]
            assert trudi_sum(HessenbergSpec(super_entry, ())) == 1

    def test_cap_checked_on_band_length(self):
        band = [F(1, k + 1) for k in range(PARTITION_CAP + 1)]
        with pytest.raises(CapExceeded):
            trudi_sequence(F(1), band)
        uncapped = trudi_sequence(F(1), band, cap=None)
        assert uncapped == determinant_sequence(F(1), band)


class TestPartitionEnumeration:
    def test_small_cases(self):
        assert enumerate_partition_multiplicities(0) == ((),)
        assert enumerate_partition_multiplicities(1) == ((1,),)
        assert enumerate_partition_multiplicities(2) == ((0, 1), (2, 0))

    def test_multiplicities_sum_to_total(self):
        for m in range(1, 12):
            for vector in enumerate_partition_multiplicities(m):
                assert sum((k + 1) * t for k, t in enumerate(vector)) == m

    def test_count_matches_partition_function(self):
        for m in range(16):
            got = len(enumerate_partition_multiplicities(m))
            assert got == partition_count(m)

    def test_lexicographic_order(self):
        vectors = enumerate_partition_multiplicities(6)
        assert vectors == tuple(sorted(vectors))

    def test_rejects_bool_and_float(self):
        with pytest.raises(TypeError, match="m must be an integer, not bool"):
            enumerate_partition_multiplicities(True)
        with pytest.raises(TypeError, match="m must be an integer, got float 2.0"):
            enumerate_partition_multiplicities(2.0)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_partition_multiplicities(PARTITION_CAP + 1)
        uncapped = enumerate_partition_multiplicities(PARTITION_CAP + 1, cap=None)
        assert len(uncapped) == partition_count(PARTITION_CAP + 1)


class TestInverse:
    def test_known_bands(self):
        alpha = [F(1, 2), F(-1, 12), F(1, 24)]
        assert unit_lower_toeplitz_inverse(alpha) == [F(-1, 2), F(1, 3), F(-1, 4)]

    def test_band_convolution_identity(self):
        # sum_{j=0..k} alpha_j gamma_{k-j} = 0 with alpha_0 = gamma_0 = 1,
        # i.e. the full product A A^-1 is the identity
        rng = random.Random(SEED + 3)
        for _ in range(25):
            n = rng.randint(1, 10)
            alpha = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            gamma = unit_lower_toeplitz_inverse(alpha)
            full_a = [F(1)] + alpha
            full_g = [F(1)] + gamma
            for k in range(1, n + 1):
                conv = sum(full_a[j] * full_g[k - j] for j in range(k + 1))
                assert conv == 0

    def test_signed_rule_bands(self):
        # alpha_n = det over bands R(k) makes the inverse bands (-1)^k R(k)
        for N in (1, 2, 5):
            rule = [F(N, N + k) for k in range(1, 9)]
            alpha = determinant_sequence(F(1), rule)[1:]
            gamma = unit_lower_toeplitz_inverse(alpha)
            assert gamma == [(-1) ** k * rule[k - 1] for k in range(1, 9)]

    def test_chain_makes_two_solves(self):
        # alpha and gamma; recovered is gamma signed, with no solve of its own
        rule = [F(20, 20 + k) for k in range(1, 41)]
        chain, calls = profiled_calls(
            toeplitz_solve, None, lambda: _inversion_chain(rule)
        )
        assert calls == 2
        assert chain[1] == rule

    @pytest.mark.parametrize("kind", ["zero", "negative", "mixed"])
    def test_chain_recovered_is_the_determinant_over_alpha(self, kind):
        # recovered is read off gamma by sign, yet stays det over alpha_1..
        # alpha_n on bands that are no rule of this package
        rng = random.Random(SEED + 6)
        for n in range(13):
            if kind == "zero":
                band = [F(0)] * n
            elif kind == "negative":
                band = [-random_fraction(rng, nonzero=True) ** 2 for _ in range(n)]
            else:
                band = [F(0) if k % 3 == 1 else random_fraction(rng) for k in range(n)]
            alpha, recovered, _ = _inversion_chain(band)
            assert recovered == determinant_sequence(1, alpha)[1:], (kind, n)
            assert recovered == band, (kind, n)

    def test_unsigned_rule_fails_at_first_band(self):
        # the same display without the sign is wrong from k = 1 on
        rule = [F(1, k + 1) for k in range(1, 5)]
        alpha = determinant_sequence(F(1), rule)[1:]
        gamma = unit_lower_toeplitz_inverse(alpha)
        assert gamma[0] == F(-1, 2)
        assert gamma[0] != rule[0]


@pytest.mark.parametrize("call", [hessenberg_det, trudi_sum])
@pytest.mark.parametrize("spec", ["x", [1, 2]], ids=["str", "list"])
def test_determinants_take_only_a_spec(call, spec):
    text = f"spec must be a HessenbergSpec, got {type(spec).__name__} {spec!r}"
    with pytest.raises(TypeError, match=re.escape(text)):
        call(spec)
