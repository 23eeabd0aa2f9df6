from fractions import Fraction as F
from itertools import combinations

import pytest

from hgcauchy import relations
from hgcauchy.cauchy import c_via_series
from hgcauchy.errors import CapExceeded
from hgcauchy.relations import (
    CHAIN_CAP,
    ChainIndex,
    chain_example_first,
    chain_example_second,
    chain_sum,
    chain_term,
    cross_order_step,
    descending_chains,
)


class TestCrossOrderStep:
    def test_identity_over_grid(self):
        for N in range(2, 7):
            report = cross_order_step(N, 15)
            assert report.status == "pass", report

    def test_single_step_by_hand(self):
        # n = 1 keeps only the m = 0 term with binomial(2, 0) = 1:
        # c(N, 1) = c(N-1, 1) - N/(2(N-1)) c(N, 0) c(N-1, 2)
        N = 2
        lhs = c_via_series(N, 1).values[1]
        prev = c_via_series(N - 1, 2).values
        rhs = prev[1] - F(N, 2 * (N - 1)) * prev[2]
        assert lhs == rhs == F(2, 3)

    def test_requires_n_at_least_two(self):
        with pytest.raises(ValueError):
            cross_order_step(1, 5)

    @pytest.mark.parametrize(
        "relation",
        [cross_order_step, chain_sum, lambda N, n: chain_example_first(N)],
        ids=["cross-order-step", "chain-sum", "chain-example"],
    )
    @pytest.mark.parametrize(
        "N, message",
        [(True, "N must be an integer, not bool"), (2.0, "N must be an integer, got float")],
        ids=["bool", "float"],
    )
    def test_N_type_is_checked_before_its_bound(self, relation, N, message):
        # True < 2 holds, so a bound checked first would raise ValueError
        with pytest.raises(TypeError, match=message):
            relation(N, 3)


class TestChainEnumeration:
    def test_counts_match_subset_oracle(self):
        for n in range(11):
            chains = list(descending_chains(n))
            subsets = [
                combo
                for m in range(n + 1)
                for combo in combinations(range(n), m)
            ]
            assert len(chains) == len(subsets) == 2**n

    def test_chain_shape(self):
        for chain in descending_chains(4):
            assert chain.head == 4
            indices = chain.indices
            assert all(a > b for a, b in zip(indices, indices[1:]))

    def test_deterministic_order(self):
        once = [c.indices for c in descending_chains(5)]
        again = [c.indices for c in descending_chains(5)]
        assert once == again

    def test_chain_head_must_be_an_integer(self):
        with pytest.raises(TypeError, match="n must be an integer, not bool"):
            list(descending_chains(True))

    @pytest.mark.parametrize(
        "n, error, message",
        [
            (True, TypeError, "n must be an integer, not bool"),
            (2.0, TypeError, "n must be an integer, got float 2.0"),
            (-1, ValueError, "n must be non-negative, got -1"),
            (None, TypeError, "n must be an integer, got NoneType None"),
            ("3", TypeError, "n must be an integer, got str '3'"),
        ],
    )
    def test_chain_head_is_checked_without_iterating(self, n, error, message):
        with pytest.raises(error, match=message):
            descending_chains(n)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            ChainIndex((2, 2))
        with pytest.raises(ValueError):
            ChainIndex((3, -1))

    @pytest.mark.parametrize(
        "indices, message",
        [
            ((True,), "chain index i_0 must be an integer, not bool"),
            ((2.5, 1), "chain index i_0 must be an integer, got float 2.5"),
            ((3, F(1)), "chain index i_1 must be an integer, got Fraction"),
            ((3, 2, False), "chain index i_2 must be an integer, not bool"),
        ],
    )
    def test_indices_meet_the_integer_rule(self, indices, message):
        with pytest.raises(TypeError, match=message):
            ChainIndex(indices)

    def test_order_and_sign_texts_are_kept(self):
        with pytest.raises(ValueError, match=r"chain \(2, 2\) is not strictly"):
            ChainIndex((2, 2))
        with pytest.raises(ValueError, match="chain indices must be non-negative"):
            ChainIndex((3, -1))


class TestChainExpansion:
    def test_identity_over_grid(self):
        for N in range(2, 6):
            report = chain_sum(N, 12)
            assert report.status == "pass", report

    def test_identity_at_the_cap(self):
        report = chain_sum(8, CHAIN_CAP)
        assert report.status == "pass", report

    def test_trivial_chain_reproduces_previous_table(self):
        # the length-one chain (n,) contributes c(N-1, n) itself
        previous = c_via_series(2, 6).values
        term = chain_term(ChainIndex((5,)), 3, previous)
        assert term == previous[5]

    def test_cap(self):
        with pytest.raises(CapExceeded):
            chain_sum(2, CHAIN_CAP + 1)

    @pytest.mark.parametrize(
        "n_max, message",
        [
            ("3", "n_max must be an integer, got str '3'"),
            (None, "n_max must be an integer, got NoneType None"),
        ],
        ids=["str", "None"],
    )
    def test_size_checked_before_the_cap(self, n_max, message):
        # the size is checked before the cap is compared with it
        with pytest.raises(TypeError, match=message):
            chain_sum(2, n_max)

    def test_examples(self):
        for N in range(2, 7):
            first = chain_example_first(N)
            second = chain_example_second(N)
            assert first.status == "pass", first
            assert second.status == "pass", second

    def test_totals_equal_per_chain_sums(self, monkeypatch):
        # chain_sum checks its totals against the first table _tables returns;
        # handing it the naive per-chain sums there makes it pass only if
        # every one of its totals equals them
        for N in range(2, 6):
            previous = list(c_via_series(N - 1, 11).values)
            naive = [
                sum((chain_term(c, N, previous) for c in descending_chains(n)), F(0))
                for n in range(11)
            ]
            assert naive == list(c_via_series(N, 10).values)
            monkeypatch.setattr(relations, "_tables", lambda *_: (naive, previous))
            assert chain_sum(N, 10).status == "pass"
            naive[10] += 1
            report = chain_sum(N, 10)
            assert report.status == "fail"
            assert report.parameter_point == (N, 1, 10)
            assert report.detail[1] == str(naive[10] - 1)


class TestChainWalkSensitivity:
    def test_walk_wrong_at_its_last_total_fails_the_expansion(self, monkeypatch):
        walk = relations.composition_sum

        def off_by_one_at_the_end(w, t_max):
            sums = walk(w, t_max)
            sums[-1] += 1
            return sums

        assert chain_sum(3, 8).status == "pass"
        monkeypatch.setattr(relations, "composition_sum", off_by_one_at_the_end)
        report = chain_sum(3, 8)
        assert report.status == "fail"
        assert report.parameter_point == (3, 1, 8)
