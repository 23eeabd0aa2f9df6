import random
import re
from fractions import Fraction as F
from itertools import islice
from math import comb, factorial, lcm

import pytest

from hgcauchy.cauchy import c_via_series
from hgcauchy.combinat import (
    STRICT_COMPOSITION_CAP,
    _composition_denominators,
    composition_sum,
    strict_compositions,
    weak_composition_sum,
    weak_compositions,
)
from hgcauchy.higher import weight_D
from hgcauchy.series import toeplitz_solve
from oracles import (
    multinomial,
    naive_composition_denominators,
    naive_composition_sum,
    naive_weak_composition_sum,
    profiled_arguments,
    profiled_calls,
    random_fraction,
)


def test_strict_composition_counts():
    assert list(strict_compositions(0)) == [()]
    for total in range(1, 11):
        comps = list(strict_compositions(total))
        assert len(comps) == 2 ** (total - 1)
        assert all(sum(c) == total and min(c) >= 1 for c in comps)


def test_strict_compositions_are_lexicographic():
    comps = list(strict_compositions(5))
    assert comps == sorted(comps)
    assert len(set(comps)) == len(comps)


def test_generator_is_lazy_and_uncapped():
    # the raw generator carries no cap (the table builders enforce theirs);
    # pulling a prefix of a huge enumeration must return instantly
    opening = list(islice(strict_compositions(STRICT_COMPOSITION_CAP + 8), 2))
    assert opening[0] == (1,) * (STRICT_COMPOSITION_CAP + 8)
    assert opening[1] == (1,) * (STRICT_COMPOSITION_CAP + 6) + (2,)


def test_composition_sum_random_weights():
    rng = random.Random(20261018)
    for t_max in range(11):
        for _ in range(3):
            w = [random_fraction(rng) for _ in range(t_max + 1)]
            w[rng.randint(1, t_max) if t_max else 0] = F(0)
            assert composition_sum(w, t_max) == naive_composition_sum(w, t_max)


def test_composition_sum_ignores_w0():
    w = [F(1, 3), F(-2, 7), F(5, 4), F(0), F(-9, 2), F(3)]
    expected = naive_composition_sum(w, 5)
    for head in (F(0), F(-7, 3), F(11, 5), F(1)):
        assert composition_sum([head] + w[1:], 5) == expected


def test_composition_sum_paper_weights():
    for N in (1, 5, 64):
        ratios = [F(N, N + e) for e in range(13)]
        assert composition_sum(ratios, 12) == naive_composition_sum(ratios, 12)
        d3 = list(weight_D(N, 3, 12).values)
        assert composition_sum(d3, 12) == naive_composition_sum(d3, 12)


def test_composition_sum_empty_total():
    assert composition_sum([F(5, 2)], 0) == [1]
    assert composition_sum([F(5, 2), F(3)], 1) == [1, 3]


def test_weak_composition_counts():
    for total in range(6):
        for parts in range(1, 5):
            comps = list(weak_compositions(total, parts))
            assert len(comps) == comb(total + parts - 1, parts - 1)
            assert all(sum(c) == total and len(c) == parts for c in comps)


def test_weak_composition_sum_random_weights():
    rng = random.Random(20261019)
    for total in range(8):
        for parts in range(7):
            # random_fraction draws signed numerators; every other case
            # also gets a zero weight, at index 0 as often as elsewhere
            w = [random_fraction(rng) for _ in range(total + 1)]
            if (total + parts) % 2:
                w[rng.randint(0, total)] = F(0)
            expected = naive_weak_composition_sum(w, total, parts)
            assert weak_composition_sum(w, total, parts) == expected


@pytest.mark.parametrize("total, parts", [(8, 8)] + [(10, r) for r in range(1, 5)])
@pytest.mark.parametrize("head", ["zero", "nonzero"])
def test_weak_composition_sum_at_suite_shapes(total, parts, head):
    # the weighted quotient sweep reaches (8, 8) and the weight enumeration
    # (10, r); both the zero-part padding and the forced last part read w[0]
    rng = random.Random(20261020 + 100 * total + parts)
    w = [random_fraction(rng, nonzero=True) for _ in range(total + 1)]
    if head == "zero":
        w[0] = F(0)
    expected = naive_weak_composition_sum(w, total, parts)
    assert weak_composition_sum(w, total, parts) == expected


def test_weak_walk_forms_only_prefixes_it_completes():
    # one call per prefix of at most m = max(parts - 2, 0) parts that leaves
    # something over and ends in no zero part, since a zero part continues
    # its parent's loop: C(total + m - 1, m); forming every prefix would
    # make C(total + parts + 1, parts)
    for total in range(1, 10):
        w = [F(1)] * (total + 1)
        for parts in range(1, 10):
            m = max(parts - 2, 0)
            sums, calls = profiled_calls(
                weak_composition_sum,
                "extend",
                lambda: weak_composition_sum(w, total, parts),
            )
            assert calls == comb(total + m - 1, m), (total, parts)
            assert sums[parts] == comb(total + parts - 1, parts - 1)


def test_weak_walk_depth_follows_the_total_not_the_parts():
    # a zero part continues a loop, so 1100 parts, past the interpreter's
    # recursion limit, recurse no deeper than the total: one part of 1 and
    # k - 1 zeros, in k places
    assert weak_composition_sum([F(1), F(1)], 1, 1100) == list(range(1101))


def test_strict_walk_call_count():
    # one call for the root and one per composition of a total below
    # t_max - 3; a prefix that leaves one, two or three is finished in its
    # parent
    for t_max in range(1, 13):
        w = [F(1)] * (t_max + 1)
        sums, calls = profiled_calls(
            composition_sum, "extend", lambda: composition_sum(w, t_max)
        )
        assert calls == 2 ** max(t_max - 4, 0), t_max
        assert sums[t_max] == 2 ** (t_max - 1)


def _chain_weights(N: int, t_max: int) -> list[F]:
    # relations.chain_sum's gap weights N/(1-N) c(N-1, g+1)/(g+1)!, whose
    # denominators nest through the factorials
    previous = c_via_series(N - 1, t_max + 1).values
    return [F(N, 1 - N) * v / factorial(t + 1) for t, v in enumerate(previous[1:])]


MERSENNE_EXPONENTS = (2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127)

# weights w[0 .. 12] where the lcm Q[t] the compositions of t need is far
# below D^t, D the lcm of every part denominator
WALK_SHAPES = {
    "ratios-N5": [F(5, 5 + e) for e in range(13)],
    "chain-N8": _chain_weights(8, 12),
    "factorials": [F((-1) ** e * (e + 2), factorial(e)) for e in range(13)],
    "mersenne": [F(0)]
    + [F((-1) ** e * (e + 1), 2**p - 1) for e, p in enumerate(MERSENNE_EXPONENTS, 1)],
    "ratios-N1e30": [F(10**30, 10**30 + e) for e in range(13)],
    "integers": [0] + [(-1) ** e * (e % 4) * e for e in range(1, 13)],
    "zeros": [F(0)] * 13,
    "some-zeros": [F(0) if e % 3 == 1 else F(e, e + 7) for e in range(13)],
    "negative": [F(-(2 * e + 1), 3 * e + 2) for e in range(13)],
}


@pytest.mark.parametrize("shape", WALK_SHAPES)
def test_composition_sum_where_q_is_far_below_d_power(shape):
    w = WALK_SHAPES[shape]
    assert composition_sum(w, 12) == naive_composition_sum(w, 12)


@pytest.mark.parametrize("shape", WALK_SHAPES)
def test_composition_denominators_are_the_lcm_over_compositions(shape):
    dens = [F(v).denominator for v in WALK_SHAPES[shape]]
    Q = _composition_denominators(dens, 10)
    assert Q == naive_composition_denominators(dens, 10)
    D = lcm(*dens[1:11])
    assert all(D**t % Q[t] == 0 for t in range(11))


def test_strict_walk_prefixes_stay_within_their_denominator():
    # each ratio N/(N + e) is below 1, so a prefix kept over Q[total] is at
    # most Q[total]; a prefix kept over D^total is not
    N, t_max = 5, 14
    w = [F(N, N + e) for e in range(t_max + 1)]
    Q = naive_composition_denominators([v.denominator for v in w], t_max)
    sums, calls = profiled_arguments(
        composition_sum, "extend", lambda: composition_sum(w, t_max)
    )
    assert len(calls) == 2 ** (t_max - 4)
    assert all(abs(call["prefix"]) <= Q[call["total"]] for call in calls)
    assert sums == naive_composition_sum(w, t_max)


@pytest.mark.parametrize(
    "call, got",
    [
        (lambda: composition_sum([0, 0.5, 0.25], 2), "float 0.5"),
        (lambda: composition_sum([0, True, 1], 2), "bool True"),
        (lambda: weak_composition_sum([0.5, 0.25], 1, 2), "float 0.5"),
        (lambda: weak_composition_sum([1, False], 1, 2), "bool False"),
    ],
    ids=["strict-float", "strict-bool", "weak-float", "weak-bool"],
)
def test_walks_take_exact_weights_only(call, got):
    with pytest.raises(TypeError, match=f"must be an int or a Fraction, got {got}"):
        call()


INLINE_TAIL_ZEROS = {
    "none": (),
    "w1": (1,),
    "w2": (2,),
    "w3": (3,),
    "w1w2": (1, 2),
    "w1w3": (1, 3),
    "w2w3": (2, 3),
    "w1w2w3": (1, 2, 3),
    "wlast": ("last",),
    "w1wlast": (1, "last"),
    "w2wlast": (2, "last"),
    "w1w2wlast": (1, 2, "last"),
    "w3wlast": (3, "last"),
    "w1w2w3wlast": (1, 2, 3, "last"),
}


@pytest.mark.parametrize("t_max", range(9))
@pytest.mark.parametrize("zeros", INLINE_TAIL_ZEROS.values(), ids=INLINE_TAIL_ZEROS)
def test_composition_sum_inline_tails(t_max, zeros):
    # every call closes the children that leave three (with (1), (1, 1),
    # (2), (1, 1, 1), (1, 2), (2, 1) and (3) after it), two (with (1),
    # (1, 1) and (2)), one (with (1)) and nothing in straight-line code,
    # reading w[1], w[2], w[3] and w[t_max - total]; below t_max = 4 some of
    # the root's four lie past t_max, where the walk runs on zero weights
    w = [F(0)] + [F(-(3 * e + 1), e + 2) for e in range(1, t_max + 1)]
    for e in zeros:
        e = t_max if e == "last" else e
        if 1 <= e <= t_max:
            w[e] = F(0)
    assert composition_sum(w, t_max) == naive_composition_sum(w, t_max)


def test_strict_walk_recurses_only_where_four_are_left():
    # the root, then one call per prefix of total t <= t_max - 4: 2^(t - 1)
    # of each total
    for t_max in range(13):
        w = [F(e + 1, e + 3) for e in range(t_max + 1)]
        sums, calls = profiled_arguments(
            composition_sum, "extend", lambda: composition_sum(w, t_max)
        )
        assert (calls[0]["total"], calls[0]["prefix"]) == (0, 1)
        totals = [call["total"] for call in calls[1:]]
        assert all(1 <= t <= t_max - 4 for t in totals), t_max
        assert {t: totals.count(t) for t in set(totals)} == {
            t: 2 ** (t - 1) for t in range(1, t_max - 3)
        }
        assert sums == naive_composition_sum(w, t_max)


def test_composition_sum_deep_random_weights():
    rng = random.Random(20261021)
    for _ in range(2):
        w = [random_fraction(rng) for _ in range(15)]
        assert composition_sum(w, 14) == naive_composition_sum(w, 14)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)

# seeded weights w[1 .. 20] with zeros and negatives: denominators drawn from
# 1 .. 50, twenty distinct primes, or the nested factorials 1 .. 720
ORACLE_WEIGHTS = {
    "random": lambda rng, e: random_fraction(rng),
    "coprime": lambda rng, e: F(rng.randint(-9, 9), PRIMES[e - 1]),
    "shared": lambda rng, e: F(rng.randint(-9, 9), rng.choice((1, 2, 6, 24, 120, 720))),
}


@pytest.mark.parametrize("shape", ORACLE_WEIGHTS)
def test_composition_sum_is_the_reciprocal_at_the_benchmark_size(shape):
    # the sums over compositions of t are the coefficients of
    # 1 / (1 - sum w_e x^e), which the solve reaches with no composition
    rng = random.Random(20261021)
    w = [F(0)] + [ORACLE_WEIGHTS[shape](rng, e) for e in range(1, 21)]
    w[rng.randrange(1, 4)] = w[rng.randrange(4, 21)] = F(0)
    assert any(v < 0 for v in w)
    assert composition_sum(w, 20) == toeplitz_solve([F(1)] + [-v for v in w[1:]])


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: weak_composition_sum([F(1)], 3, 2),
            "w supplies 1 terms, need 4 to read w[0..3]",
        ),
        (
            lambda: weak_composition_sum([], 1, 1),
            "w supplies 0 terms, need 2 to read w[0..1]",
        ),
        (
            lambda: composition_sum([F(1)], 3),
            "w supplies 1 terms, need 4 to read w[1..3]",
        ),
        (
            lambda: composition_sum([F(0), F(2)], 2),
            "w supplies 2 terms, need 3 to read w[1..2]",
        ),
        (
            lambda: weak_composition_sum(iter([F(1)]), 3, 2),
            "w supplies 1 terms, need 4 to read w[0..3]",
        ),
        (
            lambda: composition_sum(iter([F(1)]), 3),
            "w supplies 1 terms, need 4 to read w[1..3]",
        ),
    ],
    ids=[
        "weak",
        "weak-empty",
        "strict",
        "strict-one-short",
        "weak-iterator",
        "strict-iterator",
    ],
)
def test_short_weight_lists_rejected(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_walks_read_a_one_pass_iterable_once():
    # the strict walk reads w[1 .. t_max] and the weak walk w[0 .. total],
    # and neither reads past its last weight
    w = iter([None, 1, 2, 3, "unread"])
    assert composition_sum(w, 3) == [1, 1, 3, 8] == composition_sum([0, 1, 2, 3], 3)
    assert next(w) == "unread"
    w = iter([1, 1, 1, "unread"])
    assert weak_composition_sum(w, 2, 2) == [0, 1, 3]
    assert next(w) == "unread"


def test_walks_without_parts_read_no_weights():
    assert weak_composition_sum([], 0, 0) == [1]
    assert weak_composition_sum([], 4, 0) == [0]
    assert composition_sum([], 0) == [1]


def test_weak_composition_sum_edges():
    # no parts: only the empty composition of 0; zero total: only all-zero parts
    assert weak_composition_sum([F(3, 2)], 0, 0) == [1]
    assert weak_composition_sum([F(3, 2), F(1)], 1, 0) == [0]
    assert weak_composition_sum([F(3, 2)], 0, 3) == [1, F(3, 2), F(9, 4), F(27, 8)]
    assert weak_composition_sum([F(2), F(5)], 1, 2) == [0, 5, 20]


def test_multinomial_values():
    assert multinomial(()) == 1
    assert multinomial((3,)) == 1
    assert multinomial((1, 1)) == 2
    assert multinomial((2, 1, 1)) == 12


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: strict_compositions(-1), "total"),
        (lambda: weak_compositions(0, -2), "parts"),
        (lambda: weak_compositions(-1, 1), "total"),
        (lambda: composition_sum([F(1)] * 3, -1), "t_max"),
        (lambda: weak_composition_sum([F(1)] * 3, -1, 2), "total"),
        (lambda: weak_composition_sum([F(1)] * 3, 2, -1), "parts"),
    ],
    ids=[
        "strict_compositions",
        "weak_compositions-parts",
        "weak_compositions-total",
        "composition_sum",
        "weak_composition_sum-total",
        "weak_composition_sum-parts",
    ],
)
def test_negative_sizes_rejected_at_the_call(call, name):
    with pytest.raises(ValueError, match=f"{name} must be non-negative, got -"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: strict_compositions(True), "total must be an integer, not bool"),
        (lambda: weak_compositions(2, 2.0), "parts must be an integer, got float 2.0"),
        (lambda: composition_sum([F(1)] * 3, 1.0), "t_max must be an integer"),
        (lambda: weak_composition_sum([F(1)] * 3, True, 2), "total must be"),
    ],
    ids=[
        "strict_compositions",
        "weak_compositions",
        "composition_sum",
        "weak_composition_sum",
    ],
)
def test_bool_and_float_sizes_rejected(call, message):
    with pytest.raises(TypeError, match=message):
        call()
