import random
from fractions import Fraction as F
from itertools import islice
from math import comb

import pytest

from hgcauchy.combinat import (
    STRICT_COMPOSITION_CAP,
    composition_sum,
    multinomial,
    strict_compositions,
    weak_composition_sum,
    weak_compositions,
)
from hgcauchy.higher import weight_D
from oracles import (
    naive_composition_sum,
    naive_weak_composition_sum,
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
    "parts, error, message",
    [
        ([True, 2], TypeError, "multinomial part t_1 must be an integer, not bool"),
        ([2, 1.5], TypeError, "multinomial part t_2 must be an integer, got float"),
        ([-1], ValueError, "multinomial part t_1 must be non-negative, got -1"),
        ([1, 2, -3], ValueError, "multinomial part t_3 must be non-negative"),
    ],
    ids=["bool", "float", "negative", "negative-third"],
)
def test_multinomial_names_the_bad_part(parts, error, message):
    with pytest.raises(error, match=message):
        multinomial(parts)



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
