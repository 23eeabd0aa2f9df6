"""Metamorphic relations: identities between outputs at related inputs.

Each test transforms the input in a way whose effect on the output is known
in closed form, so it needs no oracle value at all:

* order additivity: the exponential generating function of c^(r)(N, .) is
  the r-th power of that of c(N, .), so
  c^(r1+r2)(N, n) = sum_m C(n, m) c^(r1)(N, m) c^(r2)(N, n-m) on every
  order-r route of ``higher.ROUTES``;
* scaling: multiplying the superdiagonal entry a_0 and every band a_k by mu
  multiplies the n x n Hessenberg determinant d_n by mu^n;
* similarity: a_0 -> a_0/lambda with a_k -> lambda^(k-1) a_k is conjugation
  by diag(lambda^i), so every d_n stays the same.

The last two run on both determinant routes, the Toeplitz solve and the
Trudi walk, over bands drawn from a fixed-seed generator.
"""

import random
from fractions import Fraction as F
from math import comb

import pytest

from hgcauchy import higher
from hgcauchy.hessenberg import determinant_sequence, trudi_sequence

SEED = 1729
SPECS = 40
N_MAX = 12

ORDER_ROUTES = sorted(name for name, route in higher.ROUTES.items() if route.any_order)
DETERMINANT_ROUTES = {
    "determinant_sequence": determinant_sequence,
    "trudi_sequence": trudi_sequence,
}


def small_fraction(rng, nonzero=False):
    """A rational p/q with |p| <= 5 and 1 <= q <= 5; 0 about one time in 11."""
    num = rng.randint(-5, 5)
    while nonzero and num == 0:
        num = rng.randint(-5, 5)
    return F(num, rng.randint(1, 5))


def nonunit(rng):
    """A nonzero rational other than 1 and -1."""
    value = small_fraction(rng, nonzero=True)
    while abs(value) == 1:
        value = small_fraction(rng, nonzero=True)
    return value


def random_specs():
    """(a_0, bands a_1 .. a_n) with n <= N_MAX: bands hold zeros and negative
    entries, a_0 is nonzero and not a unit."""
    rng = random.Random(SEED)
    specs = []
    for _ in range(SPECS):
        n = rng.randint(1, N_MAX)
        specs.append((nonunit(rng), [small_fraction(rng) for _ in range(n)]))
    return specs


def test_random_specs_cover_zero_and_negative_bands():
    bands = [a for _, band in random_specs() for a in band]
    assert 0 in bands
    assert any(a < 0 for a in bands)
    assert max(len(band) for _, band in random_specs()) == N_MAX


@pytest.mark.parametrize("method", ORDER_ROUTES)
@pytest.mark.parametrize("N", [1, 3, 7])
def test_order_additivity(method, N):
    route = higher.ROUTES[method]
    tables = {r: route.compute(N, r, N_MAX, route.cap).values for r in range(1, 5)}
    for r1 in range(1, 4):
        for r2 in range(1, 5 - r1):
            for n in range(N_MAX + 1):
                convolved = sum(
                    comb(n, m) * tables[r1][m] * tables[r2][n - m]
                    for m in range(n + 1)
                )
                assert tables[r1 + r2][n] == convolved, (r1, r2, n)


def test_order_additivity_covers_every_order_route():
    assert ORDER_ROUTES == [
        "convolution",
        "determinant",
        "explicit",
        "recurrence",
        "trudi",
    ]


@pytest.mark.parametrize("name", sorted(DETERMINANT_ROUTES))
def test_scaling(name):
    dets = DETERMINANT_ROUTES[name]
    rng = random.Random(SEED + 1)
    for super_entry, band in random_specs():
        mu = nonunit(rng)
        scaled = dets(mu * super_entry, [mu * a for a in band])
        assert scaled == [mu**n * d for n, d in enumerate(dets(super_entry, band))]


@pytest.mark.parametrize("name", sorted(DETERMINANT_ROUTES))
def test_similarity(name):
    dets = DETERMINANT_ROUTES[name]
    rng = random.Random(SEED + 2)
    for super_entry, band in random_specs():
        lam = nonunit(rng)
        conjugated = [lam**k * a for k, a in enumerate(band)]
        assert dets(super_entry / lam, conjugated) == dets(super_entry, band)
