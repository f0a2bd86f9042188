import random

import pytest

from kronecker.bounds import (
    BoundSet,
    degree_budget,
    height_budget,
    prime_budget,
    sample_bounds,
)


def test_degree_budget_exact():
    assert degree_budget(3, 2, 4) == 1536


def test_degree_budget_smallest_degree():
    for n, r in [(1, 1), (3, 2), (5, 5)]:
        assert degree_budget(n, r, 1) == (2 * n - r + 4) * r * 3


def test_degree_budget_monotone_in_n():
    assert degree_budget(4, 2, 4) > degree_budget(3, 2, 4)


def test_sample_bounds_formula():
    assert sample_bounds(100) == (800, 900)
    assert sample_bounds(1) == (8, 9)
    assert sample_bounds(1536) == (12288, 13824)


def test_height_budget_monotone_in_height():
    assert height_budget(2, 2, 10, 2, 2) > height_budget(2, 2, 5, 2, 2)


def test_height_budget_stage_one_drops_degree_power():
    # s = 1 removes the d^(s-1) factor entirely
    assert height_budget(2, 3, 5, 2, 2) == 3 * height_budget(2, 3, 5, 2, 1)


def test_height_budget_frozen_value():
    # Direct evaluation of the frozen formula with the default constant.
    assert height_budget(2, 2, 5, 2, 2) == 5184


def test_prime_budget_interval_endpoints():
    # Budget H determines the search interval (B, 2B] = [12H + 1, 24H].
    _, B = prime_budget(1, 1, 1, 1)
    H = B // 12
    assert B == 12 * H
    lo, hi = B + 1, 2 * B
    assert (lo, hi) == (12 * H + 1, 24 * H)


def test_prime_budget_floor():
    for n, d, h, r in [(1, 1, 1, 1), (2, 2, 1, 2), (3, 3, 10, 3)]:
        H, B = prime_budget(n, d, h, r)
        assert H >= 60 * n**2 * d * (d**r) ** 4
        assert B == 12 * H


def test_budgets_monotone_property():
    rng = random.Random(0)
    for _ in range(1000):
        n = rng.randrange(1, 8)
        r = rng.randrange(1, n + 1)
        d = rng.randrange(1, 6)
        h = rng.randrange(1, 50)
        delta = rng.randrange(1, 30)
        s = rng.randrange(1, r + 1)
        base_D = degree_budget(n, r, delta)
        assert degree_budget(n + 1, r, delta) >= base_D
        assert degree_budget(n, r, delta + 1) >= base_D
        a, b = sample_bounds(base_D)
        assert (a, b) == (8 * base_D, 9 * base_D)
        base_eta = height_budget(n, d, h, r, s)
        assert height_budget(n + 1, d, h, r, s) >= base_eta
        assert height_budget(n, d + 1, h, r, s) >= base_eta
        assert height_budget(n, d, h + 1, r, s) >= base_eta
        assert height_budget(n, d, h, r + 1, s) >= base_eta
        assert height_budget(n, d, h, r, s + 1) >= base_eta if s < r else True
        base_H = prime_budget(n, d, h, r)[0]
        assert prime_budget(n + 1, d, h, r)[0] >= base_H
        assert prime_budget(n, d + 1, h, r)[0] >= base_H
        assert prime_budget(n, d, h + 1, r)[0] >= base_H
        assert prime_budget(n, d, h, r + 1)[0] >= base_H


def test_boundset_for_system():
    bs = BoundSet.for_system(3, (2, 2, 3), 5)
    assert (bs.a, bs.b) == sample_bounds(degree_budget(3, 3, 12))
    assert bs.heights == tuple(
        height_budget(3, 3, 5, 3, s) for s in (1, 2, 3)
    )
    assert bs.prime_lower == prime_budget(3, 3, 5, 3)[1]


def test_boundset_rejects_bad_shapes():
    with pytest.raises(ValueError):
        BoundSet.for_system(1, (2, 2), 5)
