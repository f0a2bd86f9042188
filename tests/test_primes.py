import random

import pytest

from kronecker import primes
from kronecker.errors import NoPrimeFoundError
from kronecker.primes import (
    MILLER_RABIN_ROUNDS,
    WORD_PRIME_HIGH,
    WORD_PRIME_LOW,
    is_probable_prime,
    random_prime_avoiding,
    random_prime_in_range,
)


def test_avoiding_excludes_divisor():
    rng = random.Random(0)
    seen = set()
    for _ in range(200):
        seen.add(random_prime_avoiding(10, 64, 11, rng))
    assert seen == {13, 17, 19}


def test_smallest_interval():
    rng = random.Random(1)
    for _ in range(20):
        assert random_prime_avoiding(2, 64, 1, rng) == 3


def test_large_interval_unconstrained():
    rng = random.Random(2)
    for _ in range(10):
        p = random_prime_avoiding(10**6, 64, 1, rng)
        assert 10**6 < p <= 2 * 10**6
        assert is_probable_prime(p)


def test_all_candidates_divide_avoid():
    rng = random.Random(3)
    with pytest.raises(NoPrimeFoundError):
        random_prime_avoiding(10, 200, 11 * 13 * 17 * 19, rng)


def test_draw_distribution_covers_interval():
    # Repeated draws should reach at least half of the primes in (B, 2B].
    rng = random.Random(4)
    B = 100
    all_primes = {p for p in range(B + 1, 2 * B + 1) if is_probable_prime(p)}
    seen = {random_prime_avoiding(B, 64, 1, rng) for _ in range(400)}
    assert len(seen) >= len(all_primes) / 2
    assert seen <= all_primes


def test_deterministic_test_below_64_bits():
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime(2**62 - 1)
    assert not is_probable_prime(3215031751)  # strong pseudoprime to 2,3,5,7


def test_probable_prime_large():
    # 2^89 - 1 is a Mersenne prime beyond the deterministic window.
    assert is_probable_prime(2**89 - 1, random.Random(0))
    assert not is_probable_prime((2**89 - 1) * 3, random.Random(0))


def test_bases_without_a_generator_are_seeded_by_n(monkeypatch):
    # A pinned prime above 2^64 is tested outside the solve's generator; its
    # Miller-Rabin bases must be the same in every call and every process.
    bases = []
    real = primes._miller_rabin_round

    def spy(n, a):
        bases.append(a)
        return real(n, a)

    monkeypatch.setattr(primes, "_miller_rabin_round", spy)
    assert is_probable_prime(2**89 - 1) and is_probable_prime(2**89 - 1)
    assert len(bases) == 2 * MILLER_RABIN_ROUNDS
    assert bases[:MILLER_RABIN_ROUNDS] == bases[MILLER_RABIN_ROUNDS:]


def test_range_sampler_respects_bounds():
    rng = random.Random(5)
    for _ in range(20):
        p = random_prime_in_range(WORD_PRIME_LOW, WORD_PRIME_HIGH, rng)
        assert 2**59 == WORD_PRIME_LOW <= p <= WORD_PRIME_HIGH == 2**62 - 1
        assert is_probable_prime(p)
