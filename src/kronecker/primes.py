"""Random prime generation.

Candidates are uniform odd integers in the target interval followed by a
primality test; below 2**64 the Miller-Rabin bases {2,...,37} are a proven
deterministic test, above that 40 random rounds are used.
"""

import random

from .errors import NoPrimeFoundError

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97,
)

# Deterministic Miller-Rabin witness set for n < 3.3 * 10**24 (covers 2**64).
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MILLER_RABIN_ROUNDS = 40

# Word-size primes: heuristic solves draw their prime from this range, and
# every solve its verify primes.
WORD_PRIME_LOW = 2**59
WORD_PRIME_HIGH = 2**62 - 1


def _miller_rabin_round(n, a):
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n, rng=None):
    """Primality test: deterministic below 2**64, Miller-Rabin with
    ``MILLER_RABIN_ROUNDS`` random bases above, drawn from ``rng`` or, with
    none, from a generator seeded by n, so that the verdict on n is
    reproducible."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    if n < 2**64:
        bases = _DETERMINISTIC_BASES
    else:
        rng = rng or random.Random(n)
        bases = [rng.randrange(2, n - 1) for _ in range(MILLER_RABIN_ROUNDS)]
    return all(_miller_rabin_round(n, a) for a in bases)


def random_prime_in_range(lo, hi, rng, avoid=1, tries=10000):
    """Uniformly sampled prime p with lo <= p <= hi and p not dividing avoid."""
    if hi < lo or hi < 2:
        raise NoPrimeFoundError(f"empty prime range [{lo}, {hi}]")
    for _ in range(tries):
        c = rng.randrange(lo, hi + 1)
        if c <= 2:
            c = 2
        elif c % 2 == 0:
            c += 1
            if c > hi:
                continue
        if avoid % c == 0:
            continue
        if is_probable_prime(c, rng):
            return c
    raise NoPrimeFoundError(f"no prime found in [{lo}, {hi}] after {tries} draws")


def random_prime_avoiding(B, k, M, rng):
    """Random prime p with B < p <= 2B and p not dividing M.

    Draws up to k uniform candidates from (B, 2B] and tests each; raises
    NoPrimeFoundError once the candidate budget is spent.  M = 1 leaves the
    divisibility constraint vacuous.
    """
    if B < 2:
        raise ValueError("B must be at least 2")
    if M == 0:
        raise ValueError("M must be nonzero")
    return random_prime_in_range(B + 1, 2 * B, rng, avoid=M, tries=k)
