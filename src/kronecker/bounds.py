"""Degree, sample-size, height and prime budgets.

The degree budget D and the sample sizes (a, b) = (8D, 9D) are exact
formulas.  The height and prime budgets instantiate asymptotic bounds with
the frozen constants C_HEIGHT and C_PRIME and integer ceiling-log2 polylog
factors; any over-estimate is safe, it only costs lifting precision or prime
size.
"""

from dataclasses import dataclass
from math import prod

from .rings import ceil_log2

C_HEIGHT = 16
C_PRIME = 64


def degree_budget(n, r, delta):
    """D = (2n - r + 4) * r * (delta**3 + 2*delta**2)."""
    if not (n >= r >= 1 and delta >= 1):
        raise ValueError("need n >= r >= 1 and delta >= 1")
    return (2 * n - r + 4) * r * (delta**3 + 2 * delta**2)


def sample_bounds(D):
    """Sample-set sizes (a, b) = (8D, 9D) for coordinates and lifting points."""
    if D < 1:
        raise ValueError("degree budget must be positive")
    return 8 * D, 9 * D


def _polylog(x):
    return 1 + ceil_log2(x)


def height_budget(n, d, h, r, s):
    """Bit-size budget for the stage-s output coefficients.

    C_HEIGHT * n * d**(s-1) * (h + r*d) * (1 + ceil_log2(n+2)) * (1 + ceil_log2(d+1)).
    """
    if min(n, d, h, r, s) < 1:
        raise ValueError("all arguments must be >= 1")
    return C_HEIGHT * n * d ** (s - 1) * (h + r * d) * _polylog(n + 2) * _polylog(d + 1)


def prime_budget(n, d, h, r):
    """Budget H for the bit size of the bad-prime multiple, and B = 12H.

    Primes are then drawn from (B, 2B] = [12H + 1, 24H].  H is floored at
    60 * n**2 * d * bezout**4 so the modular solver's degree assumptions hold.
    """
    if min(n, d, h, r) < 1:
        raise ValueError("all arguments must be >= 1")
    bezout = d**r
    H = C_PRIME * n**3 * d ** (8 * r - 7) * (h + r * d) * _polylog(n + 2) ** 3
    H = max(H, 60 * n**2 * d * bezout**4)
    return H, 12 * H


@dataclass(frozen=True)
class BoundSet:
    """The budgets an attempt reads for one input system."""

    a: int
    b: int
    heights: tuple  # eta_s for s = 1..r
    prime_lower: int  # B = 12H

    @classmethod
    def for_system(cls, n, degrees, h):
        r = len(degrees)
        if r < 1 or n < r:
            raise ValueError("need 1 <= r <= n")
        degrees = tuple(max(int(d), 1) for d in degrees)
        d = max(degrees)
        h = max(int(h), 1)
        a, b = sample_bounds(degree_budget(n, r, prod(degrees)))
        heights = tuple(height_budget(n, d, h, r, s) for s in range(1, r + 1))
        _, B = prime_budget(n, d, h, r)
        return cls(a=a, b=b, heights=heights, prime_lower=B)
