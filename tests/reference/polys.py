"""Polynomial helpers over a prime field that only the tests use:
coefficient lists from ints, squarefree parts, irreducibility, the extended
Euclidean algorithm and Chinese remaindering; the textbook
maximal-quotient rational reconstruction; and products in (Z/m)[T]/(q) by
``%`` alone."""

from math import gcd

from kronecker.errors import KroneckerError
from kronecker.polys import (
    ZERO,
    _x_poly,
    degree,
    monic,
    normalize,
    poly_add,
    poly_deriv,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_pow_mod,
    poly_rem,
    poly_sub,
    scalar_mul,
)


class CharacteristicTooSmallError(KroneckerError):
    pass


class ModuliNotCoprimeError(KroneckerError):
    pass


def from_int_coeffs(coeffs, R):
    return normalize([R.from_int(c) for c in coeffs], R)


def mul_rem_mod(a, b, q, R):
    """a·b mod the monic q over Z/m, for m = ``R.modulus`` as a plain int:
    a schoolbook product and long division, reduced by CPython's ``%``
    alone, so that it shares no line with ``polys`` or the ring."""
    m, d = int(R.modulus), len(q) - 1
    rem = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            rem[i + j] += x * y
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i] % m
        for j in range(d):
            rem[i - d + j] -= c * q[j]
    return normalize([c % m for c in rem[:d]], R)


def squarefree_part(f, F):
    """f / gcd(f, f'), monic; requires characteristic 0 or > deg f."""
    f = normalize(f, F)
    if degree(f) <= 0:
        return (F.one,) if f else ZERO
    char = getattr(F, "p", 0)
    if char and char <= degree(f):
        raise CharacteristicTooSmallError(
            f"characteristic {char} <= degree {degree(f)}"
        )
    g = poly_gcd(f, poly_deriv(f, F), F)
    if degree(g) == 0:
        return monic(f, F)
    q, r = poly_divmod(f, g, F)
    assert not r
    return monic(q, F)


def is_irreducible(f, F):
    """Irreducibility over a prime field via x**(p**d) == x plus proper-divisor gcds."""
    f = monic(f, F)
    d = degree(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    p = F.p
    x = _x_poly(F)
    h = x
    for _ in range(d):
        h = poly_pow_mod(h, p, f, F)
    if poly_sub(h, x, F):
        return False
    for ell in _prime_divisors(d):
        h = x
        for _ in range(d // ell):
            h = poly_pow_mod(h, p, f, F)
        if degree(poly_gcd(poly_sub(h, x, F), f, F)) != 0:
            return False
    return True


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def poly_xgcd(f, g, F):
    """Extended Euclid over a field: returns (d, u, v) with u*f + v*g = d monic."""
    r0, r1 = f, g
    s0, s1 = (F.one,), ZERO
    t0, t1 = ZERO, (F.one,)
    while r1:
        q, r = poly_divmod(r0, r1, F)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1, F), F)
        t0, t1 = t1, poly_sub(t0, poly_mul(q, t1, F), F)
    if not r0:
        return ZERO, ZERO, ZERO
    c = F.inv(r0[-1])
    return scalar_mul(c, r0, F), scalar_mul(c, s0, F), scalar_mul(c, t0, F)


def crt_polys(residues, F):
    """Chinese remaindering of (value, modulus) pairs with coprime moduli."""
    if not residues:
        raise ValueError("at least one residue required")
    v, q = residues[0]
    v = poly_rem(v, q, F)
    for v2, q2 in residues[1:]:
        d, u, _ = poly_xgcd(q, q2, F)
        if degree(d) != 0:
            raise ModuliNotCoprimeError(
                f"moduli share a factor of degree {degree(d)}"
            )
        diff = poly_sub(poly_rem(v2, q2, F), v, F)
        t = poly_rem(poly_mul(diff, u, F), q2, F)
        v = poly_add(v, poly_mul(q, t, F), F)
        q = poly_mul(q, q2, F)
    return poly_rem(v, q, F)


def reconstruction_guard(m):
    """The guard T = 2^c·bits(m), c = min(32, bits(m) // 8), that the
    largest quotient must exceed."""
    bits = m.bit_length()
    return 2 ** min(32, bits // 8) * bits


def euclidean_sequence(a, m):
    """(q, r, t) for each step of the extended Euclidean sequence of (m, a):
    the quotient q and the pair (r, t), r = t·a mod m, that precedes it."""
    r0, r1, t0, t1 = m, a, 0, 1
    while r1:
        q = r0 // r1
        yield q, r1, t1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1


def maximal_quotient_reconstruct(a, m):
    """Monagan's maximal-quotient rational reconstruction (ISSAC 2004) over
    the whole Euclidean sequence, with no early stop: (num, den) from the
    pair before the first largest quotient when that quotient exceeds the
    guard and the pair is in lowest terms with den prime to m; None
    otherwise."""
    if a == 0:
        return 0, 1
    q, r, t = max(euclidean_sequence(a, m), key=lambda step: step[0])
    if q <= reconstruction_guard(m):
        return None
    num, den = (r, t) if t > 0 else (-r, -t)
    if gcd(num, den) != 1 or gcd(den, m) != 1:
        return None
    return num, den
