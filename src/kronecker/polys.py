"""Dense univariate polynomial arithmetic over pluggable coefficient rings.

A polynomial is a tuple of ring elements in ascending order of exponent,
``(a0, a1, ..., an)`` for ``a0 + a1*T + ... + an*T**n``, with no trailing
zeros; the zero polynomial is the empty tuple.  Every function takes the
ring context as its last argument and only ever calls the small ring
protocol (``add``, ``sub``, ``mul``, ``neg``, ``inv``, ``from_int``,
``is_zero``, ``zero``, ``one``), so the same code runs over prime fields,
residue rings, extension fields, truncated power series and the rationals.

Operations that need division by arbitrary leading coefficients (gcd,
resultant, factorization) require a field context; Euclidean division by a
*monic* divisor works over any ring and is what the solver uses elsewhere.
"""

from functools import lru_cache
from itertools import accumulate, zip_longest
from math import gcd as _int_gcd

from .errors import DuplicateNodeError, NoReconstructionError, NotInvertibleError

ZERO = ()


def normalize(f, R):
    """Strip trailing zero coefficients."""
    n = len(f)
    while n > 0 and R.is_zero(f[n - 1]):
        n -= 1
    return tuple(f if n == len(f) else f[:n])


def degree(f):
    """Degree of f, with -1 for the zero polynomial."""
    return len(f) - 1


def is_monic(f, R):
    return bool(f) and f[-1] == R.one


def constant(c, R):
    return normalize((c,), R)


def poly_add(f, g, R):
    if len(f) < len(g):
        f, g = g, f
    m = getattr(R, "int_modulus", None)
    if m is not None:
        out = [(a + b) % m for a, b in zip(f, g)]
        out += f[len(g):]
        return normalize(out, R)
    out = list(f)
    for i, c in enumerate(g):
        out[i] = R.add(out[i], c)
    return normalize(out, R)


def poly_sub(f, g, R):
    m = getattr(R, "int_modulus", None)
    if m is not None:
        return normalize([(a - b) % m for a, b in zip_longest(f, g, fillvalue=0)], R)
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else R.zero
        b = g[i] if i < len(g) else R.zero
        out.append(R.sub(a, b))
    return normalize(out, R)


def poly_neg(f, R):
    return tuple(R.neg(c) for c in f)


def poly_mul(f, g, R):
    if not f or not g:
        return ZERO
    m = getattr(R, "int_modulus", None)
    if m is not None:
        # Integer coefficients: convolve over Z, one reduction per entry.
        out = int_convolve([0] * (len(f) + len(g) - 1), f, g)
        return normalize([c % m for c in out], R)
    out = [R.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if R.is_zero(a):
            continue
        for j, b in enumerate(g):
            out[i + j] = R.add(out[i + j], R.mul(a, b))
    return normalize(out, R)


def int_convolve(out, f, g):
    """Add the product of the integer coefficient lists f and g into the
    list out, over Z with no reduction; returns out."""
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] += a * b
    return out


def int_karatsuba(out, f, g, cut):
    """``int_convolve(out, f, g)`` by Karatsuba: three products, split at
    half the shorter factor, while it has ``cut`` (at least 2) entries or
    more; schoolbook below."""
    if len(f) > len(g):
        f, g = g, f
    n, h = len(f), (len(f) + 1) // 2
    if n < max(cut, 2):
        return int_convolve(out, f, g)
    f0, f1, g0, g1 = f[:h], f[h:], g[:h], g[h:]
    fs = [a + b for a, b in zip_longest(f0, f1, fillvalue=0)]
    gs = [a + b for a, b in zip_longest(g0, g1, fillvalue=0)]
    lo = int_karatsuba([0] * (2 * h - 1), f0, g0, cut)
    hi = int_karatsuba([0] * (n + len(g) - 2 * h - 1), f1, g1, cut)
    mid = int_karatsuba([0] * (h + len(gs) - 1), fs, gs, cut)
    for i, c in enumerate(lo):
        out[i] += c
        mid[i] -= c
    for i, c in enumerate(hi):
        out[i + 2 * h] += c
        mid[i] -= c
    for i, c in enumerate(mid, h):
        out[i] += c
    return out


class Barrett(int):
    """A modulus m whose ``x % m`` is Barrett's reduction by mu = 2^s // m,
    s = 2·bits(m) + 64, while |x| < 2^s: x - q·m lies in [-m, 3m)."""

    BITS = 2500  # bits(m) from which it beats ``%``, measured

    def __init__(self, m):
        self.n = m.bit_length()
        self.bound = 1 << (2 * self.n + 64)
        self.mu = self.bound // m

    def __rmod__(self, x):
        if -self.bound < x < self.bound:
            x -= ((x >> (self.n - 1)) * self.mu >> (self.n + 65)) * self
            if x < 0:
                x += self
            while x >= self:
                x -= self
            return x
        return int.__rmod__(self, x)


barrett = lru_cache(maxsize=16)(Barrett)  # one reciprocal per deep modulus


def scalar_mul(c, f, R):
    if R.is_zero(c):
        return ZERO
    return normalize([R.mul(c, a) for a in f], R)


def poly_eval(f, x, R):
    """Horner evaluation at a ring element."""
    acc = R.zero
    for c in reversed(f):
        acc = R.add(R.mul(acc, x), c)
    return acc


def poly_deriv(f, R):
    return normalize([R.mul(R.from_int(i), f[i]) for i in range(1, len(f))], R)


def divmod_monic(f, g, R):
    """Quotient and remainder of f by a monic g, over any ring.  Over a
    ring with an ``int_modulus`` m the coefficients of f may be any
    integers, as ``int_karatsuba`` leaves them (Karatsuba from length ·
    bits(m) > 8,000 on, 1.6× at 6 × 9,000 bits): the remainder comes out
    reduced, by Barrett's method when m is a ``Barrett`` (2,500 bits and
    more: 1.1× faster than CPython's quadratic ``%``, 1.85× at 16,000)."""
    if not is_monic(g, R):
        raise ValueError("divisor must be monic")
    dg = degree(g)
    if dg == 0:
        return f, ZERO
    m = getattr(R, "int_modulus", None)
    if m is not None:
        # Integer coefficients, reduced or not: reduce multipliers as used,
        # fold once at the end.
        rem = list(f)
        low = g[:dg]
        quo = [0] * (len(f) - dg)
        for i in range(len(rem) - 1, dg - 1, -1):
            c = rem[i] % m
            if c:
                quo[i - dg] = c
                for j, b in enumerate(low, i - dg):
                    rem[j] -= c * b
        return (
            normalize(quo, R),
            normalize([c % m for c in rem[:dg]], R),
        )
    rem = list(f)
    quo = [R.zero] * max(len(f) - dg, 0)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if R.is_zero(c):
            continue
        quo[i - dg] = c
        for j in range(dg):
            rem[i - dg + j] = R.sub(rem[i - dg + j], R.mul(c, g[j]))
        rem[i] = R.zero
    return normalize(quo, R), normalize(rem, R)


def rem_monic(f, g, R):
    return divmod_monic(f, g, R)[1]


def poly_divmod(f, g, F):
    """Euclidean division over a field; g arbitrary nonzero."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if g[-1] == F.one:
        return divmod_monic(f, g, F)
    lcinv = F.inv(g[-1])
    m = getattr(F, "int_modulus", None)
    if m is not None:  # divmod_monic's int path, each lead times 1/lc(g)
        dg = len(g) - 1
        rem, quo, low = list(f), [0] * max(len(f) - dg, 0), g[:dg]
        for i in range(len(f) - 1, dg - 1, -1):
            quo[i - dg] = c = rem[i] * lcinv % m
            for j, b in enumerate(low, i - dg):
                rem[j] -= c * b
        return normalize(quo, F), normalize([c % m for c in rem[:dg]], F)
    gm = scalar_mul(lcinv, g, F)
    q, r = divmod_monic(f, gm, F)
    return scalar_mul(lcinv, q, F), r


def poly_rem(f, g, F):
    return poly_divmod(f, g, F)[1]


def monic(f, F):
    if not f:
        return ZERO
    if f[-1] == F.one:
        return f
    return scalar_mul(F.inv(f[-1]), f, F)


def poly_pow_mod(f, e, q, R):
    """f**e reduced modulo a monic q, by binary powering."""
    result = (R.one,)
    base = rem_monic(f, q, R)
    while e > 0:
        if e & 1:
            result = rem_monic(poly_mul(result, base, R), q, R)
        e >>= 1
        if e:
            base = rem_monic(poly_mul(base, base, R), q, R)
    return result


def poly_gcd(f, g, F):
    """Monic greatest common divisor over a field."""
    a, b = f, g
    while b:
        a, b = b, poly_rem(a, b, F)
    return monic(a, F)


def poly_inverse_mod(f, q, F):
    """Inverse of f modulo a monic q over a field; raises NotInvertibleError."""
    inverse = resultant_and_inverse(q, f, F)[1]
    if inverse is None:
        raise NotInvertibleError("not a unit modulo q: Res(q, f) = 0")
    return inverse


def resultant_and_inverse(q, f, F):
    """Res(q, f) for a monic q over a field, and the inverse of f mod q, or
    None when Res(q, f) = 0 (a shared root, or f ≡ 0 mod q of positive
    degree).  One remainder sequence of (q, f mod q) tracks the product of
    leading coefficients and only the cofactor s of f, s·f ≡ r mod q for
    each remainder r, and stops at a constant remainder c: Res is c^deg
    times the product, and 1/f is s/c."""
    res, a, b = F.one, q, rem_monic(f, q, F)
    s0, s1 = ZERO, (F.one,)
    while True:
        da, db = degree(a), degree(b)
        if db < 0:
            return (F.one, ZERO) if da == 0 else (F.zero, None)
        if db == 0:
            inverse = scalar_mul(F.inv(b[0]), s1, F)
            return F.mul(res, _elem_pow(b[0], da, F)), inverse
        quo, r = poly_divmod(a, b, F)
        if da * db % 2:
            res = F.neg(res)
        res = F.mul(res, _elem_pow(b[-1], da - degree(r), F))
        a, b, s0, s1 = b, r, s1, poly_sub(s0, poly_mul(quo, s1, F), F)


def resultant(f, g, F):
    """Res(f, g) = lc(f)^deg(g)·∏ g(roots of f), by ``resultant_and_inverse``
    on f made monic, so shared roots yield exactly zero."""
    f, g = normalize(f, F), normalize(g, F)
    if not f:
        raise ValueError("resultant requires a nonzero first argument")
    res = resultant_and_inverse(monic(f, F), g, F)[0]
    return F.mul(_elem_pow(f[-1], degree(g), F), res)


def _elem_pow(a, e, R):
    acc = R.one
    base = a
    while e > 0:
        if e & 1:
            acc = R.mul(acc, base)
        e >>= 1
        if e:
            base = R.mul(base, base)
    return acc


def is_squarefree(f, F):
    return degree(poly_gcd(f, poly_deriv(f, F), F)) == 0


def _x_poly(F):
    return (F.zero, F.one)


def factor_squarefree(f, F, rng):
    """Irreducible factors of a monic squarefree polynomial over F_p, p odd.

    Distinct-degree splitting followed by Cantor-Zassenhaus equal-degree
    splitting; Las Vegas, retries internally until every split succeeds.
    The factor list is sorted canonically so output does not depend on the
    random path taken.
    """
    f = monic(f, F)
    if degree(f) <= 0:
        return []
    if degree(f) == 1:
        return [f]
    p = F.p
    x = _x_poly(F)
    out = []
    v = f
    h = rem_monic(x, v, F)
    d = 0
    while degree(v) >= 2 * (d + 1):
        d += 1
        h = poly_pow_mod(h, p, v, F)
        g = poly_gcd(poly_sub(h, x, F), v, F)
        if degree(g) > 0:
            out.extend(_equal_degree_split(g, d, F, rng))
            v = poly_divmod(v, g, F)[0]
            h = rem_monic(h, v, F)
    if degree(v) > 0:
        out.append(monic(v, F))
    out.sort(key=lambda q: (degree(q), q))
    return out


def _equal_degree_split(g, d, F, rng):
    if degree(g) == d:
        return [g]
    p = F.p
    exp = (p**d - 1) // 2
    while True:
        a = normalize([F.from_int(rng.randrange(p)) for _ in range(2 * d)], F)
        if degree(a) < 1:
            continue
        c = poly_pow_mod(a, exp, g, F)
        w = poly_gcd(poly_sub(c, (F.one,), F), g, F)
        if 0 < degree(w) < degree(g):
            left = _equal_degree_split(w, d, F, rng)
            right = _equal_degree_split(poly_divmod(g, w, F)[0], d, F, rng)
            return left + right


def interpolate(points, F):
    """Unique polynomial of degree < len(points) through the given nodes.

    Newton's divided differences over a field; nodes must be distinct.
    """
    if not points:
        raise ValueError("at least one interpolation point required")
    xs = [p[0] for p in points]
    if len(set(xs)) < len(xs):
        raise DuplicateNodeError("repeated interpolation node")
    n = len(points)
    coeffs = [p[1] for p in points]
    # Each step divides by one difference x_i - x_(i-j); all of them are
    # inverted by Montgomery's trick, one ``F.inv`` of their product.
    steps = [(i, j) for j in range(1, n) for i in range(n - 1, j - 1, -1)]
    invs = [F.sub(xs[i], xs[i - j]) for i, j in steps]
    prefix = list(accumulate(invs, F.mul, initial=F.one))
    acc = F.inv(prefix.pop())
    for k in range(len(invs) - 1, -1, -1):
        invs[k], acc = F.mul(acc, prefix[k]), F.mul(acc, invs[k])
    for (i, _), inv in zip(steps, invs):
        coeffs[i] = F.mul(F.sub(coeffs[i], coeffs[i - 1]), inv)
    poly = ZERO
    for i in range(n - 1, -1, -1):
        poly = poly_mul(poly, (F.neg(xs[i]), F.one), F)
        poly = poly_add(poly, (coeffs[i],), F)
    return poly


def rational_reconstruct(a, m):
    """Recover num/den from a mod m by maximal-quotient rational
    reconstruction (Monagan, ISSAC 2004).

    Each pair (r, t) of the extended Euclidean sequence of (m, a) has
    r = t·a mod m and |r·t| <= m/q, for q the quotient that follows it, so a
    fraction with |num|·den far below m shows as one quotient far above the
    others.  The pair before the largest quotient is returned when that
    quotient exceeds the guard T = 2^c·bits(m), c = min(32, bits(m) // 8).
    A returned pair has |num|·den < m/T, and every fraction in lowest terms
    with den prime to m and m > 2·T·(|num|·den)^2 comes back.  So m needs
    about bits(num) + bits(den) + bits(T) bits, where a bound of sqrt(m/2)
    on both |num| and den needs twice the larger: the Kronecker form's
    numerators are large and its denominators small.  A residue that is no such fraction has
    about 0.6·bits(m) quotients, each above T with odds of about 1.44/T, so
    the guard refuses it but for odds of about 2^-c; c is smaller at a small
    m, so that small fractions modulo a small m still come back.

    Returns the reduced pair (num, den); raises NoReconstructionError when
    no quotient passes the guard, which callers treat as "lift further".
    """
    if m <= 2:
        raise ValueError("modulus too small")
    if not 0 <= a < m:
        raise ValueError("residue out of range")
    if a == 0:
        return 0, 1
    bits = m.bit_length()
    best = bits << min(32, bits // 8)
    pair = None
    r0, r1 = m, a
    t0, t1 = 0, 1
    # A later quotient is at most r0, so the search ends exactly once r0 is
    # no more than the guard or the best quotient so far.
    while r1 and r0 > best:
        qq = r0 // r1
        if qq > best:
            best, pair = qq, (r1, t1)
        r0, r1 = r1, r0 - qq * r1
        t0, t1 = t1, t0 - qq * t1
    if pair is None:
        raise NoReconstructionError("no fraction within the bound")
    num, den = pair if pair[1] > 0 else (-pair[0], -pair[1])
    if _int_gcd(abs(num), den) != 1 or _int_gcd(den, m) != 1:
        raise NoReconstructionError("no fraction within the bound")
    if (num - a * den) % m != 0:
        raise NoReconstructionError("candidate failed the congruence check")
    return num, den


def charpoly_division_free(mat, A):
    """Coefficients 1, c_1, ..., c_s of det(x·I - M), x^s first, by
    Berkowitz's algorithm: no divisions, O(s^4) ring operations, valid over
    any commutative ring.  Its callers, ``solver.solve_linear`` and
    ``slp.AffineChange.from_matrix``, go on with ``charpoly_horner``.

    Builds the characteristic polynomial of each leading principal block
    [[M, c], [r, a]] from that of M by a Toeplitz product whose first column
    is 1, -a, -r c, -r M c, ..., -r M^(k-1) c.
    """
    s = len(mat)
    coeffs = [A.one]  # char poly of the leading k x k block, x^k first
    for k in range(s):
        col = [mat[i][k] for i in range(k)]
        row = mat[k][:k]
        toeplitz = [A.one, A.neg(mat[k][k])]
        for step in range(k):
            toeplitz.append(A.neg(A.dot(row, col)))
            if step < k - 1:
                col = [A.dot(mat[i][:k], col) for i in range(k)]
        new = [A.one]
        for i in range(1, k + 2):
            top = min(i, k) + 1
            new.append(A.dot(toeplitz[i::-1][:top], coeffs[:top]))
        coeffs = new
    return coeffs


def charpoly_horner(mat, coeffs, v, A):
    """M^(s-1)·v + c_1 M^(s-2)·v + ... + c_(s-1)·v by Horner's rule, for the
    coefficients ``coeffs`` = 1, c_1, ..., c_s of det(x·I - M).  By
    Cayley–Hamilton it is (-1)^(s-1) adj(M)·v, and M times it is -c_s·v."""
    acc = list(v)
    for c in coeffs[1:-1]:
        acc = [A.dot((*row, c), (*acc, b)) for row, b in zip(mat, v)]
    return acc


def dot(u, v, A):
    """Sum of u_i·v_i over A, one product and one sum at a time: the
    ``dot`` of a ring that has no fused one.  Callers use ``A.dot``, which
    over ``PolyQuotient``, Z/p^k and the integers sums the unreduced
    products and reduces once."""
    acc = A.zero
    for x, y in zip(u, v):
        acc = A.add(acc, A.mul(x, y))
    return acc
