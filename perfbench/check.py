"""Output checks that do not go through the solver's own code.

A Kronecker representation of a square system is Q(T) monic of degree δ
with Y_0 = T and Y_j = W_j(T) / Q'(T); the solver's coordinates are
y = λ x.  ``residuals_vanish`` reduces the representation modulo a prime p,
substitutes x = λ⁻¹ y into the dense input polynomials and checks that each
one vanishes in F_p[T]/(Q).  Q' being invertible there means Q mod p is
squarefree, so with deg Q = δ (the Bézout number) the representation names
δ distinct solutions: all of them.
"""

import hashlib
import json
from fractions import Fraction

# Mersenne primes used to reduce rational outputs; the next one is tried
# when a denominator vanishes modulo the current one.
CHECK_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1)


def digest(min_poly, params):
    """SHA-256 of the representation's coefficients, as canonical text."""
    doc = {
        "minimal_poly": [str(c) for c in min_poly],
        "parametrizations": {
            str(j): [str(c) for c in w] for j, w in sorted(params.items())
        },
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def height_bits(coeffs):
    """Largest bit length of a numerator or denominator."""
    best = 0
    for c in coeffs:
        c = Fraction(c)
        best = max(best, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return best


def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _mul_mod(a, b, q, p):
    """a * b mod (p, q) for a monic q, dense coefficient lists low to high."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    d = len(q) - 1
    for i in range(len(out) - 1, d - 1, -1):
        c = out[i] % p
        if c:
            for j in range(d):
                out[i - d + j] -= c * q[j]
        out[i] = 0
    return _trim([c % p for c in out[:d]])


def _inverse_mod(a, q, p):
    """a⁻¹ mod (p, q) by extended Euclid; None when gcd(a, q) != 1."""
    r0, r1 = list(q), _trim(list(a))
    s0, s1 = [], [1]
    while r1:
        quo = [0] * max(len(r0) - len(r1) + 1, 0)
        rem = list(r0)
        inv_lead = pow(r1[-1], -1, p)
        for i in range(len(rem) - len(r1), -1, -1):
            c = rem[i + len(r1) - 1] * inv_lead % p
            quo[i] = c
            for j, y in enumerate(r1):
                rem[i + j] = (rem[i + j] - c * y) % p
        rem = _trim(rem)
        prod = [0] * (len(quo) + len(s1))
        for i, x in enumerate(quo):
            for j, y in enumerate(s1):
                prod[i + j] += x * y
        s_next = [0] * max(len(s0), len(prod))
        for i, x in enumerate(s0):
            s_next[i] += x
        for i, x in enumerate(prod):
            s_next[i] -= x
        r0, r1 = r1, rem
        s0, s1 = s1, _trim([c % p for c in s_next])
    if len(r0) != 1:
        return None
    inv = pow(r0[0], -1, p)
    return _mul_mod(s0, [inv], q, p)


def _matrix_inverse_mod(rows, p):
    n = len(rows)
    aug = [[c % p for c in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [c * inv % p for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def residuals_vanish(dense, lam, min_poly, params, p):
    """True when every input polynomial vanishes on the representation mod p.

    ``min_poly`` and ``params`` hold integers already reduced mod p; the
    representation is of the final (zero-dimensional) stage, so Y_0 is the
    primitive element and params covers Y_1..Y_{n-1}.
    """
    n = len(lam)
    q = list(min_poly)
    if len(q) < 2 or q[-1] != 1:
        return False
    dq = _trim([i * q[i] % p for i in range(1, len(q))])
    dq_inv = _inverse_mod(dq, q, p)
    lam_inv = _matrix_inverse_mod(lam, p)
    if dq_inv is None or lam_inv is None:
        return False
    ys = [_mul_mod([0, 1], [1], q, p)]
    for j in range(1, n):
        ys.append(_mul_mod(list(params.get(j, ())), dq_inv, q, p))
    xs = []
    for i in range(n):
        acc = [0] * (len(q) - 1)
        for j in range(n):
            for k, c in enumerate(ys[j]):
                acc[k] += lam_inv[i][j] * c
        xs.append(_trim([c % p for c in acc]))
    for poly in dense:
        top = max(max(e) for e in poly)
        powers = []
        for x in xs:
            pw = [[1]]
            for _ in range(top):
                pw.append(_mul_mod(pw[-1], x, q, p))
            powers.append(pw)
        total = [0] * (len(q) - 1)
        for exps, c in poly.items():
            term = [c % p]
            for i, e in enumerate(exps):
                if e:
                    term = _mul_mod(term, powers[i][e], q, p)
            for k, t in enumerate(term):
                total[k] += t
        if _trim([c % p for c in total]):
            return False
    return True


def rational_residuals_vanish(dense, lam, min_poly, params):
    """``residuals_vanish`` for a representation over Q, reduced mod a
    check prime that divides no denominator."""
    coeffs = [Fraction(c) for c in min_poly]
    coeffs += [Fraction(c) for w in params.values() for c in w]
    for p in CHECK_PRIMES:
        if all(c.denominator % p for c in coeffs):
            break
    else:
        return False

    def red(c):
        c = Fraction(c)
        return c.numerator * pow(c.denominator, -1, p) % p

    return residuals_vanish(
        dense,
        lam,
        [red(c) for c in min_poly],
        {j: [red(c) for c in w] for j, w in params.items()},
        p,
    )
