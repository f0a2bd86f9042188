"""Brute-force references the tests check the solver against.

Exhaustive fiber enumeration over F_p and over an extension field, the
characteristic polynomial of a multiplication matrix, and the Sylvester
and division-free determinants.  Size guards keep every call small: fiber
enumeration refuses search spaces beyond 10^8 points and the
multiplication-matrix construction refuses moduli of degree above 8.
Enumeration is vectorized with numpy in chunks; coefficients stay far below
2^63 because the guards cap p at 101.
"""

import numpy as np

from kronecker.errors import KroneckerError
from kronecker.polys import (
    charpoly_division_free,
    degree,
    monic,
    normalize,
    poly_mul,
    rem_monic,
)
from kronecker.rings import PolyQuotient
from kronecker.slp import AffineChange

from .rings import ExtField


class SizeGuardError(KroneckerError):
    """A reference computation refused an input beyond its size guard."""

_MAX_POINTS = 10**8
_CHUNK = 1 << 18
_MAX_CHARPOLY_DEG = 8


def _lambda_rows(lam):
    if isinstance(lam, AffineChange):
        return lam.matrix
    return tuple(tuple(int(c) for c in row) for row in lam)


def _eval_outputs_prime(slp, coords, p, count):
    vals = []
    for ins in slp.instructions:
        op = ins[0]
        if op == "var":
            vals.append(coords[ins[1]])
        elif op == "const":
            vals.append(np.full_like(coords[0], ins[1] % p))
        elif op == "lin":
            _, c0, coeffs, operands = ins
            acc = np.full_like(coords[0], c0 % p)
            for c, j in zip(coeffs, operands):
                acc = (acc + (c % p) * vals[j]) % p
            vals.append(acc)
        else:
            vals.append((vals[ins[1]] * vals[ins[2]]) % p)
    return [vals[o] for o in slp.outputs[:count]]


def brute_force_fiber(slp, lam, point, p):
    """All x in F_p^n with F_i(x) = 0 (i <= s) and lambda_j . x = point_j.

    ``s`` is inferred as n - len(point); the exhaustive scan over p^n points
    is exact.  Only meant for tiny instances (guarded at 10^8 points).
    """
    if slp.transform is not None:
        raise ValueError("pass the raw program; constraints carry the change")
    n = slp.n_vars
    total = p**n
    if total > _MAX_POINTS:
        raise SizeGuardError(f"{total} points exceeds the enumeration guard")
    rows = _lambda_rows(lam)
    s = n - len(point)
    if not 1 <= s <= slp.n_outputs:
        raise ValueError("point length inconsistent with the system")
    found = []
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        coords = [(idx // p**j) % p for j in range(n)]
        outputs = _eval_outputs_prime(slp, coords, p, s)
        mask = np.ones_like(idx, dtype=bool)
        for v in outputs:
            mask &= v == 0
        for j in range(n - s):
            acc = np.zeros_like(idx)
            for k in range(n):
                if rows[j][k]:
                    acc = (acc + (rows[j][k] % p) * coords[k]) % p
            mask &= acc == point[j] % p
        hits = np.nonzero(mask)[0]
        for h in hits:
            found.append(tuple(int(coords[j][h]) for j in range(n)))
    return set(found)


def _ext_mul(a, b, modulus, p):
    e = len(modulus) - 1
    planes = [np.zeros_like(a[0]) for _ in range(2 * e - 1)]
    for i in range(e):
        for j in range(e):
            planes[i + j] = (planes[i + j] + a[i] * b[j]) % p
    for k in range(2 * e - 2, e - 1, -1):
        top = planes[k]
        for j in range(e):
            if modulus[j]:
                planes[k - e + j] = (planes[k - e + j] - top * modulus[j]) % p
        planes[k] = None
    return planes[:e]


def _eval_outputs_ext(slp, coords, modulus, p, count):
    e = len(modulus) - 1
    shape = coords[0][0]
    vals = []
    for ins in slp.instructions:
        op = ins[0]
        if op == "var":
            vals.append(coords[ins[1]])
        elif op == "const":
            planes = [np.full_like(shape, ins[1] % p)]
            planes += [np.zeros_like(shape) for _ in range(e - 1)]
            vals.append(planes)
        elif op == "lin":
            _, c0, coeffs, operands = ins
            planes = [np.full_like(shape, c0 % p)]
            planes += [np.zeros_like(shape) for _ in range(e - 1)]
            for c, j in zip(coeffs, operands):
                planes = [(x + (c % p) * y) % p for x, y in zip(planes, vals[j])]
            vals.append(planes)
        else:
            vals.append(_ext_mul(vals[ins[1]], vals[ins[2]], modulus, p))
    return [vals[o] for o in slp.outputs[:count]]


def brute_force_fiber_ext(slp, lam, point, ext):
    """Exhaustive fiber scan with coordinates in an extension field.

    ``point`` entries are base-field integers; returned points are tuples of
    normalized ExtField elements.  Guarded at 10^8 points.
    """
    if slp.transform is not None:
        raise ValueError("pass the raw program; constraints carry the change")
    if not isinstance(ext, ExtField):
        raise TypeError("ext must be an ExtField")
    n = slp.n_vars
    p = ext.p
    e = ext.deg
    size = ext.size
    total = size**n
    if total > _MAX_POINTS:
        raise SizeGuardError(f"{total} points exceeds the enumeration guard")
    rows = _lambda_rows(lam)
    s = n - len(point)
    modulus = [c for c in ext.modulus]
    found = []
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        coords = []
        for j in range(n):
            element_index = (idx // size**j) % size
            planes = [(element_index // p**k) % p for k in range(e)]
            coords.append(planes)
        outputs = _eval_outputs_ext(slp, coords, modulus, p, s)
        mask = np.ones_like(idx, dtype=bool)
        for planes in outputs:
            for plane in planes:
                mask &= plane == 0
        for j in range(n - s):
            acc = [np.zeros_like(idx) for _ in range(e)]
            for k in range(n):
                if rows[j][k]:
                    c = rows[j][k] % p
                    acc = [(x + c * y) % p for x, y in zip(acc, coords[k])]
            mask &= acc[0] == point[j] % p
            for plane in acc[1:]:
                mask &= plane == 0
        hits = np.nonzero(mask)[0]
        for h in hits:
            pt = tuple(
                normalize([int(plane[h]) for plane in coords[j]], ext.base)
                for j in range(n)
            )
            found.append(pt)
    return set(found)


def mulmat_charpoly(h, q, F):
    """Characteristic polynomial of multiplication by h in F[T]/(q).

    Built column by column in the monomial basis and expanded exactly over
    F[S]; degree of q is guarded at 8.
    """
    q = monic(q, F)
    d = degree(q)
    if d < 1:
        raise ValueError("modulus must have positive degree")
    if d > _MAX_CHARPOLY_DEG:
        raise SizeGuardError(f"degree {d} modulus exceeds the charpoly guard")
    h = rem_monic(normalize(h, F), q, F)
    columns = []
    col = h if h else ()
    t_poly = (F.zero, F.one)
    for j in range(d):
        if j > 0:
            col = rem_monic(poly_mul(col, t_poly, F), q, F)
        columns.append(col)
    # The charpoly has degree d in S, so F[S]/(S^(d+1)) holds it exactly.
    FS = PolyQuotient(F, (F.zero,) * (d + 1) + (F.one,))

    def entry(i, j):
        c = columns[j][i] if i < len(columns[j]) else F.zero
        if i == j:
            return normalize((F.neg(c), F.one), F)
        return normalize((F.neg(c),), F)

    mat = [[entry(i, j) for j in range(d)] for i in range(d)]
    return det_division_free(mat, FS)


def det_division_free(mat, A):
    """Determinant over any commutative ring ``A``, as (-1)^s c_s of
    ``charpoly_division_free``."""
    c_s = charpoly_division_free(mat, A)[-1]
    return c_s if len(mat) % 2 == 0 else A.neg(c_s)


def sylvester_det(f, g, F):
    """Determinant of the Sylvester matrix of (f, g), exact over the field."""
    f = normalize(f, F)
    g = normalize(g, F)
    m, n = degree(f), degree(g)
    if m < 0 or n < 0:
        raise ValueError("both polynomials must be nonzero")
    size = m + n
    if size == 0:
        return F.one
    fr = list(reversed(f))
    gr = list(reversed(g))
    mat = []
    for i in range(n):
        row = [F.zero] * size
        for k, c in enumerate(fr):
            row[i + k] = c
        mat.append(row)
    for i in range(m):
        row = [F.zero] * size
        for k, c in enumerate(gr):
            row[i + k] = c
        mat.append(row)
    return _field_det(mat, F)


def _field_det(mat, F):
    n = len(mat)
    a = [row[:] for row in mat]
    det = F.one
    for col in range(n):
        pivot = next(
            (r for r in range(col, n) if not F.is_zero(a[r][col])), None
        )
        if pivot is None:
            return F.zero
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = F.neg(det)
        det = F.mul(det, a[col][col])
        inv = F.inv(a[col][col])
        for r in range(col + 1, n):
            if not F.is_zero(a[r][col]):
                factor = F.mul(a[r][col], inv)
                a[r] = [
                    F.sub(x, F.mul(factor, y)) for x, y in zip(a[r], a[col])
                ]
    return det
