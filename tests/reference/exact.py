"""The exact residual check over Q that provable mode ran before the
division check of ``kronecker.verify``, kept as its oracle.

It rescales T = S/c so that Q becomes an integer monic modulus, evaluates
the program over A[U] with A = Z[S]/(q_c) and Y_j = W_j·U, and contracts
each output against powers of Q' (U standing for 1/Q').
``contract_u_expansion`` also serves as the reference for
``solver.residuals`` over F_p and Z/p^k.
"""

from fractions import Fraction
from math import gcd, lcm

from kronecker.errors import NotInvertibleError
from kronecker.polys import degree, divmod_monic, poly_add, poly_deriv, poly_mul
from kronecker.rings import ZZ, PolyRing
from kronecker.slp import evaluate
from kronecker.solver import embed_scalar


class _ScaledQuotient:
    """Z[S]/(q) with one tracked denominator per element.

    Elements are (integer coefficient tuple, positive denominator); all
    additions and multiplications stay in Z, so exact rational residual
    checks avoid per-coefficient fraction normalization entirely.
    """

    is_field = False

    def __init__(self, modulus):
        self.modulus = modulus
        self.deg = degree(modulus)
        self.zero = ((), 1)
        self.one = ((1,), 1)
        self.gen = (divmod_monic((0, 1), modulus, ZZ)[1], 1)

    # Content reduction only once the denominator gets heavy: the gcd scans
    # cost more than the size they save on small operands.
    _REDUCE_BITS = 2048

    def _reduce(self, num, den):
        if not num:
            return ((), 1)
        if den == 1 or den.bit_length() < self._REDUCE_BITS:
            return (tuple(num), den)
        g = gcd(den, *(abs(c) for c in num))
        if g > 1:
            num = tuple(c // g for c in num)
            den //= g
        return (tuple(num), den)

    def add(self, a, b):
        (na, da), (nb, db) = a, b
        g = gcd(da, db)
        scale_a = db // g
        scale_b = da // g
        num = poly_add(
            tuple(c * scale_a for c in na),
            tuple(c * scale_b for c in nb),
            ZZ,
        )
        return self._reduce(num, da * scale_a)

    def sub(self, a, b):
        (nb, db) = b
        return self.add(a, (tuple(-c for c in nb), db))

    def neg(self, a):
        (na, da) = a
        return (tuple(-c for c in na), da)

    def mul(self, a, b):
        (na, da), (nb, db) = a, b
        num = divmod_monic(poly_mul(na, nb, ZZ), self.modulus, ZZ)[1]
        return self._reduce(num, da * db)

    def from_int(self, n):
        return ((int(n),), 1) if n else ((), 1)

    def embed(self, x):
        x = Fraction(x)
        return self._reduce((x.numerator,), x.denominator)

    def is_zero(self, a):
        return not a[0]

    def inv(self, a):
        # Needed only for rational constants (e.g. change-of-variables
        # determinants); general quotient inversion is never used here.
        (num, den) = a
        if len(num) != 1:
            raise NotInvertibleError("only constants are inverted here")
        k = num[0]
        return self._reduce((den if k > 0 else -den,), abs(k))


def contract_u_expansion(slp, A, point, gen, params, qp, count):
    """Outputs of ``slp`` at Y = (point, T, W_j * U) over A[U], each
    contracted against powers of Q' so that U stands for 1/Q'.

    ``gen`` is T in A, ``params`` the W_j in A in variable order, and ``qp``
    is Q' in A.  A zero W_j keeps its coordinate zero.  When Q' is a unit
    mod Q the contraction is Q'^e times the residual, for e the U-degree of
    the expansion, so one vanishes exactly when the other does.
    """
    PR = PolyRing(A)
    coords = [PR.embed(embed_scalar(A, x)) for x in point]
    coords.append(PR.embed(gen))
    coords.extend((A.zero, w) if not A.is_zero(w) else PR.zero for w in params)
    out = []
    for expansion in evaluate(slp, coords, PR, n_out=count):
        acc = A.zero
        power = A.one
        for k in range(len(expansion) - 1, -1, -1):
            acc = A.add(acc, A.mul(expansion[k], power))
            if k:
                power = A.mul(power, qp)
        out.append(acc)
    return out


def _exact_kronecker_residuals(slp, rep):
    """Division-free and fraction-free residuals of a rational Kronecker rep.

    Rescales the primitive variable T = S/c (c clearing the denominators of
    Q) so the modulus becomes integer and monic, then runs the W_j*U
    substitution of ``contract_u_expansion`` over the scaled integer
    quotient.
    """
    q = rep.min_poly
    delta = degree(q)
    c = 1
    for coeff in q:
        c = lcm(c, Fraction(coeff).denominator)
    scaled_modulus = tuple(
        int(Fraction(q[i]) * c ** (delta - i)) for i in range(delta + 1)
    )
    A = _ScaledQuotient(scaled_modulus)

    def convert(coeffs):
        # f(T) with T = S/c: sum a_i S^i / c^i as one (numerator, den) pair
        items = [Fraction(a) / c**i for i, a in enumerate(coeffs)]
        den = 1
        for a in items:
            den = lcm(den, a.denominator)
        num = divmod_monic(
            tuple(int(a * den) for a in items), scaled_modulus, ZZ
        )[1]
        return A._reduce(num, den)

    point = rep.point[: rep.prim_var]
    params = [convert(rep.params[j]) for j in range(rep.prim_var + 1, slp.n_vars)]
    qp = convert(poly_deriv(rep.min_poly, rep.ring))
    vals = contract_u_expansion(slp, A, point, convert((0, 1)), params, qp, rep.stage)
    return [v[0] for v in vals]
