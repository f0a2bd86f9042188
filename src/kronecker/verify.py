"""Runtime certification of fiber representations.

Every "lucky prime" condition the solver relies on is checked once, on the
computed objects.  The stage gate checks the one the construction leaves
open on each fiber over F_p: Q squarefree.  (Q is monic and of degree at
most the Bezout number by construction: stage 1 keeps the first
polynomial's degree or raises DegreeDropError, and a later Q is the monic
interpolant through d·δ + 1 nodes.)  The Newton step that takes the fiber
checks the others, the residual identity F_i(point, T, V(T)) = 0 mod
(p, Q(T)) and the Jacobian's invertibility mod (p, Q): the first step of
the curve lift below the last stage, the first rung of the p-adic ladder at
the last, and, for the fiber ``solve_modular`` returns, one step taken for
the check alone.  (A rational solve whose ladder stops at p^1 takes no
step; its output is verified over Q.)  A ladder's rungs are checked the
same way, the last through the next fiber or the output over Q.

Over a field or a local ring the residual of a representation is
``solver.residuals`` of its univariate form.  A rational representation is
checked modulo fresh primes by ``fresh_prime_checks`` (Monte Carlo), where
it is a fiber over a field, and, in provable mode, exactly over Q by a
fraction-free U-expansion, since inverting Q' over Q blows up the
coefficients.  With Q squarefree, that check passing means every point of
V(Q) satisfies every F_i over Q.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm

from .errors import NoPrimeFoundError, NotInvertibleError, UnluckyError
from .polys import (
    degree,
    divmod_monic,
    is_monic,
    is_squarefree,
    normalize,
    poly_add,
    poly_deriv,
    poly_mul,
)
from .primes import WORD_PRIME_HIGH, WORD_PRIME_LOW, random_prime_in_range
from .rings import QQ, ZZ, PolyRing, Rationals, ResidueRing
from .slp import evaluate
from .solver import embed_scalar, residuals

# Verify primes drawn for one reduction before giving up on a prime that
# divides neither a denominator of the fiber nor det λ.
FRESH_PRIME_DRAWS = 16

# The Mersenne prime 2^61 - 1: the fixed modulus of the squarefree shortcut.
SQUAREFREE_PRIME = 2**61 - 1


@dataclass
class CheckReport:
    clauses: list

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.clauses)

    def failed_clauses(self):
        return [(name, detail) for name, ok, detail in self.clauses if not ok]

    def to_dict(self):
        return {
            "passed": self.passed,
            "clauses": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in self.clauses
            ],
        }


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


def _residual_clauses(rep, slp, clauses):
    if rep.form == "kronecker" and isinstance(rep.ring, Rationals):
        vals = _exact_kronecker_residuals(slp, rep)
    else:
        try:
            vals = residuals(slp, rep)
        except NotInvertibleError:
            clauses.append(
                ("residual", False, "cannot convert to univariate form")
            )
            return
    for i, v in enumerate(vals):
        ok = len(v) == 0
        clauses.append(
            (
                f"residual F_{i + 1}",
                ok,
                "vanishes mod Q" if ok else "nonzero residual",
            )
        )


def _is_squarefree_over_q(q):
    """Whether a polynomial over Q is squarefree, decided modulo
    ``SQUAREFREE_PRIME`` when that suffices.

    When no denominator of Q vanishes mod P and Q mod P keeps its degree,
    disc(Q mod P) is disc(Q) mod P, so Q mod P squarefree implies Q
    squarefree.  Otherwise, or when Q mod P has a square factor, the exact
    gcd over Q decides.
    """
    F = ResidueRing(SQUAREFREE_PRIME, 1)
    try:
        qbar = normalize(_reduce_coefficients(q, F), F)
    except ValueError:
        qbar = None
    if qbar is not None and degree(qbar) == degree(q) and is_squarefree(qbar, F):
        return True
    return is_squarefree(q, QQ)


def check_representation(rep, slp, *, exact=False):
    """Structural and membership checks for a fiber representation.

    Prime-field and residue-ring representations are checked directly.  A
    rational representation gets its structural clauses, and its residual
    checked exactly over Q when ``exact`` (provable mode's acceptance
    check); ``fresh_prime_checks`` checks it modulo verify primes.
    """
    R = rep.ring
    clauses = []
    clauses.append(
        ("monic", is_monic(rep.min_poly, R), "leading coefficient is one")
    )
    deg = degree(rep.min_poly)
    for j, w in rep.params.items():
        if degree(w) >= deg:
            clauses.append(
                (f"degree W_{j}", False, "parametrization degree >= deg Q")
            )
    if isinstance(R, Rationals):
        sqf = ("squarefree", _is_squarefree_over_q(rep.min_poly))
    elif R.is_field:
        sqf = ("squarefree", is_squarefree(rep.min_poly, R))
    else:
        qbar = tuple(R.residue(c) for c in rep.min_poly)
        sqf = ("squarefree mod p", is_squarefree(qbar, R.residue_field()))
    clauses.append((*sqf, "gcd(Q, Q') = 1"))
    if not isinstance(R, Rationals):
        _residual_clauses(rep, slp, clauses)
    elif exact:
        sub = CheckReport([])
        _residual_clauses(rep, slp, sub.clauses)
        clauses.append(("exact residual over Q", sub.passed, "checked exactly"))
    return CheckReport(clauses)


def gate_stage(rep):
    """Raise UnluckyError unless the minimal polynomial of a modular stage
    is squarefree: the one lucky-prime condition of a stage that neither
    its construction nor the Newton step that takes it checks."""
    if not is_squarefree(rep.min_poly, rep.ring):
        raise UnluckyError(
            rep.stage, "stage check failed: squarefree (gcd(Q, Q') = 1)"
        )


def _reduce_coefficients(coeffs, field):
    """Images of rational coefficients in a prime field; raises ValueError
    when a denominator vanishes mod p."""

    def red(c):
        c = Fraction(c)
        if c.denominator % field.p == 0:
            raise ValueError("denominator divisible by the reduction prime")
        return field.mul(
            field.from_int(c.numerator), field.inv(field.from_int(c.denominator))
        )

    return tuple(red(c) for c in coeffs)


def reduce_rational_rep(rep, field):
    """Reduce a rational representation modulo a prime field.

    Raises ValueError when any denominator vanishes mod p, in which case the
    caller should draw a different prime.
    """
    return replace(
        rep,
        point=tuple(int(x) for x in rep.point),
        min_poly=_reduce_coefficients(rep.min_poly, field),
        params={j: _reduce_coefficients(w, field) for j, w in rep.params.items()},
        ring=field,
    )


def fresh_prime_checks(rep, slp, count, rng):
    """[(p, passed)] for ``count`` verify primes p drawn from ``rng``, where
    ``passed`` is whether ``check_representation`` passes on the rational
    ``rep`` reduced mod p."""
    checks = []
    for _ in range(count):
        p, rep_p = _reduce_with_fresh_prime(rep, slp, rng)
        checks.append((p, check_representation(rep_p, slp).passed))
    return checks


def _reduce_with_fresh_prime(rep, slp, rng):
    """A verify prime and ``rep`` reduced modulo it.  Primes that divide a
    denominator of ``rep`` or the determinant of ``slp``'s change of
    variables are skipped."""
    det = slp.transform.det if slp.transform is not None else 1
    for _ in range(FRESH_PRIME_DRAWS):
        p = random_prime_in_range(WORD_PRIME_LOW, WORD_PRIME_HIGH, rng)
        if det % p == 0:
            continue
        try:
            return p, reduce_rational_rep(rep, ResidueRing(p, 1))
        except ValueError:
            continue
    raise NoPrimeFoundError(
        f"no reduction prime in {FRESH_PRIME_DRAWS} draws avoids the "
        "denominators and det"
    )
