"""Runtime certification of fiber representations.

Every "lucky prime" condition the solver relies on is checked once, on the
computed objects.  The stage gate checks the one the construction leaves
open on each fiber over F_p: Q squarefree (``solver.solve_mod_p`` says why
Q is monic of degree at most the Bezout number).  The Newton step that
takes the fiber checks the others, the residual F_i(point, T, V(T)) = 0
mod (p, Q(T)) and the Jacobian's invertibility mod (p, Q), and a ladder's
last rung is checked downstream (see ``solver.rungs``); a rational solve
whose ladder stops at p^1 takes no step, and its output is verified over
Q.  Nothing lifts the fiber ``solve_modular`` returns, so
``check_representation`` checks both on it, in one pass over F_p[T]/(Q).

Over a field or a local ring a residual is evaluated on the univariate
form (``solver.residuals``; ``solver.checked_residuals`` also checks the
Jacobian in the same pass).  A rational representation is checked modulo
fresh primes by ``fresh_prime_checks`` (Monte Carlo) and, in provable mode,
exactly over Q in its own form (``_exact_residuals_vanish``), since
inverting Q' over Q blows up the coefficients.  With Q squarefree, the
exact check passing means every point of V(Q) satisfies every F_i over Q.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm

from .errors import NotInvertibleError, UnluckyError
from .polys import degree, dot, is_monic, is_squarefree, normalize, poly_deriv
from .primes import WORD_PRIME_HIGH, WORD_PRIME_LOW, random_prime_in_range
from .rings import QQ, ZZ, Rationals, ResidueRing
from .slp import evaluate
from .solver import checked_residuals, residuals

# The Mersenne prime 2^61 - 1: the fixed modulus of the squarefree shortcut.
SQUAREFREE_PRIME = 2**61 - 1


@dataclass
class CheckReport:
    clauses: list
    univariate: object = None  # the fiber the residuals were evaluated on

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


class _Packed:
    """Z[T] at T = 2^B with a tracked power of H and a constant denominator:
    (X, h, den) stands for P / (den·H^h), P in Z[T], X = P(2^B), and
    ``h_value`` is H(2^B).  With ``norms`` set, X bounds ‖P‖₁ instead: T is
    1, ``h_value`` is ‖H‖₁ and ``neg`` is the identity."""

    def __init__(self, h_value, norms):
        self.norms = norms
        self.zero = (0, 0, 1)
        self._h_powers = [1, h_value]

    def _lift(self, x, k):
        while len(self._h_powers) <= k:
            self._h_powers.append(self._h_powers[-1] * self._h_powers[1])
        return x * self._h_powers[k]

    def add(self, a, b):
        (xa, ha, da), (xb, hb, db) = a, b
        if ha < hb:
            xa = self._lift(xa, hb - ha)
        elif hb < ha:
            xb = self._lift(xb, ha - hb)
        if da != db:
            g = gcd(da, db)
            xa, xb, da = xa * (db // g), xb * (da // g), da // g * db
        return (xa + xb, max(ha, hb), da)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return a if self.norms else (-a[0], a[1], a[2])

    def mul(self, a, b):
        return (a[0] * b[0], a[1] + b[1], a[2] * b[2])

    def dot(self, us, vs):
        return dot(us, vs, self)

    def from_int(self, n):
        return (abs(n) if self.norms else n, 0, 1)

    def is_zero(self, a):
        return a[0] == 0

    def inv(self, a):
        # Only det of the change of variables, a nonzero integer, is inverted.
        x, _, den = a
        return (den if x > 0 else -den, 0, abs(x))


def _pack(p, bits):
    return sum(c << (i * bits) for i, c in enumerate(p))


def _unpack(x, bits):
    """P from X = P(2^bits), every |coefficient| of P below 2^(bits - 1):
    with 2^(bits-1) added to each digit, X's binary string splits into them."""
    count = x.bit_length() // bits + 2
    half = 1 << (bits - 1)
    digits = format(x + int(format(half, "b") * count, 2), "b")
    top = len(digits)
    coeffs = [
        int(digits[top - (i + 1) * bits : top - i * bits], 2) - half
        for i in range(count)
    ]
    return normalize(coeffs, ZZ)


def _divides(q, p):
    """Whether the integer polynomial q divides p in Z[T]; the long division
    stops at the first quotient coefficient that is not an integer."""
    p = list(p)
    d = len(q) - 1
    for i in range(len(p) - 1, d - 1, -1):
        c, r = divmod(p[i], q[-1])
        if r:
            return False
        for k in range(d):
            p[i - d + k] -= c * q[k]
    return not any(p[:d])


def _packed_outputs(slp, rep, bits):
    """X of each residual F_i(point, T, W_j/Q') of a rational Kronecker
    representation over ``_Packed``: P(2^bits), or ‖P‖₁ bounds when ``bits``
    is None.  H = L·Q' and W_j/Q' = L·W_j/H, L clearing the denominators."""
    qp = poly_deriv(rep.min_poly, rep.ring)
    ws = [rep.params[j] for j in range(rep.prim_var + 1, slp.n_vars)]
    scale = lcm(*(Fraction(c).denominator for w in (qp, *ws) for c in w))

    def pack(p):
        p = [int(c * scale) for c in p]
        return sum(map(abs, p)) if bits is None else _pack(p, bits)

    coords = list(rep.point[: rep.prim_var])
    coords.append((1 if bits is None else 1 << bits, 0, 1))
    coords.extend((x, 1 if x else 0, 1) for x in map(pack, ws))
    R = _Packed(pack(qp), bits is None)
    return [x for x, _, _ in evaluate(slp, coords, R, n_out=rep.stage)]


def _exact_residuals_vanish(slp, rep):
    """Whether Q divides each residual of a rational Kronecker
    representation: B is fixed by the bound pass, and each P, unpacked from
    P(2^B), is divided by the primitive part of Q.  By Gauss's lemma that
    division is exact over Z exactly when Q divides P over Q, and H and den
    are units mod a squarefree Q."""
    bits = max(_packed_outputs(slp, rep, None)).bit_length() + 2
    clear = lcm(*(Fraction(c).denominator for c in rep.min_poly))
    q = [int(c * clear) for c in rep.min_poly]
    content = gcd(*q)
    q = [c // content for c in q]
    return [_divides(q, _unpack(x, bits)) for x in _packed_outputs(slp, rep, bits)]


def _residual_clauses(rep, slp, clauses):
    """Append the residual clauses; returns ``CheckReport.univariate``."""
    if rep.form == "kronecker" and isinstance(rep.ring, Rationals):
        vanish, uni = _exact_residuals_vanish(slp, rep), None
    else:
        try:
            vals, uni = checked_residuals(slp, rep)
        except NotInvertibleError:
            clauses.append(
                ("residual", False, "cannot convert to univariate form")
            )
            return None
        vanish = [not v for v in vals]
    for i, ok in enumerate(vanish):
        clauses.append(
            (
                f"residual F_{i + 1}",
                ok,
                "vanishes mod Q" if ok else "nonzero residual",
            )
        )
    return uni


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

    Prime-field and residue-ring representations are checked directly, in
    one pass that also gives the Jacobian J: when the residuals vanish and
    det J is not a unit mod (p, Q), this raises JacobianNotInvertibleError.
    The report keeps the univariate form that pass was evaluated on.
    A rational representation gets its structural clauses, and, when
    ``exact`` (provable mode's acceptance check), the clause ``exact
    residual over Q``: each residual's numerator, evaluated over Z at
    T = 2^B, divides exactly by Q (see ``_exact_residuals_vanish``).
    ``fresh_prime_checks`` checks it modulo verify primes.
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
    uni = None
    if not isinstance(R, Rationals):
        uni = _residual_clauses(rep, slp, clauses)
    elif exact:
        sub = CheckReport([])
        _residual_clauses(rep, slp, sub.clauses)
        clauses.append(("exact residual over Q", sub.passed, "checked exactly"))
    return CheckReport(clauses, uni)


def gate_stage(rep):
    """Raise UnluckyError unless the minimal polynomial of a modular stage
    is squarefree: the one lucky-prime condition of a stage that neither
    its construction nor the Newton step that takes it checks."""
    if not is_squarefree(rep.min_poly, rep.ring):
        raise UnluckyError(rep.stage, "Q is not squarefree (gcd(Q, Q') != 1)")


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

    Raises ValueError when any denominator vanishes mod p.
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
    ``passed`` is whether the rational ``rep`` reduced mod p has a
    squarefree Q and vanishing residuals.  A verify prime that divides the
    determinant of ``slp``'s change of variables or a denominator of ``rep``
    raises UnluckyError, which ends the attempt."""
    det = slp.transform.det if slp.transform is not None else 1
    checks = []
    for _ in range(count):
        p = random_prime_in_range(WORD_PRIME_LOW, WORD_PRIME_HIGH, rng)
        if det % p == 0:
            raise UnluckyError(rep.stage, "determinant vanishes mod a verify prime")
        try:
            rep_p = reduce_rational_rep(rep, ResidueRing(p, 1))
        except ValueError:
            raise UnluckyError(
                rep.stage, "a denominator vanishes mod a verify prime"
            ) from None
        passed = is_squarefree(rep_p.min_poly, rep_p.ring)
        checks.append((p, passed and not any(residuals(slp, rep_p))))
    return checks
