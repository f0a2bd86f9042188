"""Seeded dense integer systems and the workloads built from them.

Every system is derived from ``(seed, system id)`` alone, so a system id
names the same polynomials, change of variables λ and lifting point
wherever it is solved; the rational output is canonical given (λ, point),
so heuristic and provable solves of one system must agree digit for digit.
"""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from kronecker.errors import SingularMatrixError
from kronecker.padic import HEURISTIC_PRIME_LOW
from kronecker.slp import AffineChange

VAR_NAMES = ("x", "y", "z", "w")
COEFF_RANGE = 10

# Heuristic mode lifts modulo p^e for e = 1, 2, 4, ... until two consecutive
# rational reconstructions agree.  Reconstruction modulo p^e recovers
# coefficients of up to about e * PRIME_BITS / 2 bits, so the cost is a step
# function of the output height H with edges at e * PRIME_BITS / 2, and one
# more rung doubles the lift.  The entries of λ and of the lifting point get
# the bit size that puts H at the geometric middle of the rung
# (2 * PRIME_BITS, 4 * PRIME_BITS], away from both edges for every seed.  For
# these dense systems H is close to δ * (bits + HEIGHT_PER_DEGREE): 1.1 to
# 1.7 over δ = 9..25 and 4..12 bits, measured with n = 2.
PRIME_BITS = HEURISTIC_PRIME_LOW.bit_length() - 1
TARGET_HEIGHT = 2 * math.sqrt(2) * PRIME_BITS
HEIGHT_PER_DEGREE = 1.3


def lambda_bits(delta):
    """Bit size of the entries of λ and of the lifting point."""
    return max(2, round(TARGET_HEIGHT / delta - HEIGHT_PER_DEGREE))


@dataclass(frozen=True)
class Workload:
    """A fixed list of systems solved through one entry point: ``copies``
    independent draws of each degree pattern.  Where the cost of a pattern
    varies from draw to draw, two copies halve that variance in a pass."""

    entry: str  # "library" (solve_over_rationals) or "cli" (cli.run)
    mode: str  # "heuristic", "provable" or "mod-p-only"
    patterns: tuple
    copies: int

    def systems(self):
        """(degree pattern, copy) of every system, lightest first."""
        return [(d, c) for d in self.patterns for c in range(self.copies)]


WORKLOADS = {
    "heur-n2": Workload(
        "library", "heuristic", ((3, 3), (4, 4), (4, 5), (5, 5)), 2
    ),
    "modp-n34": Workload(
        "cli",
        "mod-p-only",
        ((2, 2, 2), (2, 2, 3), (2, 3, 3), (2, 2, 2, 2)),
        2,
    ),
    "prov-n2": Workload("library", "provable", ((8,), (2, 2), (2, 3)), 1),
}


@dataclass(frozen=True)
class System:
    """One generated input: its text, dense form and the solver's draws."""

    sid: str
    degrees: tuple
    text: str
    dense: tuple  # per polynomial: {exponent tuple: integer coefficient}
    lam: tuple
    point: tuple
    solve_seed: int

    @property
    def n(self):
        return len(self.degrees)

    @property
    def delta(self):
        return prod(self.degrees)

    @property
    def bezout(self):
        """Stage degrees of a generic dense system: running products."""
        return tuple(prod(self.degrees[: s + 1]) for s in range(self.n))


def system_id(degrees, copy):
    return f"n{len(degrees)}-d" + "-".join(str(d) for d in degrees) + f".{copy}"


def _monomials(n, d):
    for exps in itertools.product(range(d + 1), repeat=n):
        if sum(exps) <= d:
            yield exps


def _dense_poly(n, d, rng):
    """Coefficients in [-10, 10] on every monomial of degree <= d, redrawn
    until some monomial of top degree survives."""
    while True:
        poly = {}
        for exps in _monomials(n, d):
            c = rng.randint(-COEFF_RANGE, COEFF_RANGE)
            if c:
                poly[exps] = c
        if any(sum(e) == d for e in poly):
            return poly


def _det(rows):
    """Determinant over Q by Gaussian elimination."""
    m = [[Fraction(c) for c in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def _binary_resultant(f, df, g, dg):
    """Resultant of two binary forms given as {(i, j): c}; zero exactly
    when they share a projective root."""
    a = [f.get((df - k, k), 0) for k in range(df + 1)]
    b = [g.get((dg - k, k), 0) for k in range(dg + 1)]
    size = df + dg
    rows = [[0] * k + a + [0] * (size - df - 1 - k) for k in range(dg)]
    rows += [[0] * k + b + [0] * (size - dg - 1 - k) for k in range(df)]
    return _det(rows)


def _no_zeros_at_infinity(dense, degrees):
    """True when the top-degree forms have no common projective zero, so
    that the system has exactly its Bézout number of solutions.

    Exact for n = 2 (binary resultant).  For n >= 3 the forms are screened
    at every point with coordinates in {-1, 0, 1}, where a common zero of
    forms with small integer coefficients is most likely; a zero elsewhere
    would still be caught by the stage-degree check.
    """
    n = len(degrees)
    tops = [
        {e: c for e, c in poly.items() if sum(e) == d}
        for poly, d in zip(dense, degrees)
    ]
    if n == 1:
        return True
    if n == 2:
        return _binary_resultant(tops[0], degrees[0], tops[1], degrees[1]) != 0
    for x in itertools.product((-1, 0, 1), repeat=n):
        if any(x) and all(
            _top_form_at(top, d, x) == 0 for top, d in zip(tops, degrees)
        ):
            return False
    return True


def _poly_text(names, poly):
    terms = []
    for exps, c in poly.items():
        factors = [str(c)]
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        terms.append("*".join(factors))
    return " + ".join(terms).replace("+ -", "- ")


def _top_form_at(poly, d, x):
    return sum(
        c * prod(xi**e for xi, e in zip(x, exps))
        for exps, c in poly.items()
        if sum(exps) == d
    )


def _draw_change(dense, degrees, bits, rng):
    """An invertible λ whose entries all have exactly ``bits`` bits, and in
    which every polynomial keeps its full degree in every new variable.

    In y = λx the coefficient of y_j^d in f is f's top-degree form at column
    j of λ⁻¹ (up to a power of det λ).  If it vanishes, the stage whose
    primitive variable is y_j loses degree for every lifting point, and the
    solver, handed a fixed λ, can only give up; the solver's own draws come
    from a range wide enough that this does not happen in practice.
    """
    n = len(degrees)
    while True:
        rows = tuple(
            tuple(rng.randrange(2 ** (bits - 1), 2**bits) for _ in range(n))
            for _ in range(n)
        )
        try:
            change = AffineChange.from_matrix(rows)
        except SingularMatrixError:
            continue
        columns = [[row[j] for row in change.adjugate] for j in range(n)]
        if all(
            _top_form_at(poly, d, col)
            for poly, d in zip(dense, degrees)
            for col in columns
        ):
            return rows


def make_system(seed, degrees, copy=0):
    """Copy ``copy`` of the system with the given degree pattern under
    workload seed ``seed``."""
    degrees = tuple(degrees)
    n = len(degrees)
    sid = system_id(degrees, copy)
    rng = random.Random(f"{seed}/{sid}")
    names = VAR_NAMES[:n]
    while True:
        dense = tuple(_dense_poly(n, d, rng) for d in degrees)
        if _no_zeros_at_infinity(dense, degrees):
            break
    text = (
        "vars " + ",".join(names) + "; "
        + "; ".join(_poly_text(names, p) for p in dense) + ";"
    )
    bits = lambda_bits(prod(degrees))
    lam = _draw_change(dense, degrees, bits, rng)
    point = tuple(rng.randrange(2 ** (bits - 1), 2**bits) for _ in range(n - 1))
    return System(
        sid=sid,
        degrees=degrees,
        text=text,
        dense=dense,
        lam=lam,
        point=point,
        solve_seed=rng.randrange(2**32),
    )
