import functools
import itertools
import random
from fractions import Fraction

import pytest

from kronecker.errors import NotInvertibleError
from kronecker.padic import SolveConfiguration, solve_over_rationals
from kronecker.polys import charpoly_division_free, normalize, poly_eval
from kronecker.rings import (
    QQ,
    PolyQuotient,
    PrimeField,
    ResidueRing,
    SeriesRing,
)
from kronecker.slp import parse_system
from kronecker.solver import solve_linear

from reference.oracle import det_division_free
from reference.polys import from_int_coeffs
from reference.rings import newton_inverse, reduced

F = PrimeField(10007)


def _split_quotient():
    # F_p[T]/(T^2 - 1) splits; T - 1 and T + 1 are zero divisors.
    return PolyQuotient(F, from_int_coeffs([-1, 0, 1], F))


def _times(mat, x, A):
    return [functools.reduce(A.add, (A.mul(m, v) for m, v in zip(row, x)))
            for row in mat]


def test_solve_linear_with_no_unit_in_the_first_column():
    A = _split_quotient()
    t_minus = from_int_coeffs([-1, 1], F)
    t_plus = from_int_coeffs([1, 1], F)
    one = A.one
    # First column holds only zero divisors, yet det = (T-1) - (T+1) = -2
    # is a unit: no unit pivot starts an elimination, and Cayley-Hamilton,
    # which needs only det M to be a unit, solves it.
    mats = [[[t_minus, one], [t_plus, one]]]
    # s = 3, 4: M = E1·P + E2·Q for the orthogonal idempotents E1 = (1+T)/2,
    # E2 = (1-T)/2 and permutation matrices P = I and Q a cyclic shift, which
    # put column 0's ones in different rows.  So column 0 holds only E1, E2
    # and 0, and det M = E1·det P + E2·det Q is a unit.
    half = F.inv(2)
    e1, e2 = (half, half), (half, F.neg(half))
    for s in (3, 4):
        mats.append([
            [
                A.add(e1 if i == j else A.zero, e2 if (i + 1) % s == j else A.zero)
                for j in range(s)
            ]
            for i in range(s)
        ])
    rng = random.Random(3)
    for mat in mats:
        s = len(mat)
        for row in mat:
            with pytest.raises(NotInvertibleError):
                A.inv(row[0])
        det = det_division_free(mat, A)
        A.inv(det)  # a unit: no raise
        rhs = [from_int_coeffs([rng.randrange(10007) for _ in range(2)], F)
               for _ in range(s)]
        x, inv = solve_linear(mat, rhs, A, None, lift=False)
        assert _times(mat, x, A) == [reduced(A, r) for r in rhs]
        assert A.mul(det, inv) == (A.one if s % 2 == 0 else A.neg(A.one))


def test_solve_linear_reports_singular():
    A = _split_quotient()
    t_minus = from_int_coeffs([-1, 1], F)
    mat = [[t_minus, t_minus], [t_minus, t_minus]]
    with pytest.raises(NotInvertibleError):
        solve_linear(mat, [A.one, A.one], A, None, lift=False)


P = 7
F7 = PrimeField(P)


def _local_quotients():
    """R[T]/(q) over Z/7^k and F_7[t]/(t^k), k > 1, the algebras of the
    p-adic and the t-adic Newton step, with q ≡ (T-1)(T+1)(T-2) mod the
    maximal ideal: split, so T - 1 is a non-unit that is not nilpotent."""
    for k in (2, 3):
        R = ResidueRing(P, k)
        q = [R.from_int(c) for c in (2 + 3 * P, -1, -2 + P, 1)]
        yield PolyQuotient(R, q), (lambda rng, R=R: rng.randrange(R.modulus))
        q = [(2, 3), (P - 1,), (P - 2, 1), (1,)]
        yield PolyQuotient(SeriesRing(F7, k), q), (
            lambda rng, k=k: normalize([rng.randrange(P) for _ in range(k)], F7)
        )


def _random_element(A, draw, rng):
    return reduced(A, [draw(rng) for _ in range(A.deg)])


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_solve_linear_over_the_newton_step_algebras(s):
    rng = random.Random(s)
    for A, draw in _local_quotients():
        half = A.at_precision((A.base.nilpotency + 1) // 2)
        solved = 0
        while solved < 3:
            mat = [[_random_element(A, draw, rng) for _ in range(s)]
                   for _ in range(s)]
            c_s = charpoly_division_free(mat, A)[-1]
            try:
                exact = newton_inverse(A, c_s)
            except NotInvertibleError:
                continue
            rhs = [_random_element(A, draw, rng) for _ in range(s)]
            # An inverse to half the precision takes one Newton iteration;
            # an exact one is used as it is.
            approx = newton_inverse(half, half.base.truncate(c_s))
            for inv, lift in ((approx, True), (exact, False)):
                x, got = solve_linear(mat, rhs, A, inv, lift)
                assert _times(mat, x, A) == rhs
                assert got == exact
            solved += 1
        # At the foot, over the residue field, c_s is inverted afresh: det M
        # times a non-unit is not a unit there.  The non-units are the
        # maximal ideal's generator (p or t), or T - 1, a zero divisor mod
        # that ideal.
        foot = A.at_precision(1)
        pi = A.base.shift_up(A.one, 1)
        for z in (pi, reduced(A, [A.base.from_int(-1), A.base.one])):
            bad = [[A.mul(z, e) for e in mat[0]]] + mat[1:]
            bad = [[foot.base.truncate(e) for e in row] for row in bad]
            low_rhs = [foot.base.truncate(r) for r in rhs]
            with pytest.raises(NotInvertibleError):
                solve_linear(bad, low_rhs, foot, None, lift=False)


def test_det_division_free_matches_field_determinant():
    rng = random.Random(0)
    from reference.oracle import _field_det

    for _ in range(20):
        s = rng.randrange(1, 5)
        mat = [[rng.randrange(10007) for _ in range(s)] for _ in range(s)]
        assert det_division_free(mat, F) == _field_det(
            [row[:] for row in mat], F
        )


def test_det_division_free_matches_field_determinant_at_six_and_seven():
    rng = random.Random(1)
    from reference.oracle import _field_det

    for s in (6, 7):
        for _ in range(4):
            mat = [[rng.randrange(10007) for _ in range(s)] for _ in range(s)]
            assert det_division_free(mat, F) == _field_det(
                [row[:] for row in mat], F
            )


def _leibniz_det(mat, A):
    s = len(mat)
    total = A.zero
    for perm in itertools.permutations(range(s)):
        inversions = sum(
            1 for i in range(s) for j in range(i + 1, s) if perm[i] > perm[j]
        )
        term = A.one
        for i in range(s):
            term = A.mul(term, mat[i][perm[i]])
        total = A.sub(total, term) if inversions % 2 else A.add(total, term)
    return total


def test_det_division_free_matches_permutation_expansion_with_zero_divisors():
    A = _split_quotient()
    rng = random.Random(2)
    for s in range(1, 6):
        mat = [
            [from_int_coeffs([rng.randrange(-3, 4) for _ in range(2)], F)
             for _ in range(s)]
            for _ in range(s)
        ]
        mat = [[reduced(A, e) for e in row] for row in mat]
        assert det_division_free(mat, A) == _leibniz_det(mat, A)


def test_known_product_system_ground_truth():
    # F_1 = (x-1)(x-2), F_2 = (y-3)(y+1): solutions {1,2} x {3,-1}.
    slp = parse_system(
        "vars x,y; x^2 - 3*x + 2; y^2 - 2*y - 3;"
    )
    cfg = SolveConfiguration(mode="provable", seed=13)
    rep, cert = solve_over_rationals(slp, cfg)
    assert cert.verification["passed"]
    lam = cert.lam
    prim_row = lam[rep.prim_var]
    q = rep.min_poly
    values = set()
    for x in (1, 2):
        for y in (3, -1):
            v = Fraction(prim_row[0] * x + prim_row[1] * y)
            assert poly_eval(q, v, QQ) == 0
            values.add(v)
    assert len(values) == len(q) - 1  # primitive form separates the points
