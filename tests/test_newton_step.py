"""The Newton step against a full-precision reference step.

``solver.newton_step`` runs only its value pass at the new precision m and
solves for the correction over the ring of precision m - k.  The reference
below is the textbook step: Jacobian and linear solve over the whole of
R[T]/(q).  Both must return the same (q_new, params) on every step of the
t-adic curve lift and of the p-adic ladder.
"""

import random

import pytest

from kronecker import padic, solver
from kronecker.padic import SolveConfiguration, solve_over_rationals
from kronecker.polys import poly_deriv, poly_mul, poly_sub, rem_monic
from kronecker.rings import PolyQuotient, PrimeField, ResidueRing, SeriesRing
from kronecker.slp import evaluate_jacobian, parse_system
from kronecker.solver import fiber_coordinates, solve_linear

from test_acceptance import _random_dense_system


def _reference_step(slp, stage, prim, point, q, params, R, prec):
    """Newton step with the Jacobian and the correction at the new precision."""
    n = slp.n_vars
    A = PolyQuotient(R, q)
    coords = fiber_coordinates(n, prim, point, params, A)
    vals, jac = evaluate_jacobian(slp, coords, A, list(range(prim, n)), n_out=stage)
    corr = solve_linear(jac, vals, A)
    e = A.neg(corr[0])
    q_new = poly_sub(q, A.mul(poly_deriv(q, R), e), R)
    new_params = {}
    for j, v in params.items():
        nj = A.sub(v, corr[j - prim])
        adj = poly_sub(nj, poly_mul(poly_deriv(nj, R), e, R), R)
        new_params[j] = rem_monic(adj, q_new, R)
    return q_new, new_params


def _compare_every_step(monkeypatch):
    """Make every Newton step of a solve also run the reference step and
    require the same result; returns the (ring, k, m, identity λ?) of each
    step."""
    original = solver.newton_step
    steps = []

    def compared(slp, stage, prim, point, q, params, R, prec):
        got = original(slp, stage, prim, point, q, params, R, prec)
        assert got == _reference_step(slp, stage, prim, point, q, params, R, prec)
        steps.append((type(R), prec, R.nilpotency, slp.transform.is_identity()))
        return got

    monkeypatch.setattr(solver, "newton_step", compared)
    monkeypatch.setattr(padic, "newton_step", compared)
    return steps


# n = 2 with deg 3 first (curve target 3 + 2 = 5) and n = 3 (stage-2 curve
# target 4 + 2 = 6): each curve lift ends on a truncated step, m < 2k.
P = 10007  # 13 bits per p-adic digit: several rungs before reconstruction
SYSTEMS = [(2, (3, 2)), (3, (2, 2, 2))]
LAMBDAS = {
    2: [((1, 0), (0, 1)), ((2, 1), (1, 3))],
    3: [((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 1, 0), (0, 1, 1), (1, 0, 2))],
}


@pytest.mark.parametrize("n, degrees", SYSTEMS)
@pytest.mark.parametrize("pinned", [0, 1])
def test_newton_step_matches_full_precision_reference(monkeypatch, n, degrees, pinned):
    slp = parse_system(_random_dense_system(n, degrees, random.Random(n)))
    lam = LAMBDAS[n][pinned]
    steps = _compare_every_step(monkeypatch)
    config = SolveConfiguration(seed=5, prime=P, lambda_matrix=lam)
    _, cert = solve_over_rationals(slp, config)
    assert cert.verification["passed"]
    identity = pinned == 0
    assert all(step[3] == identity for step in steps)
    series = [(k, m) for ring, k, m, _ in steps if ring is SeriesRing]
    residue = [(k, m) for ring, k, m, _ in steps if ring is ResidueRing]
    assert any(m < 2 * k for k, m in series)
    ladder = range(cert.precision_exponent.bit_length() - 1)
    assert residue == [(2**i, 2 ** (i + 1)) for i in ladder]


def test_shift_down_and_up_invert_each_other():
    R = ResidueRing(7, 4)
    A = PolyQuotient(R, (3, 5, 1))
    low = A.at_precision(2)
    a = (7**2 * 10, 7**2 * 48)
    assert low.shift_down(a, 2) == (10, 48 % 49)
    assert A.shift_up(low.shift_down(a, 2), 2) == A.reduce_precision(a)

    F = PrimeField(7)
    S = SeriesRing(F, 5)
    B = PolyQuotient(S, ((1,), (), (1,)))
    low = B.at_precision(3)
    b = ((0, 0, 0, 1, 2), (0, 0, 0, 0, 6))
    assert low.shift_down(b, 3) == ((1, 2), (0, 6))
    # Multiplying back trims to precision 5: t^3 * (t^2 + ...) vanishes.
    assert B.shift_up(((1, 2, 3),), 3) == ((0, 0, 0, 1, 2),)
    assert B.shift_up(((0, 0, 4),), 3) == ()
