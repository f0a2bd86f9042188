"""The Newton step against a full-precision reference step, and the one
precision ladder that both lifts climb.

``solver.newton_step`` runs only its value pass at the new precision m and
solves for the correction over the ring of precision m - k.  The reference
below is the textbook step: Jacobian and linear solve over the whole of
R[T]/(q).  Both must return the same fiber on every step of the t-adic
curve lift and of the p-adic ladder, which ``solver.rungs`` climbs alike.
"""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kronecker import solver
from kronecker.padic import SolveConfiguration, solve_over_rationals
from kronecker.polys import poly_deriv, poly_mul, poly_sub, rem_monic
from kronecker.rings import PolyQuotient, PrimeField, ResidueRing, SeriesRing
from kronecker.slp import evaluate_jacobian, parse_system
from kronecker.solver import (
    FiberRepresentation,
    fiber_coordinates,
    residuals,
    rungs,
    solve_linear,
)

from test_acceptance import _random_dense_system


def _reference_step(slp, rep, R):
    """Newton step with the Jacobian and the correction at the new precision."""
    n = slp.n_vars
    prim, q = rep.prim_var, rep.min_poly
    A = PolyQuotient(R, q)
    coords = fiber_coordinates(n, prim, rep.point, rep.params, A)
    vals, jac = evaluate_jacobian(
        slp, coords, A, list(range(prim, n)), n_out=rep.stage
    )
    corr = solve_linear(jac, vals, A)
    e = A.neg(corr[0])
    q_new = poly_sub(q, A.mul(poly_deriv(q, R), e), R)
    new_params = {}
    for j, v in rep.params.items():
        nj = A.sub(v, corr[j - prim])
        adj = poly_sub(nj, poly_mul(poly_deriv(nj, R), e, R), R)
        new_params[j] = rem_monic(adj, q_new, R)
    return replace(rep, min_poly=q_new, params=new_params, ring=R)


def _compare_every_step(monkeypatch):
    """Make every Newton step of a solve also run the reference step and
    require the same fiber; returns the (ring, k, m, λ) of each step."""
    original = solver.newton_step
    steps = []

    def compared(slp, rep, R):
        got = original(slp, rep, R)
        assert got == _reference_step(slp, rep, R)
        k = rep.ring.nilpotency
        steps.append((type(R), k, R.nilpotency, slp.transform.matrix))
        return got

    monkeypatch.setattr(solver, "newton_step", compared)
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
    assert all(step[3] == lam for step in steps)
    series = [(k, m) for ring, k, m, _ in steps if ring is SeriesRing]
    residue = [(k, m) for ring, k, m, _ in steps if ring is ResidueRing]
    assert any(m < 2 * k for k, m in series)
    ladder = range(cert.precision_exponent.bit_length() - 1)
    assert residue == [(2**i, 2 ** (i + 1)) for i in ladder]


def test_shift_down_and_up_invert_each_other():
    R = ResidueRing(7, 4)
    low = R.at_precision(2)
    a = (7**2 * 10, 7**2 * 48)
    assert low.shift_down(a, 2) == (10, 48 % 49)
    assert R.shift_up(low.shift_down(a, 2), 2) == R.truncate(a)

    F = PrimeField(7)
    S = SeriesRing(F, 5)
    low = S.at_precision(3)
    b = ((0, 0, 0, 1, 2), (0, 0, 0, 0, 6))
    assert low.shift_down(b, 3) == ((1, 2), (0, 6))
    # Multiplying back trims to precision 5: t^3 * (t^2 + ...) vanishes.
    assert S.shift_up(((1, 2, 3),), 3) == ((0, 0, 0, 1, 2),)
    assert S.shift_up(((0, 0, 4),), 3) == ()



def _parabola_fiber(F):
    # y^2 - x at x = 1: Q = T^2 - 1, which lifts to T^2 - (1 + t).
    return FiberRepresentation(
        stage=1,
        prim_var=1,
        point=(1,),
        min_poly=(F.p - 1, 0, 1),
        params={},
        form="univariate",
        ring=F,
    )


def test_rungs_cap_at_last_and_stop():
    F = PrimeField(P)
    slp = parse_system("vars x, y; y^2 - x;")
    fiber = _parabola_fiber(F)
    start = replace(
        fiber,
        point=(SeriesRing(F, 5).shifted_variable(1),),
        min_poly=((P - 1,), (), (1,)),
        ring=SeriesRing(F, 1),
    )
    ladder = list(rungs(start, slp, last=5))
    assert [k for k, _ in ladder] == [1, 2, 4, 5]
    top = ladder[-1][1]
    assert top.min_poly == ((P - 1, P - 1), (), (1,))
    assert not any(residuals(slp, top))

    # The p-adic ladder climbs by doubling up to its cap.
    start = replace(fiber, ring=ResidueRing(P, 1))
    ladder = list(itertools.islice(rungs(start, slp, last=8), 4))
    assert [k for k, _ in ladder] == [1, 2, 4, 8]
    assert [rep.min_poly for _, rep in ladder] == [
        (P**k - 1, 0, 1) for k in (1, 2, 4, 8)
    ]


def test_a_modular_fiber_is_the_foot_of_its_p_adic_ladder():
    slp = parse_system("vars x, y; y^2 - x;")
    fiber = _parabola_fiber(PrimeField(P))
    ladder = rungs(fiber, slp, last=2)
    k, foot = next(ladder)
    assert k == 1 and foot is fiber
    k, second = next(ladder)
    assert k == 2 and second.ring == ResidueRing(P, 2)
    assert second.min_poly == (P**2 - 1, 0, 1)


def _raw_coefficient(kind):
    """One coefficient over the local ring at any precision: an integer for
    Z/7^k, a coefficient tuple for F_7[t]/(t^k)."""
    if kind == "residue":
        return st.integers(0, 7**9)
    return st.lists(st.integers(0, 6), max_size=8).map(tuple)


def _times_pi(kind, c, j):
    return c * 7**j if kind == "residue" else (0,) * j + c


@pytest.mark.parametrize("kind", ["residue", "series"])
@given(data=st.data())
def test_precision_protocol_round_trips(kind, data):
    m = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, m))
    j = data.draw(st.integers(0, m - 1))
    raw = data.draw(st.lists(_raw_coefficient(kind), max_size=4))
    R = ResidueRing(7, m) if kind == "residue" else SeriesRing(PrimeField(7), m)
    low, below = R.at_precision(k), R.at_precision(m - j)
    assert (low.nilpotency, below.nilpotency) == (k, m - j)

    # Truncation is idempotent, and truncating twice is truncating once.
    a = R.truncate(raw)
    assert R.truncate(a) == a
    assert low.truncate(a) == low.truncate(raw)
    # Up by π^j then down is the identity; down then up is too, on
    # coefficient lists that π^j divides.
    b = below.truncate(raw)
    assert below.shift_down(R.shift_up(b, j), j) == b
    divisible = R.truncate([_times_pi(kind, c, j) for c in raw])
    assert R.shift_up(below.shift_down(divisible, j), j) == divisible

    # A quotient at another precision is the same modulus over its base there.
    A = PolyQuotient(R, a + (R.one,))
    A_below = A.at_precision(m - j)
    assert A_below.base.nilpotency == m - j
    assert A_below.modulus == below.truncate(A.modulus)
