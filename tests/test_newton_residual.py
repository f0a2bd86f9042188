"""The residual check of a Newton ladder fires on a wrong rung.

Each Newton step's value pass checks its input fiber, and the rung a ladder
stops at gets one full check.  A step from precision k to m solves for its
correction over the ring of precision m - k handed to ``solve_linear``, and
multiplies the solution back by p^k (t^k).  One such solution is perturbed
by the last digit its ring carries (p^(k-1) over Z/p^k, t^(m-k-1) over
F[t]/(t^(m-k))), which is the last digit of the new precision after the
multiply-back (p^(2k-1), t^(m-1)): zero at the input's precision, so the
step itself sees nothing, but the fiber it returns is wrong.
"""

import random

import pytest

from kronecker import solver
from kronecker.errors import ResidualNonzeroError, RetryExhaustedError
from kronecker.padic import SolveConfiguration, solve_over_rationals
from kronecker.rings import PrimeField, ResidueRing, SeriesRing
from kronecker.slp import AffineChange, compose_affine, parse_system
from kronecker.solver import (
    SolveState,
    check_fiber,
    first_stage,
    lift_curve,
    rungs,
    solve_mod_p,
    to_univariate,
)

TWO_QUADRICS = "vars x,y; x^2 + y^2 - 5; x*y - 2;"
P = 10007  # 13 bits per p-adic digit


def _last_digit(A):
    R = A.base
    if isinstance(R, ResidueRing):
        return A.from_int(R.p ** (R.k - 1))
    return A.embed((R.field.zero,) * (R.prec - 1) + (R.field.one,))


def _perturb(monkeypatch, chosen, base_type):
    """Perturb the ``chosen``-th (1-based) Newton correction over a quotient
    of ``base_type``; returns the list of correction rings seen, one per
    such call."""
    original = solver.solve_linear
    seen = []

    def perturbed(mat, rhs, A):
        corr = original(mat, rhs, A)
        if isinstance(A.base, base_type):
            seen.append(A.base)
            if len(seen) == chosen:
                corr = [A.add(corr[0], _last_digit(A))] + corr[1:]
        return corr

    monkeypatch.setattr(solver, "solve_linear", perturbed)
    return seen


def _state(point):
    slp = compose_affine(parse_system(TWO_QUADRICS), AffineChange.identity(2))
    state = SolveState(
        slp=slp,
        change=AffineChange.identity(2),
        field=PrimeField(P),
        point=point,
        rng=random.Random(0),
    )
    return state, slp


def test_value_pass_catches_a_wrong_rung_mid_ladder(monkeypatch):
    state, slp = _state((0,))
    fiber = solve_mod_p(state)
    seen = _perturb(monkeypatch, 2, ResidueRing)  # the step to p^4
    with pytest.raises(ResidualNonzeroError, match=rf"ResidueRing\({P}, 4\)"):
        # The ladder heads to p^8; the step p^4 -> p^8 checks p^4.
        *_, (_, lifted) = rungs(to_univariate(fiber), slp, last=8)
        check_fiber(slp, lifted)
    assert [R.k for R in seen] == [1, 2]  # p^2 -> p^4 corrects mod p^2


def test_last_rung_of_hensel_lift_is_checked(monkeypatch):
    state, slp = _state((0,))
    fiber = solve_mod_p(state)
    seen = _perturb(monkeypatch, 2, ResidueRing)
    with pytest.raises(ResidualNonzeroError, match=rf"ResidueRing\({P}, 4\)"):
        # The ladder stops at p^4, so only check_fiber sees that rung.
        *_, (_, lifted) = rungs(to_univariate(fiber), slp, last=4)
        check_fiber(slp, lifted)
    assert [R.k for R in seen] == [1, 2]  # p^2 -> p^4 corrects mod p^2


@pytest.mark.parametrize("chosen", [1, 2])
def test_lift_curve_checks_every_iteration_and_the_curve(monkeypatch, chosen):
    state, slp = _state((1,))
    fiber = to_univariate(first_stage(state))
    seen = _perturb(monkeypatch, chosen, SeriesRing)
    with pytest.raises(ResidualNonzeroError):
        lift_curve(fiber, slp)  # t-adic precision 1 -> 2 -> 4
    assert [S.prec for S in seen] == [1, 2][:chosen]


def test_solve_restarts_after_a_wrong_rung(monkeypatch):
    slp = parse_system(TWO_QUADRICS)
    _perturb(monkeypatch, 1, ResidueRing)
    with pytest.raises(RetryExhaustedError, match="residual nonzero"):
        solve_over_rationals(slp, SolveConfiguration(seed=42, retries=1))
    monkeypatch.undo()
    _perturb(monkeypatch, 1, ResidueRing)
    rep, cert = solve_over_rationals(slp, SolveConfiguration(seed=42))
    assert cert.attempts == 2
    assert cert.verification["passed"]
