"""The residual check of a Newton ladder fires on a wrong rung.

Each Newton step's value pass checks its input fiber, and that is the only
residual check a rung gets, on every ladder.  The rung a ladder stops at is
checked through what is made from it: a wrong last rung of the p-adic ladder
shows in its residuals, and one of a curve lift breaks the curve's degree
guard, so the attempt restarts.  A step from precision k to m solves for its
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
from kronecker.errors import (
    ResidualNonzeroError,
    RetryExhaustedError,
    UnluckyError,
)
from kronecker.padic import SolveConfiguration, solve_over_rationals
from kronecker.rings import PrimeField, ResidueRing, SeriesRing
from kronecker.slp import AffineChange, compose_affine, parse_system
from kronecker.solver import (
    SolveState,
    first_stage,
    lift_curve,
    residuals,
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
        list(rungs(to_univariate(fiber), slp, last=8))
    assert [R.k for R in seen] == [1, 2]  # p^2 -> p^4 corrects mod p^2


def test_last_rung_of_hensel_lift_is_checked(monkeypatch):
    state, slp = _state((0,))
    fiber = solve_mod_p(state)
    seen = _perturb(monkeypatch, 2, ResidueRing)
    # The ladder stops at p^4 and does not check that rung; its residuals
    # show the wrong digit.
    *_, (_, lifted) = rungs(to_univariate(fiber), slp, last=4)
    assert any(residuals(slp, lifted))
    assert [R.k for R in seen] == [1, 2]  # p^2 -> p^4 corrects mod p^2


# A wrong rung below the top fails the next step's value pass; a wrong top
# rung, t^3 off in the step 2 -> 4, sets the guard coefficient t^(δ+1).
@pytest.mark.parametrize("chosen", [1, 2])
def test_lift_curve_checks_every_iteration_and_the_curve(monkeypatch, chosen):
    state, slp = _state((1,))
    fiber = to_univariate(first_stage(state))
    seen = _perturb(monkeypatch, chosen, SeriesRing)
    error = {1: ResidualNonzeroError, 2: UnluckyError}[chosen]
    with pytest.raises(error):
        lift_curve(fiber, slp)  # t-adic precision 1 -> 2 -> 4
    assert [S.prec for S in seen] == [1, 2][:chosen]


def test_lift_curve_evaluates_once_per_step(monkeypatch):
    state, slp = _state((1,))
    fiber = to_univariate(first_stage(state))
    calls = {"evaluate": 0, "evaluate_jacobian": 0}

    def counted(name):
        original = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(solver, name, counted(name))
    curve = lift_curve(fiber, slp)
    assert curve.iterations == 2
    assert calls == {"evaluate": 0, "evaluate_jacobian": curve.iterations}


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


def test_solve_restarts_after_a_wrong_last_curve_rung(monkeypatch):
    # Stage 1 has δ = 2, so the curve lift's second step, 2 -> 4, is its last.
    slp = parse_system(TWO_QUADRICS)
    _perturb(monkeypatch, 2, SeriesRing)
    with pytest.raises(RetryExhaustedError, match="degree guard"):
        solve_over_rationals(slp, SolveConfiguration(seed=42, retries=1))
    monkeypatch.undo()
    seen = _perturb(monkeypatch, 2, SeriesRing)
    rep, cert = solve_over_rationals(slp, SolveConfiguration(seed=42))
    assert [S.prec for S in seen[:2]] == [1, 2]
    assert cert.attempts == 2
    assert cert.verification["passed"]
