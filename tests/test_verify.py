import random
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import pytest

from kronecker import padic, solver, verify
from kronecker.errors import (
    NotInvertibleError,
    ResidualNonzeroError,
    RetryExhaustedError,
    UnluckyError,
)
from kronecker.padic import SolveConfiguration, solve_modular, solve_over_rationals
from kronecker.polys import poly_mul
from kronecker.primes import is_probable_prime
from kronecker.rings import PrimeField, QQ
from kronecker.slp import AffineChange, compose_affine, parse_system
from kronecker.solver import (
    FiberRepresentation,
    SolveState,
    first_stage,
    rungs,
    solve_mod_p,
    to_univariate,
)
from kronecker.verify import (
    check_representation,
    gate_stage,
    reduce_rational_rep,
)

from reference.polys import from_int_coeffs

FBIG = PrimeField(10007)


def _two_quadrics_fiber(seed=0):
    slp = compose_affine(
        parse_system("vars x,y; x^2 + y^2 - 5; x*y - 2;"),
        AffineChange.identity(2),
    )
    state = SolveState(
        slp=slp,
        field=FBIG,
        point=(0,),
        rng=random.Random(seed),
    )
    return solve_mod_p(state), slp


def test_first_stage_output_passes():
    slp = compose_affine(
        parse_system("vars x,y; x^2 + y^2 - 5;"), AffineChange.identity(2)
    )
    state = SolveState(
        slp=slp,
        field=FBIG,
        point=(1,),
        rng=random.Random(0),
    )
    rep = first_stage(state)
    assert check_representation(rep, slp).passed
    gate_stage(rep)


def test_perturbed_parametrization_fails_residual():
    fiber, slp = _two_quadrics_fiber()
    w = list(fiber.params[1])
    w[0] = FBIG.add(w[0], 1)
    bad = replace(fiber, params={1: tuple(w)})
    report = check_representation(bad, slp)
    assert not report.passed
    assert any("residual" in name for name, _ in report.failed_clauses())


def test_rational_representation_checks_exactly():
    slp = parse_system("vars x,y; x^2 + y^2 - 5; x*y - 2;")
    cfg = SolveConfiguration(seed=3, lambda_matrix=((1, 0), (0, 1)))
    rep, cert = solve_over_rationals(slp, cfg)
    composed = compose_affine(slp, AffineChange.from_matrix(cert.lam))
    report = check_representation(rep, composed, exact=True)
    assert report.passed


def _shift_w(rep):
    j = max(rep.params)
    w = rep.params[j]
    return replace(rep, params={**rep.params, j: (w[0] + Fraction(1, 7), *w[1:])})


def _shift_q(rep):
    q = rep.min_poly
    return replace(rep, min_poly=(q[0] + Fraction(1, 7), *q[1:]))


def _shift_point(rep):
    return replace(rep, point=(rep.point[0] + 1, *rep.point[1:]))


@pytest.mark.parametrize(
    "text, perturb",
    [
        ("vars x,y; x^2 + y^2 - 5; x*y - 2;", _shift_w),
        ("vars x,y; x^2 + y^2 - 5; x*y - 2;", _shift_q),
        # two equations in three variables: the point fixes y_0
        ("vars x,y,z; x^2 + y^2 + z - 5; x*y - z - 2;", _shift_point),
    ],
)
def test_exact_check_refuses_a_wrong_rational_rep(text, perturb):
    slp = parse_system(text)
    rep, cert = solve_over_rationals(slp, SolveConfiguration(seed=3))
    composed = compose_affine(slp, AffineChange.from_matrix(cert.lam))
    assert check_representation(rep, composed, exact=True).passed
    report = check_representation(perturb(rep), composed, exact=True)
    assert report.failed_clauses() == [("exact residual over Q", "checked exactly")]


def _rational_rep_with_roots(roots):
    q = (Fraction(1),)
    for r in roots:
        q = poly_mul(q, (-Fraction(r), Fraction(1)), QQ)
    return FiberRepresentation(
        stage=1,
        prim_var=0,
        point=(),
        min_poly=q,
        params={},
        form="kronecker",
        ring=QQ,
    )


_P = verify.SQUAREFREE_PRIME


@pytest.mark.parametrize(
    "roots, squarefree, exact_gcd_runs",
    [
        ((1, 2, 3), True, False),  # decided modulo P
        ((1, 1 + _P), True, True),  # (T-1)(T-1-P) is a square mod P only
        ((1, 1, 2), False, True),  # (T-1)^2 (T-2)
        ((Fraction(1, _P), 2), True, True),  # a denominator divisible by P
    ],
)
def test_squarefree_clause_over_q_matches_exact_gcd(
    monkeypatch, roots, squarefree, exact_gcd_runs
):
    rep = _rational_rep_with_roots(roots)
    exact = verify.is_squarefree
    assert exact(rep.min_poly, QQ) == squarefree
    rings = []

    def recording(f, R):
        rings.append(R)
        return exact(f, R)

    monkeypatch.setattr(verify, "is_squarefree", recording)
    report = check_representation(rep, parse_system("vars x; x;"))
    assert ("squarefree", squarefree, "gcd(Q, Q') = 1") in report.clauses
    assert (QQ in rings) == exact_gcd_runs


def test_rational_check_reduces_mod_many_primes():
    slp = parse_system("vars x,y; x^2 + y^2 - 5; x*y - 2;")
    cfg = SolveConfiguration(seed=3, lambda_matrix=((1, 0), (0, 1)))
    rep, cert = solve_over_rationals(slp, cfg)
    composed = compose_affine(slp, AffineChange.from_matrix(cert.lam))
    rng = random.Random(99)
    denominators = [
        c.denominator
        for coeffs in [rep.min_poly, *rep.params.values()]
        for c in coeffs
    ]
    checked = 0
    while checked < 20:
        p = rng.randrange(10**6, 10**7) | 1
        if not is_probable_prime(p):
            continue
        if any(d % p == 0 for d in denominators):
            continue
        reduced = reduce_rational_rep(rep, PrimeField(p))
        assert check_representation(reduced, composed).passed
        checked += 1


def test_gate_stage_flags_square_factor():
    fiber, slp = _two_quadrics_fiber()
    bad_q = from_int_coeffs([1, 2, 1], FBIG)  # (T+1)^2
    bad = replace(fiber, min_poly=bad_q, params={1: (1,)})
    with pytest.raises(UnluckyError) as info:
        gate_stage(bad)
    assert info.value.stage == 2
    assert info.value.cause == "Q is not squarefree (gcd(Q, Q') != 1)"


def _modular_solve_returning(monkeypatch, text, fiber_of):
    """``solve_modular`` of ``text`` with λ the identity, its modular solve
    replaced by ``fiber_of(state)``."""
    monkeypatch.setattr(padic, "solve_mod_p", fiber_of)
    cfg = SolveConfiguration(seed=0, retries=2, lambda_matrix=((1, 0), (0, 1)))
    return solve_modular(parse_system(text), cfg)


def test_first_step_rejects_a_final_fiber_with_a_nonzero_residual(monkeypatch):
    fiber, slp = _two_quadrics_fiber()
    w = list(fiber.params[1])
    w[0] = FBIG.add(w[0], 1)
    bad = replace(fiber, params={1: tuple(w)})
    gate_stage(bad)  # the gate checks no residual
    with pytest.raises(ResidualNonzeroError):
        next(islice(rungs(to_univariate(bad), slp, last=2), 1, None))
    with pytest.raises(RetryExhaustedError) as info:
        _modular_solve_returning(
            monkeypatch, "vars x,y; x^2 + y^2 - 5; x*y - 2;", lambda state: bad
        )
    assert all("residual nonzero" in cause for _, _, cause in info.value.causes)


def test_modular_solve_rejects_a_final_fiber_with_a_singular_jacobian(
    monkeypatch,
):
    # y^2 = 0, x = 1: Q = T - 1 (T = x) and W_1 = 0 (y = 0) is squarefree and
    # its residuals vanish, but the Jacobian [[0, 2y], [1, 0]] is singular
    # at y = 0.
    def fiber_of(state):
        return FiberRepresentation(
            stage=2,
            prim_var=0,
            point=(),
            min_poly=(state.field.neg(1), 1),
            params={1: ()},
            form="kronecker",
            ring=state.field,
        )

    with pytest.raises(RetryExhaustedError) as info:
        _modular_solve_returning(monkeypatch, "vars x, y; y^2; x - 1;", fiber_of)
    assert all("jacobian" in cause for _, _, cause in info.value.causes)


@pytest.mark.parametrize(
    "text",
    [
        "vars x,y; x^2 + y^2 - 5; x*y - 2;",
        "vars x, y, z; x^2 + 2*y*z - 3*x + 1; y^2 - x*z + 5*y - 2;"
        " z^2 + 3*x*y - z + 4;",
    ],
    ids=["n2", "n3"],
)
def test_modular_solve_checks_its_fiber_in_one_pass(monkeypatch, text):
    # After solve_mod_p returns, one program pass over F_p[T]/(Q) gives the
    # residual and the Jacobian: no Newton step, no second residual pass.
    after = []
    passes = []
    original = padic.solve_mod_p

    def solved(state):
        after.clear()
        fiber = original(state)
        after.append(fiber)
        return fiber

    def counted(name, function):
        def wrapper(*args, **kwargs):
            if after:
                passes.append(name)
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(padic, "solve_mod_p", solved)
    for module in (solver, verify):
        for name in ("evaluate", "evaluate_jacobian"):
            if hasattr(module, name):
                monkeypatch.setattr(
                    module, name, counted(name, getattr(module, name))
                )
    fiber, _, report, attempts = solve_modular(
        parse_system(text), SolveConfiguration(seed=1)
    )
    assert report.passed and after == [fiber] and attempts == 1
    assert passes == ["evaluate_jacobian"]


def test_reduce_rational_rep_rejects_bad_prime():
    rep = FiberRepresentation(
        stage=1,
        prim_var=0,
        point=(),
        min_poly=(Fraction(1, 3), Fraction(1)),
        params={},
        form="univariate",
        ring=QQ,
    )
    with pytest.raises(ValueError):
        reduce_rational_rep(rep, PrimeField(3))


# A prime P that divides det λ: the composed program's inv of det λ fails
# modulo P, so a drawn or verify prime P ends the attempt, as a verify
# prime dividing a denominator of the candidate does.
P = 10007
NOT_A_UNIT = "determinant of the change of variables is not a unit here"


def _pin_prime(monkeypatch, module, times):
    """Make the first ``times`` primes that ``module`` draws P."""
    real = module.random_prime_in_range
    calls = []

    def pinned(lo, hi, rng, *args, **kwargs):
        calls.append(lo)
        if len(calls) <= times:
            return P
        return real(lo, hi, rng, *args, **kwargs)

    monkeypatch.setattr(module, "random_prime_in_range", pinned)
    return calls


def test_drawn_prime_dividing_det_lambda_ends_every_attempt(monkeypatch):
    # The attempt ends at the program's first evaluation, before the stages
    # draw anything, so the next one starts from the generator the draw left.
    _pin_prime(monkeypatch, padic, times=10**6)
    real, seen = padic._draw_attempt, []

    def draw(slp, config, bounds, rng):
        seen.append(rng.getstate())
        state = real(slp, config, bounds, rng)
        seen.append(rng.getstate())
        return state

    monkeypatch.setattr(padic, "_draw_attempt", draw)
    slp = parse_system("vars x,y; x^2 + y^2 - 5; x*y - 2;")
    cfg = SolveConfiguration(seed=42, retries=2, lambda_matrix=((P, 1), (0, 1)))
    for solve in (solve_over_rationals, solve_modular):
        seen.clear()
        with pytest.raises(RetryExhaustedError) as info:
            solve(slp, cfg)
        assert info.value.causes == [(1, None, NOT_A_UNIT), (2, None, NOT_A_UNIT)]
        assert len(seen) == 4 and seen[1] == seen[2]


def test_verify_prime_dividing_det_lambda_ends_the_attempt(monkeypatch):
    calls = _pin_prime(monkeypatch, verify, times=1)
    slp = parse_system("vars x,y; x^2 + y^2 - 5; x*y - 2;")
    cfg = SolveConfiguration(seed=42, lambda_matrix=((P, 1), (0, 1)))
    rep, cert = solve_over_rationals(slp, cfg)
    assert len(calls) == 2 and cert.attempts == 2
    assert cert.verification["passed"]
    assert P not in cert.verify_primes and len(cert.verify_primes) == 1


def test_unusable_verify_prime_restarts_every_attempt(monkeypatch):
    _pin_prime(monkeypatch, verify, times=10**6)
    slp = parse_system("vars x,y; x^2 + y^2 - 5; x*y - 2;")
    change = AffineChange.from_matrix(((P, 1), (0, 1)))
    composed = compose_affine(slp, change)
    rep = FiberRepresentation(
        stage=2,
        prim_var=0,
        point=(),
        min_poly=(Fraction(-1), Fraction(0), Fraction(1)),
        params={1: (Fraction(1),)},
        form="kronecker",
        ring=QQ,
    )
    with pytest.raises(NotInvertibleError, match=NOT_A_UNIT):
        verify.fresh_prime_checks(rep, composed, 1, random.Random(0))
    # With Q not squarefree mod P as well, the check fails before the
    # residual pass: the candidate is rejected, not the attempt ended.
    square = replace(rep, min_poly=(Fraction(-P * P), Fraction(0), Fraction(1)))
    checks = verify.fresh_prime_checks(square, composed, 1, random.Random(0))
    assert checks == [(P, False)]
    over_p = replace(rep, params={1: (Fraction(1, P),)})
    with pytest.raises(UnluckyError, match="a denominator vanishes mod a verify"):
        verify.fresh_prime_checks(over_p, slp, 1, random.Random(0))
    cfg = SolveConfiguration(seed=42, retries=2, lambda_matrix=((P, 1), (0, 1)))
    with pytest.raises(RetryExhaustedError) as info:
        solve_over_rationals(slp, cfg)
    assert [cause for _, _, cause in info.value.causes] == [NOT_A_UNIT] * 2
