import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from kronecker import padic, verify
from kronecker.errors import (
    InputNotRegularError,
    NoReconstructionError,
    RetryExhaustedError,
    SingularMatrixError,
)
from kronecker.padic import (
    SolveConfiguration,
    check_configuration,
    reconstruct_rep,
    solve_over_rationals,
)
from kronecker.rings import PrimeField, ResidueRing
from kronecker.slp import AffineChange, compose_affine, parse_system
from kronecker.solver import (
    FiberRepresentation,
    residuals,
    rungs,
    to_kronecker,
    to_univariate,
)
from kronecker.verify import check_representation

from reference.polys import from_int_coeffs
from test_acceptance import _random_dense_system

F7 = PrimeField(7)
IDENT = AffineChange.identity(1)


def _root_rep(min_poly, F=F7, params=None, n=1):
    return FiberRepresentation(
        stage=n,
        prim_var=0,
        point=(),
        min_poly=from_int_coeffs(min_poly, F),
        params=params or {},
        form="univariate",
        ring=F,
    )


def test_hensel_square_root_of_two():
    slp = compose_affine(parse_system("vars x; x^2 - 2;"), IDENT)
    rep = _root_rep([-3, 1])  # T - 3: 3^2 = 2 mod 7
    *_, (k, lifted) = rungs(rep, slp, last=2)
    assert not any(residuals(slp, lifted))
    assert k == lifted.ring.k == 2
    assert lifted.min_poly == (39, 1)  # T - 10 mod 49; 10^2 = 2 mod 49
    assert pow(10, 2, 49) == 2


def test_squarefree_clause_is_named_for_the_ring():
    slp = compose_affine(parse_system("vars x; x^2 - 2;"), IDENT)
    rep = _root_rep([-3, 1])
    *_, (_, lifted) = rungs(rep, slp, last=2)
    assert not any(residuals(slp, lifted))
    assert lifted.ring == ResidueRing(7, 2)
    over_p = [name for name, _, _ in check_representation(rep, slp).clauses]
    assert "squarefree" in over_p
    # Over Z/p^2 there is no clause to name: a lifted fiber is not checked
    # by ``check_representation``.
    with pytest.raises(ValueError, match="local ring"):
        check_representation(lifted, slp)


def test_hensel_linear_is_exact_at_every_precision():
    slp = compose_affine(parse_system("vars x; x - 5;"), IDENT)
    rep = _root_rep([-5, 1])
    for k in (1, 8, 32):
        *_, (_, lifted) = rungs(rep, slp, last=k)
        assert not any(residuals(slp, lifted))
        assert lifted.min_poly == (lifted.ring.modulus - 5, 1)


def test_hensel_reduction_mod_p_matches_input():
    slp = compose_affine(
        parse_system("vars x,y; x^2 + y^2 - 5; x*y - 2;"),
        AffineChange.identity(2),
    )
    F = PrimeField(10007)
    from kronecker.solver import SolveState, solve_mod_p

    state = SolveState(
        slp=slp,
        field=F,
        point=(0,),
        rng=random.Random(0),
    )
    fiber = solve_mod_p(state)
    *_, (_, lifted) = rungs(to_univariate(fiber), slp, last=8)
    assert not any(residuals(slp, lifted))
    lifted = to_kronecker(lifted)
    assert lifted.form == "kronecker"
    m = lifted.ring.modulus
    reduced_q = tuple(c % 10007 for c in lifted.min_poly)
    assert reduced_q == fiber.min_poly
    for j, w in fiber.params.items():
        assert tuple(c % 10007 for c in lifted.params[j]) == w


def test_reconstruct_small_integers_identity():
    R = ResidueRing(1000003, 1)
    rep = FiberRepresentation(
        stage=1,
        prim_var=0,
        point=(),
        min_poly=(R.from_int(-7), R.from_int(1)),
        params={},
        form="univariate",
        ring=R,
    )
    got = reconstruct_rep(rep)
    assert got.min_poly == (Fraction(-7), Fraction(1))


def test_reconstruct_recovers_one_third():
    R = ResidueRing(10007, 2)
    third = pow(3, -1, R.modulus)
    rep = FiberRepresentation(
        stage=1,
        prim_var=0,
        point=(),
        min_poly=(third, 1),
        params={},
        form="univariate",
        ring=R,
    )
    got = reconstruct_rep(rep)
    assert got.min_poly == (Fraction(1, 3), Fraction(1))


def test_reconstruct_failure_without_enough_precision():
    R = ResidueRing(101, 1)
    rep = FiberRepresentation(
        stage=1,
        prim_var=0,
        point=(),
        min_poly=(37, 1),  # no small fraction matches 37 mod 101
        params={},
        form="univariate",
        ring=R,
    )
    with pytest.raises(NoReconstructionError):
        reconstruct_rep(rep)


def test_solve_two_quadrics_exactly():
    slp = parse_system("vars x,y; x^2 + y^2 - 5; x*y - 2;")
    cfg = SolveConfiguration(seed=42, lambda_matrix=((1, 0), (0, 1)))
    rep, cert = solve_over_rationals(slp, cfg)
    assert not cert.exact_checked
    composed = compose_affine(slp, AffineChange.identity(2))
    assert check_representation(rep, composed, exact=True).passed
    assert rep.min_poly == tuple(Fraction(c) for c in (4, 0, -5, 0, 1))
    assert rep.params[1] == tuple(Fraction(c) for c in (-20, 0, 8))
    uni = to_univariate(rep)
    assert uni.params[1] == (
        Fraction(0),
        Fraction(5, 2),
        Fraction(0),
        Fraction(-1, 2),
    )
    assert cert.verification["passed"]
    assert cert.stage_degrees == (2, 4)


def test_solve_linear_system_trivial_lift():
    slp = parse_system("vars x; x - 3;")
    cfg = SolveConfiguration(seed=1, lambda_matrix=((1,),))
    rep, cert = solve_over_rationals(slp, cfg)
    assert rep.min_poly == (Fraction(-3), Fraction(1))
    assert cert.verification["passed"]


def test_a_singular_lambda_draw_ends_its_attempt():
    # At seed 139 the first draw of λ from [0, 120] is (0), singular.  The
    # attempt ends there, and the next one reads the generator exactly as a
    # redraw of λ would: the same λ, prime and fiber, one attempt later.
    slp = parse_system("vars x; x - 3;")
    assert random.Random(139).randrange(121) == 0
    rep, cert = solve_over_rationals(slp, SolveConfiguration(seed=139))
    assert cert.attempts == 2
    assert cert.lam == ((88,),) and cert.prime == 3099847694329173881
    assert rep.min_poly == (Fraction(-264), Fraction(1))
    with pytest.raises(RetryExhaustedError) as info:
        solve_over_rationals(slp, SolveConfiguration(seed=139, retries=1))
    assert info.value.causes == [(1, None, "change of variables has determinant 0")]


def test_solve_non_radical_input_is_rejected():
    slp = parse_system("vars x,y; x^2; x;")
    with pytest.raises(RetryExhaustedError):
        solve_over_rationals(slp, SolveConfiguration(seed=0, retries=3))


def test_solve_unit_equation_flagged_not_regular():
    from kronecker.errors import InputNotRegularError

    slp = parse_system("vars x,y; x^2 + y^2 - 5; 1;")
    with pytest.raises(InputNotRegularError):
        solve_over_rationals(slp, SolveConfiguration(seed=0, retries=3))


def test_solve_provable_mode():
    slp = parse_system("vars x,y; x^2 + y^2 - 5; x*y - 2;")
    cfg = SolveConfiguration(
        mode="provable",
        seed=7,
        lambda_matrix=((1, 0), (0, 1)),
    )
    rep, cert = solve_over_rationals(slp, cfg)
    assert rep.min_poly == tuple(Fraction(c) for c in (4, 0, -5, 0, 1))
    assert cert.mode == "provable"
    assert cert.verification["passed"]
    assert cert.exact_checked
    assert cert.verification["clauses"][-1] == {
        "name": "exact residual over Q",
        "ok": True,
        "detail": "checked exactly",
    }


def test_accepted_solution_verifies_against_fresh_primes():
    slp = parse_system("vars x,y; x^2 - 2*y - 1; y^2 + x - 5;")
    rep, cert = solve_over_rationals(slp, SolveConfiguration(seed=5))
    composed = compose_affine(slp, AffineChange.from_matrix(cert.lam))
    report = check_representation(rep, composed, exact=True)
    assert report.passed
    fresh = verify.fresh_prime_checks(rep, composed, 3, random.Random(123))
    assert len(fresh) == 3 and all(passed for _, passed in fresh)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"retries": 0}, "retries"),
        ({"retries": -2}, "retries"),
        ({"verify_primes": 0}, "verify_primes"),
        ({"verify_primes": -1}, "verify_primes"),
        ({"mode": "provable", "verify_primes": 0}, "verify_primes"),
    ],
)
def test_configuration_without_a_checked_result_is_rejected(fields, message):
    config = SolveConfiguration(**fields)
    with pytest.raises(ValueError, match=message):
        check_configuration(config, 2)
    with pytest.raises(ValueError, match=message):
        solve_over_rationals(parse_system("vars x; x^2 - 2;"), config)


@pytest.mark.parametrize(
    "lam", [((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1,),), ((1, 0), (0,))]
)
def test_wrongly_sized_lambda_is_rejected_before_the_first_attempt(
    monkeypatch, lam
):
    import kronecker.padic as padic

    def never(*args):
        raise AssertionError("an attempt ran")

    monkeypatch.setattr(padic, "solve_mod_p", never)
    monkeypatch.setattr(padic, "_draw_attempt", never)
    config = SolveConfiguration(lambda_matrix=lam)
    with pytest.raises(ValueError, match="2 x 2"):
        check_configuration(config, 2)
    with pytest.raises(ValueError, match="2 x 2"):
        solve_over_rationals(parse_system("vars x, y; x^2 - 2; y^2 - 3;"), config)


def test_a_pinned_prime_dividing_det_of_a_pinned_lambda_is_rejected(monkeypatch):
    # Every attempt would stop at the program's inv of det λ = 0 mod p.
    def never(*args):
        raise AssertionError("an attempt ran")

    monkeypatch.setattr(padic, "_draw_attempt", never)
    slp = parse_system("vars x, y; x^2 + y^2 - 5; x*y - 2;")
    config = SolveConfiguration(prime=10007, lambda_matrix=((10007, 1), (0, 1)))
    with pytest.raises(ValueError, match="pinned prime 10007 divides det"):
        check_configuration(config, 2)
    for solve in (solve_over_rationals, padic.solve_modular):
        with pytest.raises(ValueError, match="pinned prime 10007 divides det"):
            solve(slp, config)
    check_configuration(replace(config, prime=10009), 2)
    check_configuration(replace(config, lambda_matrix=None), 2)


# A dense (5, 5) system, δ = 25, with λ, the lifting point and the prime
# pinned.  Its Kronecker form has numerators of up to 156 bits over
# denominators of up to 30: about 190 bits of p^4 = 244 for
# maximal-quotient reconstruction, against the 313 that a bound of
# sqrt(m/2) on both asked for, which stopped the ladder at p^8.  The digest
# of the representation was computed while it still stopped there.
LADDER_SYSTEM = (
    "vars x,y; 10*y + 8*y^2 + 3*y^3 - 7*y^4 - 3*y^5 - 10*x - 5*x*y"
    " - 3*x*y^2 + 8*x*y^3 + 7*x*y^4 + 5*x^2 + 2*x^2*y - 1*x^2*y^2"
    " + 2*x^2*y^3 - 10*x^3 + 10*x^3*y - 5*x^3*y^2 + 9*x^4 + 6*x^4*y + 8*x^5;"
    " 5 + 6*y - 5*y^2 - 4*y^3 - 1*y^4 + 3*y^5 + 3*x - 1*x*y - 4*x*y^2"
    " + 6*x*y^3 + 3*x*y^4 - 6*x^2 - 2*x^2*y - 10*x^2*y^2 + 7*x^2*y^3"
    " - 4*x^3 + 5*x^3*y - 4*x^3*y^2 + 1*x^4 - 6*x^4*y - 2*x^5;"
)
LADDER_SHA256 = (
    "c0218b35ffc808108c34e2f27cf8b8a30e1c1b72d8bf7b6e3fbe95dbd8ef1cb0"
)


def test_heuristic_ladder_stops_where_the_output_fits():
    config = SolveConfiguration(
        seed=1,
        lambda_matrix=((30, 17), (16, 29)),
        lifting_point=(22,),
        prime=2**61 - 1,
    )
    rep, cert = solve_over_rationals(parse_system(LADDER_SYSTEM), config)
    text = repr((rep.min_poly, sorted(rep.params.items())))
    assert hashlib.sha256(text.encode()).hexdigest() == LADDER_SHA256
    assert cert.precision_exponent == 4
    assert cert.reconstruction_exponents == ((1, False), (2, False), (4, True))


# Dense (4, 4) and (5, 5) systems, δ = 16 and 25, with λ and the lifting
# point pinned and the prime drawn from the seed: their ladders stop at p^2
# and p^4, so these pin the products over Z/p^2 and Z/p^4 that a
# two-quadric solve barely reaches.  Digests of the rational output.
DENSE_GOLDENS = {
    (
        "vars x,y; -3 + 8*y + 7*y^2 - 6*y^3 + 1*y^4 + 9*x + 5*x*y + 10*x*y^2"
        " + 8*x*y^3 - 8*x^2 + 9*x^2*y - 10*x^2*y^2 + 5*x^3 - 2*x^3*y + 7*x^4;"
        " -3 - 4*y + 5*y^2 + 7*y^3 + 7*y^4 + 5*x + 2*x*y + 10*x*y^2 - 6*x*y^3"
        " - 3*x^2 + 10*x^2*y - 6*x^2*y^2 + 6*x^3 + 2*x^3*y - 10*x^4;",
        3,
    ): "6d20f775f0ab971823f9df37cff0a7a38b5cf839150647d181190c928ff7f29d",
    (
        "vars x,y; -3 - 1*y - 7*y^2 + 2*y^3 + 5*y^4 - 6*y^5 - 8*x - 8*x*y"
        " - 10*x*y^2 + 2*x*y^3 + 7*x*y^4 - 1*x^2 - 9*x^2*y - 3*x^2*y^2"
        " + 6*x^2*y^3 + 7*x^3 + 1*x^3*y - 2*x^3*y^2 - 5*x^4 - 7*x^4*y - 2*x^5;"
        " -4 - 10*y + 10*y^2 - 2*y^3 - 2*y^4 - 4*y^5 - 5*x - 1*x*y - 1*x*y^2"
        " + 10*x*y^3 + 1*x*y^4 - 8*x^2 + 9*x^2*y + 2*x^2*y^3 + 6*x^3"
        " - 3*x^3*y - 5*x^3*y^2 - 3*x^4 + 5*x^4*y - 2*x^5;",
        4,
    ): "0a3526e6a03b485f6b7549e7f2ace29ed49b08587b225da70eb1912bc7dd9fda",
}


@pytest.mark.parametrize("text, seed", list(DENSE_GOLDENS), ids=["d16", "d25"])
def test_dense_heuristic_solve_matches_its_golden(text, seed):
    config = SolveConfiguration(
        seed=seed, lambda_matrix=((3, 1), (-2, 5)), lifting_point=(4,)
    )
    rep, _ = solve_over_rationals(parse_system(text), config)
    digest = repr((rep.min_poly, sorted(rep.params.items())))
    assert hashlib.sha256(digest.encode()).hexdigest() == DENSE_GOLDENS[text, seed]


TWO_QUADRICS = "vars x,y; x^2 + y^2 - 5; x*y - 2;"


def _perturb_candidates(monkeypatch, count):
    """Make ``padic.reconstruct_rep`` add one to the constant term of Q in
    the first ``count`` candidates it returns (all of them for None); returns
    the list of candidates it has returned so far."""
    original = padic.reconstruct_rep
    returned = []

    def perturbed(rep):
        candidate = original(rep)
        if count is None or len(returned) < count:
            q = candidate.min_poly
            candidate = replace(candidate, min_poly=(q[0] + 1,) + q[1:])
        returned.append(candidate)
        # Two per attempt at most: fail instead of climbing to the cap.
        assert len(returned) <= 2 * 5, "the ladder climbed past a repeat"
        return candidate

    monkeypatch.setattr(padic, "reconstruct_rep", perturbed)
    return returned


def test_a_wrong_first_candidate_climbs_one_more_rung(monkeypatch):
    slp = parse_system(TWO_QUADRICS)
    config = SolveConfiguration(seed=42)
    rep, cert = solve_over_rationals(slp, config)
    _perturb_candidates(monkeypatch, 1)
    got, climbed = solve_over_rationals(slp, config)
    assert got == rep
    assert climbed.attempts == 1
    assert climbed.precision_exponent == 2 * cert.precision_exponent
    assert climbed.reconstruction_exponents == (
        *cert.reconstruction_exponents,
        (climbed.precision_exponent, True),
    )
    assert climbed.verification["passed"]


def test_a_candidate_that_never_verifies_restarts_every_attempt(monkeypatch):
    slp = parse_system(TWO_QUADRICS)
    returned = _perturb_candidates(monkeypatch, None)
    with pytest.raises(RetryExhaustedError) as info:
        solve_over_rationals(slp, SolveConfiguration(seed=42))
    causes = info.value.causes
    assert len(causes) == 5
    assert len(returned) == 2 * 5  # the rejected candidate and its repeat
    assert {cause for _, _, cause in causes} == {
        "verification failed after lifting"
    }


def test_provable_gate_refuses_what_only_the_exact_residual_sees(monkeypatch):
    # Every fresh prime passes and one W_j coefficient is off by 1/7: only
    # the exact residual over Q can refuse the candidate, on every rung.
    original = padic.reconstruct_rep

    def corrupted(rep):
        candidate = original(rep)
        w = candidate.params[1]
        params = {1: (w[0] + Fraction(1, 7),) + w[1:]}
        return replace(candidate, params=params)

    monkeypatch.setattr(padic, "reconstruct_rep", corrupted)
    monkeypatch.setattr(
        verify,
        "fresh_prime_checks",
        lambda rep, slp, count, rng: [(2**61 - 1, True)] * count,
    )
    config = SolveConfiguration(
        mode="provable", seed=42, retries=2, lambda_matrix=((1, 0), (0, 1))
    )
    with pytest.raises(RetryExhaustedError) as info:
        solve_over_rationals(parse_system(TWO_QUADRICS), config)
    assert [cause for _, _, cause in info.value.causes] == [
        "verification failed after lifting"
    ] * 2


def test_provable_exact_check_waits_for_the_fresh_primes(monkeypatch):
    # The first candidate fails its fresh prime: it is refused without the
    # exact check over Q, which runs only for the accepted candidate.
    judged = []
    exact_for = []
    fresh, exact = verify.fresh_prime_checks, verify._exact_residuals_vanish

    def failing_first(rep, slp, count, rng):
        judged.append(rep)
        checks = fresh(rep, slp, count, rng)
        return [(p, False) for p, _ in checks] if len(judged) == 1 else checks

    def spy(slp, rep):
        exact_for.append(len(judged))
        return exact(slp, rep)

    monkeypatch.setattr(verify, "fresh_prime_checks", failing_first)
    monkeypatch.setattr(verify, "_exact_residuals_vanish", spy)
    config = SolveConfiguration(
        mode="provable", seed=42, lambda_matrix=((1, 0), (0, 1))
    )
    rep, cert = solve_over_rationals(parse_system(TWO_QUADRICS), config)
    assert cert.exact_checked and cert.verification["passed"]
    assert exact_for == [len(judged)] and len(judged) > 1


def _pinned_change(n, rng):
    while True:
        lam = tuple(
            tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n)
        )
        try:
            AffineChange.from_matrix(lam)
            return lam
        except SingularMatrixError:
            continue


@given(st.integers(0, 2**32 - 1))
def test_both_modes_stop_at_a_verified_rung_with_the_same_fiber(seed):
    # Both modes stop at the first rung that verifies; heuristic mode starts
    # at Z/p and provable mode at the height budget, so the heuristic rung
    # is never the higher one, and with λ and the lifting point pinned the
    # fiber over Q is the same.
    rng = random.Random(seed)
    n = rng.choice([1, 2])
    degrees = [rng.choice([1, 2]) for _ in range(n)]
    slp = parse_system(_random_dense_system(n, degrees, rng))
    pins = dict(
        seed=seed,
        lambda_matrix=_pinned_change(n, rng),
        lifting_point=tuple(rng.randint(-9, 9) for _ in range(n - 1)),
    )
    try:
        rep, cert = solve_over_rationals(slp, SolveConfiguration(**pins))
    except (RetryExhaustedError, InputNotRegularError):
        assume(False)  # λ or the point is not generic: no fiber to compare
    proven, proof = solve_over_rationals(
        slp, SolveConfiguration(mode="provable", **pins)
    )
    assert proven == rep
    for c in (cert, proof):
        assert c.reconstruction_exponents[-1] == (c.precision_exponent, True)
    assert cert.precision_exponent <= proof.precision_exponent
