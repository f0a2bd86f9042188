"""Coverage for paths the mainline tests only touch indirectly: a second
change of variables, residue-ring representations, stage-2 curves with
parametrizations, provable-mode CLI, pinned primes, and the exact
division check over Q on its edge shapes."""

import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from kronecker.cli import run as cli_run
from kronecker.errors import NotInvertibleError
from kronecker.padic import SolveConfiguration, solve_over_rationals
from kronecker.rings import ZZ, PrimeField
from kronecker.slp import AffineChange, compose_affine, parse_system
from kronecker.solver import (
    SolveState,
    first_stage,
    lift_curve,
    residuals,
    rungs,
    solve_mod_p,
    specialize_curve,
    to_kronecker,
    to_univariate,
)
from kronecker.verify import check_representation

FBIG = PrimeField(10007)


def test_compose_affine_refuses_a_second_change():
    slp = parse_system("vars x,y; x^2*y - x + 4;")
    once = compose_affine(slp, AffineChange.from_matrix([[1, 1], [0, 1]]))
    outer = AffineChange.from_matrix([[2, 1], [1, 1]])
    for change in (AffineChange.identity(2), outer):
        with pytest.raises(ValueError, match="already carries"):
            compose_affine(once, change)


def test_integers_ring_unit_handling():
    assert ZZ.inv(-1) == -1
    with pytest.raises(NotInvertibleError):
        ZZ.inv(2)


def test_check_representation_over_residue_ring():
    slp = compose_affine(
        parse_system("vars x,y; x^2 + y^2 - 5; x*y - 2;"),
        AffineChange.identity(2),
    )
    state = SolveState(
        slp=slp,
        field=FBIG,
        point=(0,),
        rng=random.Random(0),
    )
    fiber = solve_mod_p(state)
    *_, (_, lifted) = rungs(to_univariate(fiber), slp, last=8)
    assert not any(residuals(slp, lifted))
    # A lifted fiber is checked through its residuals in the univariate
    # form the ladder yields, not by ``check_representation``.
    for rep in (lifted, to_kronecker(lifted)):
        with pytest.raises(ValueError):
            check_representation(rep, slp)
    # perturbing one lifted coefficient must break the residual
    bad_params = {
        j: (lifted.ring.add(v[0], 1),) + v[1:]
        for j, v in lifted.params.items()
    }
    bad = replace(lifted, params=bad_params)
    assert any(residuals(slp, bad))


def test_stage_two_curve_specializes_consistently():
    # Three-variable pipeline: the stage-2 curve carries a parametrization;
    # specializing it anywhere must satisfy F_1 and F_2.
    slp = parse_system(
        "vars x,y,z; x^2 + y - z - 3; x*y + z^2 - 7; x + y + z - 4;"
    )
    change = AffineChange.from_matrix([[3, 1, 2], [1, 4, 1], [2, 1, 5]])
    composed = compose_affine(slp, change)
    state = SolveState(
        slp=composed,
        field=FBIG,
        point=(1, 2),
        rng=random.Random(3),
    )
    from kronecker.solver import intersect_minimal_poly, intersect_parametrization

    fiber = first_stage(state)
    uni = to_univariate(fiber)
    curve1 = lift_curve(uni, composed)
    q2, samples = intersect_minimal_poly(
        curve1, composed, 1, slp.degrees[1], state.rng
    )
    fiber2 = intersect_parametrization(curve1, q2, samples)
    curve2 = lift_curve(fiber2, composed)
    assert curve2.params  # stage-2 curve has a parametrized coordinate
    for a in (0, 5, 1234):
        fib = specialize_curve(curve2, a)
        assert fib.stage == 2
        try:
            vals = residuals(composed, fib)
        except NotInvertibleError:
            continue  # ramified specialization: not a valid fiber
        assert all(v == () for v in vals)


def test_cli_provable_mode(tmp_path):
    src = tmp_path / "sys.txt"
    src.write_text("vars x, y;\nx^2 + y^2 - 5;\nx*y - 2;\n")
    out = tmp_path / "rep.json"
    code = cli_run(
        [str(src), "--mode", "provable", "--seed", "11", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "provable"
    assert doc["verification"]["passed"]
    assert len(doc["representation"]["minimal_poly"]) == 5


def test_rational_solve_with_pinned_prime():
    slp = parse_system("vars x,y; x^2 + y^2 - 5; x*y - 2;")
    cfg = SolveConfiguration(
        seed=2,
        prime=(1 << 61) - 1,
        lambda_matrix=((1, 0), (0, 1)),
    )
    rep, cert = solve_over_rationals(slp, cfg)
    assert cert.prime == (1 << 61) - 1
    assert rep.min_poly == tuple(Fraction(c) for c in (4, 0, -5, 0, 1))
    composed = compose_affine(slp, AffineChange.identity(2))
    assert check_representation(rep, composed, exact=True).passed


def test_exact_residual_degree_one_fiber():
    # Exercises the exact division check on a linear minimal polynomial
    # (Q' = 1) with a genuine denominator, in provable mode's gate and on
    # its own.
    slp = parse_system("vars x; 3*x - 1;")
    cfg = SolveConfiguration(mode="provable", seed=0, lambda_matrix=((1,),))
    rep, cert = solve_over_rationals(slp, cfg)
    assert rep.min_poly == (Fraction(-1, 3), Fraction(1))
    assert cert.exact_checked
    composed = compose_affine(slp, AffineChange.identity(1))
    assert check_representation(rep, composed, exact=True).passed


def test_exact_residual_catches_wrong_rational_rep():
    slp = parse_system("vars x,y; x^2 + y^2 - 5; x*y - 2;")
    cfg = SolveConfiguration(seed=4, lambda_matrix=((1, 0), (0, 1)))
    rep, cert = solve_over_rationals(slp, cfg)
    composed = compose_affine(slp, AffineChange.identity(2))
    wrong = replace(
        rep,
        params={1: tuple(c + Fraction(1, 7) for c in rep.params[1])},
    )
    report = check_representation(wrong, composed, exact=True)
    assert not report.passed


def test_solve_mod_p_small_prime_end_to_end():
    # Tiny prime: the solver must still produce a valid representation once
    # given workable coordinates.
    slp = parse_system("vars x,y; x^2 + y^2 - 5; x*y - 2;")
    rng = random.Random(6)
    F41 = PrimeField(41)
    for _ in range(20):
        rows = [[rng.randrange(41) for _ in range(2)] for _ in range(2)]
        try:
            change = AffineChange.from_matrix(rows)
        except Exception:
            continue
        if change.det % 41 == 0:
            continue
        state = SolveState(
            slp=compose_affine(slp, change),
            field=F41,
            point=(rng.randrange(41),),
            rng=rng,
        )
        try:
            fiber = solve_mod_p(state)
        except Exception:
            continue
        assert fiber.fiber_degree == 4
        assert check_representation(fiber, state.slp).passed
        return
    pytest.fail("no working coordinates found in 20 draws")
