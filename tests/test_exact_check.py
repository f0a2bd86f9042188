"""The exact residual check over Q by one integer evaluation and an exact
division, against the U-expansion check it replaced.

``verify._exact_residuals_vanish`` evaluates the program at T = 2^B over
Z, with B fixed by a first pass on 1-norms, and divides each unpacked
output by the primitive part of Q.  The oracle is
``reference.exact._exact_kronecker_residuals``.  Both are run on rational
representations of the fuzz grammar's provable systems, of the
benchmark's (d, d) systems and of one benchmark system under a change of
variables whose adjugate has a zero entry, clean and with one W_j
coefficient, Q's constant coefficient or one point coordinate perturbed.
Where Q stays squarefree the two must give the same verdict on every
output.
"""

import importlib.util
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings

from kronecker import verify
from kronecker.errors import KroneckerError
from kronecker.padic import SolveConfiguration, solve_over_rationals
from kronecker.slp import AffineChange, compose_affine, parse_system
from reference.exact import _exact_kronecker_residuals
from test_cli_fuzz import _SMALL

SYSTEMS = Path(__file__).resolve().parents[1] / "perfbench" / "systems.py"


def _make_system(seed, degrees):
    spec = importlib.util.spec_from_file_location("perfbench_systems", SYSTEMS)
    systems = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(systems)
    return systems.make_system(seed, degrees)


@lru_cache(maxsize=None)
def _benchmark_candidate(degrees, lam=None, mode="heuristic"):
    """The rational representation of the benchmark's system with these
    degrees at seed 7, under its pinned lifting point and ``lam`` (by
    default its pinned λ), solved in ``mode``, with the composed program it
    is checked against."""
    system = _make_system(7, degrees)
    slp = parse_system(system.text)
    config = SolveConfiguration(
        seed=system.solve_seed,
        mode=mode,
        lambda_matrix=lam or system.lam,
        lifting_point=system.point,
    )
    rep, cert = solve_over_rationals(slp, config)
    return rep, compose_affine(slp, AffineChange.from_matrix(cert.lam))


def _perturbations(rep):
    """``rep`` clean, then with a W_j coefficient, Q's constant
    coefficient and a point coordinate perturbed, where it has them (a
    point only when it has fewer equations than variables)."""
    yield rep
    if rep.params:
        j = max(rep.params)
        w = rep.params[j] or (0,)
        w = (w[0] + Fraction(1, 7), *w[1:])
        yield replace(rep, params={**rep.params, j: w})
    q = rep.min_poly
    yield replace(rep, min_poly=(q[0] + Fraction(1, 7), *q[1:]))
    if rep.prim_var:
        yield replace(rep, point=(rep.point[0] + 1, *rep.point[1:]))


def _assert_agrees_with_the_oracle(rep, slp):
    """Whether each of ``_perturbations(rep)`` passes the division check."""
    verdicts = []
    for candidate in _perturbations(rep):
        new = verify._exact_residuals_vanish(slp, candidate)
        if verify._is_squarefree_over_q(candidate.min_poly):
            old = [not v for v in _exact_kronecker_residuals(slp, candidate)]
            assert new == old, candidate
        verdicts.append(all(new))
    return verdicts


@settings(max_examples=30)
@given(_SMALL)
def test_division_check_agrees_with_the_u_expansion_on_fuzz_systems(text):
    try:
        slp = parse_system(text)
        rep, cert = solve_over_rationals(slp, SolveConfiguration(retries=2))
    except KroneckerError:
        return
    composed = compose_affine(slp, AffineChange.from_matrix(cert.lam))
    verdicts = _assert_agrees_with_the_oracle(rep, composed)
    assert verdicts[0], text


@pytest.mark.parametrize("d", [3, 4, 5])
def test_division_check_agrees_with_the_u_expansion_on_benchmark_systems(d):
    rep, slp = _benchmark_candidate((d, d))
    assert _assert_agrees_with_the_oracle(rep, slp) == [True, False, False]


@pytest.mark.parametrize("mode", ["heuristic", "provable"])
def test_division_check_agrees_with_the_u_expansion_under_a_sparse_change(mode):
    # adj [[2, 0], [1, 1]] = [[1, 0], [-1, 2]]: ``compose_affine`` drops the
    # zero entry from its row, and det 2 is no unit of Z, so 1/2 is carried
    # in the denominators of the check and of every Newton step's sliced
    # tangent passes over Z/p^k.
    rep, slp = _benchmark_candidate((2, 3), ((2, 0), (1, 1)), mode)
    assert slp.transform.adjugate == ((1, 0), (-1, 2))
    assert _assert_agrees_with_the_oracle(rep, slp) == [True, False, False]


@pytest.mark.parametrize(
    "poly, bits",
    [
        ((3, 0, -5), 4),  # negative leading coefficient
        ((1, 0, 0, 0, 7), 4),  # zeros inside
        ((0, 0, 9), 5),  # zeros below the lowest term
        ((127, -127, 0, 127), 8),  # |coefficient| = 2^(B-1) - 1
        ((-127, 1), 8),
        ((), 3),  # the zero polynomial
    ],
)
def test_pack_then_unpack_is_the_identity(poly, bits):
    assert verify._unpack(verify._pack(poly, bits), bits) == poly


@pytest.mark.parametrize(
    "degrees", [(3, 3), (4, 4), (4, 5), (5, 5), (8,), (2, 2), (2, 3)]
)
def test_bound_pass_covers_every_output_coefficient(degrees):
    # The bound pass fixes B; the same outputs evaluated at 2B unpack to
    # their true coefficients, which no bound may undercut.
    rep, slp = _benchmark_candidate(degrees)
    bounds = verify._packed_outputs(slp, rep, None)
    wide = 2 * (max(bounds).bit_length() + 2)
    for bound, x in zip(bounds, verify._packed_outputs(slp, rep, wide)):
        coeffs = verify._unpack(x, wide)
        assert coeffs
        assert bound >= max(abs(c) for c in coeffs)
