"""The factor-free intersection against the factor-by-factor method.

``solver.intersect_parametrization`` interpolates the new fiber's Kronecker
numerators from the node samples of ``intersect_minimal_poly``, over F_p
only.  The reference below recovers them as the solver once did: it factors
Q_new (Cantor-Zassenhaus), specializes the curve at a root of each factor
over that factor's extension field, pins the primitive element down as the
root of a linear gcd, reads every coordinate off there, and recombines the
residues by Chinese remaindering.  Both must give the same fiber at every
stage of a solve.
"""

import random

import pytest

import kronecker
from kronecker import polys, solver
from kronecker.padic import (
    SolveConfiguration,
    solve_modular,
    solve_over_rationals,
)
from kronecker.polys import (
    degree,
    factor_squarefree,
    normalize,
    poly_eval,
    poly_gcd,
)
from kronecker.rings import PolyQuotient
from kronecker.slp import evaluate, parse_system
from kronecker.solver import (
    FiberRepresentation,
    fiber_coordinates,
    specialize_curve,
    to_kronecker,
    to_univariate,
)

from reference.polys import crt_polys
from reference.rings import ExtField
from test_acceptance import _random_dense_system


def _reference_parametrization(curve, q_new, slp, out_index):
    """Kronecker fiber of the next stage, recovered factor by factor."""
    F = curve.field
    collected = {j: [] for j in range(curve.prim_var, slp.n_vars)}
    for qk in factor_squarefree(q_new, F, random.Random(0)):
        K = ExtField(F, qk)
        uni = to_univariate(specialize_curve(curve, K.gen, into=K))
        A = PolyQuotient(K, uni.min_poly)
        coords = fiber_coordinates(
            slp.n_vars, uni.prim_var, uni.point, uni.params, A
        )
        g = evaluate(slp, coords, A, n_out=out_index + 1)[out_index]
        linear = poly_gcd(g, uni.min_poly, K)
        assert degree(linear) == 1, "primitive element failed to separate"
        b = K.neg(linear[0])
        values = {curve.prim_var: b}
        for j, v in uni.params.items():
            values[j] = poly_eval(v, b, K)
        for j, val in values.items():
            collected[j].append((normalize(val, F), qk))
    return to_kronecker(
        FiberRepresentation(
            stage=curve.stage + 1,
            prim_var=curve.free_var,
            point=curve.base,
            min_poly=q_new,
            params={j: crt_polys(res, F) for j, res in collected.items()},
            form="univariate",
            ring=F,
        )
    )


def _compare_every_intersection(monkeypatch):
    """Make every intersection of a solve also run the reference and require
    the same fiber; returns the (stage, fiber degree, factor degrees) of
    each."""
    original_minpoly = solver.intersect_minimal_poly
    original_param = solver.intersect_parametrization
    calls = {}
    compared = []

    def minpoly(curve, slp, out_index, next_degree, rng):
        calls["args"] = (slp, out_index)
        return original_minpoly(curve, slp, out_index, next_degree, rng)

    def param(curve, new_min_poly, samples):
        got = original_param(curve, new_min_poly, samples)
        slp, out_index = calls["args"]
        want = _reference_parametrization(curve, new_min_poly, slp, out_index)
        assert got == want
        factors = factor_squarefree(
            new_min_poly, curve.field, random.Random(0)
        )
        compared.append(
            (got.stage, got.fiber_degree, sorted(degree(q) for q in factors))
        )
        return got

    monkeypatch.setattr(solver, "intersect_minimal_poly", minpoly)
    monkeypatch.setattr(solver, "intersect_parametrization", param)
    return compared


P60 = 2**60 - 93
SYSTEMS = [(2, (3, 3)), (3, (2, 2, 3)), (4, (2, 2, 2, 2))]
PINNED = {
    2: (((3, 1), (2, 5)), (7,)),
    3: (((2, 1, 1), (1, 3, 1), (1, 1, 4)), (5, 11)),
    4: (((2, 1, 0, 1), (1, 3, 1, 0), (0, 1, 4, 1), (1, 0, 1, 5)), (3, 8, 13)),
}


@pytest.mark.parametrize("n, degrees", SYSTEMS)
@pytest.mark.parametrize("prime", [10007, P60])
@pytest.mark.parametrize("pinned", [False, True])
def test_intersection_matches_factor_by_factor(
    monkeypatch, n, degrees, prime, pinned
):
    slp = parse_system(_random_dense_system(n, degrees, random.Random(7 * n)))
    draws = {}
    if pinned:
        lam, point = PINNED[n]
        draws = {"lambda_matrix": lam, "lifting_point": point}
    compared = _compare_every_intersection(monkeypatch)
    config = SolveConfiguration(seed=3, prime=prime, **draws)
    fiber, state, report, _ = solve_modular(slp, config)
    assert report.passed
    assert [c[:2] for c in compared[-(n - 1):]] == [
        (s + 1, d) for s, d in enumerate(state.stage_degrees[1:], 1)
    ]
    # Q_new has irreducible factors of degree > 1 in every case here, so
    # the reference reads coordinates off over extension fields.
    assert any(max(factors) > 1 for _, _, factors in compared)
    if pinned:
        assert state.slp.transform.matrix == lam and state.point == point


def _raise(*args, **kwargs):
    raise AssertionError("factorization machinery called on the solve path")


@pytest.mark.parametrize("mode, n", [("heuristic", 3), ("provable", 2)])
def test_solve_path_needs_no_factorization(monkeypatch, mode, n):
    banned = {id(polys.factor_squarefree)}
    modules = [kronecker] + [
        getattr(kronecker, name)
        for name in ("polys", "rings", "solver", "padic", "verify", "cli")
    ]
    for module in modules:
        for name, value in list(vars(module).items()):
            if id(value) in banned:
                monkeypatch.setattr(module, name, _raise)
    slp = parse_system(_random_dense_system(n, (2,) * n, random.Random(9)))
    _, cert = solve_over_rationals(slp, SolveConfiguration(seed=2, mode=mode))
    assert cert.verification["passed"]
