"""The one residual evaluator on fields and local rings.

``solver.residuals`` checks a Kronecker fiber through its univariate form.
The reference is the division-free U-expansion
``reference.exact.contract_u_expansion`` (Y_j = W_j·U with U standing for
1/Q', or for 1 on a univariate fiber), the old exact check over Q: on
Kronecker fibers of random dense systems over F_p and on their univariate
lifts over Z/p^4, as ``rungs`` yields them, clean and with one perturbed
W_j or V_j, the two vanish together.
"""

import random
from dataclasses import replace

import pytest

from kronecker.errors import KroneckerError
from kronecker.padic import SolveConfiguration, solve_over_rationals
from kronecker.polys import normalize, poly_deriv, rem_monic
from kronecker.primes import WORD_PRIME_HIGH, WORD_PRIME_LOW, random_prime_in_range
from kronecker.rings import PolyQuotient, PrimeField, ResidueRing
from kronecker.slp import AffineChange, compose_affine, parse_system
from kronecker.solver import (
    SolveState,
    residuals,
    rungs,
    solve_mod_p,
    to_kronecker,
    to_univariate,
)
from kronecker.verify import fresh_prime_checks
from reference.exact import contract_u_expansion
from test_acceptance import _random_dense_system

F = PrimeField(1000003)


def _u_expansion(slp, rep):
    R = rep.ring
    A = PolyQuotient(R, rep.min_poly)
    qp = rem_monic(poly_deriv(rep.min_poly, R), rep.min_poly, R)
    if rep.form == "univariate":
        qp = A.one
    params = [rep.params[j] for j in range(rep.prim_var + 1, slp.n_vars)]
    point = rep.point[: rep.prim_var]
    return contract_u_expansion(slp, A, point, A.gen, params, qp, rep.stage)


def _fiber(n, seed):
    """A final Kronecker fiber over F of a random dense system in n
    variables, with its composed program."""
    rng = random.Random(seed)
    while True:
        degrees = [rng.choice([2, 3]) for _ in range(n)]
        slp = parse_system(_random_dense_system(n, degrees, rng))
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        try:
            change = AffineChange.from_matrix(rows)
            state = SolveState(
                slp=compose_affine(slp, change),
                field=F,
                point=tuple(rng.randrange(F.p) for _ in range(n - 1)),
                rng=rng,
            )
            return solve_mod_p(state), state.slp
        except KroneckerError:
            continue


def _perturbed(rep):
    """``rep`` with one added to the constant term of its last W_j (V_j)."""
    R = rep.ring
    j = max(rep.params)
    w = rep.params[j] or (R.zero,)
    bumped = normalize((R.add(w[0], R.one),) + tuple(w[1:]), R)
    return replace(rep, params={**rep.params, j: bumped})


def _lifted(rep, slp):
    *_, (_, lifted) = rungs(to_univariate(rep), slp, last=4)
    assert lifted.ring.k == 4 and lifted.form == "univariate"
    return lifted


@pytest.mark.parametrize("n, seed", [(2, 1), (2, 2), (3, 3), (3, 4)])
def test_residuals_vanish_exactly_when_the_u_expansion_does(n, seed):
    rep, slp = _fiber(n, seed)
    for fiber in (rep, _lifted(rep, slp)):
        for candidate, clean in ((fiber, True), (_perturbed(fiber), False)):
            vals = residuals(slp, candidate)
            reference = _u_expansion(slp, candidate)
            assert len(vals) == len(reference) == n
            assert all(v == () for v in vals) is clean
            assert all(v == () for v in reference) is clean
            assert [v == () for v in vals] == [v == () for v in reference]


@pytest.mark.parametrize("n, seed", [(2, 5), (3, 6)])
def test_lifted_univariate_fiber_reduces_to_the_field_result(n, seed):
    rep, slp = _fiber(n, seed)
    lifted = _lifted(rep, slp)
    assert isinstance(lifted.ring, ResidueRing)

    def mod_p(coeffs):
        return normalize(tuple(c % F.p for c in coeffs), F)

    assert mod_p(lifted.min_poly) == rep.min_poly
    uni_field = to_univariate(rep)
    assert {j: mod_p(v) for j, v in lifted.params.items()} == uni_field.params
    # Its Kronecker form is one product away; back over Z/p^4 would take
    # 1/Q' there, which no code inverts.
    kron = to_kronecker(lifted)
    assert {j: mod_p(w) for j, w in kron.params.items()} == rep.params
    with pytest.raises(ValueError):
        to_univariate(kron)


def test_fresh_prime_checks_replay_the_verify_prime_draws():
    source = parse_system("vars x,y; x^2 - 2*y - 1; y^2 + x - 5;")
    rep, cert = solve_over_rationals(source, SolveConfiguration(seed=5))
    slp = compose_affine(source, AffineChange.from_matrix(cert.lam))
    rng = random.Random(11)
    replay = random.Random()
    replay.setstate(rng.getstate())
    checks = fresh_prime_checks(rep, slp, 3, rng)
    expected = [
        random_prime_in_range(WORD_PRIME_LOW, WORD_PRIME_HIGH, replay)
        for _ in range(3)
    ]
    assert [p for p, _ in checks] == expected
    assert all(passed for _, passed in checks)
    assert rng.getstate() == replay.getstate()
    assert fresh_prime_checks(rep, slp, 3, random.Random(11)) == [
        (p, True) for p in expected
    ]
