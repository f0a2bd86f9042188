"""Direct coverage of the restart-signal error paths."""

import random

import pytest

from kronecker.errors import (
    EmptyIntersectionError,
    InputNotRegularError,
    JacobianNotInvertibleError,
    NodeExhaustionError,
    ZeroResultantError,
)
from kronecker.padic import SolveConfiguration, solve_over_rationals
from kronecker.rings import PrimeField
from kronecker.slp import AffineChange, compose_affine, parse_system
from kronecker.solver import (
    FiberRepresentation,
    SolveState,
    first_stage,
    intersect_minimal_poly,
    lift_curve,
    rungs,
    to_univariate,
)

from reference.polys import from_int_coeffs


def _state(source, n, prime, point, seed=0):
    slp = compose_affine(parse_system(source), AffineChange.identity(n))
    return SolveState(
        slp=slp,
        field=PrimeField(prime),
        point=point,
        rng=random.Random(seed),
    )


def test_node_exhaustion_when_prime_below_node_demand():
    # Over F_5 the intersection needs 2*2 + 1 = 5 usable nodes but the field
    # has only 5 elements, so the demand cannot be met.
    state = _state("vars x,y; x^2 + y^2 - 3; x*y - 1;", 2, 5, point=(1,))
    curve = lift_curve(to_univariate(first_stage(state)), state.slp)
    with pytest.raises(NodeExhaustionError):
        intersect_minimal_poly(curve, state.slp, 1, 2, state.rng)


def test_zero_resultant_when_next_polynomial_vanishes_on_curve():
    # The second polynomial is a copy of the first, so it vanishes on the
    # whole lifting curve and every nodal resultant is zero.
    state = _state("vars x,y; y^2 - x; y^2 - x;", 2, 10007, point=(1,))
    curve = lift_curve(to_univariate(first_stage(state)), state.slp)
    with pytest.raises(ZeroResultantError):
        intersect_minimal_poly(curve, state.slp, 1, 2, state.rng)


def test_hensel_rejects_singular_jacobian():
    # (x^2 - 1)^2 has a vanishing derivative on its own zero set: the fiber
    # representation built on the squarefree part is a valid residual root
    # but the Newton lift must refuse it.
    slp = compose_affine(parse_system("vars x; (x^2 - 1)^2;"), AffineChange.identity(1))
    F = PrimeField(10007)
    rep = FiberRepresentation(
        stage=1,
        prim_var=0,
        point=(),
        min_poly=from_int_coeffs([-1, 0, 1], F),
        params={},
        form="univariate",
        ring=F,
    )
    with pytest.raises(JacobianNotInvertibleError):
        list(rungs(rep, slp, last=4))


def test_curve_lift_rejects_singular_jacobian_at_its_foot():
    # (y^2 - x)^2 at x = 1: Q = T^2 - 1 is squarefree and the residual
    # vanishes mod Q, but so does the Jacobian 4T(T^2 - 1).  The curve
    # lift's first step inverts det J over F_p[t]/(t), the foot of its
    # ladder, and refuses it there.
    slp = compose_affine(
        parse_system("vars x, y; (y^2 - x)^2;"), AffineChange.identity(2)
    )
    F = PrimeField(10007)
    rep = FiberRepresentation(
        stage=1,
        prim_var=1,
        point=(1,),
        min_poly=from_int_coeffs([-1, 0, 1], F),
        params={},
        form="univariate",
        ring=F,
    )
    with pytest.raises(JacobianNotInvertibleError):
        lift_curve(rep, slp)


@pytest.mark.parametrize(
    "source, stage",
    [("vars x, y; 3; x - y;", "stage 1"), ("vars x, y; x - y; 3;", "stage 2")],
)
def test_nonzero_constant_is_not_regular_in_either_place(source, stage):
    # A nonzero constant has no zeros whatever λ, point and prime are drawn:
    # the input is refused once, before any attempt draws.
    with pytest.raises(InputNotRegularError) as info:
        solve_over_rationals(parse_system(source), SolveConfiguration(seed=1))
    assert info.value.attempts == 0
    assert len(info.value.causes) == 1 and stage in info.value.causes[0]
    if stage == "stage 1":
        with pytest.raises(EmptyIntersectionError):
            first_stage(_state(source, 2, 10007, point=(1,)))
