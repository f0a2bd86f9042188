import random
from dataclasses import replace
from itertools import islice
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kronecker.errors import (
    DegreeDropError,
    EmptyIntersectionError,
    KroneckerError,
    NotInvertibleError,
    SingularMatrixError,
    UnluckyError,
)
from kronecker.rings import PrimeField, SeriesRing
from kronecker.slp import AffineChange, compose_affine, parse_system
from kronecker.solver import (
    FiberRepresentation,
    SolveState,
    _series_poly,
    first_stage,
    intersect_minimal_poly,
    intersect_parametrization,
    lift_curve,
    residuals,
    rungs,
    solve_mod_p,
    specialize_curve,
    to_kronecker,
    to_univariate,
)
from kronecker.verify import gate_stage

from reference.polys import from_int_coeffs
from reference.rings import ExtField

FBIG = PrimeField(10007)
IDENT2 = AffineChange.identity(2)


def composed(source, n):
    return compose_affine(parse_system(source), AffineChange.identity(n))


def make_state(source, n, prime=10007, point=None, seed=0):
    slp = composed(source, n)
    F = PrimeField(prime)
    if point is None:
        point = tuple(range(1, n))
    return SolveState(
        slp=slp,
        field=F,
        point=point,
        rng=random.Random(seed),
    )


# -- first stage ---------------------------------------------------------------


def test_first_stage_two_squares():
    state = make_state("vars x,y; x^2 + y^2 - 5;", 2, point=(1,))
    fiber = first_stage(state)
    assert fiber.min_poly == from_int_coeffs([-4, 0, 1], FBIG)
    assert fiber.params == {}
    assert fiber.prim_var == 1


def test_first_stage_linear():
    state = make_state("vars x,y; y - 9;", 2, point=(123,))
    fiber = first_stage(state)
    assert fiber.min_poly == from_int_coeffs([-9, 1], FBIG)


def test_first_stage_degree_drop():
    # leading coefficient of the primitive variable vanishes mod 7
    state = make_state("vars x,y; 7*y^2 + x*y - 1;", 2, prime=7, point=(2,))
    with pytest.raises(DegreeDropError):
        first_stage(state)


# -- form conversions ----------------------------------------------------------


def _fiber(min_poly, params, form, F=FBIG, stage=2, prim=0, point=()):
    return FiberRepresentation(
        stage=stage,
        prim_var=prim,
        point=point,
        min_poly=from_int_coeffs(min_poly, F),
        params={j: from_int_coeffs(w, F) for j, w in params.items()},
        form=form,
        ring=F,
    )


def test_to_univariate_divides_by_derivative():
    c = 11
    rep = _fiber([-1, 0, 1], {1: [0, 2 * c]}, "kronecker")
    uni = to_univariate(rep)
    assert uni.params[1] == from_int_coeffs([c], FBIG)


def test_to_univariate_zero_param():
    rep = _fiber([-1, 0, 1], {1: []}, "kronecker")
    assert to_univariate(rep).params[1] == ()


def test_to_univariate_non_squarefree_raises():
    rep = _fiber([1, 2, 1], {1: [1]}, "kronecker")  # (T+1)^2
    with pytest.raises(NotInvertibleError):
        to_univariate(rep)


def test_to_kronecker_multiplies_by_derivative():
    c = 5
    rep = _fiber([-1, 0, 1], {1: [c]}, "univariate")
    kron = to_kronecker(rep)
    assert kron.params[1] == from_int_coeffs([0, 2 * c], FBIG)


def test_conversion_roundtrip_random():
    rng = random.Random(0)
    for _ in range(10):
        deg = rng.randrange(2, 7)
        while True:
            q = from_int_coeffs(
                [rng.randrange(10007) for _ in range(deg)] + [1], FBIG
            )
            try:
                rep = _fiber([], {}, "univariate")
                rep = FiberRepresentation(
                    stage=2,
                    prim_var=0,
                    point=(),
                    min_poly=q,
                    params={
                        1: from_int_coeffs(
                            [rng.randrange(10007) for _ in range(deg - 1)],
                            FBIG,
                        )
                    },
                    form="univariate",
                    ring=FBIG,
                )
                back = to_univariate(to_kronecker(rep))
                break
            except NotInvertibleError:
                continue
        assert back.params == rep.params
        assert back.min_poly == rep.min_poly


# -- curve lifting ---------------------------------------------------------


def test_lift_curve_parabola_is_exact():
    # F = y^2 - x, fiber at x = 1: Q = T^2 - 1 lifts to T^2 - (1 + t)
    state = make_state("vars x,y; y^2 - x;", 2, point=(1,))
    fiber = to_univariate(first_stage(state))
    curve = lift_curve(fiber, state.slp)
    assert curve.min_poly == ((10006, 10006), (), (1,))
    assert curve.params == {}


def curve_ladder_foot(fiber):
    """A univariate fiber over F[t]/(t), its freed coordinate the series
    base_value + t: the foot of the ladder ``lift_curve`` climbs."""
    F = fiber.ring
    free = fiber.prim_var - 1
    moving = SeriesRing(F, 2).shifted_variable(fiber.point[free])
    return replace(
        fiber,
        point=fiber.point[:free] + (moving,),
        min_poly=_series_poly(fiber.min_poly, F),
        params={j: _series_poly(v, F) for j, v in fiber.params.items()},
        ring=SeriesRing(F, 1),
    )


def test_lift_curve_kappa_one_returns_fiber():
    # Mod t^1 the lifting curve is the fiber it was lifted from.
    state = make_state("vars x,y; y^2 - x;", 2, point=(1,))
    fiber = to_univariate(first_stage(state))
    curve = lift_curve(fiber, state.slp)
    assert tuple(c[:1] for c in curve.min_poly) == ((10006,), (), (1,))
    assert specialize_curve(curve, 1).min_poly == fiber.min_poly


def test_lift_curve_linear_system():
    # F = y - x, fiber at x = 1: T - 1 lifts to T - (1 + t)
    state = make_state("vars x,y; y - x;", 2, point=(1,))
    fiber = to_univariate(first_stage(state))
    curve = lift_curve(fiber, state.slp)
    assert curve.min_poly == ((10006, 10006), (1,))


def test_lift_curve_newton_doubles_precision():
    # Residual vanishes mod t^(2^k) after exactly k iterations.
    state = make_state("vars x,y; y^2 - x;", 2, point=(1,))
    fiber = to_univariate(first_stage(state))
    ladder = rungs(curve_ladder_foot(fiber), state.slp, last=8)
    for k, (precision, rep) in enumerate(islice(ladder, 4)):
        assert precision == 2**k
        assert not any(residuals(state.slp, rep))
    # δ = 2: the exact curve is reached at t^(δ+2) = t^4, in 2 iterations.
    assert lift_curve(fiber, state.slp).iterations == 2


# -- specialization ----------------------------------------------------------


def _parabola_curve():
    state = make_state("vars x,y; y^2 - x;", 2, point=(1,))
    return lift_curve(to_univariate(first_stage(state)), state.slp), state


def test_specialize_at_base_point():
    curve, _ = _parabola_curve()
    fib = specialize_curve(curve, 1)
    assert fib.min_poly == from_int_coeffs([-1, 0, 1], FBIG)


def test_specialize_at_shifted_point():
    curve, _ = _parabola_curve()
    fib = specialize_curve(curve, 4)  # t = 3: T^2 - 4
    assert fib.min_poly == from_int_coeffs([-4, 0, 1], FBIG)


def test_specialize_into_extension_field():
    curve, _ = _parabola_curve()
    L = ExtField(FBIG, from_int_coeffs([1, 0, 1], FBIG))
    fib = specialize_curve(curve, L.gen, into=L)
    # Q(a - 1, T) = T^2 - a with a the class of x in F_p[x]/(x^2+1)
    assert fib.min_poly == (L.neg(L.gen), L.zero, L.one)
    assert fib.ring is L


# -- intersection ------------------------------------------------------------


def _two_quadrics_curve(seed=0):
    state = make_state(
        "vars x,y; x^2 + y^2 - 5; x*y - 2;", 2, point=(0,), seed=seed
    )
    fiber = to_univariate(first_stage(state))
    return lift_curve(fiber, state.slp), state


def test_intersect_minimal_poly_two_quadrics():
    curve, state = _two_quadrics_curve()
    q2, _ = intersect_minimal_poly(curve, state.slp, 1, 2, state.rng)
    assert q2 == from_int_coeffs([4, 0, -5, 0, 1], FBIG)


def test_intersect_unit_polynomial_is_empty():
    state = make_state("vars x,y; x^2 + y^2 - 5; 1;", 2, point=(0,))
    curve = lift_curve(to_univariate(first_stage(state)), state.slp)
    with pytest.raises(EmptyIntersectionError):
        intersect_minimal_poly(curve, state.slp, 1, 1, state.rng)


def test_intersect_linear_pair_single_point():
    # x + y - 3 and x - y - 1 meet at (2, 1); primitive variable is x.
    state = make_state("vars x,y; x + y - 3; x - y - 1;", 2, point=(5,))
    curve = lift_curve(to_univariate(first_stage(state)), state.slp)
    q2, _ = intersect_minimal_poly(curve, state.slp, 1, 1, state.rng)
    assert q2 == from_int_coeffs([-2, 1], FBIG)


def test_intersect_parametrization_two_quadrics():
    curve, state = _two_quadrics_curve()
    q2, samples = intersect_minimal_poly(curve, state.slp, 1, 2, state.rng)
    uni = to_univariate(intersect_parametrization(curve, q2, samples))
    # V_y interpolates (1,2), (-1,-2), (2,1), (-2,-1): (5T - T^3)/2
    half = FBIG.inv(2)
    want = from_int_coeffs([0, 5 * half, 0, -half], FBIG)
    assert uni.params[1] == want
    assert uni.prim_var == 0
    assert uni.point == ()


def test_intersect_parametrization_single_rational_factor():
    state = make_state("vars x,y; x + y - 3; x - y - 1;", 2, point=(5,))
    curve = lift_curve(to_univariate(first_stage(state)), state.slp)
    q2, samples = intersect_minimal_poly(curve, state.slp, 1, 1, state.rng)
    uni = to_univariate(intersect_parametrization(curve, q2, samples))
    assert uni.min_poly == from_int_coeffs([-2, 1], FBIG)
    assert uni.params[1] == from_int_coeffs([1], FBIG)  # y = 1


def test_intersect_two_points_over_one_value_is_unlucky():
    # x = 1 meets the circle at (1, 2) and (1, -2): two points over one
    # value of the new primitive variable x, so Q_new = (x - 1)^2.
    state = make_state("vars x,y; x^2 + y^2 - 5; x - 1;", 2, point=(0,))
    curve = lift_curve(to_univariate(first_stage(state)), state.slp)
    q2, samples = intersect_minimal_poly(curve, state.slp, 1, 1, state.rng)
    assert q2 == from_int_coeffs([1, -2, 1], FBIG)
    fiber = intersect_parametrization(curve, q2, samples)
    assert fiber.stage == 2 and fiber.min_poly == q2
    with pytest.raises(UnluckyError, match="squarefree"):
        gate_stage(fiber)


# -- full modular solve -------------------------------------------------------


def test_solve_mod_p_univariate():
    state = make_state("vars x; x^2 - 1;", 1, prime=7, point=())
    fiber = solve_mod_p(state)
    F7 = PrimeField(7)
    assert fiber.min_poly == from_int_coeffs([-1, 0, 1], F7)
    assert state.stage_degrees == [2]


@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(0, 2**32 - 1)
)
def test_stage_degrees_stay_within_the_bezout_numbers(degrees, seed):
    # No stage check bounds the degrees: stage 1 keeps d_1 or raises
    # DegreeDropError, and stage s interpolates through d_s·δ_(s-1) + 1
    # nodes, so δ_s <= d_1···d_s whenever the solve returns.
    from test_acceptance import _random_dense_system

    rng = random.Random(seed)
    n = len(degrees)
    slp = parse_system(_random_dense_system(n, degrees, rng))
    try:
        change = AffineChange.from_matrix(
            [[rng.randrange(101) for _ in range(n)] for _ in range(n)]
        )
    except SingularMatrixError:
        return
    state = SolveState(
        slp=compose_affine(slp, change),
        field=FBIG,
        point=tuple(rng.randrange(100) for _ in range(n - 1)),
        rng=rng,
    )
    try:
        solve_mod_p(state)
    except KroneckerError:
        return
    assert state.stage_degrees[0] == degrees[0]
    for s in range(n):
        assert state.stage_degrees[s] <= prod(degrees[: s + 1])


def test_solve_mod_p_two_quadrics():
    state = make_state("vars x,y; x^2 + y^2 - 5; x*y - 2;", 2, point=(0,))
    fiber = solve_mod_p(state)
    assert fiber.min_poly == from_int_coeffs([4, 0, -5, 0, 1], FBIG)
    assert state.stage_degrees == [2, 4]
    # Kronecker form: W = Q' V mod Q with V the cubic interpolant
    uni = to_univariate(fiber)
    half = FBIG.inv(2)
    assert uni.params[1] == from_int_coeffs([0, 5 * half, 0, -half], FBIG)


def test_solve_mod_p_residuals_vanish_every_stage():
    # A mixing change of variables keeps each stage generic.
    slp = parse_system(
        "vars x,y,z; x^2 + y - z - 3; x*y + z^2 - 7; x + y + z - 4;"
    )
    change = AffineChange.from_matrix([[3, 1, 2], [1, 4, 1], [2, 1, 5]])
    state = SolveState(
        slp=compose_affine(slp, change),
        field=FBIG,
        point=(1, 2),
        rng=random.Random(9),
    )
    fiber = solve_mod_p(state)
    vals = residuals(state.slp, fiber)
    assert all(v == () for v in vals)
    budgets = [2, 4, 4]
    for s, d in enumerate(state.stage_degrees, start=1):
        assert d <= budgets[s - 1]


def test_empty_input_rejected_at_parse():
    from kronecker.errors import ParseError

    with pytest.raises(ParseError):
        parse_system("vars x;")
