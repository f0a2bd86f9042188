"""Staged modular solver: produces the Kronecker representation of the
zero-dimensional lifting fiber of the input system over F_p.

The pipeline runs one stage per input polynomial.  Stage 1 is a univariate
normalization of the first polynomial.  Each later round converts the current
fiber to univariate form, Newton-lifts it to a one-dimensional curve in the
freed coordinate, and intersects the curve with the next polynomial through a
specialize-and-interpolate resultant.  The same nodes give the new fiber's
Kronecker parametrizations, as the derivatives of that resultant in a
perturbed primitive element t - s·y: no factorization, and arithmetic over
F_p only.

Variable indexing is 0-based throughout: at stage s the free variables are
Y_0..Y_{n-s-1} (pinned to the lifting point), the primitive variable is
Y_{n-s}, and the parametrized variables are Y_{n-s+1}..Y_{n-1}.
"""

import random
from dataclasses import dataclass, field, replace

from .errors import (
    DegreeDropError,
    EmptyIntersectionError,
    JacobianNotInvertibleError,
    NodeExhaustionError,
    NotInvertibleError,
    ResidualNonzeroError,
    UnluckyError,
    ZeroResultantError,
)
from .polys import (
    charpoly_division_free,
    charpoly_horner,
    degree,
    interpolate,
    monic,
    normalize,
    poly_deriv,
    poly_eval,
    rem_monic,
    resultant_and_inverse,
)
from .rings import PolyQuotient, PolyRing, SeriesRing
from .slp import evaluate, evaluate_jacobian


@dataclass(frozen=True)
class FiberRepresentation:
    """Monic minimal polynomial plus parametrizations of a lifting fiber.

    ``form`` is "kronecker" (params are the cleared-denominator numerators
    W_j with Q'*Y_j = W_j) or "univariate" (params are the direct values V_j
    with Y_j = V_j).  ``params`` maps a variable index to its coefficient
    tuple over ``ring``; the primitive variable itself is never listed.
    """

    stage: int
    prim_var: int
    point: tuple
    min_poly: tuple
    params: dict
    form: str
    ring: object

    @property
    def fiber_degree(self):
        return degree(self.min_poly)


@dataclass(frozen=True)
class CurveRepresentation:
    """Kronecker representation of the lifting curve at one stage.

    Bivariate data is stored T-major: coefficient i of T^i is a tuple of
    base-field elements in ascending powers of t, where t is the freed
    coordinate shifted by its base value.
    """

    stage: int
    prim_var: int
    free_var: int
    base: tuple
    base_value: int
    min_poly: tuple
    params: dict
    field: object
    iterations: int = 0

    @property
    def fiber_degree(self):
        return len(self.min_poly) - 1


@dataclass
class SolveState:
    """Mutable bookkeeping for one modular solve attempt; ``slp`` is the
    program composed with the attempt's λ, its ``transform``."""

    slp: object
    field: object
    point: tuple
    rng: random.Random
    stage_degrees: list = field(default_factory=list)


def embed_scalar(A, x):
    if isinstance(x, int):
        return A.from_int(x)
    return A.embed(x)


def fiber_coordinates(n, prim_var, point, params, A):
    """Coordinate vector substituting the fiber parametrization into Y."""
    coords = [embed_scalar(A, x) for x in point[:prim_var]] + [A.gen]
    return coords + [params[j] for j in range(prim_var + 1, n)]


def residuals(slp, rep):
    """Values of the first ``rep.stage`` outputs on the fiber of ``rep``, in
    either form, over R[T]/(Q) for a field or a local ring R.  Raises
    NotInvertibleError when Q is not squarefree."""
    uni = to_univariate(rep)
    A = PolyQuotient(uni.ring, uni.min_poly)
    coords = fiber_coordinates(slp.n_vars, uni.prim_var, uni.point, uni.params, A)
    return evaluate(slp, coords, A, n_out=uni.stage)


def checked_residuals(slp, rep):
    """``residuals`` and the univariate form they were evaluated on, from
    the one pass that also gives the Jacobian J in the fiber's coordinates:
    when they vanish and det J is not a unit mod Q, raises
    JacobianNotInvertibleError."""
    uni = to_univariate(rep)
    A = PolyQuotient(uni.ring, uni.min_poly)
    prim, n = uni.prim_var, slp.n_vars
    coords = fiber_coordinates(n, prim, uni.point, uni.params, A)
    vals, jac = evaluate_jacobian(slp, coords, A, range(prim, n), n_out=uni.stage)
    if not any(vals):
        try:
            A.inv(charpoly_division_free(jac, A)[-1])
        except NotInvertibleError:
            raise JacobianNotInvertibleError(uni.stage) from None
    return vals, uni


def first_stage(state):
    """Stage-1 fiber: the first polynomial specialized at the lifting point,
    made monic in the last variable.  A nonzero constant first polynomial
    has no zeros, whatever the random choices: EmptyIntersectionError."""
    slp = state.slp
    if slp.degrees[0] == 0:
        raise EmptyIntersectionError(
            "stage 1: the first polynomial is a nonzero constant"
        )
    F = state.field
    n = slp.n_vars
    PR = PolyRing(F)
    coords = list(state.point[: n - 1]) + [PR.gen]
    q = evaluate(slp, coords, PR, n_out=1)[0]
    d1 = slp.degrees[0]
    if degree(q) != d1:
        raise DegreeDropError(
            1, f"specialized degree {degree(q)} dropped below {d1}"
        )
    return FiberRepresentation(
        stage=1,
        prim_var=n - 1,
        point=tuple(state.point),
        min_poly=monic(q, F),
        params={},
        form="kronecker",
        ring=F,
    )


def to_univariate(rep):
    """Kronecker -> univariate: V_j = Q'^{-1} W_j mod Q, over a field or a
    local ring (needs Q squarefree, mod the maximal ideal for a local ring;
    raises NotInvertibleError otherwise)."""
    if rep.form == "univariate":
        return rep
    A = PolyQuotient(rep.ring, rep.min_poly)
    inv = A.inv(poly_deriv(rep.min_poly, rep.ring))
    params = {j: A.mul(inv, w) for j, w in rep.params.items()}
    return replace(rep, params=params, form="univariate")


def to_kronecker(rep):
    """Univariate -> Kronecker: W_j = Q' V_j mod Q."""
    if rep.form == "kronecker":
        return rep
    A = PolyQuotient(rep.ring, rep.min_poly)
    qp = poly_deriv(rep.min_poly, rep.ring)
    params = {j: A.mul(qp, v) for j, v in rep.params.items()}
    return replace(rep, params=params, form="kronecker")


# -- linear algebra over quotient rings --------------------------------------


def solve_linear(mat, rhs, A):
    """Solve M·x = b for an s x s matrix M over a commutative ring A, as
    x = -(M^(s-1) b + c_1 M^(s-2) b + ... + c_(s-1) b) / c_s by
    Cayley–Hamilton, with det(x·I - M) = x^s + c_1 x^(s-1) + ... + c_s.
    The one inverse is of c_s = ±det M, so only det M must be a unit: over
    the Newton step's R[T]/(Q), an invertible M may have no unit in a
    column.  Raises NotInvertibleError when det M is not a unit."""
    coeffs = charpoly_division_free(mat, A)
    neg_inv = A.neg(A.inv(coeffs[-1]))
    return [A.mul(neg_inv, v) for v in charpoly_horner(mat, coeffs, rhs, A)]


# -- Newton lifting -----------------------------------------------------------


def newton_step(slp, rep, R):
    """One primitive-element-corrected Newton step of a univariate fiber
    over a local ring; returns the fiber over ``R``.

    ``rep`` is over the local ring at precision k (``rep.ring.nilpotency``:
    its t-adic order or p-adic exponent), and ``R`` is the same ring at the
    new precision m, with k < m <= 2k: a ``SeriesRing`` to lift the lifting
    curve t-adically (the freed coordinate is then the point entry
    ``base_value + t``), a ``ResidueRing`` to lift the final fiber
    p-adically.

    Only the value pass runs at precision m.  Reduced to precision k, the
    values F of the first ``stage`` outputs are their values on the input
    fiber, and must vanish: that is the residual check of the input, read
    off the value pass truncated to precision k rather than run through
    ``residuals``.  So π^k divides F (π = p or t), and the correction J⁻¹F
    is π^k times J⁻¹(F/π^k), which is needed only to precision m - k.  The
    tangent passes, the Jacobian J and the linear solve run there; the
    correction is multiplied back by π^k.  With m <= 2k, the update
    products q'·e and n_j'·e of the primitive element correction e = π^k·ê
    are π^k times q'·ê and n_j'·ê mod q at precision m - k, where q_new ≡
    q, so they are formed there too.  The returned fiber is checked by the
    next step, if one is taken, or downstream (see ``rungs``).
    """
    n = slp.n_vars
    stage, prim, q = rep.stage, rep.prim_var, rep.min_poly
    k = rep.ring.nilpotency
    A = PolyQuotient(R, q)
    low = A.at_precision(R.nilpotency - k)
    coords = fiber_coordinates(n, prim, rep.point, rep.params, A)
    vals, jac = evaluate_jacobian(
        slp, coords, A, list(range(prim, n)), n_out=stage, tangent_ring=low
    )
    Rk = R.at_precision(k)
    if any(Rk.truncate(v) for v in vals):
        raise ResidualNonzeroError(f"stage {stage} residual nonzero over {Rk!r}")
    rhs = [low.base.shift_down(v, k) for v in vals]
    try:
        corr = solve_linear(jac, rhs, low)
    except NotInvertibleError:
        raise JacobianNotInvertibleError(stage) from None
    e_hat = low.neg(corr[0])

    def times_e(f):
        df = low.base.truncate(poly_deriv(f, R))
        return R.shift_up(low.mul(df, e_hat), k)

    q_new = A.sub(q, times_e(q))
    new_params = {}
    for j, v in rep.params.items():
        nj = A.sub(v, R.shift_up(corr[j - prim], k))
        new_params[j] = A.sub(nj, times_e(nj))
    return replace(rep, min_poly=q_new, params=new_params, ring=R)


def rungs(rep, slp, last):
    """The precision ladder of a univariate fiber over a local ring at
    precision 1: yields (precision, fiber) for precisions 1, 2, 4, ...,
    each doubling capped at ``last``, where the ladder stops.  Each further
    rung costs one ``newton_step``, taken only when it is asked for.

    A rung is residual-checked only by the step that leaves it: a step from
    a checked rung with an invertible Jacobian is exact to the doubled
    precision (Giusti-Lecerf-Salvy).  The rung the ladder stops at is
    checked downstream: by the next fiber's step, or the acceptance check."""
    while True:
        k = rep.ring.nilpotency
        yield k, rep
        if k == last:
            return
        rep = newton_step(slp, rep, rep.ring.at_precision(min(2 * k, last)))


# -- curve lifting ------------------------------------------------------------


def _series_poly(coeffs, F):
    return tuple(() if F.is_zero(c) else (c,) for c in coeffs)


def lift_curve(fiber, slp):
    """Newton-lift a univariate fiber along its freed coordinate.

    Climbs ``rungs`` over F[t]/(t^k) from k = 1 to the target precision
    δ + 2 (fiber degree δ): each step doubles k, re-normalizing the minimal
    polynomial and the parametrizations through the first-order primitive
    element correction; ``iterations`` counts the steps.  The returned
    Kronecker curve is exact: its coefficients have t-degree at most δ,
    which the guard coefficient t^(δ+1) checks.  The first step checks the
    fiber itself, its residual and its Jacobian mod (p, Q); the last rung is
    checked through the next fiber, cut from the curve (see ``rungs``).
    """
    fiber = to_univariate(fiber)
    F = fiber.ring
    s = fiber.stage
    prim = fiber.prim_var
    free = prim - 1
    if free < 0:
        raise ValueError("stage leaves no coordinate to free")
    delta = fiber.fiber_degree
    target = delta + 2
    base = fiber.point[:free]
    base_value = fiber.point[free]

    # The freed coordinate base_value + t, trimmed to the target: it is then
    # exact at every precision the Newton steps and the final check use.
    start = replace(
        fiber,
        point=base + (SeriesRing(F, target).shifted_variable(base_value),),
        min_poly=_series_poly(fiber.min_poly, F),
        params={j: _series_poly(v, F) for j, v in fiber.params.items()},
        ring=SeriesRing(F, 1),
    )
    for iters, (_, rep) in enumerate(rungs(start, slp, last=target)):
        pass
    kron = to_kronecker(rep)
    for poly_ts in (kron.min_poly, *kron.params.values()):
        if any(degree(c) > delta for c in poly_ts):
            raise UnluckyError(s, "curve coefficients exceed the degree guard")
    return CurveRepresentation(
        stage=s,
        prim_var=prim,
        free_var=free,
        base=base,
        base_value=base_value,
        min_poly=kron.min_poly,
        params=kron.params,
        field=F,
        iterations=iters,
    )


def specialize_curve(curve, a, into=None):
    """Substitute a value for the freed coordinate of the curve.

    ``a`` may be a base-field element or an element of an extension field
    passed as ``into``; the result is a Kronecker fiber over that field.
    """
    K = into if into is not None else curve.field
    value = K.from_int(a) if isinstance(a, int) else a
    ta = K.sub(value, K.from_int(curve.base_value))

    def eval_ts(poly_ts):
        out = []
        for c in poly_ts:
            acc = K.zero
            for coeff in reversed(c):
                acc = K.add(K.mul(acc, ta), embed_scalar(K, coeff))
            out.append(acc)
        return normalize(out, K)

    point = curve.base + (a,)
    return FiberRepresentation(
        stage=curve.stage,
        prim_var=curve.prim_var,
        point=point,
        min_poly=eval_ts(curve.min_poly),
        params={j: eval_ts(w) for j, w in curve.params.items()},
        form="kronecker",
        ring=K,
    )


# -- intersection step --------------------------------------------------------


def _at_node(poly_ts, ta, F):
    """Value and t-derivative at t = ta of a T-major bivariate polynomial."""
    vals = []
    ders = []
    for c in poly_ts:
        v = d = F.zero
        for coeff in reversed(c):
            d = F.add(F.mul(d, ta), v)
            v = F.add(F.mul(v, ta), coeff)
        vals.append(v)
        ders.append(d)
    return normalize(vals, F), normalize(ders, F)


def _next_on_curve(curve, a, slp, out_index):
    """The curve over its freed coordinate = a, to first order along t, and
    the output ``out_index`` on it.

    Returns A = F_p[T]/(q_a), the numerators q_T·y_v in A of the fiber's
    coordinates T and Y_j = W_j/q_T, and g = F_out_index on the fiber with
    g' its derivative along the curve: one value pass and one tangent pass
    in the direction of the coordinates' derivatives (T' = -q_t/q_T, and
    Y_j' from differentiating W_j = q_T Y_j), read off the exact bivariate
    data.  Raises NotInvertibleError where q_a is not squarefree.
    """
    F = curve.field
    ta = F.sub(F.from_int(a), F.from_int(curve.base_value))
    q, q_t = _at_node(curve.min_poly, ta, F)
    A = PolyQuotient(F, q)
    q_T = poly_deriv(q, F)
    inv_qT = A.inv(q_T)
    dT = A.neg(A.mul(q_t, inv_qT))
    dq_T = A.add(poly_deriv(q_t, F), A.mul(poly_deriv(q_T, F), dT))
    coords = [embed_scalar(A, x) for x in curve.base + (a,)] + [A.gen]
    direction = [A.zero] * curve.free_var + [A.one, dT]
    numerators = [A.mul(A.gen, q_T)]
    for j in sorted(curve.params):
        w, w_t = _at_node(curve.params[j], ta, F)
        y = A.mul(w, inv_qT)
        dw = A.add(w_t, A.mul(poly_deriv(w, F), dT))
        coords.append(y)
        direction.append(A.mul(A.sub(dw, A.mul(y, dq_T)), inv_qT))
        numerators.append(w)
    vals, rows = evaluate_jacobian(
        slp, coords, A, [direction], n_out=(out_index,)
    )
    return A, numerators, vals[0], rows[0][0]


def intersect_minimal_poly(curve, slp, out_index, next_degree, rng):
    """Minimal polynomial of the freed coordinate on the next-stage fiber,
    and the node samples its parametrizations are interpolated from.

    At each node a the next polynomial gives g = f on the specialized fiber
    A = F_p[T]/(q_a) and g' = df/dt along the curve.  R(a) = Res(q_a, g) is
    interpolated to c·Q_new, normalized to monic.  A sample is (a, tr) with
    tr[v] = Tr_A(y_v·g'/g) for each coordinate y_v of the curve's fiber (T
    and the Y_j): then R(a)·tr[v] is the derivative in s at s = 0 of the
    resultant in the perturbed primitive element t - s·y_v, see
    ``intersect_parametrization``.  One remainder sequence of (q_a, g)
    gives both R(a) and 1/g (``polys.resultant_and_inverse``), and the
    trace is Euler's: Tr_A(h/q_T) is the coefficient of T^(δ-1) of h mod
    q_a, so tr[v] is that of (q_T·y_v)·g'/g.

    A node where q_a is not squarefree (ramified) or g is not a unit (R(a)
    = 0: a shared root, or g = 0) is skipped; dδ + 1 zero resultants mean
    R vanishes identically.  These skips stay local rather than restarting
    the attempt: at a small pinned prime such as 10007 a few of the dδ + 1
    nodes are expected to be bad, and any unused node will do in their
    place.
    """
    F = curve.field
    delta = curve.fiber_degree
    needed = next_degree * delta + 1
    if F.p <= needed:
        raise NodeExhaustionError(
            curve.stage, f"prime {F.p} too small for {needed} nodes"
        )
    cap = min(4 * needed, F.p)
    tried = set()
    values = []
    samples = []
    zeros = 0
    while len(samples) < needed and len(tried) < cap:
        a = rng.randrange(F.p)
        if a in tried:
            continue
        tried.add(a)
        try:
            A, numerators, g, dg = _next_on_curve(curve, a, slp, out_index)
        except NotInvertibleError:
            continue  # bad node: specialized fiber is ramified here
        r, inv_g = resultant_and_inverse(A.modulus, g, F)
        if inv_g is None:
            zeros += 1
            if zeros == needed:
                raise ZeroResultantError(curve.stage)
            continue
        ratio = A.mul(dg, inv_g)
        tr = {}
        for v, w in enumerate(numerators, curve.prim_var):
            h = A.mul(w, ratio)
            tr[v] = h[delta - 1] if len(h) == delta else F.zero
        values.append((a, r))
        samples.append((a, tr))
    if len(samples) < needed:
        raise NodeExhaustionError(curve.stage)
    result = interpolate(values, F)
    if degree(result) < 1:
        raise EmptyIntersectionError(
            f"stage {curve.stage + 1} intersection is empty"
        )
    return monic(result, F), samples


def intersect_parametrization(curve, new_min_poly, samples):
    """Kronecker parametrizations of the next-stage fiber, from the node
    samples of ``intersect_minimal_poly``.

    With R = c·Q_new, S_v = R·tr[v] is the derivative in s at s = 0 of the
    resultant in the primitive element t - s·y_v, whose roots are t(P) -
    s·y_v(P) over the new fiber's points P.  So S_v has degree <= dδ and
    S_v/c ≡ Σ_P y_v(P)·∏_{P'≠P}(t - t(P')) ≡ Q_new'·y_v mod Q_new when
    Q_new is squarefree: the samples Q_new(a)·tr[v] = S_v(a)/c interpolate
    S_v/c, whose remainder mod Q_new is the Kronecker numerator W_v.  Two
    points over one t make Q_new not squarefree, an unlucky choice that
    ``verify.gate_stage`` rejects on the returned fiber.
    """
    F = curve.field
    scale = [poly_eval(new_min_poly, a, F) for a, _ in samples]
    params = {}
    for v in samples[0][1]:
        points = [(a, F.mul(c, tr[v])) for (a, tr), c in zip(samples, scale)]
        params[v] = rem_monic(interpolate(points, F), new_min_poly, F)
    return FiberRepresentation(
        stage=curve.stage + 1,
        prim_var=curve.free_var,
        point=curve.base,
        min_poly=new_min_poly,
        params=params,
        form="kronecker",
        ring=F,
    )


# -- full modular pipeline ----------------------------------------------------


def solve_mod_p(state):
    """Run all stages over F_p and return the final Kronecker fiber.

    Every stage is gated by ``verify.gate_stage`` on the squarefreeness of
    its Q, which raises a restartable UnluckyError.  The construction makes
    Q monic and bounds its degree: stage 1 has degree d_1 or raises
    DegreeDropError, and stage s + 1 interpolates through d_(s+1)·δ_s + 1
    nodes, so δ_(s+1) <= d_1···d_(s+1).  The residual and Jacobian of a
    fiber below the last stage are checked by the first step of its
    ``lift_curve``, and the curve's last rung through the next fiber; those
    of the returned fiber are left to its caller: the first p-adic step, or
    ``solve_modular``'s check.
    """
    from . import verify

    slp = state.slp
    fiber = first_stage(state)
    state.stage_degrees = [fiber.fiber_degree]
    verify.gate_stage(fiber)
    for s in range(1, slp.n_outputs):
        curve = lift_curve(fiber, slp)
        q_next, samples = intersect_minimal_poly(
            curve, slp, s, slp.degrees[s], state.rng
        )
        fiber = intersect_parametrization(curve, q_next, samples)
        state.stage_degrees.append(fiber.fiber_degree)
        verify.gate_stage(fiber)
    return fiber
