"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the suite is deterministic (fixed seeds throughout).
"""

import itertools
import json
import random
import time
from fractions import Fraction
from math import gcd, prod

import pytest

from kronecker.bounds import degree_budget, sample_bounds
from kronecker.cli import run as cli_run
from kronecker.errors import KroneckerError, NoReconstructionError
from kronecker.padic import SolveConfiguration, solve_over_rationals
from kronecker.polys import (
    degree,
    factor_squarefree,
    interpolate,
    monic,
    poly_eval,
    rational_reconstruct,
    resultant,
)
from kronecker.primes import is_probable_prime, random_prime_avoiding
from kronecker.rings import PrimeField, coerce
from kronecker.slp import (
    AffineChange,
    compose_affine,
    evaluate,
    parse_system,
)
from kronecker.solver import (
    SolveState,
    first_stage,
    lift_curve,
    residuals,
    rungs,
    solve_mod_p,
    to_univariate,
)
from kronecker.verify import check_representation

from reference.oracle import (
    brute_force_fiber,
    brute_force_fiber_ext,
    mulmat_charpoly,
)
from reference.polys import from_int_coeffs
from reference.rings import ExtField
from test_solver import curve_ladder_foot

_MAX_EXT_SCAN = 10**7


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


# -- random dense systems -------------------------------------------------------


def _monomials(n, d):
    for exps in itertools.product(range(d + 1), repeat=n):
        if sum(exps) <= d:
            yield exps


def _dense_poly_text(names, d, rng):
    terms = []
    top_seen = False
    for exps in _monomials(len(names), d):
        c = rng.randint(-10, 10)
        if c == 0:
            continue
        if sum(exps) == d:
            top_seen = True
        factors = [str(c)]
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        terms.append("*".join(factors))
    if not top_seen or not terms:
        return None
    return " + ".join(terms).replace("+ -", "- ")


def _random_dense_system(n, degrees, rng):
    names = ["x", "y", "z", "w"][:n]
    lines = []
    for d in degrees:
        while True:
            text = _dense_poly_text(names, d, rng)
            if text is not None:
                break
        lines.append(text)
    return "vars " + ",".join(names) + "; " + "; ".join(lines) + ";"


# -- criterion 1 ----------------------------------------------------------------


def test_criterion_1_end_to_end_exact_two_quadrics():
    started = time.time()
    slp = parse_system("vars x,y; x^2 + y^2 - 5; x*y - 2;")
    cfg = SolveConfiguration(
        mode="provable", seed=42, lambda_matrix=((1, 0), (0, 1))
    )
    rep, cert = solve_over_rationals(slp, cfg)
    elapsed = time.time() - started
    assert rep.min_poly == tuple(Fraction(c) for c in (4, 0, -5, 0, 1))
    uni = to_univariate(rep)
    v_y = uni.params[1]
    from kronecker.rings import QQ

    for t_val, y_val in [(1, 2), (-1, -2), (2, 1), (-2, -1)]:
        assert poly_eval(v_y, Fraction(t_val), QQ) == y_val
    assert cert.verification["passed"]
    assert cert.exact_checked
    assert elapsed < 1.0
    _report(1, f"Q = T^4-5T^2+4 exactly, {elapsed:.3f}s")


# -- criteria 2 and 3 -------------------------------------------------------------


@pytest.fixture(scope="module")
def residual_suite():
    rng = random.Random(20260811)
    results = []
    regenerated = 0
    started = time.time()
    while len(results) < 100:
        n = rng.choice([1, 2, 3])
        degrees = [rng.choice([1, 2, 3]) for _ in range(n)]
        source = _random_dense_system(n, degrees, rng)
        slp = parse_system(source)
        cfg = SolveConfiguration(seed=rng.randrange(2**32))
        try:
            rep, cert = solve_over_rationals(slp, cfg)
        except KroneckerError:
            regenerated += 1
            if regenerated > 200:
                raise
            continue
        results.append((slp, rep, cert))
    elapsed = time.time() - started
    return results, regenerated, elapsed


def test_criterion_2_residual_suite(residual_suite):
    results, regenerated, elapsed = residual_suite
    accepted = 0
    total_attempts = 0
    successes = 0
    check_started = time.time()
    for slp, rep, cert in results:
        assert cert.attempts <= 5
        composed = compose_affine(slp, AffineChange.from_matrix(cert.lam))
        report = check_representation(rep, composed, exact=True)
        assert report.passed, report.failed_clauses()
        accepted += 1
        total_attempts += cert.attempts
        successes += 1
    elapsed += time.time() - check_started  # solves plus exact verification
    assert accepted >= 95
    # Per-attempt success rate over at least 200 attempts.
    rng = random.Random(77)
    while total_attempts < 200:
        n = rng.choice([1, 2, 3])
        degrees = [rng.choice([1, 2, 3]) for _ in range(n)]
        slp = parse_system(_random_dense_system(n, degrees, rng))
        cfg = SolveConfiguration(seed=rng.randrange(2**32), retries=1)
        total_attempts += 1
        try:
            solve_over_rationals(slp, cfg)
            successes += 1
        except KroneckerError:
            pass
    rate = successes / total_attempts
    assert rate >= 0.53
    assert elapsed < 60.0
    _report(
        2,
        f"{accepted}/100 accepted exactly, rate {rate:.3f} over "
        f"{total_attempts} attempts, {elapsed:.1f}s, {regenerated} regenerated",
    )


def test_criterion_3_bezout_conformance(residual_suite):
    results, _, _ = residual_suite
    generic_equal = 0
    checked = 0
    for slp, rep, cert in results:
        budgets = [prod(slp.degrees[: s + 1]) for s in range(len(slp.degrees))]
        for s, deg_s in enumerate(cert.stage_degrees):
            assert deg_s <= budgets[s]
        checked += 1
        if all(
            deg_s == budgets[s] for s, deg_s in enumerate(cert.stage_degrees)
        ):
            generic_equal += 1
    assert generic_equal >= 0.8 * checked
    _report(3, f"equality on {generic_equal}/{checked} instances")


# -- criterion 4 ----------------------------------------------------------------


def test_criterion_4_newton_doubling():
    F = PrimeField(10007)
    slp = compose_affine(
        parse_system("vars x,y; y^2 - x;"), AffineChange.identity(2)
    )
    state = SolveState(
        slp=slp,
        field=F,
        point=(1,),
        rng=random.Random(0),
    )
    fiber = to_univariate(first_stage(state))
    ladder = rungs(curve_ladder_foot(fiber), slp, last=16)
    for k, (precision, rep) in enumerate(itertools.islice(ladder, 5)):
        assert precision == 2**k
        assert not any(residuals(slp, rep))  # the residual vanishes mod t^(2^k)
    curve = lift_curve(fiber, slp)
    assert curve.min_poly == ((10006, 10006), (), (1,))  # T^2 - (1 + t)
    assert curve.iterations == 2  # t^(δ+2) = t^4
    _report(4, "k iterations reach t^(2^k); the curve T^2-(1+t) in 2 of them")


# -- criterion 5 ----------------------------------------------------------------


def _random_bivariate(rng, F, deg_t, deg_T, monic_top):
    coeffs = []
    for i in range(deg_T + 1):
        if i == deg_T and monic_top:
            coeffs.append((1,))
        else:
            coeffs.append(
                from_int_coeffs(
                    [rng.randrange(F.p) for _ in range(deg_t + 1)], F
                )
            )
    return coeffs


def _specialize_bivariate(coeffs, a, F):
    return from_int_coeffs([poly_eval(c, a, F) for c in coeffs], F)


def test_criterion_5_resultant_matches_multiplication_matrix():
    rng = random.Random(64)
    F = PrimeField(10007)
    for trial in range(50):
        delta = rng.randrange(1, 7)
        q = _random_bivariate(rng, F, 2, delta, monic_top=True)
        h = _random_bivariate(rng, F, 2, max(delta - 1, 0), monic_top=False)
        nodes = rng.sample(range(F.p), 4 * delta + 1)
        res_samples = []
        chi_samples = []
        sign = F.one if delta % 2 == 0 else F.neg(F.one)
        for a in nodes:
            qa = _specialize_bivariate(q, a, F)
            ha = _specialize_bivariate(h, a, F)
            res_samples.append((a, resultant(qa, ha, F)))
            chi = mulmat_charpoly(ha, qa, F)
            const = chi[0] if chi else F.zero
            chi_samples.append((a, F.mul(sign, const)))
        r1 = interpolate(res_samples, F)
        r2 = interpolate(chi_samples, F)
        assert r1 == r2
        if r1:
            assert monic(r1, F) == monic(r2, F)
    _report(5, "50 random instances, interpolants identical")


# -- criterion 6 ----------------------------------------------------------------


def _solve_small_prime(slp, prime, rng, tries=12):
    n = slp.n_vars
    for _ in range(tries):
        rows = [[rng.randrange(prime) for _ in range(n)] for _ in range(n)]
        try:
            change = AffineChange.from_matrix(rows)
        except KroneckerError:
            continue
        if change.det % prime == 0:
            continue
        point = tuple(rng.randrange(prime) for _ in range(n - 1))
        state = SolveState(
            slp=compose_affine(slp, change),
            field=PrimeField(prime),
            point=point,
            rng=rng,
        )
        try:
            return solve_mod_p(state), change, point
        except KroneckerError:
            continue
    return None


def _closure_count_matches(slp, change, fiber, prime):
    """Check factor degrees against exhaustive counts over extensions."""
    F = fiber.ring
    n = slp.n_vars
    factors = factor_squarefree(fiber.min_poly, F, random.Random(0))
    assert sum(degree(q) for q in factors) == fiber.fiber_degree
    slice_point = [c % prime for c in fiber.point]
    rational = brute_force_fiber(slp, change, slice_point, prime)
    # Independent root scan of Q over F_p.
    roots = {a for a in range(prime) if poly_eval(fiber.min_poly, a, F) == 0}
    prim_row = change.matrix[fiber.prim_var]
    images = {
        sum(r * x for r, x in zip(prim_row, pt)) % prime for pt in rational
    }
    assert roots == images
    assert len(roots) == sum(1 for q in factors if degree(q) == 1)
    if len(roots) == fiber.fiber_degree:
        return "split"
    # Nonlinear factors: count points rational over each factor's field.
    for ext_deg in sorted({degree(q) for q in factors if degree(q) > 1}):
        modulus = next(q for q in factors if degree(q) == ext_deg)
        ext = ExtField(F, modulus)
        expected = sum(
            degree(q) for q in factors if ext_deg % degree(q) == 0
        )
        if ext.size**n <= _MAX_EXT_SCAN:
            pts = brute_force_fiber_ext(slp, change, slice_point, ext)
            assert len(pts) == expected
        else:
            _verify_factor_point(slp, change, fiber, ext)
    return "mixed"


def _verify_factor_point(slp, change, fiber, ext):
    """Membership check: the parametrized point over the factor's field is a
    genuine fiber point with a primitive value outside F_p."""
    uni = to_univariate(fiber)
    a = ext.gen
    y_coords = [coerce(ext, c) for c in uni.point]
    y_coords.append(a)
    for j in range(uni.prim_var + 1, slp.n_vars):
        y_coords.append(
            poly_eval([coerce(ext, c) for c in uni.params[j]], a, ext)
        )
    composed = compose_affine(slp, change)
    vals = evaluate(composed, y_coords, ext)
    assert all(ext.is_zero(v) for v in vals)
    assert len(a) > 1  # the primitive value genuinely lives in the extension


def test_criterion_6_modular_fiber_agreement():
    rng = random.Random(4141)
    solved = 0
    split_count = 0
    regenerated = 0
    while solved < 30:
        prime = rng.choice([41, 101])
        if prime == 41:
            n = rng.choice([1, 2])
            degrees = [rng.choice([1, 2, 3]) for _ in range(n)]
        else:
            n = rng.choice([1, 2, 3])
            degrees = [rng.choice([1, 2]) for _ in range(n)] if n == 3 else [
                rng.choice([1, 2, 3]) for _ in range(n)
            ]
        slp = parse_system(_random_dense_system(n, degrees, rng))
        got = _solve_small_prime(slp, prime, rng)
        if got is None:
            regenerated += 1
            assert regenerated < 300
            continue
        fiber, change, point = got
        kind = _closure_count_matches(slp, change, fiber, prime)
        if kind == "split":
            split_count += 1
        solved += 1
    _report(
        6,
        f"30 systems agree ({split_count} split over F_p, "
        f"{regenerated} retried/regenerated)",
    )


# -- criterion 7 ----------------------------------------------------------------


def test_criterion_7_prime_sampler():
    rng = random.Random(7)
    B = 10**6
    M = 1009 * 1013
    for _ in range(1000):
        p = random_prime_avoiding(B, 256, M, rng)
        assert B < p <= 2 * B
        assert is_probable_prime(p)
        assert M % p != 0
    # Range formula: budget H = 1000 means primes are sought in [12001, 24000].
    H = 1000
    lo, hi = 12 * H + 1, 24 * H
    assert (lo, hi) == (12001, 24000)
    _report(7, "1000 draws valid; interval [12001, 24000] for H=1000")


# -- criterion 8 ----------------------------------------------------------------


def test_criterion_8_bound_formulas():
    assert degree_budget(3, 2, 4) == 1536
    assert sample_bounds(1536) == (12288, 13824)
    rng = random.Random(8)
    from kronecker.bounds import height_budget, prime_budget

    for _ in range(1000):
        n = rng.randrange(1, 9)
        r = rng.randrange(1, n + 1)
        d = rng.randrange(1, 7)
        h = rng.randrange(1, 100)
        delta = rng.randrange(1, 40)
        s = rng.randrange(1, r + 1)
        assert degree_budget(n + 1, r, delta) >= degree_budget(n, r, delta)
        assert degree_budget(n, r, delta + 1) >= degree_budget(n, r, delta)
        if r + 1 <= n:
            assert degree_budget(n, r + 1, delta) >= degree_budget(n, r, delta)
        for bump in (
            (n + 1, d, h, r, s),
            (n, d + 1, h, r, s),
            (n, d, h + 1, r, s),
            (n, d, h, r + 1, s),
        ):
            assert height_budget(*bump) >= height_budget(n, d, h, r, s)
        for bump in ((n + 1, d, h, r), (n, d + 1, h, r), (n, d, h + 1, r)):
            assert prime_budget(*bump)[0] >= prime_budget(n, d, h, r)[0]
    _report(8, "exact formulas pinned; 1000 monotonicity tuples clean")


# -- criterion 9 ----------------------------------------------------------------


def test_criterion_9_rational_reconstruction_roundtrip():
    rng = random.Random(9)
    p = 2305843009213693951  # 61-bit prime
    m = p**2  # prime power above 2**62
    failures = 0
    for _ in range(10**4):
        num = rng.randrange(-(2**30) + 1, 2**30)
        den = rng.randrange(1, 2**30)
        g = gcd(abs(num), den)
        num //= g
        den //= g
        a = num * pow(den, -1, m) % m
        if rational_reconstruct(a, m) != (num, den):
            failures += 1
    assert failures == 0
    # Guaranteed failure detection: exhaustion shows a = 37 mod 101 has no
    # fraction below the bound.
    bound = 7
    assert not [
        (u, v)
        for v in range(1, bound + 1)
        for u in range(-bound, bound + 1)
        if (u - 37 * v) % 101 == 0
    ]
    with pytest.raises(NoReconstructionError):
        rational_reconstruct(37, 101)
    _report(9, "10^4 roundtrips exact; constructed failure detected")


# -- criterion 10 -----------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    src = tmp_path / "sys.txt"
    src.write_text("vars x, y;\nx^2 + y^2 - 5;\nx*y - 2;\n")
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli_run([str(src), "--seed", "42", "--out", str(out1)]) == 0
    assert cli_run([str(src), "--seed", "42", "--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    assert json.loads(b1)["verification"]["passed"]
    _report(10, "byte-identical JSON for identical seed and input")
