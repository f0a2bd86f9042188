"""Cross-bindings between the production pipeline and the oracles, plus
concurrency and scale smoke tests."""

import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kronecker.errors import (
    ParseError,
    RetryExhaustedError,
    SingularMatrixError,
)
from kronecker.padic import SolveConfiguration, solve_over_rationals
from kronecker.polys import interpolate, monic, resultant
from kronecker.rings import PrimeField, ResidueRing
from kronecker.slp import AffineChange, compose_affine, evaluate, parse_system
from kronecker.solver import (
    SolveState,
    _next_on_curve,
    first_stage,
    intersect_minimal_poly,
    lift_curve,
    to_univariate,
)
from kronecker.verify import check_representation

from reference.expand import expand_system, height, total_degree, value_at
from reference.oracle import mulmat_charpoly
from test_acceptance import _random_dense_system

FBIG = PrimeField(10007)


def test_intersection_matches_charpoly_oracle_on_real_curve():
    # The interpolated-resultant minimal polynomial must agree with the
    # multiplication-matrix characteristic polynomial route on a real curve.
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
    curve = lift_curve(to_univariate(first_stage(state)), slp)
    produced, _ = intersect_minimal_poly(curve, slp, 1, 2, state.rng)
    delta = curve.fiber_degree
    rng = random.Random(1)
    samples = []
    sign = FBIG.one if delta % 2 == 0 else FBIG.neg(FBIG.one)
    while len(samples) < 2 * delta + 1:
        a = rng.randrange(FBIG.p)
        if any(a == s[0] for s in samples):
            continue
        try:
            A, _, h, _ = _next_on_curve(curve, a, slp, 1)
        except Exception:
            continue
        chi = mulmat_charpoly(h, A.modulus, FBIG)
        const = chi[0] if chi else FBIG.zero
        samples.append((a, FBIG.mul(sign, const)))
        # pointwise identity with the resultant route
        assert const == FBIG.mul(sign, resultant(A.modulus, h, FBIG))
    via_charpoly = monic(interpolate(samples, FBIG), FBIG)
    assert via_charpoly == produced


def test_concurrent_solves_match_sequential():
    sources = [
        "vars x,y; x^2 + y^2 - 5; x*y - 2;",
        "vars x; x^3 - 2*x + 1;",
        "vars x,y; x^2 - y - 1; y^2 + x - 3;",
        "vars x,y,z; x^2 + y + z - 4; y^2 - x + 1; x + y + z^2 - 3;",
    ]

    def solve(idx):
        slp = parse_system(sources[idx % len(sources)])
        cfg = SolveConfiguration(seed=idx)
        rep, cert = solve_over_rationals(slp, cfg)
        return rep.min_poly, rep.params, cert.prime

    sequential = [solve(i) for i in range(8)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(solve, range(8)))
    assert sequential == concurrent


def test_four_variable_full_bezout():
    slp = parse_system(
        "vars w,x,y,z; w^2 + x - y + z - 2; x^2 + w + z - 3;"
        " y^2 - w*x + 1; w + x + y + z^2 - 5;"
    )
    rep, cert = solve_over_rationals(slp, SolveConfiguration(seed=1))
    assert cert.stage_degrees == (2, 4, 8, 16)
    assert cert.verification["passed"]
    composed = compose_affine(slp, AffineChange.from_matrix(cert.lam))
    assert check_representation(rep, composed, exact=True).passed


def test_parser_tolerates_layout_variants():
    a = parse_system("vars x , y ;\n  x^2\n + y^2 - 5 ;\n x*y - 2 ;")
    b = parse_system("vars x,y;x^2+y^2-5;x*y-2;")
    F = PrimeField(97)
    for pt in [(1, 2), (10, 20)]:
        assert evaluate(a, pt, F) == evaluate(b, pt, F)


def test_parser_handles_nested_parentheses_and_big_constants():
    slp = parse_system("vars x; ((x - 10000000000000000000)^2 + 1)*x;")
    assert slp.degrees == (3,)
    assert slp.height >= 120  # squared 64-bit-plus constant
    from kronecker.rings import QQ

    val = evaluate(slp, (2,), QQ)[0]
    assert val == ((2 - 10**19) ** 2 + 1) * 2


# -- the parser against sympy ----------------------------------------------------
#
# A drawn expression is (text, precedence level, size): levels are 0 atom,
# 1 factor (power or unary sign), 2 term (product), 3 sum, and size bounds
# the degree of every subexpression.  An operand below the level its place
# needs is put in parentheses, so the text means what was drawn; otherwise
# parentheses appear only where drawn.  sympy reads the text on its own.


def _wrap(node, level):
    text, own, _ = node
    return text if own <= level else f"({text})"


_LEAVES = st.one_of(
    st.integers(0, 30).map(lambda c: (str(c), 0, 0)),
    st.sampled_from([("x", 0, 1), ("y", 0, 1)]),
)


def _grown(children):
    return st.one_of(
        children.map(lambda a: (f"({a[0]})", 0, a[2])),
        st.builds(
            lambda a, sign: (sign + _wrap(a, 1), 1, a[2]),
            children,
            st.sampled_from("-+"),
        ),
        st.builds(
            lambda a, e: (f"{_wrap(a, 0)}^{e}", 1, max(1, e) * a[2]),
            children,
            st.integers(0, 4),
        ),
        st.builds(
            lambda a, b: (f"{_wrap(a, 2)}*{_wrap(b, 1)}", 2, a[2] + b[2]),
            children,
            children,
        ),
        st.builds(
            lambda a, b, op: (
                f"{_wrap(a, 3)} {op} {_wrap(b, 2)}", 3, max(a[2], b[2])
            ),
            children,
            children,
            st.sampled_from("+-"),
        ),
    )


_EXPRESSIONS = (
    st.recursive(_LEAVES, _grown, max_leaves=8)
    .filter(lambda node: node[2] <= 24)
    .map(lambda node: node[0])
)


@settings(max_examples=60)
@given(_EXPRESSIONS, st.tuples(st.integers(0, 10006), st.integers(0, 10006)))
@example("-(x - 2*y)^3*-x + -y", (5, 7))
@example("((x + 1)^2*(y - 1))^2 - (2*x)^0 - --x", (3, 10006))
@example("(x - x)^3 + 0*y", (1, 1))
def test_parser_matches_sympy_expansion(text, point):
    # Degrees, the zero verdict and values over F_p and Z/p^k are sympy's;
    # the height bounds sympy's from above, and is exact on a sum of
    # monomials (a text with no parentheses).
    source = f"vars x, y; {text};"
    (dense,) = expand_system(source)
    if not dense:
        with pytest.raises(ParseError, match="identically zero"):
            parse_system(source)
        return
    slp = parse_system(source)
    assert slp.degrees == (total_degree(dense),)
    assert slp.height >= height(dense)
    if "(" not in text:
        assert slp.height == height(dense)
    for R in (FBIG, ResidueRing(7, 5)):
        m = R.int_modulus
        assert evaluate(slp, point, R) == [value_at(dense, point, m)]


@settings(max_examples=40)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(
                st.one_of(st.integers(-2, 2), st.integers(-10**6, 10**6)),
                min_size=n,
                max_size=n,
            ),
            min_size=n,
            max_size=n,
        )
    )
)
@example([[2, 4], [1, 2]])
def test_affine_change_matches_sympy_det_and_adjugate(rows):
    m = sympy.Matrix(rows)
    if m.det() == 0:
        with pytest.raises(SingularMatrixError):
            AffineChange.from_matrix(rows)
        return
    change = AffineChange.from_matrix(rows)
    assert change.det == m.det()
    assert sympy.Matrix(change.adjugate) == m.adjugate()


def _sympy_eliminant(text, lam):
    """Monic eliminant in y_0 of the system ``text`` in the variables
    y = lam * x: the polynomial itself for n = 1, its resultant in y_1 for
    n = 2."""
    n = len(lam)
    ys = sympy.symbols(f"y0:{n}")
    xs = sympy.Matrix(lam).inv() * sympy.Matrix(ys)
    polys = [
        sum(
            c * sympy.prod([x**e for x, e in zip(xs, mono)])
            for mono, c in dense.items()
        )
        for dense in expand_system(text)
    ]
    elim = polys[0] if n == 1 else sympy.resultant(*polys, ys[1])
    coeffs = sympy.Poly(sympy.expand(elim), ys[0]).monic().all_coeffs()
    return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(coeffs))


@given(st.integers(0, 2**32 - 1))
def test_min_poly_matches_sympy_resultant(seed):
    # With λ pinned, the rational minimal polynomial of a square system in
    # n <= 2 variables is its monic eliminant in the first new coordinate.
    rng = random.Random(seed)
    n = rng.choice([1, 2])
    degrees = [rng.choice([1, 2, 3]) for _ in range(n)]
    text = _random_dense_system(n, degrees, rng)
    slp = parse_system(text)
    while True:
        lam = tuple(
            tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n)
        )
        try:
            AffineChange.from_matrix(lam)
            break
        except SingularMatrixError:
            continue
    try:
        rep, _ = solve_over_rationals(
            slp, SolveConfiguration(seed=seed, lambda_matrix=lam)
        )
    except RetryExhaustedError:
        assume(False)  # λ does not separate the solutions: no fiber to check
    assert rep.min_poly == _sympy_eliminant(text, lam)
