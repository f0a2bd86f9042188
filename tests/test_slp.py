import gc
import hashlib
import random
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kronecker.errors import NotInvertibleError, ParseError, SingularMatrixError
from kronecker.polys import interpolate, poly_deriv, poly_eval
from kronecker.rings import (
    QQ,
    PolyQuotient,
    PrimeField,
    ResidueRing,
    SeriesRing,
)
from kronecker.slp import (
    AffineChange,
    compose_affine,
    evaluate,
    evaluate_jacobian,
    parse_system,
)

from reference.expand import expand_system, height, total_degree, value_at
from reference.rings import reduced
from test_acceptance import _random_dense_system


def test_parse_length_mul_sub():
    slp = parse_system("vars x,y; x*y - 2;")
    assert slp.length == 2
    assert slp.n_vars == 2
    assert slp.degrees == (2,)


def test_parse_length_bare_load():
    slp = parse_system("vars x; x;")
    assert slp.length == 0
    assert slp.degrees == (1,)
    # All outputs constant: the degree pass still runs modulo T^2.
    slp = parse_system("vars x; 3;")
    assert (slp.length, slp.degrees) == (0, (0,))


def test_parse_length_repeated_squaring():
    slp = parse_system("vars x,y; x^2 + y^2 - 5;")
    assert slp.length == 4


def test_parse_power_chain_counts():
    # x^5 = ((x^2)^2) * x: three multiplications
    slp = parse_system("vars x; x^5;")
    assert slp.length == 3
    assert slp.degrees == (5,)


def test_length_counts_only_what_an_output_reaches():
    # The factor x*y*z - x*z*y + 3 is the constant 3 once its terms merge
    # by monomial, and folds into the term's coefficient; its four products
    # are left with no reader, and an evaluation runs one operation, 3·x.
    slp = parse_system("vars x, y, z; (x*y*z - x*z*y + 3)*x;")
    assert sum(ins[0] == "mul" for ins in slp.instructions) == 4
    assert slp.length == 1
    assert evaluate(slp, (5, 6, 7), PrimeField(10007)) == [15]
    # (0*x)^5 is the constant 0, a zero term: the sum is x itself.
    slp = parse_system("vars x; x + (0*x)^5;")
    assert slp.instructions == (("var", 0),)
    assert slp.length == 0
    assert evaluate(slp, (3,), PrimeField(10007)) == [3]


def test_parse_shares_powers_and_commuted_products():
    # x^2, x^4 and x*y = y*x are emitted once each: x^2, x^4, x*y, the add,
    # x^4*y and the sub.
    slp = parse_system("vars x,y; x^4 + x*y; x^4*y - y*x;")
    assert slp.length == 6
    F = PrimeField(10007)
    assert evaluate(slp, (3, 5), F) == [81 + 15, 81 * 5 - 15]


def _acceptance_dense_systems(count):
    """Parsed random dense systems, each with sympy's expansion of it."""
    rng = random.Random(20260811)
    for _ in range(count):
        n = rng.choice([1, 2, 3])
        degrees = [rng.choice([1, 2, 3]) for _ in range(n)]
        text = _random_dense_system(n, degrees, rng)
        yield parse_system(text), expand_system(text)


def test_parsed_dense_systems_repeat_no_instruction():
    for slp, _ in _acceptance_dense_systems(40):
        ops = [ins for ins in slp.instructions if ins[0] in ("mul", "lin")]
        assert len(set(ops)) == len(ops)
        assert all(ins[1] <= ins[2] for ins in ops if ins[0] == "mul")
        assert all(list(ins[3]) == sorted(set(ins[3])) for ins in ops if ins[0] == "lin")


def test_evaluate_matches_dense_forms_on_dense_systems():
    # A sum of monomials: degrees and height are sympy's exactly.
    rng = random.Random(11)
    for R in (PrimeField(10007), ResidueRing(7, 5)):
        for slp, forms in _acceptance_dense_systems(40):
            assert slp.degrees == tuple(map(total_degree, forms))
            assert slp.height == max(map(height, forms))
            pt = tuple(rng.randrange(R.int_modulus) for _ in range(slp.n_vars))
            want = [value_at(d, pt, R.int_modulus) for d in forms]
            assert evaluate(slp, pt, R) == want


@given(
    c=st.integers(-4, 4),
    a=st.integers(0, 3),
    b=st.integers(0, 3),
    e=st.integers(0, 6),
)
@example(c=0, a=1, b=0, e=0)
@example(c=0, a=1, b=2, e=3)
def test_power_of_a_monomial_expands_as_repeated_product(c, a, b, e):
    # A monomial's coefficient is raised in closed form, 0^0 = 1; written
    # out as a product, the same power multiplies the coefficient e times.
    # The term z, absent from the base, keeps both sides nonzero.
    mono = f"({c}*x^{a}*y^{b})"
    text = f"vars x, y, z; {mono}^{e} + z;"
    power = parse_system(text)
    product = parse_system(f"vars x, y, z; {'*'.join([mono] * e) or '1'} + z;")
    (dense,) = expand_system(text)
    assert power.degrees == product.degrees == (total_degree(dense),)
    assert power.height == product.height == height(dense)
    F = PrimeField(10007)
    for pt in ((2, 3, 5), (10006, 7, 0)):
        want = [value_at(dense, pt, F.p)]
        assert evaluate(power, pt, F) == evaluate(product, pt, F) == want


def test_parse_height_from_dense_coefficients():
    slp = parse_system("vars x; 100*x - 7;")
    assert slp.height == 7  # |100| needs 7 bits


# One line of depth 8 and degree 160 whose expansion has 97,321 terms:
# multiplying it out took about 100 s.  The parser builds only the program.
DEEP_NESTING_TEXT = (
    "vars x, y, z; +z*y^1*((+(x*-2^1 - y^8)*12345678901234567890^1*-(x - "
    "y^5*-x^129 - z*x*y) - +(x*+0 - y*-x) - 1^300*-z*-(z - y*-x^0 + "
    "z*+3^1*y^3))*1*10 + 12345678901234567890 - x*-(y*1^2*-(+z^3) - 3*(z*y "
    "- +z)*10 - -7*y^8)*z) + -(2^2 - 10^0*+(y + (-y*+3 + z + "
    "-12345678901234567890*z)*z + +z*2^2*-(+x*y + +x*-z*2) - "
    "y^3*-12345678901234567890^0*-x)^8 - z)^5 - y - -7^0*10^3*z;"
)


def test_a_deeply_nested_input_parses_in_under_a_second():
    started = time.perf_counter()
    slp = parse_system(DEEP_NESTING_TEXT)
    assert time.perf_counter() - started < 1.0
    assert slp.degrees == (160,)
    assert slp.length == 69


def test_sums_that_cancel_only_once_multiplied_out_keep_their_bound():
    path = Path(__file__).parent / "reference" / "degree_bound_refusals.txt"
    texts = [t for t in path.read_text().splitlines() if not t.startswith("#")]
    assert len(texts) == 15
    for text in texts:
        with pytest.raises(ParseError, match="degree bound above 256"):
            parse_system(text)


def test_terms_merge_by_monomial_not_by_instruction():
    # x*y*z and z*y*x are two instructions; their terms merge into 10*x*y*z,
    # whose coefficient needs 4 bits, and a difference of them cancels.
    slp = parse_system("vars x, y, z; 5*x*y*z + 5*z*y*x;")
    assert (slp.degrees, slp.height, slp.length) == ((3,), 4, 3)
    with pytest.raises(ParseError, match="identically zero"):
        parse_system("vars x, y, z; x*y*z - z*y*x;")


MERSENNE_61 = 2**61 - 1


def test_coefficients_divisible_by_a_word_prime_keep_their_degree():
    # The prime of the line evaluation is drawn from the text, so a fixed
    # multiple of a word-size prime such as 2^61 - 1 is no zero there.
    slp = parse_system(f"vars x; {MERSENNE_61}*x - 1;")
    assert slp.degrees == (1,)
    assert evaluate(slp, (1,), PrimeField(10007)) == [(MERSENNE_61 - 1) % 10007]
    assert parse_system(f"vars x; {MERSENNE_61}*x;").degrees == (1,)
    slp = parse_system(f"vars x, y; x; x + {2 * MERSENNE_61}*y^2;")
    assert slp.degrees == (1, 2)


def test_parse_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_system("vars x,y; x + $y;")
    assert err.value.position is not None


def test_parse_rejects_overdetermined():
    with pytest.raises(ParseError):
        parse_system("vars x; x; x - 1;")


def test_parse_rejects_zero_polynomial():
    with pytest.raises(ParseError):
        parse_system("vars x,y; x - x;")


def test_parse_rejects_unknown_variable():
    with pytest.raises(ParseError):
        parse_system("vars x; y;")


def test_parse_caps_the_degree_bound_and_the_bezout_number():
    # The cap is 256: on the degree bound of each product and power,
    # checked before it is emitted (deg a + deg b, e * deg base), and on the
    # product of the outputs' degrees.  A sum that cancels only once
    # multiplied out keeps its bound.
    assert parse_system("vars x; x^256 - 1;").degrees == (256,)
    assert parse_system("vars x; 7^1000*x - 2;").degrees == (1,)
    assert parse_system("vars x; (x+1)^200 - (x+1)^200 + x;").degrees == (1,)
    assert parse_system("vars x, y; x^16 - y; y^16 - x;").degrees == (16, 16)
    # A degree equal to its bound: the line's value fills F_p[T]/(T^257).
    assert parse_system("vars x, y; (x + y)^256;").degrees == (256,)
    for source in (
        "vars x; x^257 - 1;",
        "vars x; (x^2)^129;",
        "vars x; (x+1)^200*(x+1)^57;",
        "vars x; (x+1)^257 - (x+1)^257 + x;",
        "vars x; ((x+1)^2 - x^2 - 2*x - 1)^1000 + x;",
    ):
        with pytest.raises(ParseError, match="degree bound above 256"):
            parse_system(source)
    with pytest.raises(ParseError, match="Bezout number above 256"):
        parse_system("vars x, y; x^16*y - 1; y^16 - x;")


# sha256 of the parsed programs of a fixed corpus: the acceptance suite's
# random dense systems and grammar examples with signs, nesting and powers.
# Instructions (their order too), outputs, degrees and height are all
# pinned, so any change to what the parser builds shows here.
PARSE_CORPUS = (
    "vars x; -x;",
    "vars x; x^0 + 0^0 - (0*x)^5 + 1^100000000;",
    "vars x; (x^2)^3 - x^6 + x;",
    "vars x; 7^1000*x - 2;",
    "vars x; (2*x^3 - 5)^4 - 16*x^12;",
    "vars x, y; -x*y + -(x - y)^3 - 2;",
    "vars x, y; ((x + 1)*(y - 1))^2 - ((x))*(-(-y));",
    "vars x, y; +x - +y; --x*y - 1;",
    "vars x, y; (x + y)^5 - (x - y)^5;",
    "vars x, y; ((((x - 1))))^2*(y + 2)^3 - x*y;",
    "vars x, y; -(x^2 + y^2)^2 + 4*x^2*y^2 - 1; x*-y + y*x^2;",
    "vars x, y, z; x*y*z - x*z*y + (z - x)^2 - 3; -z; (x + y + z)^3;",
    "vars w, x, y, z; w*x - y*z; w^2 - 1; x - (y + z)^2; (w + x)^3 - z;",
)
# Re-pinned when the dense expansion left the parser.  Of the corpus, the
# 40 random systems did not move; "(x^2)^3 - x^6 + x" and "x*y*z - x*z*y
# + ..." lost their cancelling terms from the sum, which now merges terms
# by monomial; and the eight entries with a product or a power of a sum
# have the height of their 1-norm bound, 2 bits above the largest
# coefficient (5 -> 7 on "(x + y)^5 - (x - y)^5").
PARSE_GOLDEN_SHA256 = (
    "b9e9871ddf775ccdc16c7ed1ae2a8cd18a2ce1232fe46eeba4b80b2b808305ba"
)
# sha256 of the same corpus without the instructions: the output count,
# degrees, height and each output's value at a fixed point over F_p.
PARSE_VALUES_SHA256 = (
    "2e171b52b88d85b39740d207fdde3aeb2cec1b816def002f8780f15d13e39289"
)


def _acceptance_systems(count=40):
    rng = random.Random(20260811)
    systems = []
    for _ in range(count):
        n = rng.choice([1, 2, 3])
        degrees = [rng.choice([1, 2, 3, 4]) for _ in range(n)]
        systems.append(_random_dense_system(n, degrees, rng))
    return systems


def test_parsed_programs_match_their_pinned_digest():
    digest = hashlib.sha256()
    for text in PARSE_CORPUS + tuple(_acceptance_systems()):
        slp = parse_system(text)
        digest.update(
            repr((slp.instructions, slp.outputs, slp.degrees, slp.height)).encode()
        )
    assert digest.hexdigest() == PARSE_GOLDEN_SHA256


def test_parsed_polynomials_match_their_pinned_digest():
    F = PrimeField(2**61 - 1)
    digest = hashlib.sha256()
    for text in PARSE_CORPUS + tuple(_acceptance_systems()):
        slp = parse_system(text)
        values = evaluate(slp, (3, 10**6, -7, 2**40)[: slp.n_vars], F)
        digest.update(
            repr((len(slp.outputs), slp.degrees, slp.height, values)).encode()
        )
    assert digest.hexdigest() == PARSE_VALUES_SHA256


def test_parse_caps_expanded_degrees_as_it_reads():
    # A power of the zero polynomial has degree bound -1, whatever the
    # exponent; a size error is raised where it is read, before a syntax
    # error further on.
    assert parse_system("vars x; (x-x)^1000 + x;").degrees == (1,)
    with pytest.raises(ParseError, match="polynomial #1: degree bound"):
        parse_system("vars x; x^300 + x; x + ;")


def test_a_power_of_a_constant_is_one_constant():
    assert parse_system("vars x; x - 1^100000000;").length == 1
    assert parse_system("vars x; 7^1000*x - 2;").length == 2
    # (-2)^3 is the one coefficient -8 of x; (3 - 3)^5 is a zero term.
    slp = parse_system("vars x; (-2)^3*x - (3 - 3)^5;")
    assert slp.instructions == (("var", 0), ("lin", 0, (-8,), (0,)))
    assert (slp.degrees, slp.height) == ((1,), 4)


def test_parse_refuses_oversized_constants():
    with pytest.raises(ParseError, match="power of a constant"):
        parse_system("vars x; 2^99999999999*x - 1;")
    # c^e is capped where it is the one coefficient of a power, of a
    # constant times a monomial; a sum's power is bounded by its degree.
    with pytest.raises(ParseError, match="power of a constant"):
        parse_system("vars x; (10^4000*x)^5;")
    assert parse_system("vars x; (10^4000*(x + 1))^5;").degrees == (5,)
    with pytest.raises(ParseError, match="number too long"):
        parse_system("vars x; x - 1" + "0" * 5000 + ";")


def test_evaluate_two_squares_at_point():
    slp = parse_system("vars x,y; x^2 + y^2 - 5;")
    assert evaluate(slp, (1, 2), PrimeField(7)) == [0]


def test_evaluate_identity():
    slp = parse_system("vars x; x;")
    F = PrimeField(101)
    for c in (0, 1, 55):
        assert evaluate(slp, (c,), F) == [c]


def test_evaluate_symbolic_point_in_poly_ring():
    # F = x*y - 2 at (p_1, T) over F_p[T]/(T^2), exact for degree 1, gives
    # p_1*T - 2
    slp = parse_system("vars x,y; x*y - 2;")
    F = PrimeField(7)
    A = PolyQuotient(F, (0, 0, 1))
    val = evaluate(slp, (3, A.gen), A)[0]
    assert val == (5, 3)  # 3T - 2 = 3T + 5 mod 7


def test_compose_affine_shear():
    # F = x1, y1 = x1 + x2, y2 = x2  =>  composed F(y) = y1 - y2
    slp = parse_system("vars x,y; x;")
    change = AffineChange.from_matrix([[1, 1], [0, 1]])
    comp = compose_affine(slp, change)
    F = PrimeField(10007)
    for y1, y2 in [(5, 2), (0, 9), (123, 123)]:
        assert evaluate(comp, (y1, y2), F) == [(y1 - y2) % 10007]


def test_compose_affine_identity():
    slp = parse_system("vars x,y; x^2 + y^2 - 5;")
    comp = compose_affine(slp, AffineChange.identity(2))
    F = PrimeField(97)
    for pt in [(1, 2), (30, 4)]:
        assert evaluate(comp, pt, F) == evaluate(slp, pt, F)


def test_compose_affine_swap_is_symmetric():
    slp = parse_system("vars x,y; x*y;")
    comp = compose_affine(slp, AffineChange.from_matrix([[0, 1], [1, 0]]))
    F = PrimeField(97)
    for y1, y2 in [(3, 5), (10, 20)]:
        assert evaluate(comp, (y1, y2), F) == [(y1 * y2) % 97]


def test_compose_rejects_singular_matrix():
    with pytest.raises(SingularMatrixError):
        AffineChange.from_matrix([[1, 2], [2, 4]])


def test_compose_evaluation_needs_unit_determinant():
    slp = parse_system("vars x,y; x;")
    comp = compose_affine(slp, AffineChange.from_matrix([[7, 0], [0, 1]]))
    message = "determinant of the change of variables is not a unit here"
    with pytest.raises(NotInvertibleError, match=message):
        evaluate(comp, (1, 1), PrimeField(7))
    with pytest.raises(NotInvertibleError, match=message):
        evaluate_jacobian(comp, (1, 1), PrimeField(7), wrt=[0, 1], n_out=1)


def test_compose_inverse_identity_property():
    # evaluate(compose(slp, change), change * x) == evaluate(slp, x)
    rng = random.Random(5)
    slp = parse_system("vars x,y,z; x^2*y - z + 3; x + y*z; z^3 - 2;")
    for F in (PrimeField(10007), QQ):
        for _ in range(8):
            while True:
                rows = [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(3)]
                try:
                    change = AffineChange.from_matrix(rows)
                    break
                except SingularMatrixError:
                    continue
            comp = compose_affine(slp, change)
            x = tuple(rng.randrange(-9, 10) for _ in range(3))
            y = tuple(sum(a * b for a, b in zip(row, x)) for row in rows)
            assert evaluate(comp, y, F) == evaluate(slp, x, F)


def test_compose_length_overhead_is_quadratic():
    slp = parse_system("vars x,y,z; x*y*z - 1;")
    comp = compose_affine(slp, AffineChange.from_matrix(
        [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    ))
    assert comp.length <= slp.length + 2 * slp.n_vars**2


def test_jacobian_product_rule():
    slp = parse_system("vars x,y; x*y;")
    F = PrimeField(10007)
    vals, rows = evaluate_jacobian(slp, (3, 5), F, wrt=[0, 1], n_out=1)
    assert vals == [15]
    assert rows == [[5, 3]]


def test_jacobian_square_mod_small_prime():
    slp = parse_system("vars x; x^2 - 1;")
    F = PrimeField(7)
    vals, rows = evaluate_jacobian(slp, (3,), F, wrt=[0], n_out=1)
    assert vals == [(9 - 1) % 7]
    assert rows == [[6]]  # 2*3 mod 7


def test_jacobian_constant_row_is_zero():
    slp = parse_system("vars x,y; 5;")
    F = PrimeField(11)
    _, rows = evaluate_jacobian(slp, (1, 2), F, wrt=[0, 1], n_out=1)
    assert rows == [[0, 0]]


def _derivative_by_interpolation(slp, point, F, var, out, width):
    """Exact derivative oracle: interpolate the restriction of the output
    along one coordinate and differentiate the interpolant."""
    samples = []
    for k in range(width + 1):
        moved = list(point)
        moved[var] = F.add(point[var], F.from_int(k))
        samples.append((moved[var], evaluate(slp, moved, F)[out]))
    restriction = interpolate(samples, F)
    return poly_eval(poly_deriv(restriction, F), point[var], F)


def test_jacobian_matches_interpolated_derivatives():
    rng = random.Random(11)
    slp = parse_system(
        "vars x,y,z; x^3*y - 2*z + 1; x*y*z - y^2; z^4 - x - 7;"
    )
    F = PrimeField(10007)
    for _ in range(6):
        pt = tuple(rng.randrange(50) for _ in range(3))
        vals, rows = evaluate_jacobian(slp, pt, F, wrt=[0, 1, 2], n_out=3)
        assert vals == evaluate(slp, pt, F)
        for i in range(3):
            for j in range(3):
                want = _derivative_by_interpolation(slp, pt, F, j, i, 5)
                assert rows[i][j] == want


def test_jacobian_direction_vector_is_combination_of_partials():
    # A wrt entry may be a direction vector over the tangent ring; its row
    # is the combination of the partial derivatives, with or without a
    # change of variables, over F_p and over F_p[T]/(q).
    rng = random.Random(12)
    base = parse_system("vars x,y,z; x^3*y - 2*z + 1; x*y*z - y^2; z^4 - x - 7;")
    F = PrimeField(10007)
    A = PolyQuotient(F, (3, 5, 0, 1))
    change = AffineChange.from_matrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    for slp in (base, compose_affine(base, change)):
        for R in (F, A):

            def draw():
                if R is F:
                    return rng.randrange(F.p)
                return reduced(A, [rng.randrange(F.p) for _ in range(3)])

            pt = [draw() for _ in range(3)]
            v = [draw() for _ in range(3)]
            vals, rows = evaluate_jacobian(slp, pt, R, wrt=[0, 1, 2, v], n_out=3)
            assert vals == evaluate(slp, pt, R)
            for row in rows:
                want = R.zero
                for vk, partial in zip(v, row[:3]):
                    want = R.add(want, R.mul(vk, partial))
                assert row[3] == want


def test_jacobian_matches_central_differences_on_quadratics():
    # Central differences are exact for total degree <= 2.
    slp = parse_system("vars x,y; x^2 + 3*x*y - y + 4; y^2 - x;")
    F = PrimeField(10007)
    half = F.inv(2)
    for pt in [(3, 4), (100, 200)]:
        _, rows = evaluate_jacobian(slp, pt, F, wrt=[0, 1], n_out=2)
        for i in range(2):
            for j in range(2):
                up = list(pt)
                dn = list(pt)
                up[j] = F.add(up[j], 1)
                dn[j] = F.sub(dn[j], 1)
                diff = F.sub(
                    evaluate(slp, up, F)[i], evaluate(slp, dn, F)[i]
                )
                assert rows[i][j] == F.mul(diff, half)


def test_jacobian_matches_dense_symbolic_derivative():
    text = "vars x,y; x^4 - 2*x*y^3 + y - 1; x^2*y^2 + 5;"
    slp = parse_system(text)
    forms = expand_system(text)
    F = PrimeField(101)
    rng = random.Random(3)

    def dense_partial(dense, var, pt):
        total = 0
        for mono, coeff in dense.items():
            if mono[var] == 0:
                continue
            term = coeff * mono[var]
            for v, e in enumerate(mono):
                e2 = e - 1 if v == var else e
                term *= pt[v] ** e2
            total += term
        return total % 101

    for _ in range(10):
        pt = tuple(rng.randrange(101) for _ in range(2))
        _, rows = evaluate_jacobian(slp, pt, F, wrt=[0, 1], n_out=2)
        for i in range(2):
            for j in range(2):
                assert rows[i][j] == dense_partial(forms[i], j, pt)


def test_jacobian_with_affine_change_chain_rule():
    slp = parse_system("vars x,y; x^2*y - 3;")
    change = AffineChange.from_matrix([[2, 1], [1, 1]])
    comp = compose_affine(slp, change)
    F = PrimeField(10007)
    pt = (9, 4)
    _, rows = evaluate_jacobian(comp, pt, F, wrt=[0, 1], n_out=1)
    for j in range(2):
        want = _derivative_by_interpolation(comp, pt, F, j, 0, 4)
        assert rows[0][j] == want


class _CountingQuotient(PolyQuotient):
    """R[T]/(q) that counts the integers it embeds."""

    embedded = 0

    def from_int(self, n):
        self.embedded += 1
        return super().from_int(n)


def test_jacobian_embeds_each_lin_coefficient_once_per_call():
    # The value pass and every tangent pass share one embedding of the
    # program's integer coefficients: a call embeds each cᵢ of each
    # ``lin``, each nonzero c0 and each ``inv`` once, as ``evaluate`` does,
    # whatever the number of directions.
    slp = compose_affine(
        parse_system("vars x, y, z; 3*x^2 - 2*y*z + 5; x*y - 7*z^2 + x; 4*z - 1;"),
        AffineChange.from_matrix([[2, 1, 0], [1, 1, 1], [0, 3, 1]]),
    )
    code = [slp.instructions[i] for i in slp.slice((0, 1, 2))]
    integers = sum(len(ins[2]) + bool(ins[1]) for ins in code if ins[0] == "lin")
    integers += sum(ins[0] == "inv" for ins in code)
    A = _CountingQuotient(PrimeField(10007), (3, 0, 1, 1))
    point = [A.gen, (1, 2), (5,)]
    values = evaluate(slp, point, A)
    assert A.embedded == integers
    for wrt in ([0], [0, 1, 2], [[A.one, A.gen, A.zero]] * 5):
        A.embedded = 0
        got, _ = evaluate_jacobian(slp, point, A, wrt, n_out=3)
        assert got == values
        assert A.embedded == integers


def test_jacobian_rejects_outputs_the_program_lacks():
    slp = parse_system("vars x,y; x*y - 1;")
    F = PrimeField(7)
    # The default n_out = len(wrt) = 2 asks for an output the program lacks.
    for n_out in (None, 3, -1, (1,), (0, 1)):
        with pytest.raises(ValueError, match="outputs"):
            evaluate_jacobian(slp, (1, 2), F, wrt=[0, 1], n_out=n_out)
        if n_out is not None:
            with pytest.raises(ValueError, match="outputs"):
                evaluate(slp, (1, 2), F, n_out=n_out)


def test_jacobian_rejects_directions_outside_the_variables():
    # Too short and too long a vector, and variable indices past either end.
    slp = parse_system("vars x,y; x*y - 1;")
    F = PrimeField(7)
    for direction in ([1], [1, 2, 3], 5, 2, -1):
        with pytest.raises(ValueError, match="direction"):
            evaluate_jacobian(slp, (1, 2), F, wrt=[0, direction], n_out=1)
    _, rows = evaluate_jacobian(slp, (1, 2), F, wrt=[1, [1, 2]], n_out=1)
    assert rows == [[1, F.from_int(2 + 2)]]


def test_both_passes_reject_a_point_of_the_wrong_length():
    slp = parse_system("vars x, y; x^2 + y - 5; x*y - 2;")
    F = PrimeField(101)
    for point in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match="coordinates"):
            evaluate(slp, point, F)
        with pytest.raises(ValueError, match="coordinates"):
            evaluate_jacobian(slp, point, F, wrt=[0, 1])
    assert evaluate(slp, [1, 2], F) == [F.from_int(-2), 0]


# -- output slices ------------------------------------------------------------


def _full_program_pass(slp, change, point, R, wrt, T):
    """Values and tangent rows of every output, running every instruction
    of the parsed program ``slp`` at x = adj·y/det for the point y and
    each direction, by hand: the reference the sliced passes of
    ``compose_affine(slp, change)`` are compared against (of ``slp`` itself
    when ``change`` is None).  Tangents run over T, into which the values
    are reduced when T is not R."""
    n = slp.n_vars

    def inputs(ys, ring):
        if change is None:
            return list(ys)
        det_inv = ring.inv(ring.from_int(change.det))
        out = []
        for row in change.adjugate:
            acc = ring.zero
            for a, y in zip(row, ys):
                acc = ring.add(acc, ring.mul(ring.from_int(a), y))
            out.append(ring.mul(acc, det_inv))
        return out

    def combination(ring, c0, coeffs, operands):
        acc = ring.from_int(c0)
        for c, v in zip(coeffs, operands):
            acc = ring.add(acc, ring.mul(ring.from_int(c), v))
        return acc

    xs = inputs([R.from_int(x) if isinstance(x, int) else x for x in point], R)
    vals = []
    for ins in slp.instructions:
        if ins[0] == "var":
            vals.append(xs[ins[1]])
        elif ins[0] == "const":
            vals.append(R.from_int(ins[1]))
        elif ins[0] == "lin":
            vals.append(combination(R, ins[1], ins[2], [vals[j] for j in ins[3]]))
        else:
            vals.append(R.mul(vals[ins[1]], vals[ins[2]]))
    tvals = vals if T is R else [T.base.truncate(v) for v in vals]
    rows = [[None] * len(wrt) for _ in slp.outputs]
    for col, direction in enumerate(wrt):
        if isinstance(direction, int):
            direction = [T.one if i == direction else T.zero for i in range(n)]
        seeds = inputs(direction, T)
        tans = []
        for ins in slp.instructions:
            if ins[0] == "var":
                tans.append(seeds[ins[1]])
            elif ins[0] == "const":
                tans.append(T.zero)
            elif ins[0] == "mul":
                a, b = ins[1], ins[2]
                tans.append(
                    T.add(T.mul(tvals[a], tans[b]), T.mul(tans[a], tvals[b]))
                )
            else:
                tans.append(combination(T, 0, ins[2], [tans[j] for j in ins[3]]))
        for row, o in zip(rows, slp.outputs):
            row[col] = tans[o]
    return [vals[o] for o in slp.outputs], rows


_P = 10007


def _slice_test_rings(rng):
    """(R, tangent ring, element drawer) over F_p, over F_p[T]/(q) on
    Z/p^4 with tangents at Z/p^2, over F_p[t]/(t^3)[T]/(q) with tangents at
    order 2, and over F_p[t]/(t^3) alone."""
    F = PrimeField(_P)
    S = SeriesRing(F, 3)

    def series():
        return S._trim([rng.randrange(_P) for _ in range(3)])

    A_res = PolyQuotient(ResidueRing(_P, 4), (rng.randrange(_P**4), 5, 1))
    A_ser = PolyQuotient(S, (series(), series(), S.one))
    low_res = A_res.at_precision(2)
    low_ser = A_ser.at_precision(2)
    return [
        (F, F, lambda ring: rng.randrange(_P)),
        (
            A_res,
            low_res,
            lambda ring: reduced(
                ring, [rng.randrange(ring.base.modulus) for _ in range(2)]
            ),
        ),
        (
            A_ser,
            low_ser,
            lambda ring: ring.base.truncate(
                reduced(A_ser, [series() for _ in range(2)])
            ),
        ),
        (S, S, lambda ring: series()),
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
@given(seed=st.integers(0, 2**32 - 1))
def test_sliced_passes_match_the_full_program(n, seed):
    # Every prefix and every single output, with and without a change of
    # variables, over each ring: values and tangent rows equal those of a
    # pass that runs every instruction.
    rng = random.Random(seed)
    degrees = [rng.choice([1, 2, 3] if n < 4 else [1, 2]) for _ in range(n)]
    base = parse_system(_random_dense_system(n, degrees, rng))
    while True:
        rows = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        try:
            change = AffineChange.from_matrix(rows)
        except SingularMatrixError:
            continue
        if change.det % _P:
            break
    selections = list(range(1, n + 1)) + [(k,) for k in range(n)]
    # A change with det 2 whose adjugate has zero entries, which
    # ``compose_affine`` drops: the identity with rows 0 and 1 made
    # e_0 + e_1 and 2·e_1.
    sparse = [[int(i == j) for j in range(n)] for i in range(n)]
    sparse[0][1], sparse[1][1] = 1, 2
    sparse = AffineChange.from_matrix(sparse)
    for lam in (None, AffineChange.identity(n), change, sparse):
        slp = base if lam is None else compose_affine(base, lam)
        for R, T, draw in _slice_test_rings(rng):
            pt = [draw(R) for _ in range(n)]
            wrt = list(range(n)) + [[draw(T) for _ in range(n)]]
            want_vals, want_rows = _full_program_pass(base, lam, pt, R, wrt, T)
            for sel in selections:
                outs = range(sel) if isinstance(sel, int) else sel
                low = None if T is R else T
                vals, rows = evaluate_jacobian(
                    slp, pt, R, wrt, n_out=sel, tangent_ring=low
                )
                assert vals == [want_vals[k] for k in outs]
                assert rows == [want_rows[k] for k in outs]
                assert evaluate(slp, pt, R, n_out=sel) == vals
            assert evaluate(slp, pt, R) == want_vals


def test_slice_of_one_output_is_shorter_than_the_program():
    from test_acceptance import _random_dense_system

    slp = parse_system(_random_dense_system(4, [2, 2, 2, 2], random.Random(5)))
    whole = tuple(range(len(slp.instructions)))
    assert len(slp.slice((0,))) < len(whole)
    assert slp.slice((0, 1, 2, 3)) == whole
    assert slp.slice((0,)) is slp.slice((0,))  # computed once, then kept


def _dense_over(R, dense, xs):
    """The dense polynomial at the point xs, term by term over R."""
    total = R.zero
    for mono, c in dense.items():
        term = R.from_int(c)
        for x, e in zip(xs, mono):
            for _ in range(e):
                term = R.mul(term, x)
        total = R.add(total, term)
    return total


def _dense_partial(dense, k):
    return {
        mono[:k] + (mono[k] - 1,) + mono[k + 1 :]: c * mono[k]
        for mono, c in dense.items()
        if mono[k]
    }


# Nested sums, unary minus, a constant times a sum, a zero coefficient and
# terms that cancel.
LIN_TEXT = """vars x, y, z;
3*(x - 2*y + (z + 1)*(x - y)) - -z^2 + 0*x*y - ((x + y) - (y - 7));
-(x*y - 2*(z - x))^2 + 5 + x*z - z*x;
x*(y + 0*z) - (-(x) + 4)*(2*(x + y*z) - 3) - -(-(3*y));
"""


def test_sums_evaluate_as_their_dense_forms_over_every_ring():
    slp = parse_system(LIN_TEXT)
    forms = expand_system(LIN_TEXT)
    lins = {i: ins for i, ins in enumerate(slp.instructions) if ins[0] == "lin"}
    assert any(set(lins) & set(ins[3]) for ins in lins.values())  # nested
    assert all(0 not in ins[2] for ins in lins.values())  # zeros dropped
    rng = random.Random(24)
    for R, T, draw in _slice_test_rings(rng):
        pt = [draw(R) for _ in range(3)]
        direction = [draw(T) for _ in range(3)]
        low = None if T is R else T
        tpt = pt if T is R else [T.base.truncate(x) for x in pt]
        want = [_dense_over(R, d, pt) for d in forms]
        assert evaluate(slp, pt, R) == want
        vals, rows = evaluate_jacobian(
            slp, pt, R, [0, 1, 2, direction], n_out=3, tangent_ring=low
        )
        assert vals == want
        for dense, row in zip(forms, rows):
            partials = [_dense_over(T, _dense_partial(dense, k), tpt) for k in range(3)]
            assert row == partials + [T.dot(direction, partials)]


def test_a_power_of_a_sum_is_not_expanded():
    # The eighth power is three squarings of one lin: 3 + 3 + 1 + 1 + 2.
    slp = parse_system("vars x, y; (x - 2*y + 1)^8 - y; y^2 - x - 1;")
    assert slp.length == 10
    assert sum(ins[0] == "mul" for ins in slp.instructions) == 4


def test_evaluated_programs_are_not_kept_alive():
    # Slices are cached on the program itself, so a program and its slices
    # die together once no caller holds the program.
    from test_acceptance import _random_dense_system

    rng = random.Random(9)
    F = PrimeField(_P)
    refs = []
    for _ in range(50):
        slp = parse_system(_random_dense_system(2, [2, 2], rng))
        evaluate(slp, (3, 4), F, n_out=(1,))
        evaluate_jacobian(slp, (3, 4), F, wrt=[0, 1])
        refs.append(weakref.ref(slp))
    del slp
    gc.collect()
    assert all(ref() is None for ref in refs)
