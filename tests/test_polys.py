import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronecker.errors import (
    DuplicateNodeError,
    NoReconstructionError,
    NotInvertibleError,
)
from kronecker.polys import (
    Barrett,
    degree,
    factor_squarefree,
    int_convolve,
    int_karatsuba,
    interpolate,
    monic,
    poly_eval,
    poly_gcd,
    poly_inverse_mod,
    poly_mul,
    poly_rem,
    rational_reconstruct,
    resultant,
    resultant_and_inverse,
    scalar_mul,
)
from kronecker.rings import QQ, PrimeField, ResidueRing

from reference.oracle import sylvester_det
from reference.polys import (
    CharacteristicTooSmallError,
    ModuliNotCoprimeError,
    crt_polys,
    euclidean_sequence,
    from_int_coeffs,
    is_irreducible,
    maximal_quotient_reconstruct,
    reconstruction_guard,
    squarefree_part,
)

F7 = PrimeField(7)
F101 = PrimeField(101)
FBIG = PrimeField(10007)


def fp(coeffs, F=F7):
    return from_int_coeffs(coeffs, F)


# -- gcd ----------------------------------------------------------------------


def test_gcd_shared_linear_factor():
    assert poly_gcd(fp([-1, 0, 1]), fp([-1, 1]), F7) == fp([-1, 1])


def test_gcd_coprime_quadratics():
    assert poly_gcd(fp([-1, 0, 1]), fp([1, 0, 1]), F7) == (1,)


def test_gcd_with_zero_is_monic():
    f = fp([2, 4, 6])
    assert poly_gcd(f, (), F7) == monic(f, F7)


# -- modular inverse ----------------------------------------------------------


def test_inverse_mod_doubled_variable():
    inv = poly_inverse_mod(fp([0, 2]), fp([-1, 0, 1]), F7)
    assert inv == fp([0, 4])  # 2T * 4T = 8T^2 = 8 = 1 mod (T^2-1, 7)


def test_inverse_mod_one():
    assert poly_inverse_mod((1,), fp([-1, 0, 1]), F7) == (1,)


def test_inverse_mod_shared_root_fails():
    with pytest.raises(NotInvertibleError):
        poly_inverse_mod(fp([-1, 1]), fp([-1, 0, 1]), F7)


def test_inverse_mod_property():
    rng = random.Random(0)
    q = fp([3, 0, 1, 1, 1], FBIG)
    for _ in range(25):
        f = from_int_coeffs([rng.randrange(10007) for _ in range(4)], FBIG)
        if not f:
            continue
        try:
            inv = poly_inverse_mod(f, q, FBIG)
        except NotInvertibleError:
            continue
        assert poly_rem(poly_mul(inv, f, FBIG), q, FBIG) == (1,)


@pytest.mark.parametrize("F", [F7, PrimeField(2**61 - 1)], ids=["F7", "F_2^61-1"])
def test_inverse_mod_random_pairs(F):
    # One Euclid tracking only the cofactor of f: u·f ≡ 1 mod q, u reduced,
    # for every deg q from 1 to 30; a shared factor makes f a zero divisor.
    rng = random.Random(F.p)

    def draw(length):
        return from_int_coeffs([rng.randrange(F.p) for _ in range(length)], F)

    def monic_of_degree(degree):
        return tuple(rng.randrange(F.p) for _ in range(degree)) + (1,)

    for d in range(1, 31):
        q = monic_of_degree(d)
        found = 0
        while found < 3:
            f = draw(rng.randint(1, 2 * d))
            if not f or degree(poly_gcd(f, q, F)) != 0:
                continue
            u = poly_inverse_mod(f, q, F)
            assert degree(u) < d
            assert poly_rem(poly_mul(u, f, F), q, F) == (1,)
            found += 1
        shared = monic_of_degree(rng.randint(1, d))
        q2 = poly_mul(shared, monic_of_degree(rng.randint(0, d)), F)
        f2 = poly_mul(shared, monic_of_degree(rng.randint(0, d)), F)
        with pytest.raises(NotInvertibleError):
            poly_inverse_mod(f2, q2, F)


# -- resultants ---------------------------------------------------------------


def test_resultant_two_linears():
    # Res(T - a, T - b) = a - b
    for a, b in [(2, 5), (0, 1), (6, 6)]:
        got = resultant(fp([-a, 1]), fp([-b, 1]), F7)
        assert got == (a - b) % 7


def test_resultant_quadratic_linear_over_q():
    f = from_int_coeffs([-1, 0, 1], QQ)
    g = from_int_coeffs([-3, 1], QQ)
    assert resultant(f, g, QQ) == Fraction(8)  # (1-3)(-1-3)


def test_resultant_with_unit_is_one():
    assert resultant(fp([3, 0, 1]), (1,), F7) == 1


def test_resultant_shared_factor_is_zero():
    f = poly_mul(fp([-1, 1]), fp([2, 1]), F7)
    g = poly_mul(fp([-1, 1]), fp([3, 1]), F7)
    assert resultant(f, g, F7) == 0


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(1)
    for _ in range(40):
        df = rng.randrange(1, 7)
        dg = rng.randrange(1, 7)
        f = from_int_coeffs(
            [rng.randrange(101) for _ in range(df)] + [rng.randrange(1, 101)],
            F101,
        )
        g = from_int_coeffs(
            [rng.randrange(101) for _ in range(dg)] + [rng.randrange(1, 101)],
            F101,
        )
        assert resultant(f, g, F101) == sylvester_det(f, g, F101)


# -- one remainder sequence: resultant and inverse ---------------------------


def _draw_over(F, rng):
    """Random coefficients of F: residues, or small fractions over Q."""
    if F is QQ:
        return lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return lambda: F.from_int(rng.randrange(F.p))


@pytest.mark.parametrize(
    "F", [F101, PrimeField(2**61 - 1), QQ], ids=["F101", "F_2^61-1", "QQ"]
)
def test_remainder_sequence_matches_resultant_and_inverse(F):
    # Res(q, f) against the Sylvester determinant, and 1/f mod q against
    # its definition and ``poly_inverse_mod``, for deg q = 1, ..., 18 and
    # f of every length up to twice that: reduced mod q first.  Over Q
    # the generic division runs, over F_p the one on plain ints.
    rng = random.Random(len(repr(F)))
    draw = _draw_over(F, rng)

    def monic_of_degree(d):
        return tuple(draw() for _ in range(d)) + (F.one,)

    for d in range(1, 19 if F is not QQ else 9):
        q = monic_of_degree(d)
        shared = monic_of_degree(rng.randint(1, d))
        scale = F.from_int(rng.randint(2, 9))
        lengths = (0, d - 1, d, 2 * d)
        cases = [(q, scalar_mul(scale, monic_of_degree(n), F)) for n in lengths]
        # A shared factor makes Res = 0 and leaves f without an inverse.
        f = poly_mul(shared, monic_of_degree(rng.randint(0, d)), F)
        q2 = poly_mul(shared, monic_of_degree(rng.randint(0, d)), F)
        assert resultant_and_inverse(q2, f, F) == (F.zero, None)
        for m, g in cases + [(q, f), (q2, f)]:
            res, inv = resultant_and_inverse(m, g, F)
            assert res == sylvester_det(m, g, F) == resultant(m, g, F)
            if F.is_zero(res):
                assert inv is None
                continue
            assert degree(inv) < degree(m)
            assert poly_rem(poly_mul(inv, g, F), m, F) == (F.one,)
            assert inv == poly_inverse_mod(g, m, F)


@pytest.mark.parametrize("F", [F101, QQ], ids=["F101", "QQ"])
def test_remainder_sequence_edge_cases(F):
    T = lambda a: from_int_coeffs([-a, 1], F)  # noqa: E731
    q = poly_mul(poly_mul(T(1), T(2), F), T(3), F)
    # A shared root: Res = 0 and no inverse, through ``poly_inverse_mod``
    # as NotInvertibleError.
    assert resultant_and_inverse(q, poly_mul(T(2), T(5), F), F) == (F.zero, None)
    with pytest.raises(NotInvertibleError):
        poly_inverse_mod(poly_mul(T(2), T(5), F), q, F)
    # g = 0, and a g that is 0 mod q.
    assert resultant_and_inverse(q, (), F) == (F.zero, None)
    assert resultant_and_inverse(q, poly_mul(q, T(7), F), F) == (F.zero, None)
    # A constant g = c: Res = c^deg q and 1/g = 1/c.
    c = F.from_int(4)
    assert resultant_and_inverse(q, (c,), F) == (F.mul(c, F.mul(c, c)), (F.inv(c),))
    # The quotient by q = 1 is the zero ring: Res(1, g) = 1, 1/g = 0.
    assert resultant_and_inverse((F.one,), T(5), F) == (F.one, ())
    assert resultant_and_inverse((F.one,), (), F) == (F.one, ())


# -- squarefree part ----------------------------------------------------------


def test_squarefree_part_strips_multiplicity():
    # (T-1)^2 (T+2) -> (T-1)(T+2)
    sq = poly_mul(poly_mul(fp([-1, 1], FBIG), fp([-1, 1], FBIG), FBIG),
                  fp([2, 1], FBIG), FBIG)
    assert squarefree_part(sq, FBIG) == poly_mul(
        fp([-1, 1], FBIG), fp([2, 1], FBIG), FBIG
    )


def test_squarefree_part_of_squarefree_is_monic_self():
    f = fp([3, 1, 2], FBIG)
    assert squarefree_part(f, FBIG) == monic(f, FBIG)


def test_squarefree_part_of_constant_is_one():
    assert squarefree_part(fp([5], FBIG), FBIG) == (1,)


def test_squarefree_part_characteristic_guard():
    F5 = PrimeField(5)
    f = from_int_coeffs([1, 0, 0, 0, 0, 0, 1], F5)  # degree 6 > 5
    with pytest.raises(CharacteristicTooSmallError):
        squarefree_part(f, F5)


# -- factorization ------------------------------------------------------------


def test_factor_splits_difference_of_squares():
    rng = random.Random(2)
    got = factor_squarefree(fp([-1, 0, 1]), F7, rng)
    assert got == sorted([fp([-1, 1]), fp([1, 1])], key=lambda q: (degree(q), q))


def test_factor_keeps_irreducible_quadratic():
    F3 = PrimeField(3)
    f = from_int_coeffs([1, 0, 1], F3)  # no root in F_3
    got = factor_squarefree(f, F3, random.Random(0))
    assert got == [f]


def test_factor_four_rational_roots():
    rng = random.Random(3)
    f = fp([4, 0, -5, 0, 1])  # T^4 - 5T^2 + 4
    got = factor_squarefree(f, F7, rng)
    assert len(got) == 4
    for q in got:
        assert degree(q) == 1
        root = F7.neg(q[0])
        assert poly_eval(f, root, F7) == 0


def test_factor_product_and_irreducibility_property():
    rng = random.Random(4)
    for _ in range(15):
        deg = rng.randrange(2, 9)
        f = from_int_coeffs(
            [rng.randrange(101) for _ in range(deg)] + [1], F101
        )
        f = squarefree_part(f, F101)
        if degree(f) < 1:
            continue
        factors = factor_squarefree(f, F101, rng)
        prod = (1,)
        for q in factors:
            prod = poly_mul(prod, q, F101)
            assert is_irreducible(q, F101)
        assert prod == f


# -- interpolation ------------------------------------------------------------


def test_interpolate_line_through_origin_offset():
    assert interpolate([(0, 1), (1, 2)], F7) == fp([1, 1])


def test_interpolate_two_generic_points():
    assert interpolate([(1, 2), (2, 3)], F7) == fp([1, 1])


def test_interpolate_single_point_is_constant():
    assert interpolate([(4, 6)], F7) == fp([6])


def test_interpolate_duplicate_node_rejected():
    with pytest.raises(DuplicateNodeError):
        interpolate([(1, 2), (1, 3)], F7)


class _CountingField(ResidueRing):
    """F_p that counts its inversions."""

    inversions = 0

    def inv(self, a):
        self.inversions += 1
        return super().inv(a)


def test_interpolate_inverts_once_per_call():
    # The node differences are inverted together: one ``F.inv`` per call,
    # whatever the number of nodes.
    rng = random.Random(6)
    for n in range(1, 20):
        F = _CountingField(10007, 1)
        nodes = rng.sample(range(10007), n)
        pts = [(a, rng.randrange(10007)) for a in nodes]
        f = interpolate(pts, F)
        assert F.inversions == 1
        assert degree(f) < n
        assert all(poly_eval(f, a, F) == v for a, v in pts)


def test_interpolate_roundtrip_property():
    rng = random.Random(5)
    for _ in range(10):
        deg = rng.randrange(0, 6)
        f = from_int_coeffs(
            [rng.randrange(101) for _ in range(deg + 1)], F101
        )
        nodes = rng.sample(range(101), degree(f) + 1 if f else 1)
        pts = [(a, poly_eval(f, a, F101)) for a in nodes]
        assert interpolate(pts, F101) == f


# -- polynomial CRT -----------------------------------------------------------


def test_crt_two_linear_moduli():
    got = crt_polys([(fp([2]), fp([-1, 1])), (fp([3]), fp([-2, 1]))], F7)
    assert got == fp([1, 1])  # T + 1 hits 2 at T=1 and 3 at T=2


def test_crt_single_modulus_is_identity():
    v, q = fp([3, 1]), fp([1, 1, 1])
    assert crt_polys([(v, q)], F7) == v


def test_crt_all_zero_residues():
    got = crt_polys([((), fp([-1, 1])), ((), fp([-2, 1]))], F7)
    assert got == ()


def test_crt_rejects_non_coprime_moduli():
    with pytest.raises(ModuliNotCoprimeError):
        crt_polys([(fp([1]), fp([-1, 1])), (fp([2]), fp([-1, 0, 1]))], F7)


def test_crt_residues_property():
    rng = random.Random(6)
    for _ in range(10):
        moduli = []
        used = set()
        for _ in range(3):
            while True:
                root = rng.randrange(101)
                if root not in used:
                    used.add(root)
                    break
            moduli.append(from_int_coeffs([-root, 1], F101))
        residues = [
            (from_int_coeffs([rng.randrange(101)], F101), q) for q in moduli
        ]
        v = crt_polys(residues, F101)
        for res, q in residues:
            assert poly_rem(v, q, F101) == res


# -- rational reconstruction --------------------------------------------------


def test_rational_reconstruct_one_third():
    assert rational_reconstruct(3336, 10007) == (1, 3)


def test_rational_reconstruct_small_integer():
    assert rational_reconstruct(5, 1000003) == (5, 1)


def test_rational_reconstruct_half_residue():
    # floor(m/2) is congruent to -1/2: the reconstruction exists and is found.
    num, den = rational_reconstruct(10007 // 2, 10007)
    assert (num, den) == (-1, 2)
    # Cross-check by exhausting every fraction below the default bound.
    matches = [
        (u, v)
        for v in range(1, 71)
        for u in range(-70, 71)
        if (u - (10007 // 2) * v) % 10007 == 0
    ]
    assert (num, den) in matches


def test_rational_reconstruct_failure_detected():
    # m = 101 has bound 7; exhaustion shows no fraction matches a = 37.
    m, a = 101, 37
    bound = 7
    assert not [
        (u, v)
        for v in range(1, bound + 1)
        for u in range(-bound, bound + 1)
        if (u - a * v) % m == 0
    ]
    with pytest.raises(NoReconstructionError):
        rational_reconstruct(a, m)


def test_rational_reconstruct_roundtrip_property():
    rng = random.Random(7)
    p = 2305843009213693951
    m = p**2  # prime power above 2**62
    for _ in range(500):
        num = rng.randrange(-(2**30) + 1, 2**30)
        den = rng.randrange(1, 2**30)
        g = gcd(abs(num), den)
        num //= g
        den //= g
        a = num * pow(den, -1, m) % m
        assert rational_reconstruct(a, m) == (num, den)


# Maximal-quotient reconstruction trades balance for reach: it returns the
# pair before the largest Euclidean quotient once that quotient passes the
# guard T, so it recovers any fraction with m > 2·T·(|num|·den)^2, however
# unbalanced, and a fraction with |num| close to den only when that
# quotient stands out.


def _within_reach(num, den, extra):
    """A modulus m prime to den with m > 2·T(m)·(|num|·den)^2, ``extra``
    bits above the least such size."""
    size = max(abs(num) * den, 1)
    floor = 2 * size * size
    shift = 0
    while floor << shift <= 2 * reconstruction_guard(floor << (shift + 1)) * (
        size * size
    ):
        shift += 1
    m = (floor << (shift + extra)) + 1
    while gcd(den, m) != 1:
        m += 1
    return m


@st.composite
def _fractions_within_reach(draw):
    """A fraction num/den in lowest terms, of up to 200 bits each, and a
    modulus within its reach."""
    num = draw(st.integers(-(2**200), 2**200))
    den = draw(st.integers(1, 2**200))
    g = gcd(num, den)
    m = _within_reach(num // g, den // g, draw(st.integers(0, 64)))
    return num // g, den // g, m


@settings(max_examples=200)
@given(_fractions_within_reach())
def test_rational_reconstruct_recovers_every_fraction_within_reach(case):
    num, den, m = case
    assert m > 2 * reconstruction_guard(m) * (abs(num) * den) ** 2
    a = num * pow(den, -1, m) % m
    assert rational_reconstruct(a, m) == (num, den)


def test_rational_reconstruct_reaches_past_the_balanced_bound():
    # A Kronecker-form coefficient: a large numerator over a small
    # denominator.  sqrt(m/2) bounds neither its numerator nor, below the
    # numerator's square, m; the product |num|·den is well within reach.
    rng = random.Random(16)
    m = 3**151  # 240 bits
    for _ in range(50):
        num = rng.getrandbits(150) | 1 << 149
        den = rng.getrandbits(30) | 1 << 29
        g = gcd(num, den)
        num, den = num // g, den // g
        if den % 3 == 0:
            continue
        assert num > isqrt(m // 2)
        a = num * pow(den, -1, m) % m
        assert rational_reconstruct(a, m) == (num, den)
        assert rational_reconstruct(m - a, m) == (-num, den)


def test_rational_reconstruct_refuses_a_coincidental_quotient():
    m = 3**151
    guard = reconstruction_guard(m)
    rng = random.Random(17)
    # A random residue: its largest quotient is far below the guard.
    for _ in range(100):
        with pytest.raises(NoReconstructionError):
            rational_reconstruct(rng.randrange(m), m)
    # A fraction with |num|·den just below m/2^20: its quotient, about 2^20,
    # is the largest of the sequence but not above the guard.
    num, den = 2**109 + 1, 2**110 + 3
    a = num * pow(den, -1, m) % m
    q, r, t = max(euclidean_sequence(a, m), key=lambda step: step[0])
    assert (r, t) == (num, den) and 2**19 < q < guard
    with pytest.raises(NoReconstructionError):
        rational_reconstruct(a, m)


def test_rational_reconstruct_refuses_past_the_digit_cap():
    # The modulus has 9543 decimal digits, past the interpreter's cap on
    # int-to-str conversion, which the refusal must not format.
    m = 3**20000
    with pytest.raises(NoReconstructionError, match="within the bound"):
        rational_reconstruct(random.Random(9).randrange(m), m)


def test_rational_reconstruct_takes_the_first_of_two_largest_quotients():
    # m/a has the continued fraction [3; 2^40, 5, 2^40, 7]: the early stop
    # must not pass over the first 2^40 for the second.
    quotients = [3, 2**40, 5, 2**40, 7]
    m, a = quotients[-1], 1
    for q in reversed(quotients[:-1]):
        m, a = q * m + a, m
    steps = list(euclidean_sequence(a, m))
    assert [q for q, _, _ in steps] == quotients
    _, r, t = steps[1]
    assert rational_reconstruct(a, m) == (-r, -t)
    assert maximal_quotient_reconstruct(a, m) == (-r, -t)


@st.composite
def _residues(draw):
    """A modulus m and a residue a = num/den mod m: any residue, or a
    fraction of up to 2^2000 over up to 2^2000, for m up to 2^4000."""
    m = draw(st.integers(3, 2**4000))
    if draw(st.booleans()):
        return m, draw(st.integers(0, m - 1))
    den = draw(st.integers(1, 2**2000).filter(lambda d: gcd(d, m) == 1))
    num = draw(st.integers(-(2**2000), 2**2000))
    return m, num * pow(den, -1, m) % m


@settings(max_examples=200)
@given(_residues())
def test_rational_reconstruct_of_any_residue_is_within_reach_or_refused(case):
    m, a = case
    try:
        num, den = rational_reconstruct(a, m)
    except NoReconstructionError:
        return
    assert abs(num) * den * reconstruction_guard(m) < m
    assert den > 0 and gcd(num, den) == 1 and gcd(den, m) == 1
    assert (num - a * den) % m == 0


@settings(max_examples=200)
@given(_residues())
def test_rational_reconstruct_stops_early_as_the_full_sequence_would(case):
    # The loop stops once no later quotient can beat the best one; the
    # reference runs the whole sequence.
    m, a = case
    try:
        got = rational_reconstruct(a, m)
    except NoReconstructionError:
        got = None
    assert got == maximal_quotient_reconstruct(a, m)


# Moduli one bit below Barrett's crossover, at it and one bit above, each
# at the bottom and the top of its size, where the truncated quotient errs
# most; and a deep rung.
BARRETT_MODULI = {
    name: m
    for b in (Barrett.BITS - 1, Barrett.BITS, Barrett.BITS + 1)
    for name, m in ((f"2^{b - 1}+1", 2 ** (b - 1) + 1), (f"2^{b}-1", 2**b - 1))
}
BARRETT_MODULI["(2^61-1)^64"] = (2**61 - 1) ** 64


@pytest.mark.parametrize("m", BARRETT_MODULI.values(), ids=BARRETT_MODULI.keys())
def test_barrett_reduces_every_integer(m):
    # The reduction is exact at any size; the package uses it from the
    # crossover on.  The values: the residues' edges, the negative
    # unreduced sums ``divmod_monic`` leaves (up to 64 subtracted products
    # below m^2), the bound 2^s (s = 2·bits(m) + 64) from either side, and
    # past it, where it falls back to ``%``.
    n = m.bit_length()
    modulus = Barrett(m)
    assert modulus == m
    bound = 1 << (2 * n + 64)
    top = (m - 1) ** 2
    values = [0, 1, -1, m, -m, m - 1, 1 - m, m + 1, 2 * m, -2 * m, 3 * m - 1]
    values += [j * top for j in (-64, -63, -1, 1, 2, 64)]
    values += [m * m, -m * m]
    values += [bound - 1, 1 - bound, bound - m, m - bound, bound, -bound]
    values += [bound + 1, -bound - 1, bound * m, -(bound**2) - 5]
    values += [(bound // m) * m + r for r in (-1, 0, 1, m - 1)]
    rng = random.Random(n)
    values += [rng.randrange(-bound, bound) for _ in range(300)]
    values += [rng.randrange(-64 * top, top) for _ in range(300)]
    for x in values:
        assert x % modulus == x % m, x


@pytest.mark.parametrize("cut", (0, 2, 3, 5))
def test_karatsuba_matches_schoolbook(cut):
    # Odd, even and unequal lengths, a factor of length 1, zero
    # coefficients and a factor that is all zeros, added into a list that
    # is not zero and longer than the product.
    rng = random.Random(cut)
    lengths = (0, 1, 2, 3, 4, 5, 7, 8, 11, 16, 17)

    def draw(n):
        f = [rng.choice((0, rng.randrange(-(2**200), 2**200))) for _ in range(n)]
        return tuple(f) if rng.random() < 0.5 else f

    for la in lengths:
        for lb in lengths:
            for f, g in ((draw(la), draw(lb)), ([0] * la, draw(lb))):
                out = [rng.randrange(-9, 9) for _ in range(la + lb + 1)]
                want = int_convolve(list(out), f, g)
                assert int_karatsuba(list(out), f, g, cut) == want, (la, lb)
