import random

import pytest

from kronecker import polys
from kronecker.errors import NotInvertibleError
from kronecker.polys import poly_eval
from kronecker.rings import (
    PolyQuotient,
    PrimeField,
    ResidueRing,
    SeriesRing,
)

from reference.polys import from_int_coeffs
from reference.rings import ExtField

F7 = PrimeField(7)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(15)
    with pytest.raises(ValueError):
        PrimeField(2)


def test_prime_field_is_the_residue_ring_of_exponent_one():
    assert PrimeField(7) == ResidueRing(7, 1)
    assert hash(PrimeField(7)) == hash(ResidueRing(7, 1))
    assert PrimeField(7) != ResidueRing(7, 2)
    assert PrimeField(7) != PrimeField(11)
    assert ResidueRing(7, 3).residue_field() == F7


def test_only_exponent_one_is_a_field():
    assert [ResidueRing(7, k).is_field for k in (1, 2, 3)] == [True, False, False]


def test_residue_ring_inverse_and_reduction():
    R = ResidueRing(7, 3)
    a = 12
    assert R.mul(a, R.inv(a)) == 1
    assert R.residue(R.from_int(-5)) == 2
    with pytest.raises(NotInvertibleError):
        R.inv(7)


def test_ext_field_arithmetic():
    # F_7[x]/(x^2 + 1); (x)(x) = -1
    L = ExtField(F7, from_int_coeffs([1, 0, 1], F7))
    assert L.mul(L.gen, L.gen) == (6,)
    a = (3, 2)
    assert L.mul(a, L.inv(a)) == L.one


def test_ext_field_is_a_quotient_and_a_field():
    L = ExtField(F7, from_int_coeffs([1, 0, 1], F7))
    assert isinstance(L, PolyQuotient)
    assert L.is_field
    assert (L.p, L.size) == (7, 49)
    with pytest.raises(ValueError):
        ExtField(F7, (1,))


def test_quotient_inverse_over_ext_field():
    # F_49[T]/(T^3 + x T + 1), x^2 = -1, inverts by Euclid over F_49.
    L = ExtField(F7, from_int_coeffs([1, 0, 1], F7))
    A = PolyQuotient(L, (L.one, L.gen, L.zero, L.one))
    rng = random.Random(2)
    inverted = 0
    for _ in range(10):
        u = A.reduce([L.reduce((rng.randrange(7), rng.randrange(7))) for _ in range(3)])
        try:
            v = A.inv(u)
        except NotInvertibleError:
            continue
        assert A.mul(u, v) == A.one
        inverted += 1
    assert inverted


def test_series_inverse():
    S = SeriesRing(F7, 5)
    a = (1, 3, 0, 2)
    b = S.inv(a)
    assert S.mul(a, b) == S.one
    with pytest.raises(NotInvertibleError):
        S.inv((0, 1))


def test_series_truncation():
    S = SeriesRing(F7, 3)
    assert S.mul((0, 1), (0, 0, 1)) == ()  # t * t^2 = t^3 = 0


def test_quotient_inverse_over_field():
    A = PolyQuotient(F7, from_int_coeffs([-1, 0, 1], F7))
    u = (0, 2)
    assert A.mul(u, A.inv(u)) == A.one


def test_quotient_inverse_over_residue_ring():
    rng = random.Random(0)
    R = ResidueRing(10007, 8)
    q = tuple(R.from_int(c) for c in [3, 1, 4, 1, 1])
    A = PolyQuotient(R, q)
    for _ in range(10):
        u = tuple(rng.randrange(R.modulus) for _ in range(4))
        try:
            v = A.inv(u)
        except NotInvertibleError:
            continue
        assert A.mul(u, v) == A.one


def test_quotient_inverse_over_series_ring():
    rng = random.Random(1)
    S = SeriesRing(F7, 6)
    # monic modulus T^2 - (1 + t)
    q = ((6, 6), (), (1,))
    A = PolyQuotient(S, q)
    for _ in range(10):
        u = tuple(
            tuple(rng.randrange(7) for _ in range(3)) for _ in range(2)
        )
        u = A.reduce(u)
        try:
            v = A.inv(u)
        except NotInvertibleError:
            continue
        assert A.mul(u, v) == A.one


# Small, word-size and just-below-word-size primes: the slot width of the
# packed product grows with bits(p).
PACKED_PRIMES = (3, 7, 1152921504606846883, 4611686018427387847)


def _series_poly(rng, S, length):
    """A polynomial over S of the given length whose series may run past
    the precision and carry trailing zeros: the product must not rely on
    canonical operands."""
    p = S.field.p
    return tuple(
        tuple(rng.randrange(p) for _ in range(rng.randint(0, S.prec + 2)))
        for _ in range(length)
    )


def _schoolbook(a, b, q, S):
    return polys.rem_monic(polys.poly_mul(a, b, S), q, S)


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_quotient_product_matches_schoolbook(p):
    rng = random.Random(p)
    F = ResidueRing(p, 1)
    for k in range(1, 41):
        S = SeriesRing(F, k)
        for d in (k % 21, (k * 8) % 21):
            q = _series_poly(rng, S, d) + (S.one,)
            A = PolyQuotient(S, q)
            lengths = (rng.randint(0, 2 * d), rng.randint(1, 2 * d + 1))
            for la, lb in (lengths, (2 * d, 0)):
                a = _series_poly(rng, S, la)
                b = _series_poly(rng, S, lb)
                assert A.mul(a, b) == _schoolbook(a, b, q, S)


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_quotient_product_worst_case_slots(p):
    # Every coefficient p - 1 at the largest lengths: the slots of the
    # product and of every division step are as full as they get.
    S = SeriesRing(ResidueRing(p, 1), 40)
    full = (p - 1,) * 40
    q = (full,) * 20 + (S.one,)
    a = (full,) * 40
    assert PolyQuotient(S, q).mul(a, a) == _schoolbook(a, a, q, S)
    assert PolyQuotient(S, q[19:]).mul(a, a[:1]) == _schoolbook(a, a[:1], q[19:], S)


def test_quotient_detects_zero_divisor():
    # T - 1 is a zero divisor mod T^2 - 1
    A = PolyQuotient(F7, from_int_coeffs([-1, 0, 1], F7))
    with pytest.raises(NotInvertibleError):
        A.inv(from_int_coeffs([-1, 1], F7))


def test_ext_field_element_evaluation_consistency():
    # poly evaluation over the extension agrees with root arithmetic
    L = ExtField(F7, from_int_coeffs([3, 0, 1], F7))  # x^2 = -3 = 4
    f = tuple(L.from_int(c) for c in [2, 0, 1])  # T^2 + 2
    assert poly_eval(f, L.gen, L) == L.add(L.mul(L.gen, L.gen), L.from_int(2))
