import random

import pytest

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
