import random

import pytest

from kronecker.polys import (
    degree,
    monic,
    poly_mul,
    resultant,
)
from kronecker.rings import PrimeField
from kronecker.slp import AffineChange, parse_system

from reference.oracle import (
    SizeGuardError,
    brute_force_fiber,
    brute_force_fiber_ext,
    mulmat_charpoly,
    sylvester_det,
)
from reference.polys import from_int_coeffs
from reference.rings import ExtField

F11 = PrimeField(11)
F101 = PrimeField(101)


def test_brute_force_two_quadrics_full_fiber():
    slp = parse_system("vars x,y; x^2 + y^2 - 5; x*y - 2;")
    pts = brute_force_fiber(slp, AffineChange.identity(2), (), 11)
    assert pts == {(1, 2), (2, 1), (10, 9), (9, 10)}


def test_brute_force_inconsistent_system_is_empty():
    slp = parse_system("vars x,y; x; x - 1;")
    assert brute_force_fiber(slp, AffineChange.identity(2), (), 11) == set()


def test_brute_force_linear_slice_single_point():
    # x + y - 1 = 0 together with the slice x = 2 over F_5: y = 4
    slp = parse_system("vars x,y; x + y - 1;")
    pts = brute_force_fiber(slp, AffineChange.identity(2), (2,), 5)
    assert pts == {(2, 4)}


def test_brute_force_size_guard():
    slp = parse_system("vars w,x,y,z; w + x + y + z;")
    with pytest.raises(SizeGuardError):
        brute_force_fiber(slp, AffineChange.identity(4), (1, 1, 1), 101)


def test_brute_force_ext_finds_conjugate_roots():
    # x^2 + 1 has no roots in F_11 but two in F_11[i]
    slp = parse_system("vars x; x^2 + 1;")
    assert brute_force_fiber(slp, AffineChange.identity(1), (), 11) == set()
    L = ExtField(F11, from_int_coeffs([1, 0, 1], F11))
    pts = brute_force_fiber_ext(slp, AffineChange.identity(1), (), L)
    assert pts == {((0, 1),), ((0, 10),)}


def test_charpoly_companion_generator():
    q = from_int_coeffs([-1, 0, 1], F101)
    got = mulmat_charpoly(from_int_coeffs([0, 1], F101), q, F101)
    assert got == from_int_coeffs([-1, 0, 1], F101)  # S^2 - 1


def test_charpoly_constant_multiplier():
    q = from_int_coeffs([3, 4, 0, 1], F101)
    c = 9
    got = mulmat_charpoly(from_int_coeffs([c], F101), q, F101)
    want = (1,)
    for _ in range(degree(q)):
        want = poly_mul(want, from_int_coeffs([-c, 1], F101), F101)
    assert got == want  # (S - c)^deg q


def test_charpoly_square_of_generator():
    # T^2 = 2 mod (T^2 - 2), so multiplication by T^2 is scalar 2.
    q = from_int_coeffs([-2, 0, 1], F101)
    got = mulmat_charpoly(from_int_coeffs([0, 0, 1], F101), q, F101)
    assert got == poly_mul(
        from_int_coeffs([-2, 1], F101), from_int_coeffs([-2, 1], F101), F101
    )


def test_charpoly_guard():
    q = from_int_coeffs([1] * 9 + [1], F101)
    with pytest.raises(SizeGuardError):
        mulmat_charpoly((1,), q, F101)


def test_charpoly_constant_term_is_signed_resultant():
    rng = random.Random(0)
    for _ in range(25):
        dq = rng.randrange(1, 7)
        q = monic(
            from_int_coeffs(
                [rng.randrange(101) for _ in range(dq)] + [1], F101
            ),
            F101,
        )
        h = from_int_coeffs(
            [rng.randrange(101) for _ in range(rng.randrange(1, dq + 1))],
            F101,
        )
        chi = mulmat_charpoly(h, q, F101)
        const = chi[0] if chi else 0
        sign = F101.one if degree(q) % 2 == 0 else F101.neg(F101.one)
        assert const == F101.mul(sign, resultant(q, h, F101))


def test_sylvester_det_small_cases():
    # Res(T - a, T - b) = a - b with both polynomials monic linear.
    f = from_int_coeffs([-4, 1], F101)
    g = from_int_coeffs([-9, 1], F101)
    assert sylvester_det(f, g, F101) == (4 - 9) % 101
