import random
import tracemalloc
from fractions import Fraction
from functools import reduce

import pytest

from kronecker import polys
from kronecker.errors import NotInvertibleError
from kronecker.polys import Barrett, poly_eval
from kronecker.rings import (
    QQ,
    ZZ,
    PolyQuotient,
    PrimeField,
    ResidueRing,
    SeriesRing,
)

from kronecker.verify import _Packed
from reference.polys import from_int_coeffs, mul_rem_mod
from reference.rings import ExtField, newton_inverse, reduced

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


def test_only_exponent_one_is_a_field():
    assert [ResidueRing(7, k).is_field for k in (1, 2, 3)] == [True, False, False]
    # The foot of the curve lift's ladder, F_7[t]/(t), is a field too.
    assert [SeriesRing(F7, k).is_field for k in (1, 2, 3)] == [True, False, False]


def test_residue_ring_inverse_and_reduction():
    R = ResidueRing(7, 3)
    a = 12
    assert R.mul(a, R.inv(a)) == 1
    assert R.from_int(-5) == 7**3 - 5
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
        coeffs = [reduced(L, (rng.randrange(7), rng.randrange(7))) for _ in range(3)]
        u = reduced(A, coeffs)
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
    # Random units at several precisions, some longer than the precision.
    F = PrimeField(10007)
    rng = random.Random(32)
    for prec in (1, 2, 5, 64):
        S = SeriesRing(F, prec)
        for length in (1, prec, 2 * prec + 3):
            a = (rng.randrange(1, 10007),)
            a += tuple(rng.randrange(10007) for _ in range(length - 1))
            assert S.mul(a, S.inv(a)) == S.one
    # A solve inverts a non-constant series through a quotient by a linear
    # q: every reduced element there is one series.
    S = SeriesRing(F, 8)
    A = PolyQuotient(S, ((3, 1), S.one))
    u = ((5, 0, 2, 9),)
    assert A.mul(u, A.inv(u)) == A.one
    with pytest.raises(NotInvertibleError):
        A.inv(((0, 4),))


def test_series_truncation():
    S = SeriesRing(F7, 3)
    assert S.mul((0, 1), (0, 0, 1)) == ()  # t * t^2 = t^3 = 0
    # Either operand may run past t^3; sums and differences drop that tail.
    long = (1, 2, 3, 4, 5)
    assert S.add(long, (6,)) == S.add((6,), long) == (0, 2, 3)
    assert S.sub(long, (1, 2)) == (0, 0, 3)
    assert S.sub((1, 2), long) == (0, 0, 4)


def test_quotient_inverse_over_field():
    A = PolyQuotient(F7, from_int_coeffs([-1, 0, 1], F7))
    u = (0, 2)
    assert A.mul(u, A.inv(u)) == A.one


def _local_inverses(A, draw):
    """Random elements of A = R[T]/(q) over a local ring R and their
    reference inverses; a non-constant one has no ``A.inv``, and a non-unit
    none at all."""
    inverted = 0
    for _ in range(10):
        u = reduced(A, [draw() for _ in range(A.deg)])
        if len(u) > 1:
            with pytest.raises(ValueError):
                A.inv(u)
        try:
            v = newton_inverse(A, u)
        except NotInvertibleError:
            continue
        assert A.mul(u, v) == A.one
        # Its image over the residue field is the inverse there.
        low = A.at_precision(1)
        assert low.base.truncate(v) == low.inv(low.base.truncate(u))
        inverted += 1
    assert inverted


def test_quotient_inverse_over_residue_ring():
    rng = random.Random(0)
    R = ResidueRing(10007, 8)
    q = tuple(R.from_int(c) for c in [3, 1, 4, 1, 1])
    _local_inverses(PolyQuotient(R, q), lambda: rng.randrange(R.modulus))


def test_quotient_inverse_over_series_ring():
    rng = random.Random(1)
    S = SeriesRing(F7, 6)
    # monic modulus T^2 - (1 + t)
    q = ((6, 6), (), (1,))
    _local_inverses(
        PolyQuotient(S, q), lambda: tuple(rng.randrange(7) for _ in range(3))
    )
    # Over the foot F_7[t]/(t), a field, the remainder sequence inverts.
    A = PolyQuotient(SeriesRing(F7, 1), ((6,), (), (1,)))
    u = ((2,), (3,))
    assert A.mul(u, A.inv(u)) == A.one


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
    """a·b mod q by ``polys``, or over Z/p^k by CPython's ``%`` alone, so
    that the reference shares no reduction with the kernels."""
    if isinstance(S, ResidueRing):
        return mul_rem_mod(a, b, q, S)
    return polys.rem_monic(polys.poly_mul(a, b, S), q, S)


def _reference_sum(us, vs, q, R):
    """Σ us[i]·vs[i] mod q, one ``_schoolbook`` product at a time: a
    reference that shares no line with the quotient kernels."""
    products = [_schoolbook(a, b, q, R) for a, b in zip(us, vs)]
    return reduce(lambda f, g: polys.poly_add(f, g, R), products, ())


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


L7 = ExtField(F7, from_int_coeffs([1, 0, 1], F7))  # F_49 = F_7[x]/(x^2 + 1)


def _protocol_contexts(rng):
    """(ring, draw) for every ring context: each base ring, the quotient
    by a monic cubic over each of them, F_7[T]/(T^3) as the parser's line
    evaluation builds it, and the packed ring of the exact check over Q in
    both of its modes.  ``draw()`` is a random element, not always
    reduced."""
    S = SeriesRing(F7, 3)
    bases = [
        (ResidueRing(7, 2), lambda: rng.randrange(-100, 100)),
        (QQ, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))),
        (ZZ, lambda: rng.randint(-9, 9)),
        (S, lambda: tuple(rng.randrange(7) for _ in range(rng.randint(0, 5)))),
        (L7, lambda: polys.normalize([rng.randrange(7) for _ in range(2)], F7)),
    ]
    for R, draw in bases:
        yield R, draw
    yield PolyQuotient(F7, (0, 0, 0, 1)), lambda: tuple(
        rng.randrange(-9, 9) for _ in range(rng.randint(0, 5))
    )
    for R, draw in bases:
        A = PolyQuotient(R, (draw(), draw(), draw(), R.one))
        # Up to twice the length of q: longer than q, unreduced.
        yield A, lambda draw=draw: tuple(
            draw() for _ in range(rng.randint(0, 8))
        )
    for norms in (False, True):
        packed = _Packed(rng.randint(1, 99), norms)
        yield packed, lambda norms=norms: (
            rng.randint(0 if norms else -99, 99),
            rng.randint(0, 2),
            rng.randint(1, 6),
        )


def test_every_ring_dot_is_the_sum_of_products():
    # The SLP runs a ``lin`` as one ``dot`` of embedded coefficients and
    # operand values: on every context, with a scalar factor, a zero
    # operand and (over the quotients) a factor longer than q among the
    # pairs, ``dot`` must equal the fold of ``mul`` and ``add``.
    rng = random.Random(24)
    for R, draw in _protocol_contexts(rng):
        for _ in range(20):
            count = rng.randint(1, 5)
            us = [draw() for _ in range(count)]
            vs = [draw() for _ in range(count)]
            us[0] = R.from_int(rng.randint(-9, 9))
            vs[-1] = R.zero
            want = reduce(R.add, map(R.mul, us, vs), R.zero)
            assert R.dot(us, vs) == want, R
            assert R.dot(vs, us) == want, R
        assert R.dot([], []) == R.zero


# The integer kernels of R[T]/(q) over Z/p^k: a small, a word-size and a
# 61-bit Mersenne prime, at exponents 1, 2 and 8; and two deep rungs past
# the Barrett crossover of 2,500 bits and past Karatsuba's rule, length ·
# bits(p^k) > 8000: the Mersenne prime at k = 64 (3,904 bits) and a 30-bit
# prime at k = 512 (15,360 bits), as provable mode climbs to.
DEEP_BASES = [ResidueRing(2**61 - 1, 64), ResidueRing(2**30 - 35, 512)]
KERNEL_BASES = [
    ResidueRing(p, k) for p in (3, 7, 2**61 - 1) for k in (1, 2, 8)
] + DEEP_BASES


def _residues(rng, R, length):
    """Coefficients that may be negative or past p^k, and may end in
    zeros: the kernels must not rely on reduced operands."""
    m = R.modulus
    return tuple(rng.choice((0, rng.randrange(-2 * m, 2 * m))) for _ in range(length))


def _kernel_cases(R, seed):
    """(quotient, rng, operand lengths) for deg q = 0, ..., 20, or 1, ..., 8
    over the deep rungs; the lengths run from the empty element past twice
    the degree, scalars included."""
    rng = random.Random(seed)
    for d in range(1, 9) if R in DEEP_BASES else range(21):
        q = tuple(rng.randrange(R.modulus) for _ in range(d)) + (R.one,)
        lengths = sorted({0, 1, 2, d, d + 1, 2 * d + 1})
        yield PolyQuotient(R, q), rng, lengths


def _by_ring_protocol(a, b, q, R):
    """a·b mod q by R's own add, sub and mul, one coefficient at a time:
    a reference that shares none of the integer loops of ``polys``."""
    prod = [R.zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = R.add(prod[i + j], R.mul(x, y))
    d = len(q) - 1
    for i in range(len(prod) - 1, d - 1, -1):
        c = prod[i]
        for j in range(d + 1):
            prod[i - d + j] = R.sub(prod[i - d + j], R.mul(c, q[j]))
    return polys.normalize(prod[:d], R)


@pytest.mark.parametrize("R", KERNEL_BASES, ids=repr)
def test_residue_quotient_product_matches_reference(R):
    for A, rng, lengths in _kernel_cases(R, R.modulus):
        q = A.modulus
        for la in lengths:
            for lb in lengths:
                a, b = _residues(rng, R, la), _residues(rng, R, lb)
                # A deep ring's own ``%`` is Barrett's, which is under test.
                ref = _schoolbook if R in DEEP_BASES else _by_ring_protocol
                want = ref(a, b, q, R)
                assert A.mul(a, b) == want
                assert polys.rem_monic(polys.poly_mul(a, b, R), q, R) == want


@pytest.mark.parametrize("R", KERNEL_BASES, ids=repr)
def test_residue_quotient_dot_matches_sum_of_products(R):
    for A, rng, lengths in _kernel_cases(R, R.modulus + 1):
        for pairs in range(5):
            us = [_residues(rng, R, rng.choice(lengths)) for _ in range(pairs)]
            vs = [_residues(rng, R, rng.choice(lengths)) for _ in range(pairs)]
            assert A.dot(us, vs) == _reference_sum(us, vs, A.modulus, R)


@pytest.mark.parametrize("p", (3, 7, 2**61 - 1))
@pytest.mark.parametrize("k", (1, 2, 8))
def test_series_quotient_kernel_matches_reference(p, k):
    # A scalar operand against one longer than q must still be reduced.
    # Products and sums share every line of the kernel, so both are
    # checked against schoolbook products.
    S = SeriesRing(ResidueRing(p, 1), k)
    rng = random.Random(p * k)
    for d in range(21):
        q = _series_poly(rng, S, d) + (S.one,)
        A = PolyQuotient(S, q)
        lengths = sorted({0, 1, 2, d, d + 1, 2 * d + 1})
        for la in lengths:
            for lb in lengths:
                a, b = _series_poly(rng, S, la), _series_poly(rng, S, lb)
                assert A.mul(a, b) == _schoolbook(a, b, q, S)
        for pairs in range(4):
            us = [_series_poly(rng, S, rng.choice(lengths)) for _ in range(pairs)]
            vs = [_series_poly(rng, S, rng.choice(lengths)) for _ in range(pairs)]
            assert A.dot(us, vs) == _reference_sum(us, vs, q, S)


# Primes for the packed kernels of R[T]/(q) over Z/p^k: small, word-size,
# 61- and 62-bit.  Products are packed from deg q = 7 while p^k has at most
# 120 bits, from one degree more per 12 bits above that (deg 8 at 122
# bits, 18 at 244, 38 and 39 at k = 8 of the 61- and 62-bit primes), and
# convolved below, so the degrees run across the crossover at every p and k.
RESIDUE_PRIMES = (3, 7, 10007, 2**61 - 1, 2**62 - 57)
RESIDUE_DEGREES = (0, 1, 2, 5, 6, 7, 8, 9, 12, 16, 17, 18, 24, 37, 38, 39)


@pytest.mark.parametrize("p", RESIDUE_PRIMES)
@pytest.mark.parametrize("k", (1, 2, 4, 8))
def test_residue_quotient_kernel_matches_reference(p, k):
    # Zero operands, scalars on either side and factors longer than q, in
    # products and in sums of pairs of mixed lengths.
    R = ResidueRing(p, k)
    rng = random.Random(p * k)
    for d in RESIDUE_DEGREES:
        q = tuple(rng.randrange(R.modulus) for _ in range(d)) + (R.one,)
        dot = R.quotient_kernel(q)
        lengths = sorted({0, 1, 2, d, d + 1, 2 * d + 1})
        for la in lengths:
            for lb in lengths:
                a, b = _residues(rng, R, la), _residues(rng, R, lb)
                assert dot([a], [b]) == _reference_sum([a], [b], q, R)
        for pairs in range(6):
            us = [_residues(rng, R, rng.choice(lengths)) for _ in range(pairs)]
            vs = [_residues(rng, R, rng.choice(lengths)) for _ in range(pairs)]
            assert dot(us, vs) == _reference_sum(us, vs, q, R)


def _operands(rng, R, length):
    """An element of R[T] of the given length, not always reduced."""
    if isinstance(R, SeriesRing):
        return _series_poly(rng, R, length)
    return _residues(rng, R, length)


@pytest.mark.parametrize(
    "R", [ResidueRing(7, 1), ResidueRing(2**61 - 1, 2), SeriesRing(F7, 3)], ids=repr
)
@pytest.mark.parametrize("d", (1, 3, 6, 7, 9))
def test_quotient_kernels_keep_their_contract(R, d):
    # What a lean kernel can get wrong, on both sides of the packing
    # crossover at deg q = 7: factors longer than q, zero operands, empty
    # sums and sums of scalars alone, among them a scalar against a factor
    # longer than q.
    rng = random.Random(d)
    q = _operands(rng, R, d) + (R.one,)
    A = PolyQuotient(R, q)
    scalar = lambda: A.from_int(rng.randint(-9, 9))  # noqa: E731
    long, short = _operands(rng, R, 2 * d + 1), _operands(rng, R, d)
    sums = [
        ([], []),
        ([()], [long]),
        ([long, ()], [(), short]),
        ([scalar() for _ in range(4)], [scalar() for _ in range(4)]),
        ([scalar(), scalar(), scalar()], [long, short, ()]),
        ([long, short], [scalar(), scalar()]),
        ([long, scalar()], [long, long]),
    ]
    for us, vs in sums:
        want = _reference_sum(us, vs, q, R)
        assert A.dot(us, vs) == want
        assert A.dot(vs, us) == want


@pytest.mark.parametrize("R", [ResidueRing(2**61 - 1, 1), SeriesRing(F7, 3)], ids=repr)
def test_packed_kernel_repacks_by_slot_width_and_past_its_bound(R):
    # The packed kernel keeps the operands it packed, by element and slot
    # width, up to 256 of them: one pair of operands in sums of 1 to 40
    # pairs, whose slots widen, then 300 distinct products in one ring,
    # which empty the store, all against schoolbook sums.
    rng = random.Random(31)
    q = _operands(rng, R, 8) + (R.one,)
    A = PolyQuotient(R, q)
    a, b = _operands(rng, R, 8), _operands(rng, R, 8)
    for pairs in range(1, 41):
        assert A.dot([a] * pairs, [b] * pairs) == _reference_sum(
            [a] * pairs, [b] * pairs, q, R
        )
    for _ in range(300):
        a, b = _operands(rng, R, 8), _operands(rng, R, rng.randint(1, 17))
        assert A.mul(a, b) == _schoolbook(a, b, q, R)
    assert A.mul(a, b) == _schoolbook(a, b, q, R)


def test_packed_kernel_keeps_a_bounded_store():
    # However many distinct products one ring forms, it keeps at most 256
    # packed operands: after 3,000 products it holds far less memory than
    # the 6,000 operands would take (about 3 MB).
    R = ResidueRing(2**61 - 1, 1)
    A = PolyQuotient(R, tuple(range(1, 9)) + (1,))
    rng = random.Random(5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(3000):
            A.mul(_operands(rng, R, 8), _operands(rng, R, 8))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1_000_000


@pytest.mark.parametrize(
    "p, k, d",
    [(3, 8, 7), (10007, 2, 9), (2**61 - 1, 1, 7), (2**61 - 1, 2, 12),
     (2**62 - 57, 4, 18), (2**62 - 57, 1, 25)],
)
def test_packed_slots_hold_the_largest_sums(p, k, d):
    # Every coefficient m - 1, and -q ≡ m - 1 mod m: the division adds the
    # largest products too.  The slot width grows with the number of
    # pairs, so the sums run over every width up to 64 pairs, each at the
    # most pairs it holds.
    R = ResidueRing(p, k)
    m = R.modulus
    q = (1,) * (d + 1)
    dot = R.quotient_kernel(q)
    for length in (d, 2 * d + 1):
        a = (m - 1,) * length
        prod = polys.rem_monic(polys.poly_mul(a, a, R), q, R)
        assert dot([a], [a]) == prod
        for pairs in range(1, 65):
            want = polys.normalize([pairs * c % m for c in prod], R)
            assert dot([a] * pairs, [a] * pairs) == want


@pytest.mark.parametrize(
    "p, k, d",
    [(3, 40, 1), (7, 9, 3), (2**61 - 1, 3, 5), (2**62 - 57, 2, 4),
     (2**62 - 57, 1, 8), (10007, 40, 2), (2**62 - 57, 16, 2)],
)
def test_packed_series_slots_hold_the_largest_sums(p, k, d):
    # The test above over F_p[t]/(t^k): every coefficient of every series
    # p - 1, and -q ≡ p - 1 in every slot, summed over 1 to 64 pairs.
    S = SeriesRing(ResidueRing(p, 1), k)
    full = (p - 1,) * k
    q = ((1,) * k,) * d + (S.one,)
    dot = S.quotient_kernel(q)
    for length in (d, 2 * d + 1):
        a = (full,) * length
        prod = _schoolbook(a, a, q, S)
        for pairs in range(1, 65):
            want = [polys.normalize([pairs * c % p for c in s], S.field) for s in prod]
            assert dot([a] * pairs, [a] * pairs) == polys.normalize(want, S)


def test_zero_divisor_scalar_trims_the_top_coefficient():
    # In Z/p^2, p·(1 + p·T) = p: the product and the sum lose their top.
    p = 7
    A = PolyQuotient(ResidueRing(p, 2), (3, 1, 1))
    assert A.mul((p,), (1, p)) == (p,)
    assert A.mul((1, p), (p,)) == (p,)
    assert A.dot([(p,), ()], [(1, p), (5,)]) == (p,)
    assert A.dot([(p,), (1,)], [(1, p), (-1, 0)]) == (p - 1,)


@pytest.mark.parametrize(
    "A",
    [
        PolyQuotient(F7, (3, 1, 1)),
        PolyQuotient(ResidueRing(7, 3), (3, 1, 1)),
        PolyQuotient(SeriesRing(F7, 4), ((3, 1), (), (1,))),
    ],
    ids=["field", "residue", "series"],
)
def test_constant_inverts_through_the_base(A):
    R = A.base
    for c in (R.from_int(3), R.from_int(-2)):
        v = A.inv((c,))
        assert v == (R.inv(c),)
        assert A.mul((c,), v) == A.one
    non_units = [()]
    if not R.is_field:
        non_units.append((R.shift_up([R.one], 1)[0],))  # p, or t
    for u in non_units:
        with pytest.raises(NotInvertibleError):
            A.inv(u)


def test_constant_series_inverts_in_the_field():
    S = SeriesRing(F7, 5)
    assert S.inv((3,)) == (5,)
    assert S.inv((10,)) == (5,)
    with pytest.raises(NotInvertibleError):
        S.inv((0,))
    with pytest.raises(NotInvertibleError):
        S.inv((7,))


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_quotient_keeps_minus_q_per_slot_width(p):
    # One quotient, products whose slots widen from one length to the next
    # and narrow again: each must divide by -q packed at its own width.
    S = SeriesRing(ResidueRing(p, 1), 2)
    q = ((1, p - 2), (p - 1, 1), S.one)
    A = PolyQuotient(S, q)
    rng = random.Random(p)
    for la, lb in [(1, 3)] + [(n, n) for n in (2, 4, 8, 16, 32, 64, 128, 256)] + [(1, 3)]:
        a = tuple((rng.randrange(p), rng.randrange(p)) for _ in range(la))
        b = tuple((rng.randrange(p), rng.randrange(p)) for _ in range(lb))
        assert A.mul(a, b) == _schoolbook(a, b, q, S)


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


@pytest.mark.parametrize("k", (Barrett.BITS - 2, Barrett.BITS - 1))
def test_deep_rings_reduce_by_barrett(k):
    # 2^k has k + 1 bits: one ring below the crossover, one at it.
    R = ResidueRing(2, k)
    assert R.modulus is R.int_modulus and R.modulus == 2**k
    deep = k + 1 >= Barrett.BITS
    assert isinstance(R.modulus, Barrett) == deep
    if deep:  # one reciprocal per modulus, however often the ring is rebuilt
        assert R.at_precision(k).modulus is R.modulus
