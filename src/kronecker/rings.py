"""Coefficient ring contexts shared by the circuit and polynomial code.

Each context exposes the same small protocol: ``zero``, ``one``, ``add``,
``sub``, ``mul``, ``dot``, ``neg``, ``from_int``, ``is_zero`` and ``inv``;
``dot(us, vs)`` is the sum of the products us[i]·vs[i].
Elements are ordinary Python values:

* ``ResidueRing``                 -- Z/p^k, ints reduced into [0, p^k); at
  k = 1 the prime field F_p, which ``PrimeField(p)`` builds after checking p;
* ``SeriesRing``                  -- F_p[t]/(t^k), tuples of ints (ascending
  powers);
* ``Rationals``                   -- ``fractions.Fraction``;
* ``PolyRing`` / ``PolyQuotient`` -- coefficient tuples over the base ring.

Everything is immutable and hashable, so contexts and elements can be shared
freely across threads.

The truncated local rings ``ResidueRing`` (Z/p^k, π = p) and ``SeriesRing``
(F[t]/(t^k), π = t) own their precision k: ``at_precision(m)`` is the same
ring at precision m, and ``truncate``, ``shift_down`` and ``shift_up`` take
a whole coefficient list over the ring at another precision to this one,
as it is, divided by π^j and multiplied by π^j.

The base ring of a quotient R[T]/(q) owns its product and its sum of
products: ``PolyQuotient`` binds them to q once, from the base's
``quotient_kernel(q)``, which returns the pair (mul, dot).  Each product
is reduced mod q once, and so is each sum of products:

* over ``ResidueRing`` a scalar against a factor no longer than q costs
  one product per coefficient; the other products are summed over Z and
  divided by q once.  From deg q = 7 on, while bits(p^k) <= 12·(deg q + 3)
  (the measured crossover, README "Library"), they are packed: each
  residue takes one slot of w bits, the sum is one big-int sum of
  products, and the division runs along T, one packed multiplication by
  the packed -q per quotient term.  A slot collects fewer than
  (pairs + 1)·top products of two residues below p^k, for ``top`` the
  longest product, so w = 2·bits(p^k) + bits((pairs + 1)·top), rounded up
  to whole bytes, keeps every slot below 2^w.  Below the crossover the
  products are convolved and divided by ``polys.rem_monic``;
* over ``SeriesRing`` a factor of T-degree 0 multiplies coefficient by
  coefficient through the series ring when the other factor is shorter
  than q; any other product is packed by Kronecker substitution in the
  slots of ``ResidueRing``: each (T, t) coefficient takes one slot of w
  bits, a T-block takes 2k - 1 slots so that products of two series
  never reach the next block, and the product is one big-int
  multiplication; the division by q runs along T, one packed
  multiplication by the packed -q per quotient term, and -q is packed
  once per quotient and slot width.  Over the product and all division
  steps, a slot collects fewer than k·(len a + len b) products of two
  residues below p, so w = 2·bits(p) + bits(k·(len a + len b)), rounded
  up to whole bytes, keeps every slot below 2^w and no slot carries into
  its neighbour.  A sum of products adds over Z: a pair whose one factor
  is a scalar (T-degree 0 and t-degree 0, as the coefficients of a
  program's linear combinations are) against one no longer than q adds
  coefficient by coefficient, any other pair adds its reduced product,
  and the sum takes one reduction mod p per coefficient;
* any other base (the rationals, an extension field) multiplies with
  ``polys.poly_mul``, sums the products unreduced and takes one
  ``polys.rem_monic``.

An element of T-degree 0 inverts in the base ring, not by Euclid or Newton
over the quotient, and a series that is a constant inverts in its field.
"""

from fractions import Fraction
from operator import mul as _times

from . import polys
from .errors import NotInvertibleError
from .primes import is_probable_prime


def ceil_log2(n):
    """Smallest k with 2**k >= n, for n >= 1."""
    if n < 1:
        raise ValueError("argument must be positive")
    return (n - 1).bit_length()


def PrimeField(p):
    """F_p for an odd (probable) prime p: ``ResidueRing(p, 1)``, once p is
    checked."""
    if p <= 2 or not is_probable_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return ResidueRing(p, 1)


class ResidueRing:
    """Z / p**k, one rung of the p-adic doubling ladder; its foot, k = 1, is
    the prime field F_p that the modular solve works over."""

    def __init__(self, p, k):
        if k < 1:
            raise ValueError("exponent must be >= 1")
        self.p = p
        self.k = k
        self.is_field = k == 1
        self.modulus = p**k
        self.int_modulus = p**k
        self.zero = 0
        self.one = 1 % self.modulus
        # Nilpotency index of the maximal ideal; drives inverse-lifting depth.
        self.nilpotency = k

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def dot(self, us, vs):
        return sum(map(_times, us, vs)) % self.modulus

    def neg(self, a):
        return -a % self.modulus

    def from_int(self, n):
        return n % self.modulus

    def is_zero(self, a):
        return a == 0

    def inv(self, a):
        try:
            return pow(a, -1, self.modulus)
        except ValueError:
            raise NotInvertibleError(f"{a} has no inverse in {self!r}") from None

    def residue_field(self):
        return ResidueRing(self.p, 1)

    def residue(self, a):
        return a % self.p

    def embed(self, a):
        """Canonical lift of a residue-field element."""
        return a % self.modulus

    def at_precision(self, k):
        return ResidueRing(self.p, k)

    def truncate(self, coeffs):
        m = self.modulus
        return polys.normalize([c % m for c in coeffs], self)

    def shift_down(self, coeffs, j):
        """Exact division by p^j; every coefficient must be divisible."""
        step = self.p**j
        return self.truncate([c // step for c in coeffs])

    def shift_up(self, coeffs, j):
        step = self.p**j
        return self.truncate([c * step for c in coeffs])

    def quotient_kernel(self, q):
        """(mul, dot) of R[T]/(q) for the monic q over this ring: products
        summed over Z, packed from the crossover on and convolved below it,
        then divided by q once (see the module docstring)."""
        m, d = self.modulus, len(q) - 1
        packs = d >= 7 and m.bit_length() <= 12 * (d + 3)
        neg_q = {}  # packed -q by slot width; racing threads store equal values

        def pack(f, wb):
            return int.from_bytes(_pack([c % m for c in f], wb), "little")

        def dot(us, vs):
            out, pairs = [0] * d, []
            for a, b in zip(us, vs):
                if len(a) > len(b):
                    a, b = b, a
                if packs and len(a) == 1 and len(b) <= d:
                    # Cheaper coefficient by coefficient than packed.
                    c = a[0]
                    for j, x in enumerate(b):
                        out[j] += c * x
                elif a:
                    pairs.append((a, b))
            top = max([len(a) + len(b) - 1 for a, b in pairs], default=d)
            if not (packs and pairs):
                out += [0] * (top - d)
                for a, b in pairs:
                    polys.int_convolve(out, a, b)
                return polys.rem_monic(out, q, self)
            # A slot collects fewer than (pairs + 1)·top products below m^2.
            wb = (2 * m.bit_length() + ((len(pairs) + 1) * top).bit_length() + 7) // 8
            acc = sum([pack(a, wb) * pack(b, wb) for a, b in pairs])
            if top > d:
                packed_q = neg_q.get(wb)
                if packed_q is None:
                    packed_q = neg_q[wb] = pack([-c for c in q[:d]], wb)
                slot = (1 << 8 * wb) - 1
                for i in range(top - 1, d - 1, -1):
                    c = ((acc >> (8 * i * wb)) & slot) % m
                    acc += (c * packed_q) << (8 * (i - d) * wb)
            slots = _unpack(acc.to_bytes(max(top, d) * wb, "little")[: d * wb], wb, m)
            return polys.normalize([(x + y) % m for x, y in zip(slots, out)], self)

        def mul(a, b):
            return dot((a,), (b,))

        return mul, dot

    def __eq__(self, other):
        same = isinstance(other, ResidueRing)
        return same and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash(("ResidueRing", self.p, self.k))

    def __repr__(self):
        return f"ResidueRing({self.p}, {self.k})"


class Rationals:
    """The field Q with Fraction elements."""

    is_field = True

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def dot(self, us, vs):
        return sum(map(_times, us, vs), self.zero)

    def neg(self, a):
        return -a

    def from_int(self, n):
        return Fraction(n)

    def is_zero(self, a):
        return a == 0

    def inv(self, a):
        if a == 0:
            raise NotInvertibleError("zero is not invertible")
        return 1 / Fraction(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Rationals")

    def __repr__(self):
        return "Rationals()"


QQ = Rationals()


class Integers:
    """The ring Z; division only for units (+-1)."""

    is_field = False
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def dot(self, us, vs):
        return sum(map(_times, us, vs))

    def neg(self, a):
        return -a

    def from_int(self, n):
        return int(n)

    def is_zero(self, a):
        return a == 0

    def inv(self, a):
        if a in (1, -1):
            return a
        raise NotInvertibleError(f"{a} is not a unit in Z")

    def __repr__(self):
        return "Integers()"


ZZ = Integers()


class SeriesRing:
    """F[t]/(t**prec): truncated power series over a prime field F."""

    is_field = False

    def __init__(self, field, prec):
        if prec < 1:
            raise ValueError("precision must be >= 1")
        self.field = field
        self.prec = prec
        self.zero = ()
        self.one = (field.one,)
        self.nilpotency = prec

    def _trim(self, coeffs):
        coeffs = coeffs[: self.prec]
        return polys.normalize(coeffs, self.field)

    def add(self, a, b):
        return polys.poly_add(a[: self.prec], b[: self.prec], self.field)

    def sub(self, a, b):
        return polys.poly_sub(a[: self.prec], b[: self.prec], self.field)

    def dot(self, us, vs):
        return polys.dot(us, vs, self)

    def mul(self, a, b):
        if not a or not b:
            return ()
        n = min(len(a) + len(b) - 1, self.prec)
        out = [0] * n
        for i, c in enumerate(a):
            if c and i < n:
                top = min(len(b), n - i)
                for j in range(top):
                    out[i + j] += c * b[j]
        return polys.normalize([c % self.field.p for c in out], self.field)

    def quotient_kernel(self, q):
        """(mul, dot) of R[T]/(q) for the monic q over this ring: packed
        products by Kronecker substitution (see the module docstring)."""
        d = len(q) - 1
        p, k = self.field.p, self.prec
        # Packed -q by slot width, filled on first use; racing threads
        # store equal values.
        neg_q = {}

        def mul(a, b):
            if not a or not b or d < 1:
                return ()
            if len(a) > len(b):
                a, b = b, a
            if len(a) == 1 and len(b) <= d:
                # A constant times a reduced element, the commonest product
                # of the curve lift: series by series beats packing it.
                c = a[0]
                return polys.normalize([self.mul(c, s) for s in b], self)
            wb = (2 * p.bit_length() + (k * (len(a) + len(b))).bit_length() + 7) // 8
            sb = (2 * k - 1) * wb  # bytes per T-block

            def pack(poly):
                blocks = [_pack(s[:k], wb).ljust(sb, b"\0") for s in poly]
                return int.from_bytes(b"".join(blocks), "little")

            top = len(a) + len(b) - 1
            prod = pack(a) * pack(b)
            if top > d:
                packed_q = neg_q.get(wb)
                if packed_q is None:
                    packed_q = neg_q[wb] = pack([[-c % p for c in s] for s in q[:d]])
                series = (1 << (8 * k * wb)) - 1
                for i in range(top - 1, d - 1, -1):
                    head = ((prod >> (8 * i * sb)) & series).to_bytes(k * wb, "little")
                    lead = int.from_bytes(_pack(_unpack(head, wb, p), wb), "little")
                    prod += (lead * packed_q) << (8 * (i - d) * sb)
            buf = prod.to_bytes(top * sb, "little")
            blocks = range(0, min(d, top) * sb, sb)
            rem = [_unpack(buf[o : o + k * wb], wb, p) for o in blocks]
            return polys.normalize([polys.normalize(s, self.field) for s in rem], self)

        def dot(us, vs):
            # Sums over Z, one reduction mod p per (T, t) coefficient.
            acc = [[0] * k for _ in range(d)]
            for a, b in zip(us, vs):
                if len(a) > len(b):
                    a, b = b, a
                if len(a) == 1 and len(a[0]) == 1 and len(b) <= d:
                    c = a[0][0]
                    for row, s in zip(acc, b):
                        for j, x in enumerate(s[:k]):
                            row[j] += c * x
                elif a:
                    for row, s in zip(acc, mul(a, b)):
                        for j, x in enumerate(s):
                            row[j] += x
            return polys.normalize(
                [polys.normalize([x % p for x in row], self.field) for row in acc],
                self,
            )

        return mul, dot

    def neg(self, a):
        return polys.poly_neg(a, self.field)

    def from_int(self, n):
        return polys.constant(self.field.from_int(n), self.field)

    def is_zero(self, a):
        return len(a) == 0

    def inv(self, a):
        F = self.field
        if not a or F.is_zero(a[0]):
            raise NotInvertibleError("series with zero constant term")
        inv0 = F.inv(a[0])
        b = (inv0,)
        if len(a) == 1:
            return b
        # Newton: b <- b*(2 - a*b), doubling correct coefficients each pass.
        two = self.from_int(2)
        steps = ceil_log2(self.prec) if self.prec > 1 else 0
        for _ in range(steps):
            b = self.mul(b, self.sub(two, self.mul(a, b)))
        return b

    def residue_field(self):
        return self.field

    def residue(self, a):
        return a[0] if a else self.field.zero

    def embed(self, a):
        return polys.constant(a, self.field)

    def shifted_variable(self, base_value):
        """The series base_value + t."""
        return self._trim([self.field.from_int(base_value), self.field.one])

    def at_precision(self, prec):
        return SeriesRing(self.field, prec)

    def truncate(self, coeffs):
        return polys.normalize([self._trim(c) for c in coeffs], self)

    def shift_down(self, coeffs, j):
        """Exact division by t^j; every coefficient must vanish to order j."""
        return self.truncate([c[j:] for c in coeffs])

    def shift_up(self, coeffs, j):
        zeros = (self.field.zero,) * j
        return self.truncate([zeros + tuple(c) for c in coeffs])

    def __repr__(self):
        return f"SeriesRing({self.field!r}, prec={self.prec})"


class PolyRing:
    """R[T] with no reduction; used to evaluate circuits at symbolic points."""

    is_field = False

    def __init__(self, base):
        self.base = base
        self.zero = ()
        self.one = (base.one,)
        self.gen = (base.zero, base.one)

    def add(self, a, b):
        return polys.poly_add(a, b, self.base)

    def sub(self, a, b):
        return polys.poly_sub(a, b, self.base)

    def mul(self, a, b):
        return polys.poly_mul(a, b, self.base)

    def dot(self, us, vs):
        return polys.dot(us, vs, self)

    def neg(self, a):
        return polys.poly_neg(a, self.base)

    def from_int(self, n):
        return polys.constant(self.base.from_int(n), self.base)

    def embed(self, a):
        return polys.constant(a, self.base)

    def is_zero(self, a):
        return len(a) == 0

    def inv(self, a):
        if polys.degree(a) != 0:
            raise NotInvertibleError("only degree-0 units are invertible in R[T]")
        return (self.base.inv(a[0]),)

    def __repr__(self):
        return f"PolyRing({self.base!r})"


class PolyQuotient:
    """R[T]/(q) for a monic q over the base ring R.

    When R is a field, inverses come from the extended Euclidean algorithm
    (failure signals a zero divisor, e.g. a non-squarefree modulus).  When R
    is a truncated local ring (SeriesRing, ResidueRing), an element is a unit
    iff its image in the residue quotient F_p[T]/(q mod m) is, and the inverse
    is Newton-lifted from there.
    """

    is_field = False

    def __init__(self, base, modulus):
        self.base = base
        self.modulus = polys.normalize(modulus, base)
        if not polys.is_monic(self.modulus, base):
            raise ValueError("modulus must be monic")
        self.deg = polys.degree(self.modulus)
        self.zero = ()
        self.one = (base.one,) if self.deg > 0 else ()
        self.gen = polys.rem_monic((base.zero, base.one), self.modulus, base)
        kernel = getattr(base, "quotient_kernel", None)
        q = self.modulus
        self._mul, self._dot = kernel(q) if kernel else _by_parts(base, q)

    def reduce(self, f):
        return polys.rem_monic(polys.normalize(f, self.base), self.modulus, self.base)

    def add(self, a, b):
        return polys.poly_add(a, b, self.base)

    def sub(self, a, b):
        return polys.poly_sub(a, b, self.base)

    def mul(self, a, b):
        return self._mul(a, b)

    def dot(self, us, vs):
        return self._dot(us, vs)

    def neg(self, a):
        return polys.poly_neg(a, self.base)

    def from_int(self, n):
        c = self.base.from_int(n)
        if self.deg == 0:
            return ()
        return polys.normalize((c,), self.base)

    def embed(self, a):
        if self.deg == 0:
            return ()
        return polys.normalize((a,), self.base)

    def is_zero(self, a):
        return len(a) == 0

    def _residue_quotient(self):
        F = self.base.residue_field()
        qbar = polys.normalize(
            [self.base.residue(c) for c in self.modulus], F
        )
        return F, qbar

    def at_precision(self, prec):
        """This quotient over the local base ring at precision ``prec``
        (p-adic exponent or t-adic order); ``reduce_precision`` maps
        elements there."""
        low = self.base.at_precision(prec)
        return PolyQuotient(low, low.truncate(self.modulus))

    def inv(self, a):
        if len(a) == 1 and self.deg > 0:
            return (self.base.inv(a[0]),)
        if self.base.is_field:
            return polys.poly_inverse_mod(a, self.modulus, self.base)
        F, qbar = self._residue_quotient()
        abar = polys.normalize([self.base.residue(c) for c in a], F)
        v0 = polys.poly_inverse_mod(abar, qbar, F)
        # Newton-lift the inverse, climbing the precision ladder so early
        # iterations run over small truncations.
        v = polys.normalize([self.base.embed(c) for c in v0], self.base)
        prec = 1
        full = max(self.base.nilpotency, 1)
        while prec < full:
            prec = min(2 * prec, full)
            A = self if prec == full else self.at_precision(prec)
            av = a if prec == full else A.reduce_precision(a)
            vv = v if prec == full else A.reduce_precision(v)
            two = A.from_int(2)
            v = A.mul(vv, A.sub(two, A.mul(av, vv)))
        return v

    def reduce_precision(self, a):
        return self.base.truncate(a)

    def shift_down(self, a, k):
        """a / π^k in this quotient, for an element ``a`` of a quotient of
        the same modulus at a higher precision that π^k divides (π is p over
        Z/p^m, t over F[t]/(t^m)); the division is exact, so only a that
        vanishes at precision k may be passed."""
        return self.base.shift_down(a, k)

    def shift_up(self, a, k):
        """π^k · a in this quotient, for an element ``a`` of a quotient of
        the same modulus at a lower precision, trimmed to this precision."""
        return self.base.shift_up(a, k)

    def __repr__(self):
        return f"{type(self).__name__}({self.base!r}, deg={self.deg})"


def _by_parts(base, q):
    """(mul, dot) of R[T]/(q) for a base ring with no ``quotient_kernel``."""

    def mul(a, b):
        return polys.rem_monic(polys.poly_mul(a, b, base), q, base)

    def dot(us, vs):
        acc = ()
        for a, b in zip(us, vs):
            acc = polys.poly_add(acc, polys.poly_mul(a, b, base), base)
        return polys.rem_monic(acc, q, base)

    return mul, dot


def _pack(values, width):
    """Nonnegative ints below 2^(8·width) in consecutive ``width``-byte
    slots: read by ``int.from_bytes``, their Kronecker substitution."""
    return b"".join([c.to_bytes(width, "little") for c in values])


def _unpack(buf, width, modulus):
    """The ``width``-byte slots of ``buf``, each reduced mod ``modulus``."""
    slots = range(0, len(buf), width)
    return [int.from_bytes(buf[j : j + width], "little") % modulus for j in slots]


def coerce(R, x):
    """Embed plain ints into R; pass ring elements through unchanged."""
    if isinstance(x, int):
        return R.from_int(x)
    return x
