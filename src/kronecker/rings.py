"""Coefficient ring contexts shared by the circuit and polynomial code.

Each context exposes the same small protocol: ``zero``, ``one``, ``add``,
``sub``, ``mul``, ``dot``, ``neg``, ``from_int``, ``is_zero`` and ``inv``;
``dot(us, vs)`` is the sum of the products us[i]·vs[i].
Elements are ordinary Python values:

* ``ResidueRing``  -- Z/p^k, ints reduced into [0, p^k); at k = 1 the prime
  field F_p, which ``PrimeField(p)`` builds after checking p;
* ``SeriesRing``   -- F_p[t]/(t^k), tuples of ints (ascending powers);
* ``Rationals``    -- ``fractions.Fraction``;
* ``PolyQuotient`` -- R[T]/(q) for a monic q, coefficient tuples over the
  base ring R.  A polynomial of degree at most D is exact in R[T]/(T^(D+1)),
  so no ring of unreduced polynomials is needed.

Everything is immutable and hashable, so contexts and elements can be shared
freely across threads.

The truncated local rings ``ResidueRing`` (Z/p^k, π = p) and ``SeriesRing``
(F[t]/(t^k), π = t) own their precision k: ``at_precision(m)`` is the same
ring at precision m, and ``truncate``, ``shift_down`` and ``shift_up`` take
a whole coefficient list over the ring at another precision to this one,
as it is, divided by π^j and multiplied by π^j.

The base ring of a quotient R[T]/(q) owns its sum of products:
``PolyQuotient`` binds it to q once, from the base's ``quotient_kernel(q)``,
and a product is the sum of one.  Each sum is reduced mod q once:

* over ``ResidueRing`` and ``SeriesRing`` one packed kernel sums by
  Kronecker substitution.  A base coefficient is a run of s slots, each
  taken mod r: a residue of Z/p^k is one slot (s = 1, r = p^k), a series
  of F_p[t]/(t^k) its k coefficients (s = k, r = p).  A T-coefficient
  takes a block of 2s - 1 slots, so that a product of two series never
  reaches the next block.  A pair whose one factor is a scalar (one
  T-coefficient, zero past its first slot, as the coefficients of a
  program's linear combinations are) and whose other is no longer than q
  adds slot by slot over Z.  The other pairs are packed into one Python
  int per factor, their products are summed as one big integer, and the
  sum is divided along T, one multiplication by the packed -q per
  quotient term.  A quotient keeps what it packed, -q and the factors,
  by element and slot width, up to 256 at a time.  Per
  pair a slot collects fewer than s·top products below r^2, for ``top``
  the longest product, and all division steps add fewer than s·top more,
  so a slot of 2·bits(r) + bits((pairs + 1)·s·top) bits, rounded up to
  whole bytes, never carries into its neighbour.  Over Z/p^k the kernel
  packs from deg q = 7 on while bits(p^k) <= 12·(deg q + 3), the measured
  crossover (README "Library"); below it the products, scalars included, are
  convolved over Z into one list as long as the longest product, schoolbook
  inline or by Karatsuba while the shorter factor's length times bits(p^k)
  exceeds 8,000 (1.2× at 6 × 2,200 bits, 1.6× at 6 × 9,000), and divided
  once by ``polys.rem_monic``.  A p^k of 2,500 bits and more (a provable
  lift's deep rungs) is a ``polys.Barrett``, whose ``%`` is Barrett's
  reduction (1.1× faster than CPython's ``%`` there, 1.85× at 16,000);
* any other base (the rationals, an extension field) multiplies with
  ``polys.poly_mul``, sums the products unreduced and takes one
  ``polys.rem_monic``.

An element of T-degree 0 inverts in the base ring, not by Euclid over the
quotient.  A series inverts by the one remainder sequence of
``polys.poly_inverse_mod`` modulo t^k over its field: F_p[t]/(t^k) is a
quotient too.  Any other element inverts only over a field base, by one
remainder sequence: the Newton step carries its inverse (``solver.rungs``).
"""

from fractions import Fraction
from itertools import zip_longest
from operator import mul as _times

from . import polys
from .errors import NotInvertibleError
from .primes import is_probable_prime


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
        m = p**k
        if m.bit_length() >= polys.Barrett.BITS:  # ``% m`` by Barrett's method
            m = polys.barrett(m)
        self.modulus = self.int_modulus = m
        self.zero = 0
        self.one = 1 % self.modulus
        # Nilpotency index of the maximal ideal: the ladder's precision k.
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
        """The sum of products of R[T]/(q) for the monic q over this ring:
        packed from the crossover on, convolved and divided once below it
        (see the module docstring)."""
        m, d = self.modulus, len(q) - 1
        if d >= 7 and m.bit_length() <= 12 * (d + 3):
            return _packed_kernel(q, m, 1, self._slots, self._element)
        cut = 8000 // m.bit_length() + 1  # Karatsuba from length·bits(m) > 8000

        def dot(us, vs):
            top = max(map(len, us), default=0) + max(map(len, vs), default=0)
            out = [0] * max(top - 1, d)
            for a, b in zip(us, vs):
                if min(len(a), len(b)) >= cut:
                    polys.int_karatsuba(out, a, b, cut)
                    continue
                for i, x in enumerate(a):
                    if x:
                        for j, y in enumerate(b, i):
                            out[j] += x * y
            return polys.rem_monic(out, q, self)

        return dot

    def _slots(self, f):
        """The packed kernel's layout: one slot per coefficient."""
        return f

    def _element(self, slots):
        return polys.normalize(slots, self)

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
    """F[t]/(t**prec): truncated power series over a prime field F; its
    foot, prec = 1, is a copy of F, the field the curve lift starts from."""

    def __init__(self, field, prec):
        if prec < 1:
            raise ValueError("precision must be >= 1")
        self.field = field
        self.prec = prec
        self.is_field = prec == 1
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
        """The sum of products of R[T]/(q) for the monic q over this ring,
        packed (see the module docstring)."""
        return _packed_kernel(q, self.field.p, self.prec, self._slots, self._element)

    def _slots(self, f):
        """The packed kernel's layout: k slots per coefficient, the series
        cut or padded to precision k."""
        k, flat = self.prec, []
        pad = (0,) * k
        for s in f:
            flat += s[:k]
            flat += pad[len(s) :]
        return flat

    def _element(self, slots):
        k, F = self.prec, self.field
        series = [polys.normalize(slots[i : i + k], F) for i in range(0, len(slots), k)]
        return polys.normalize(series, self)

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
        return polys.poly_inverse_mod(a, (F.zero,) * self.prec + (F.one,), F)

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


class PolyQuotient:
    """R[T]/(q) for a monic q over the base ring R.

    With q = T^(D+1) it is R[T] cut past degree D, exact for polynomials
    of degree at most D: the parser's degree pass and the solver's first
    stage evaluate a program on a line there.

    An element of T-degree 0 inverts in the base ring.  Any other inverts
    over a field base by one remainder sequence (NotInvertibleError signals
    a zero divisor, e.g. mod a non-squarefree q), and raises ValueError over
    a truncated local ring past its foot (see the module docstring).
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
        self._dot = kernel(q) if kernel else _by_parts(base, q)

    def add(self, a, b):
        return polys.poly_add(a, b, self.base)

    def sub(self, a, b):
        return polys.poly_sub(a, b, self.base)

    def mul(self, a, b):
        return self._dot((a,), (b,))

    def dot(self, us, vs):
        return self._dot(us, vs)

    def neg(self, a):
        return polys.poly_neg(a, self.base)

    def from_int(self, n):
        return self.embed(self.base.from_int(n))

    def embed(self, a):
        return (a,) if self.deg and not self.base.is_zero(a) else ()

    def is_zero(self, a):
        return len(a) == 0

    def at_precision(self, prec):
        """This quotient over the local base ring at precision ``prec``
        (p-adic exponent or t-adic order); its base's ``truncate`` maps
        elements there."""
        low = self.base.at_precision(prec)
        return PolyQuotient(low, low.truncate(self.modulus))

    def inv(self, a):
        if len(a) == 1 and self.deg > 0:
            return (self.base.inv(a[0]),)
        if len(a) > 1 and not self.base.is_field:
            raise ValueError(f"no inverse of a non-constant element over {self.base!r}")
        return polys.poly_inverse_mod(a, self.modulus, self.base)

    def __repr__(self):
        return f"{type(self).__name__}({self.base!r}, deg={self.deg})"


def _by_parts(base, q):
    """The sum of products of R[T]/(q) for a base ring with no
    ``quotient_kernel``."""

    def dot(us, vs):
        acc = ()
        for a, b in zip(us, vs):
            acc = polys.poly_add(acc, polys.poly_mul(a, b, base), base)
        return polys.rem_monic(acc, q, base)

    return dot


def _packed_kernel(q, r, s, slots, element):
    """The sum of products of R[T]/(q), packed (see the module docstring),
    over a base ring whose coefficients ``slots`` lays out as s slots
    each, taken mod r; ``element`` reads back s reduced slots per
    T-coefficient of the sum, which has at most deg q of them."""
    d = len(q) - 1
    bw = 2 * s - 1  # slots per T-block: a product of two series fits
    packs = {}  # (element, slot width, sign) -> packed; racing threads agree

    def pack(f, wb, sign=1):
        x = packs.get((f, wb, sign))
        if x is None:
            if len(packs) >= 256:  # a bound on the memory it holds
                packs.clear()
            buf = _pack(slots(f) if sign > 0 else [-c for c in slots(f)], wb, r)
            if s > 1:  # s slots of each T-block
                step = s * wb
                blocks = [buf[i : i + step] for i in range(0, len(buf), step)]
                buf = bytes((bw - s) * wb).join(blocks)
            x = packs[f, wb, sign] = int.from_bytes(buf, "little")
        return x

    def dot(us, vs):
        out, pairs = [], []
        for a, b in zip(us, vs):
            if len(a) > len(b):
                a, b = b, a
            if len(a) == 1 and len(b) <= d:
                c = slots(a)
                if not any(c[1:]):
                    # A scalar: cheaper slot by slot than packed.
                    xs = slots(b)
                    out += [0] * (len(xs) - len(out))
                    for j, x in enumerate(xs):
                        out[j] += c[0] * x
                    continue
            if a:
                pairs.append((a, b))
        if not pairs:
            return element([x % r for x in out])
        top = max([len(a) + len(b) - 1 for a, b in pairs])
        # A slot collects fewer than (pairs + 1)·s·top products below r^2.
        wb = (2 * r.bit_length() + ((len(pairs) + 1) * s * top).bit_length() + 7) // 8
        acc = sum([pack(a, wb) * pack(b, wb) for a, b in pairs])
        shift, head = 8 * bw * wb, s * wb  # bits per T-block, bytes per lead
        if top > d:
            packed_q = pack(q[:d], wb, -1)
            mask = (1 << (8 * head)) - 1
            for i in range(top - 1, d - 1, -1):
                lead = (acc >> (i * shift)) & mask
                if s == 1:
                    lead %= r
                else:  # each of its s slots mod r
                    lead = _unpack(lead.to_bytes(head, "little"), wb)
                    lead = int.from_bytes(_pack(lead, wb, r), "little")
                acc += (lead * packed_q) << ((i - d) * shift)
        # Blocks from deg q on are left over from the division.
        buf = acc.to_bytes(top * bw * wb, "little")[: min(top, d) * bw * wb]
        if s > 1:
            buf = b"".join([buf[i : i + head] for i in range(0, len(buf), bw * wb)])
        summed = zip_longest(_unpack(buf, wb), out, fillvalue=0)
        return element([(x + y) % r for x, y in summed])

    return dot


def _pack(values, width, r):
    """The ints ``values`` reduced mod r, in consecutive ``width``-byte
    slots: read by ``int.from_bytes``, their Kronecker substitution."""
    return b"".join([(c % r).to_bytes(width, "little") for c in values])


def _unpack(buf, width):
    """The ``width``-byte slots of ``buf``."""
    slots = range(0, len(buf), width)
    return [int.from_bytes(buf[j : j + width], "little") for j in slots]


def coerce(R, x):
    """Embed plain ints into R; pass ring elements through unchanged."""
    if isinstance(x, int):
        return R.from_int(x)
    return x
