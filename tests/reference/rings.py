"""Extension fields of a prime field and a from-scratch inverse over a
local ring, for the tests' references."""

from kronecker import polys
from kronecker.rings import PolyQuotient


class ExtField(PolyQuotient):
    """F_p[x]/(q) for q irreducible of positive degree over a prime field:
    the quotient that is a field, so a quotient over it inverts by Euclid."""

    is_field = True

    def __init__(self, base, modulus):
        super().__init__(base, modulus)
        if self.deg < 1:
            raise ValueError("modulus must be monic of positive degree")
        self.p = base.p
        self.size = base.p**self.deg


def reduced(A, f):
    """The element f of R[T], trimmed and reduced mod the modulus of the
    quotient A = R[T]/(q)."""
    return polys.rem_monic(polys.normalize(f, A.base), A.modulus, A.base)


def newton_inverse(A, a):
    """The inverse of a in A = R[T]/(q) over a truncated local ring R, from
    scratch: a remainder sequence over the residue field, then Newton
    iterations v·(2 - a·v) at full precision, each doubling the precision
    to which v is exact.  Raises NotInvertibleError when a is not a unit."""
    v = A.at_precision(1).inv(A.base.at_precision(1).truncate(a))
    two = A.from_int(2)
    exact = 1
    while exact < A.base.nilpotency:
        v = A.mul(v, A.sub(two, A.mul(a, v)))
        exact *= 2
    return v
