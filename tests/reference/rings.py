"""Extension fields of a prime field, for the tests' references."""

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
