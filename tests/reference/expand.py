"""The polynomials of a parser input multiplied out by ``sympy.expand``:
the oracle that the parser's degrees, zero verdicts, heights and values
are checked against, now that the parser builds no expansion of its own."""

import sympy


def expand_system(text):
    """Dense forms of the polynomials of ``vars ...; f1; f2; ...``, one
    {exponent vector: nonzero integer} per polynomial ({} for 0).  sympy
    reads ``^`` as a power, as the grammar does."""
    head, *polys = text.split(";")
    names = [name.strip() for name in head.split(None, 1)[1].split(",")]
    symbols = sympy.symbols(names)
    scope = dict(zip(names, symbols))
    forms = []
    for poly in filter(str.strip, polys):
        value = sympy.expand(sympy.sympify(poly, locals=scope))
        dense = sympy.Poly(value, *symbols).as_dict()
        forms.append({mono: int(c) for mono, c in dense.items()})
    return tuple(forms)


def total_degree(dense):
    return max(map(sum, dense), default=-1)


def height(dense):
    """Bits of the largest |coefficient|."""
    return max(abs(c) for c in dense.values()).bit_length()


def value_at(dense, point, modulus):
    """The dense polynomial at an integer point, mod ``modulus``."""
    total = 0
    for mono, coeff in dense.items():
        term = coeff
        for x, e in zip(point, mono):
            term *= pow(x, e, modulus)
        total += term
    return total % modulus
