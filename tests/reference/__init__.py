"""Reference machinery the tests compare the solver against.

None of it runs in a solve: brute-force fiber enumeration and the
multiplication-matrix and Sylvester determinants (``oracle``), extension
fields F_p[x]/(q) (``rings``), Chinese remaindering, irreducibility and
squarefree parts over a prime field and products in (Z/m)[T]/(q) by ``%``
alone (``polys``), the U-expansion check over Q that the exact
division check replaced (``exact``), and the inputs' polynomials
multiplied out by sympy (``expand``).  The package ``kronecker`` never
imports from here.
"""
