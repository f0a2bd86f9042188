"""Reference machinery the tests compare the solver against.

None of it runs in a solve: brute-force fiber enumeration and the
multiplication-matrix and Sylvester determinants (``oracle``), extension
fields F_p[x]/(q) (``rings``), and Chinese remaindering, irreducibility and
squarefree parts over a prime field (``polys``).  The package ``kronecker``
never imports from here.
"""
