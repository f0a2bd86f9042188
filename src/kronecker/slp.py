"""Straight-line programs: parsing, affine reparametrization, evaluation.

The input grammar is one ``vars`` line followed by one polynomial expression
per statement::

    vars x, y;
    x^2 + y^2 - 5;
    x*y - 2;

Integer constants are arbitrary precision; ``^`` takes a nonnegative integer
exponent and is expanded by repeated squaring at parse time, so programs stay
division-free.  The parser makes one pass over the tokens, with no expression
tree and no expanded polynomial: each subexpression yields an integer
coefficient times the instruction computing the rest, with bounds on its
degree and its 1-norm, and the degree bound is checked against the cap before
a product or a power is emitted.  A term folds its numeric factors into its
coefficient and multiplies only the others, and a sum of terms is one
``lin`` instruction, c0 + Σ cᵢ·vᵢ, which an evaluation reduces once; its
terms merge by monomial when they are monomials, so ``x*y*z - z*y*x``
cancels.  Products and powers of sums stay as written: ``(x - 2*y)^8`` is
three squarings of one ``lin``, never expanded, and the parse takes time
linear in the tokens.  The degrees and the "identically zero" verdict come
from one evaluation of the finished program on a line over F_p[t].
Instructions are hash-consed: a product of the same operands (in either
order) is emitted once and shared, so the monomial ``x^2*y`` appearing in
several terms or outputs costs its multiplications once, and ``length``
counts the ring operations of one evaluation.

A program can carry an affine change of variables (an integer matrix with its
adjugate and determinant).  Evaluation then maps the supplied point y to
x = adj(m) * y / det(m) inside the evaluation ring, which keeps the program
itself integer-parameterized and defers the division to rings where det is a
unit.

Evaluation runs only what the requested outputs use.  The slice of a
selection of outputs is the ascending list of the instructions they depend
on, found by one backward walk from ``outputs``; the value pass and the
tangent passes of ``evaluate`` and ``evaluate_jacobian`` run over it.  Each
program keeps its slices in a dict of its own, filled on first use.  A slice
is a function of the program and the selection alone, so threads that race
on it store equal tuples, and the slices are freed with the program.
"""

import random
import re
from dataclasses import dataclass, field, replace
from operator import add

from .errors import NotInvertibleError, ParseError, SingularMatrixError
from .polys import charpoly_division_free, charpoly_horner
from .primes import WORD_PRIME_HIGH, WORD_PRIME_LOW, random_prime_in_range
from .rings import ZZ, PolyRing, ResidueRing, coerce

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^();,]))"
)

# Caps of ``parse_system``: the degree bound of each product and power,
# checked before its instructions are emitted, and the Bezout number, four
# times the fiber degree 64 the solver is meant for; and the bits of the
# coefficient of a power of a constant or a monomial, c^e in closed form.
_MAX_DEGREE = 256
_MAX_CONSTANT_BITS = 1 << 16


@dataclass(frozen=True)
class AffineChange:
    """Invertible integer change of variables y = matrix * x.

    Stores the adjugate and determinant so that x = adjugate * y / det can be
    evaluated over any ring in which det is a unit.
    """

    matrix: tuple
    det: int
    adjugate: tuple

    @classmethod
    def from_matrix(cls, rows):
        """det M = (-1)^n c_n for det(x·I - M) = x^n + c_1 x^(n-1) + ... +
        c_n, and column j of adj M is (-1)^(n-1) ``charpoly_horner`` of the
        unit vector e_j.  Raises SingularMatrixError when det M = 0."""
        rows = tuple(tuple(int(c) for c in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        coeffs = charpoly_division_free(rows, ZZ)
        det = -coeffs[-1] if n % 2 else coeffs[-1]
        if det == 0:
            raise SingularMatrixError("change of variables has determinant 0")
        sign = 1 if n % 2 else -1
        units = [[int(i == j) for i in range(n)] for j in range(n)]
        cols = [charpoly_horner(rows, coeffs, e, ZZ) for e in units]
        adj = tuple(tuple(sign * v for v in row) for row in zip(*cols))
        return cls(matrix=rows, det=det, adjugate=adj)

    @classmethod
    def identity(cls, n):
        rows = tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
        return cls(matrix=rows, det=1, adjugate=rows)

    @property
    def n(self):
        return len(self.matrix)

    def is_identity(self):
        return all(
            self.matrix[i][j] == (1 if i == j else 0)
            for i in range(self.n)
            for j in range(self.n)
        )


@dataclass(frozen=True)
class StraightLineProgram:
    """Division-free arithmetic circuit for the input polynomials.

    ``instructions`` is an acyclic sequence of ('var', i), ('const', c),
    ('mul', a, b) and ('lin', c0, coeffs, operands) entries referencing
    earlier indices; a ``lin`` is the linear combination c0 + Σ cᵢ·vᵢ of
    the operands' values with integer coefficients.  ``outputs`` names the
    instruction computing each polynomial.
    ``degrees`` holds each output's total degree, read off one evaluation
    on a line over F_p[t] at parse time.  ``height`` bounds the bit length
    of the largest coefficient: exactly for an output written as a sum of
    monomials, and by the bits of a 1-norm bound otherwise.
    """

    n_vars: int
    var_names: tuple
    instructions: tuple
    outputs: tuple
    degrees: tuple
    height: int
    transform: AffineChange | None = None
    _slices: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def n_outputs(self):
        return len(self.outputs)

    def slice(self, outs):
        """Ascending indices of the instructions that the outputs at
        positions ``outs`` (a tuple) depend on; computed on first use and
        kept on the program, see the module docstring."""
        order = self._slices.get(outs)
        if order is None:
            need = [False] * len(self.instructions)
            for k in outs:
                need[self.outputs[k]] = True
            for i in range(len(need) - 1, -1, -1):
                ins = self.instructions[i]
                if need[i] and ins[0] == "mul":
                    need[ins[1]] = need[ins[2]] = True
                elif need[i] and ins[0] == "lin":
                    for j in ins[3]:
                        need[j] = True
            order = tuple(i for i, used in enumerate(need) if used)
            self._slices[outs] = order
        return order

    @property
    def length(self):
        """Ring operations of one evaluation, over the slice of all
        outputs: one per ``mul``; per ``lin``, one addition per term after
        the first, one more when c0 is not 0, and one product per
        coefficient other than ±1; plus 2n^2 for a non-identity change of
        variables."""
        ops = 0
        for i in self.slice(tuple(range(self.n_outputs))):
            ins = self.instructions[i]
            if ins[0] == "mul":
                ops += 1
            elif ins[0] == "lin":
                _, c0, coeffs, _ = ins
                ops += len(coeffs) - (c0 == 0)
                ops += sum(abs(c) != 1 for c in coeffs)
        if self.transform is not None and not self.transform.is_identity():
            n = self.n_vars
            ops += 2 * n * n
        return ops


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        kind = m.lastgroup
        val = m.group(kind)
        if kind == "num":
            if len(val) > 4300:  # the interpreter's digit cap
                raise ParseError("number too long", m.start(kind))
            val = int(val)
        tokens.append((kind, val, m.start(kind)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent that builds the program as it reads.  Each
    production returns a node (c, v, degree, norm) whose value is the
    integer c times the value of the hash-consed instruction v, or c alone
    when v is None, together with a bound on that value's total degree (-1
    for 0, 0 for another constant) and one on the 1-norm of v's polynomial,
    the sum of its coefficients' absolute values (1 when v is None).
    ``monomials`` maps each instruction that computes a monomial, a
    variable or a product of two monomials, to its exponent vector."""

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.instructions = []
        self.index = {}
        self.monomials = {}
        self.k = 0  # 1-based number of the polynomial being read

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, ops):
        """The next token if it is one of the operators ``ops``, consumed;
        otherwise None."""
        kind, val, _ = self.tokens[self.i]
        if kind != "op" or val not in ops:
            return None
        self.i += 1
        return val

    def expect_op(self, op):
        if not self.accept(op):
            raise ParseError(f"expected {op!r}", self.peek()[2])

    def emit(self, *ins):
        """Index of the instruction ``ins``, appended unless an identical
        one exists; the operands of a product are put in index order
        first, and a ``lin`` comes with its operands in index order."""
        if ins[0] == "mul" and ins[2] < ins[1]:
            ins = ("mul", ins[2], ins[1])
        idx = self.index.get(ins)
        if idx is None:
            idx = self.index[ins] = len(self.instructions)
            self.instructions.append(ins)
            mono = self.monomials
            if ins[0] == "mul" and ins[1] in mono and ins[2] in mono:
                mono[idx] = tuple(map(add, mono[ins[1]], mono[ins[2]]))
        return idx

    def program(self):
        kind, val, pos = self.next()
        if kind != "ident" or val != "vars":
            raise ParseError("input must start with a 'vars' declaration", pos)
        names = []
        sep = ","
        while sep == ",":
            kind, val, pos = self.next()
            if kind != "ident":
                raise ParseError("expected a variable name", pos)
            if val in names:
                raise ParseError(f"duplicate variable {val!r}", pos)
            names.append(val)
            sep = self.accept(",;")
        if sep is None:
            pos = self.peek()[2]
            raise ParseError("expected ',' or ';' in the vars line", pos)
        n = len(names)
        self.var_index = {name: self.emit("var", i) for i, name in enumerate(names)}
        for i in range(n):  # the ``var`` instructions are 0, ..., n - 1
            self.monomials[i] = tuple(int(j == i) for j in range(n))
        outputs = []
        height = 0
        while self.peek()[0] != "end":
            self.k += 1
            c, v, _, norm = self.expr()
            ins = () if v is None else self.instructions[v]
            if ins[:1] == ("lin",) and all(j in self.monomials for j in ins[3]):
                # A sum of monomials, merged: its largest coefficient.
                norm = max(abs(ins[1]), *map(abs, ins[2]))
            height = max(height, (abs(c) * norm).bit_length())
            if v is None:
                v = self.emit("const", c)
            elif c != 1:
                v = self.emit("lin", 0, (c,), (v,))
            outputs.append(v)
            self.expect_op(";")
        if not outputs:
            raise ParseError("no polynomials declared", self.peek()[2])
        if len(outputs) > n:
            raise ParseError(
                f"{len(outputs)} polynomials in {n} variables is overdetermined"
            )
        slp = StraightLineProgram(
            n_vars=n,
            var_names=tuple(names),
            instructions=tuple(self.instructions),
            outputs=tuple(outputs),
            degrees=(),
            height=height,
        )
        # Each output restricted to a line x = a + b·t over F_p[t], for a
        # word-size prime p: it is 0 only if the polynomial is, and has its
        # total degree, unless p divides every coefficient of a form or b is
        # a root of the top-degree form.  p, a and b are drawn from the
        # text, so no fixed coefficient is a multiple of p every time.
        rng = random.Random(self.text)
        p = random_prime_in_range(WORD_PRIME_LOW, WORD_PRIME_HIGH, rng)
        line = [(rng.randrange(p), rng.randrange(1, p)) for _ in range(n)]
        degrees = []
        bezout = 1
        order = slp.slice(tuple(range(len(outputs))))
        values = _run(slp, order, line, PolyRing(ResidueRing(p, 1)))
        for k, out in enumerate(outputs, 1):
            if not values[out]:
                raise ParseError(f"polynomial #{k} is identically zero")
            degrees.append(len(values[out]) - 1)
            bezout *= degrees[-1]
            if bezout > _MAX_DEGREE:
                raise ParseError(f"Bezout number above {_MAX_DEGREE}")
        return replace(slp, degrees=tuple(degrees))

    def expr(self):
        """A sum of terms: the constant terms add up to c0 and the others
        merge, by monomial if they are monomials and by operand otherwise,
        so the sum is one ``lin``."""
        sign = self.accept("+-") or "+"
        c0, terms = 0, {}
        while sign:
            c, v, deg, norm = self.term()
            c = c if sign == "+" else -c
            if v is None:
                c0 += c
            else:
                key = self.monomials.get(v, v)
                terms.setdefault(key, [v, 0, deg, norm])[1] += c
            sign = self.accept("+-")
        kept = sorted(t for t in terms.values() if t[1])
        if not kept:
            return c0, None, 0 if c0 else -1, 1
        if c0 == 0 and len(kept) == 1:
            v, c, deg, norm = kept[0]
            return c, v, deg, norm
        operands, cs, degs, norms = zip(*kept)
        norm = abs(c0) + sum(abs(c) * m for c, m in zip(cs, norms))
        return 1, self.emit("lin", c0, cs, operands), max(degs), norm

    def term(self):
        """A product of factors: the coefficients multiply into one integer
        and the operands multiply left to right through hash-consed
        ``mul``s, so a monomial is one operand wherever it appears."""
        c, v, deg, norm = self.factor()
        operands = [] if v is None else [v]
        while self.accept("*"):
            fc, fv, fdeg, fnorm = self.factor()
            deg += fdeg
            self.check_degree(deg)
            c *= fc
            deg = deg if c else -1
            norm *= fnorm
            if fv is not None:
                operands.append(fv)
        if not c:
            return 0, None, -1, 1
        v = operands[0] if operands else None
        for w in operands[1:]:
            v = self.emit("mul", v, w)
        return c, v, deg, norm

    def factor(self):
        sign = self.accept("+-")
        if sign:
            c, v, deg, norm = self.factor()
            return (c if sign == "+" else -c), v, deg, norm
        node = self.atom()
        if self.accept("^"):
            kind, exp, pos = self.next()
            if kind != "num":
                raise ParseError("exponent must be a nonnegative integer", pos)
            node = self.power(node, exp)
        return node

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return val, None, 0 if val else -1, 1
        if kind == "ident":
            if val not in self.var_index:
                raise ParseError(f"unknown variable {val!r}", pos)
            return 1, self.var_index[val], 1, 1
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a number, variable or '('", pos)

    def check_degree(self, degree):
        if degree > _MAX_DEGREE:
            raise ParseError(
                f"polynomial #{self.k}: degree bound above {_MAX_DEGREE}"
            )

    def power(self, base, e):
        c, v, deg, norm = base
        self.check_degree(e * deg)
        if e == 0:
            return 1, None, 0, 1
        if (v is None or v in self.monomials) and abs(c) > 1 and (
            e * abs(c).bit_length() > _MAX_CONSTANT_BITS
        ):
            # A power of c·m, m a monomial or 1, has the one coefficient c^e.
            raise ParseError("power of a constant too large to expand")
        if v is None:
            return c**e, None, deg, 1
        # (c·v)^e = c^e·v^e, v^e by repeated squaring along the bits of e,
        # high to low.
        acc = v
        for bit in bin(e)[3:]:
            acc = self.emit("mul", acc, acc)
            if bit == "1":
                acc = self.emit("mul", acc, v)
        return c**e, acc, e * deg, norm**e


def parse_system(source):
    """Parse the input text into a StraightLineProgram, in one pass.

    Rejects systems with more polynomials than variables, inputs that are
    identically zero and sizes past the caps above, and records per-output
    total degrees plus a bound on the coefficient bit length for the bounds
    machinery.  The degrees and the zero verdicts come from one evaluation
    over a word-size prime at a line, both drawn by a generator seeded with
    ``source``, so the same text always parses the same way.
    """
    return _Parser(source).program()


def compose_affine(slp, change):
    """Program computing the same polynomials in the variables y = change * x.

    Evaluating the result at y equals evaluating ``slp`` at x = change⁻¹ y;
    the inverse is carried as (adjugate, det) and applied inside the
    evaluation ring.  Raises ValueError for a wrong size or a second change.
    """
    if change.n != slp.n_vars:
        raise ValueError("change of variables has the wrong dimension")
    if slp.transform is not None:
        raise ValueError("program already carries a change of variables")
    return replace(slp, transform=change)


def _transformed_inputs(slp, point, R):
    """The program's inputs x = adj * y / det at the point y, and 1/det in R
    (None when the program has no change of variables).  Raises ValueError
    for a point of the wrong length."""
    if len(point) != slp.n_vars:
        raise ValueError("point has the wrong number of coordinates")
    point = [coerce(R, x) for x in point]
    tr = slp.transform
    if tr is None or tr.is_identity():
        return point, None
    det = R.from_int(tr.det)
    try:
        det_inv = R.inv(det)
    except NotInvertibleError:
        raise NotInvertibleError(
            "determinant of the change of variables is not a unit here"
        ) from None
    return _apply_adjugate(tr, point, det_inv, R), det_inv


def _apply_adjugate(tr, ys, det_inv, R):
    """adj * ys / det over R, given 1/det: per coordinate, one ``dot`` of
    a row of adj with ys, times 1/det."""
    return [
        R.mul(R.dot([R.from_int(a) for a in row], ys), det_inv)
        for row in tr.adjugate
    ]


def _selected(slp, n_out):
    """Output positions named by ``n_out``: a count n for the first n
    outputs, or a tuple of positions."""
    count = isinstance(n_out, int)
    outs = tuple(range(n_out)) if count else tuple(n_out)
    if (count and n_out < 0) or any(
        not 0 <= k < slp.n_outputs for k in outs
    ):
        raise ValueError(
            f"outputs {n_out!r} requested of a program with "
            f"{slp.n_outputs} outputs"
        )
    return outs


def _run(slp, order, xs, R):
    """Values of the instructions in ``order``, indexed by instruction; a
    ``lin`` is c0 plus one ``R.dot`` of its embedded coefficients and its
    operands' values."""
    vals = [None] * len(slp.instructions)
    for i in order:
        ins = slp.instructions[i]
        op = ins[0]
        if op == "mul":
            vals[i] = R.mul(vals[ins[1]], vals[ins[2]])
        elif op == "lin":
            _, c0, coeffs, operands = ins
            v = R.dot([R.from_int(c) for c in coeffs], [vals[j] for j in operands])
            vals[i] = R.add(R.from_int(c0), v) if c0 else v
        elif op == "var":
            vals[i] = xs[ins[1]]
        else:
            vals[i] = R.from_int(ins[1])
    return vals


def evaluate(slp, point, R, n_out=None):
    """Evaluate the selected outputs at a point with entries in (or
    coercible to) R.

    ``n_out`` selects the outputs, by default all of them: a count n for
    the first n, or a tuple of output positions, returned in that order.
    Only the instructions those outputs depend on are run (see
    ``StraightLineProgram.slice``).
    """
    xs, _ = _transformed_inputs(slp, point, R)
    outs = _selected(slp, slp.n_outputs if n_out is None else n_out)
    vals = _run(slp, slp.slice(outs), xs, R)
    return [vals[slp.outputs[k]] for k in outs]


def evaluate_jacobian(slp, point, R, wrt, n_out=None, tangent_ring=None):
    """Values and directional derivatives of the selected outputs.

    ``n_out`` selects the outputs as in ``evaluate``: a count n for the
    first n (by default ``len(wrt)``), or a tuple of output positions.
    Each entry of ``wrt`` is a direction in the post-change variables: a
    variable index k (0-based) for the partial derivative d/dY_k, or a
    vector of n_vars elements of the tangent ring for the derivative along
    it.  Forward-mode: one value pass, then one tangent pass per direction;
    exact over any ring.  Both kinds of pass run only the slice of the
    selected outputs.  Returns (values, rows) with rows[i][k] the
    derivative of the i-th selected output along ``wrt[k]``.  The tangent
    of a product, a·b' + a'·b, is one sum of products (the ring's ``dot``),
    so over a ``PolyQuotient`` it is reduced mod q once, and so is the
    tangent Σ cᵢ·vᵢ' of a ``lin``.

    The value pass runs over R.  The tangent passes run over
    ``tangent_ring`` when one is given: a lower-precision quotient of the
    ``PolyQuotient`` R (from ``R.at_precision``), into which the program's
    values and 1/det are reduced with its ``reduce_precision``; the rows are
    then elements of ``tangent_ring``.  Without one they run over R.
    """
    n = slp.n_vars
    xs, det_inv = _transformed_inputs(slp, point, R)
    outs = _selected(slp, len(wrt) if n_out is None else n_out)
    order = slp.slice(outs)
    vals = _run(slp, order, xs, R)
    T = R
    tvals = vals
    if tangent_ring is not None:
        T = tangent_ring
        tvals = [None] * len(vals)
        for i in order:
            tvals[i] = T.reduce_precision(vals[i])
        if det_inv is not None:
            det_inv = T.reduce_precision(det_inv)
    rows = [[T.zero] * len(wrt) for _ in outs]
    tans = [None] * len(vals)
    coeffs = {
        i: [T.from_int(c) for c in slp.instructions[i][2]]
        for i in order
        if slp.instructions[i][0] == "lin"
    }
    for col, direction in enumerate(wrt):
        if isinstance(direction, int):
            direction = [T.one if i == direction else T.zero for i in range(n)]
        seeds = direction
        if det_inv is not None:
            seeds = _apply_adjugate(slp.transform, direction, det_inv, T)
        for i in order:
            ins = slp.instructions[i]
            op = ins[0]
            if op == "mul":
                a, b = ins[1], ins[2]
                tans[i] = T.dot((tvals[a], tans[a]), (tans[b], tvals[b]))
            elif op == "lin":
                tans[i] = T.dot(coeffs[i], [tans[j] for j in ins[3]])
            elif op == "var":
                tans[i] = seeds[ins[1]]
            else:
                tans[i] = T.zero
        for row, k in zip(rows, outs):
            row[col] = tans[slp.outputs[k]]
    values = [vals[slp.outputs[k]] for k in outs]
    return values, rows
