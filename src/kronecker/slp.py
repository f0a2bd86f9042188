"""Straight-line programs: parsing, affine reparametrization, evaluation.

The input grammar is one ``vars`` line followed by one polynomial expression
per statement::

    vars x, y;
    x^2 + y^2 - 5;
    x*y - 2;

Integer constants are arbitrary precision; ``^`` takes a nonnegative integer
exponent and is expanded by repeated squaring at parse time, so programs stay
division-free.  The parser makes one pass over the tokens, with no expression
tree: each subexpression yields the instruction computing it and its dense
expansion, whose degree is checked against the cap before a product or a
power is multiplied out.  Instructions are hash-consed: an operation on the
same operands (in either order for ``+`` and ``*``) is emitted once and
shared, so ``x^2`` appearing in several monomials or outputs costs one
multiplication, and ``length`` counts the distinct ring operations.

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

import re
from dataclasses import dataclass, field, replace

from .errors import NotInvertibleError, ParseError, SingularMatrixError
from .polys import charpoly_division_free, charpoly_horner
from .rings import ZZ, coerce

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^();,]))"
)

_MAX_DENSE_TERMS = 200_000

# Caps of ``parse_system``: the expanded degree of each product and power,
# checked before it is multiplied out, and the Bezout number, four times the
# fiber degree 64 the solver is meant for; and the bits of a power of a
# constant, which is expanded in closed form.
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
    ('add', a, b), ('sub', a, b), ('mul', a, b) entries referencing earlier
    indices; ``outputs`` names the instruction computing each polynomial.
    ``degrees`` and ``height`` come from the dense expansion made at parse
    time (total degree per output, bit length of the largest coefficient).
    """

    n_vars: int
    var_names: tuple
    instructions: tuple
    outputs: tuple
    degrees: tuple
    height: int
    dense_forms: tuple = field(repr=False, default=())
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
                if need[i] and ins[0] in ("add", "sub", "mul"):
                    need[ins[1]] = need[ins[2]] = True
            order = tuple(i for i, used in enumerate(need) if used)
            self._slices[outs] = order
        return order

    @property
    def length(self):
        """Ring operations of one evaluation: the add/sub/mul of the slice
        of all outputs, plus 2n^2 for a non-identity change of variables."""
        ops = sum(
            1
            for i in self.slice(tuple(range(self.n_outputs)))
            if self.instructions[i][0] in ("add", "sub", "mul")
        )
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
    production returns (index, dense, degree): the hash-consed instruction
    computing its value, its dense map {exponents: nonzero integer}, which
    the caller owns, and that map's total degree (-1 for 0)."""

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0
        self.instructions = []
        self.index = {}
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
        one exists; commutative operands are put in index order first."""
        if ins[0] in ("add", "mul") and ins[2] < ins[1]:
            ins = (ins[0], ins[2], ins[1])
        idx = self.index.get(ins)
        if idx is None:
            idx = self.index[ins] = len(self.instructions)
            self.instructions.append(ins)
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
        self.var_index = {
            name: (self.emit("var", i), tuple(int(j == i) for j in range(n)))
            for i, name in enumerate(names)
        }
        self.unit = (0,) * n
        polys = []
        while self.peek()[0] != "end":
            self.k += 1
            polys.append(self.expr())
            self.expect_op(";")
        if not polys:
            raise ParseError("no polynomials declared", self.peek()[2])
        if len(polys) > n:
            raise ParseError(
                f"{len(polys)} polynomials in {n} variables is overdetermined"
            )
        outputs, dense_forms, degrees = zip(*polys)
        height = 0
        bezout = 1
        for k, (dense, deg) in enumerate(zip(dense_forms, degrees), 1):
            if not dense:
                raise ParseError(f"polynomial #{k} is identically zero")
            bezout *= deg
            if bezout > _MAX_DEGREE:
                raise ParseError(f"Bezout number above {_MAX_DEGREE}")
            height = max(height, max(map(abs, dense.values())).bit_length())
        return StraightLineProgram(
            n_vars=n,
            var_names=tuple(names),
            instructions=tuple(self.instructions),
            outputs=outputs,
            degrees=degrees,
            height=height,
            dense_forms=dense_forms,
        )

    def signed(self, operand):
        """``operand()`` after a '+' or '-', or None when there is neither;
        a '-' emits the constant 0 before the operand's instructions."""
        sign = self.accept("+-")
        if sign is None:
            return None
        if sign == "+":
            return operand()
        zero = self.emit("const", 0)
        idx, dense, deg = operand()
        neg = {k: -v for k, v in dense.items()}
        return self.emit("sub", zero, idx), neg, deg

    def expr(self):
        node = self.signed(self.term) or self.term()
        while sign := self.accept("+-"):
            node = self.combine(sign, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.accept("*"):
            node = self.product(node, self.factor())
        return node

    def factor(self):
        signed = self.signed(self.factor)
        if signed:
            return signed
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
            dense = {self.unit: val} if val else {}
            return self.emit("const", val), dense, 0 if val else -1
        if kind == "ident":
            if val not in self.var_index:
                raise ParseError(f"unknown variable {val!r}", pos)
            idx, key = self.var_index[val]
            return idx, {key: 1}, 1
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a number, variable or '('", pos)

    def combine(self, sign, a, b):
        """a + b or a - b for the ``sign`` '+' or '-'; the degree is
        rescanned only when terms of the top degree cancel."""
        op, s = ("add", 1) if sign == "+" else ("sub", -1)
        out, deg = a[1], max(a[2], b[2])
        cancelled = False
        for k, v in b[1].items():
            nv = out.get(k, 0) + s * v
            if nv:
                out[k] = nv
            else:
                del out[k]
                cancelled = cancelled or sum(k) == deg
        if cancelled:
            deg = max((sum(k) for k in out), default=-1)
        return self.emit(op, a[0], b[0]), out, deg

    def check_degree(self, degree):
        if degree > _MAX_DEGREE:
            raise ParseError(
                f"polynomial #{self.k}: degree bound above {_MAX_DEGREE}"
            )

    def product(self, a, b):
        deg = a[2] + b[2]
        self.check_degree(deg)
        dense = _dense_mul(a[1], b[1])
        return self.emit("mul", a[0], b[0]), dense, deg if dense else -1

    def power(self, base, e):
        idx, dense, deg = base
        self.check_degree(e * deg)
        if e == 0:
            return self.emit("const", 1), {self.unit: 1}, 0
        if len(dense) <= 1:
            # (c*x^a)^e = c^e*x^(e*a) in closed form: a monomial needs no e
            # multiplications, whatever the size of e.
            if any(e * abs(c).bit_length() > _MAX_CONSTANT_BITS
                   for c in dense.values() if abs(c) > 1):
                raise ParseError("power of a constant too large to expand")
            out = {tuple(e * a for a in k): c**e for k, c in dense.items()}
            if deg <= 0:
                # A power of a constant is a constant: one instruction.
                return self.emit("const", out.get(self.unit, 0)), out, deg
        else:
            out = {self.unit: 1}
            for _ in range(e):
                out = _dense_mul(out, dense)
        # Repeated squaring along the bits of e, high to low.
        acc = idx
        for bit in bin(e)[3:]:
            acc = self.emit("mul", acc, acc)
            if bit == "1":
                acc = self.emit("mul", acc, idx)
        return acc, out, e * deg if out else -1


def _dense_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            nv = out.get(k, 0) + va * vb
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        if len(out) > _MAX_DENSE_TERMS:
            raise ParseError("polynomial too large to expand")
    return out


def parse_system(source):
    """Parse the input text into a StraightLineProgram, in one pass.

    Rejects systems with more polynomials than variables, inputs that are
    identically zero and sizes past the caps above, and records per-output
    total degrees plus the maximum coefficient bit length for the bounds
    machinery.
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
    """adj * ys / det over R, given 1/det."""
    n = tr.n
    xs = []
    for i in range(n):
        acc = R.zero
        for j in range(n):
            a = tr.adjugate[i][j]
            if a == 0 or R.is_zero(ys[j]):
                continue
            acc = R.add(acc, R.mul(R.from_int(a), ys[j]))
        xs.append(R.mul(acc, det_inv))
    return xs


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
    """Values of the instructions in ``order``, indexed by instruction."""
    vals = [None] * len(slp.instructions)
    for i in order:
        ins = slp.instructions[i]
        op = ins[0]
        if op == "var":
            vals[i] = xs[ins[1]]
        elif op == "const":
            vals[i] = R.from_int(ins[1])
        elif op == "add":
            vals[i] = R.add(vals[ins[1]], vals[ins[2]])
        elif op == "sub":
            vals[i] = R.sub(vals[ins[1]], vals[ins[2]])
        else:
            vals[i] = R.mul(vals[ins[1]], vals[ins[2]])
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
    so over a ``PolyQuotient`` it is reduced mod q once.

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
    for col, direction in enumerate(wrt):
        if isinstance(direction, int):
            direction = [T.one if i == direction else T.zero for i in range(n)]
        seeds = direction
        if det_inv is not None:
            seeds = _apply_adjugate(slp.transform, direction, det_inv, T)
        for i in order:
            ins = slp.instructions[i]
            op = ins[0]
            if op == "var":
                tans[i] = seeds[ins[1]]
            elif op == "const":
                tans[i] = T.zero
            elif op == "add":
                tans[i] = T.add(tans[ins[1]], tans[ins[2]])
            elif op == "sub":
                tans[i] = T.sub(tans[ins[1]], tans[ins[2]])
            else:
                a, b = ins[1], ins[2]
                tans[i] = T.dot((tvals[a], tans[a]), (tans[b], tvals[b]))
        for row, k in zip(rows, outs):
            row[col] = tans[slp.outputs[k]]
    values = [vals[slp.outputs[k]] for k in outs]
    return values, rows
