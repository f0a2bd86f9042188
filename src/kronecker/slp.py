"""Straight-line programs: parsing, affine reparametrization, evaluation.

The input grammar is one ``vars`` line followed by one polynomial expression
per statement::

    vars x, y;
    x^2 + y^2 - 5;
    x*y - 2;

Integer constants are arbitrary precision; ``^`` takes a nonnegative integer
exponent and is expanded by repeated squaring at parse time, so programs stay
division-free.  The builder hash-conses: an operation on the same operands
(in either order for ``+`` and ``*``) is emitted once and shared, so ``x^2``
appearing in several monomials or outputs costs one multiplication, and the
recorded ``length`` counts the distinct ring operations after that sharing.

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
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotInvertibleError, ParseError, SingularMatrixError
from .rings import coerce

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^();,]))"
)

_MAX_DENSE_TERMS = 200_000

# Caps of ``parse_system``: the degree bound of a polynomial and the Bezout
# number, four times the fiber degree 64 the solver is meant for, and the
# bits of a power of a constant, which is expanded in closed form.
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
        rows = tuple(tuple(int(c) for c in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        det, inv = _fraction_inverse(rows)
        if det == 0:
            raise SingularMatrixError("change of variables has determinant 0")
        adj = tuple(
            tuple(_as_int(det * inv[i][j]) for j in range(n)) for i in range(n)
        )
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


def _as_int(fr):
    assert fr.denominator == 1
    return int(fr)


def _fraction_inverse(rows):
    """Exact determinant and inverse of an integer matrix, by elimination."""
    n = len(rows)
    a = [[Fraction(rows[i][j]) for j in range(n)] for i in range(n)]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return 0, None
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
            det = -det
        det *= a[col][col]
        scale = 1 / a[col][col]
        a[col] = [v * scale for v in a[col]]
        inv[col] = [v * scale for v in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
                inv[r] = [v - f * w for v, w in zip(inv[r], inv[col])]
    return _as_int(det), inv


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
        ops = sum(
            1 for ins in self.instructions if ins[0] in ("add", "sub", "mul")
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
        if m.group("num") is not None:
            if len(m.group("num")) > 4300:  # the interpreter's digit cap
                raise ParseError("number too long", m.start("num"))
            tokens.append(("num", int(m.group("num")), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self):
        kind, val, pos = self.next()
        if kind != "ident" or val != "vars":
            raise ParseError("input must start with a 'vars' declaration", pos)
        names = []
        while True:
            kind, val, pos = self.next()
            if kind != "ident":
                raise ParseError("expected a variable name", pos)
            if val in names:
                raise ParseError(f"duplicate variable {val!r}", pos)
            names.append(val)
            kind, val, pos = self.next()
            if kind == "op" and val == ",":
                continue
            if kind == "op" and val == ";":
                break
            raise ParseError("expected ',' or ';' in the vars line", pos)
        self.var_index = {name: i for i, name in enumerate(names)}
        exprs = []
        while self.peek()[0] != "end":
            exprs.append(self.expr())
            self.expect_op(";")
        if not exprs:
            raise ParseError("no polynomials declared", self.peek()[2])
        return names, exprs

    def expr(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        node = self.term()
        if negate:
            node = ("neg", node)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = ("add" if val == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                node = ("mul", node, self.factor())
            else:
                return node

    def factor(self):
        kind, val, pos = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            inner = self.factor()
            return ("neg", inner) if val == "-" else inner
        node = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, exp, pos = self.next()
            if kind != "num":
                raise ParseError("exponent must be a nonnegative integer", pos)
            node = ("pow", node, exp)
        return node

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return ("const", val)
        if kind == "ident":
            if val not in self.var_index:
                raise ParseError(f"unknown variable {val!r}", pos)
            return ("var", self.var_index[val])
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("expected a number, variable or '('", pos)


class _Builder:
    def __init__(self, n_vars):
        self.instructions = []
        self.var_idx = {}
        self.const_idx = {}
        self.op_idx = {}
        for i in range(n_vars):
            self.var_idx[i] = len(self.instructions)
            self.instructions.append(("var", i))

    def const(self, c):
        if c not in self.const_idx:
            self.const_idx[c] = len(self.instructions)
            self.instructions.append(("const", c))
        return self.const_idx[c]

    def emit(self, op, a, b):
        """Index of the instruction (op, a, b), appended unless an identical
        one exists; commutative operands are put in index order first."""
        if op != "sub" and b < a:
            a, b = b, a
        ins = (op, a, b)
        idx = self.op_idx.get(ins)
        if idx is None:
            idx = self.op_idx[ins] = len(self.instructions)
            self.instructions.append(ins)
        return idx

    def build(self, node):
        op = node[0]
        if op == "const":
            return self.const(node[1])
        if op == "var":
            return self.var_idx[node[1]]
        if op == "neg":
            return self.emit("sub", self.const(0), self.build(node[1]))
        if op == "pow":
            base = self.build(node[1])
            return self.power(base, node[2])
        a = self.build(node[1])
        b = self.build(node[2])
        return self.emit(op, a, b)

    def power(self, base, e):
        if e == 0:
            return self.const(1)
        if e == 1:
            return base
        # Repeated squaring along the bits of e, high to low.
        bits = bin(e)[3:]
        acc = base
        for bit in bits:
            acc = self.emit("mul", acc, acc)
            if bit == "1":
                acc = self.emit("mul", acc, base)
        return acc


def _degree_bound(node):
    """Total degree bound of an expression tree; a constant has degree 0."""
    op = node[0]
    if op in ("const", "var"):
        return int(op == "var")
    if op == "pow":
        return node[2] * _degree_bound(node[1])
    degrees = [_degree_bound(child) for child in node[1:]]
    return sum(degrees) if op == "mul" else max(degrees)


def _dense_expand(node, n_vars):
    """Dense monomial map of an expression; raises ParseError past the cap."""
    op = node[0]
    if op == "const":
        return {(0,) * n_vars: node[1]} if node[1] != 0 else {}
    if op == "var":
        e = [0] * n_vars
        e[node[1]] = 1
        return {tuple(e): 1}
    if op == "neg":
        return {k: -v for k, v in _dense_expand(node[1], n_vars).items()}
    if op == "pow":
        base = _dense_expand(node[1], n_vars)
        e = node[2]
        if len(base) <= 1:
            # (c*x^a)^e = c^e*x^(e*a) in closed form, 0^0 = 1: a monomial
            # needs no e multiplications, whatever the size of e.
            if e == 0:
                return {(0,) * n_vars: 1}
            if any(e * abs(c).bit_length() > _MAX_CONSTANT_BITS
                   for c in base.values() if abs(c) > 1):
                raise ParseError("power of a constant too large to expand")
            return {tuple(e * a for a in k): c**e for k, c in base.items()}
        out = {(0,) * n_vars: 1}
        for _ in range(e):
            out = _dense_mul(out, base)
        return out
    a = _dense_expand(node[1], n_vars)
    b = _dense_expand(node[2], n_vars)
    if op == "mul":
        return _dense_mul(a, b)
    sign = 1 if op == "add" else -1
    out = dict(a)
    for k, v in b.items():
        nv = out.get(k, 0) + sign * v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


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
    """Parse the input text into a StraightLineProgram.

    Rejects systems with more polynomials than variables, inputs that are
    identically zero and sizes past the caps above, and records per-output
    total degrees plus the maximum coefficient bit length for the bounds
    machinery.
    """
    parser = _Parser(source)
    names, exprs = parser.parse()
    n = len(names)
    if len(exprs) > n:
        raise ParseError(
            f"{len(exprs)} polynomials in {n} variables is overdetermined"
        )
    builder = _Builder(n)
    outputs = []
    dense_forms = []
    degrees = []
    height = 0
    bezout = 1
    for k, node in enumerate(exprs):
        if _degree_bound(node) > _MAX_DEGREE:
            raise ParseError(f"polynomial #{k + 1}: degree bound above {_MAX_DEGREE}")
        dense = _dense_expand(node, n)
        if not dense:
            raise ParseError(f"polynomial #{k + 1} is identically zero")
        dense_forms.append(dict(dense))
        degrees.append(max(sum(e) for e in dense))
        bezout *= degrees[-1]
        if bezout > _MAX_DEGREE:
            raise ParseError(f"Bezout number above {_MAX_DEGREE}")
        height = max(height, max(abs(c) for c in dense.values()).bit_length())
        outputs.append(builder.build(node))
    return StraightLineProgram(
        n_vars=n,
        var_names=tuple(names),
        instructions=tuple(builder.instructions),
        outputs=tuple(outputs),
        degrees=tuple(degrees),
        height=height,
        dense_forms=tuple(dense_forms),
        transform=None,
    )


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
    return StraightLineProgram(
        n_vars=slp.n_vars,
        var_names=slp.var_names,
        instructions=slp.instructions,
        outputs=slp.outputs,
        degrees=slp.degrees,
        height=slp.height,
        dense_forms=slp.dense_forms,
        transform=change,
    )


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
    derivative of the i-th selected output along ``wrt[k]``.

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
                tans[i] = T.add(
                    T.mul(tvals[a], tans[b]), T.mul(tans[a], tvals[b])
                )
        for row, k in zip(rows, outs):
            row[col] = tans[slp.outputs[k]]
    values = [vals[slp.outputs[k]] for k in outs]
    return values, rows
