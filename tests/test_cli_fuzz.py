"""Fuzz of the command line: every input ends in exit 0, 2 or 3.

Hypothesis draws small systems from the input grammar, mutates their text,
and mixes in inputs too large to solve.  ``cli.run`` must return 0
(verified), 2 (retries exhausted, or not a reduced regular sequence) or 3
(input refused) on each, in heuristic mode, in provable mode and with
``--mod-p-only``, and raise nothing.  Every document provable mode writes
must carry a passed exact residual check over Q.  Provable draws stay small
(n <= 2, total degree <= 2, coefficients up to 20 in size): the provable
height budget makes solves with large coefficients slow.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from kronecker.cli import run

OVERSIZED = (
    "vars x; x^300000 - 1;",
    "vars x; x^99999999999;",
    "vars x, y; x^200 - y; y^200 - x - 1;",
    "vars x; (x+1)^100000;",
)
MODES = {
    "heuristic": [],
    "provable": ["--mode", "provable"],
    "mod-p-only": ["--mod-p-only"],
}
NAMES = ("x", "y", "z")


def _run(text, mode):
    """Exit code, stdout and stderr of ``kronecker-solve`` on ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sys.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = io.StringIO()
        err = io.StringIO()
        argv = [path, "--seed", "0", "--retries", "2", *MODES[mode]]
        with contextlib.redirect_stdout(out):
            with contextlib.redirect_stderr(err):
                code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_documented_exit(text, mode):
    code, out, err = _run(text, mode)
    assert code in (0, 2, 3), (text, mode, code)
    assert (code == 0) == (err == ""), (text, mode, err)
    assert err == "" or err.startswith("error: "), (text, mode, err)
    if code == 0 and mode == "provable":
        doc = json.loads(out)
        assert doc["certificate"]["exact_checked"] is True, text
        clauses = doc["verification"]["clauses"]
        exact = [c["ok"] for c in clauses if c["name"] == "exact residual over Q"]
        assert exact == [True], (text, clauses)


@st.composite
def _term(draw, n, degree, coeff):
    """c·x^a·y^b... of total degree <= ``degree``, written with ^ or as a
    product, the coefficient left out when it is 1."""
    c = draw(st.integers(-coeff, coeff))
    factors = [] if abs(c) == 1 else [str(abs(c))]
    left = degree
    for name in NAMES[:n]:
        e = draw(st.integers(0, left))
        left -= e
        if e == 1:
            factors.append(name)
        elif e > 1:
            power = draw(st.sampled_from([f"{name}^{e}", "*".join([name] * e)]))
            factors.append(power)
    sign = "-" if c < 0 else ""
    return sign + ("*".join(factors) or "1")


@st.composite
def _polynomial(draw, n, degree, coeff):
    """A sum of terms, or a product or power of such sums in parentheses,
    of total degree <= ``degree``."""

    def total(d):
        terms = draw(st.lists(_term(n, d, coeff), min_size=1, max_size=3))
        return " + ".join(terms).replace("+ -", "- ")

    shape = draw(st.sampled_from(["sum", "product", "power", "negated"]))
    if shape == "product" and degree >= 2:
        return f"({total(degree // 2)})*({total(degree - degree // 2)})"
    if shape == "power" and degree >= 2:
        return f"({total(1)})^{degree}"
    if shape == "negated":
        return f"-({total(degree)})"
    return total(degree)


@st.composite
def _system(draw, max_n, degree, coeff):
    n = draw(st.integers(1, max_n))
    r = draw(st.integers(1, n))
    polys = [
        draw(_polynomial(n, draw(st.integers(1, degree)), coeff))
        for _ in range(r)
    ]
    return f"vars {', '.join(NAMES[:n])};\n" + "".join(f"{p};\n" for p in polys)


@st.composite
def _mutated(draw, text):
    """``text`` after one to three deletions, insertions of a grammar
    character (no digit, so no degree grows) or swaps of neighbours."""
    chars = list(text)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, max(len(chars) - 1, 0)))
        edit = draw(st.sampled_from(["delete", "insert", "swap"]))
        if edit == "delete" and chars:
            del chars[i]
        elif edit == "insert":
            chars.insert(i, draw(st.sampled_from(list("+-*^();,xv w"))))
        elif i + 1 < len(chars):
            chars[i], chars[i + 1] = chars[i + 1], chars[i]
    return "".join(chars)


_SMALL = _system(max_n=2, degree=2, coeff=20)
_HEURISTIC = _system(max_n=3, degree=3, coeff=1000)


@settings(max_examples=60)
@given(
    st.one_of(_HEURISTIC, st.sampled_from(OVERSIZED)),
    st.sampled_from(["heuristic", "mod-p-only"]),
)
def test_heuristic_and_modular_runs_exit_0_2_or_3(text, mode):
    _assert_documented_exit(text, mode)


@settings(max_examples=60)
@given(st.one_of(_SMALL, st.sampled_from(OVERSIZED)))
def test_provable_runs_exit_0_2_or_3(text):
    _assert_documented_exit(text, "provable")


@settings(max_examples=60)
@given(_SMALL.flatmap(_mutated), st.sampled_from(sorted(MODES)))
def test_mutated_text_exits_0_2_or_3(text, mode):
    _assert_documented_exit(text, mode)
