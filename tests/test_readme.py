"""The README's library example shows what the solver returns.

The example is run as written; each line of the form ``expr  # value`` (the
value ends at the first ``:``) must evaluate to that value.
"""

from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example():
    text = README.read_text()
    start = text.index("```python\n", text.index("## Library")) + len("```python\n")
    return text[start : text.index("```", start)]


def test_library_example_shows_what_the_solver_returns():
    code = _library_example()
    namespace = {}
    exec(code, namespace)
    shown = {}
    for line in code.splitlines():
        expr, sep, comment = line.partition("#")
        if sep and expr.strip() and "=" not in expr:
            shown[expr.strip()] = comment.split(":", 1)[0].strip()
    assert set(shown) == {"rep.min_poly", "cert.exact_checked"}
    for expr, value in shown.items():
        assert eval(expr, namespace) == eval(value, {"Fraction": Fraction}), expr
