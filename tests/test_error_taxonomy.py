"""Every exception class in kronecker.errors has one documented route.

* restart: raised inside an attempt, it discards the attempt, its cause is
  recorded and the attempt driver draws fresh randomness;
* structural: a restart too, but when every attempt ends in one the input is
  rejected as not a reduced regular sequence;
* local: caught where it is raised (and a restart should it escape);
* parse: the input text is malformed (CLI exit 3);
* outcome: what the attempt driver raises once no attempt is left (exit 2).

A class added to errors.py without a route here fails the first test, and
one that nothing in the package raises fails the second.  The errors that
only the tests' references raise are defined beside them in
``tests/reference`` and named nowhere in the package.
"""

import ast
import inspect
import pkgutil

import pytest

import kronecker
from kronecker import cli, errors, padic
from kronecker.padic import (
    SolveConfiguration,
    check_configuration,
    solve_over_rationals,
)
from kronecker.slp import parse_system

ROUTES = {
    "KroneckerError": "restart",
    "UnluckyError": "restart",
    "DegreeDropError": "restart",
    "JacobianNotInvertibleError": "restart",
    "NodeExhaustionError": "restart",
    "ZeroResultantError": "restart",
    "ResidualNonzeroError": "restart",
    "NoPrimeFoundError": "restart",
    "DuplicateNodeError": "restart",
    "EmptyIntersectionError": "structural",
    "SingularMatrixError": "restart",
    "NotInvertibleError": "local",
    "NoReconstructionError": "local",
    "ParseError": "parse",
    "RetryExhaustedError": "outcome",
    "InputNotRegularError": "outcome",
}

REFERENCE_ERRORS = (
    "CharacteristicTooSmallError",
    "ModuliNotCoprimeError",
    "SizeGuardError",
)

TEXT = "vars x, y;\nx^2 + y^2 - 5;\nx*y - 2;\n"


def _names(*routes):
    return sorted(name for name, route in ROUTES.items() if route in routes)


def _instance(name):
    cls = getattr(errors, name)
    if name == "UnluckyError":
        return cls(1, "injected")
    if issubclass(cls, errors.UnluckyError):
        return cls(1)
    if cls in (errors.RetryExhaustedError, errors.InputNotRegularError):
        return cls(1, ["injected"])
    return cls("injected")


def _sources():
    """Source text of every kronecker module."""
    out = {}
    for info in pkgutil.iter_modules(kronecker.__path__):
        module = __import__(f"kronecker.{info.name}", fromlist=["_"])
        out[info.name] = inspect.getsource(module)
    return out


def test_every_error_class_has_a_route():
    classes = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type)
        and issubclass(obj, Exception)
        and obj.__module__ == errors.__name__
    }
    assert classes == set(ROUTES)


def test_every_error_class_is_raised_in_the_package():
    raised = set()
    for text in _sources().values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.update(
                    sub.id for sub in ast.walk(node.exc) if isinstance(sub, ast.Name)
                )
    assert set(ROUTES) - {"KroneckerError"} <= raised


@pytest.mark.parametrize("name", _names("restart", "structural", "local"))
def test_attempt_driver_routes(name, monkeypatch, tmp_path):
    err = _instance(name)

    def failing(state):
        raise err

    monkeypatch.setattr(padic, "solve_mod_p", failing)
    expected = (
        errors.InputNotRegularError
        if ROUTES[name] == "structural"
        else errors.RetryExhaustedError
    )
    with pytest.raises(errors.KroneckerError) as info:
        solve_over_rationals(parse_system(TEXT), SolveConfiguration(retries=3))
    assert type(info.value) is expected
    assert len(info.value.causes) == 3
    src = tmp_path / "sys.txt"
    src.write_text(TEXT)
    for flags in ([], ["--mod-p-only"]):
        assert cli.run([str(src), "--retries", "3", *flags]) == 2


@pytest.mark.parametrize("name", _names("local"))
def test_local_errors_are_caught_in_the_package(name):
    sources = _sources()
    assert any(f"except {name}" in text for text in sources.values())


def test_a_pinned_singular_change_is_refused_before_any_attempt(monkeypatch):
    # A drawn singular λ ends its attempt (SingularMatrixError is a
    # restart); a pinned one could never be used, so it is refused up front.
    config = SolveConfiguration(lambda_matrix=((1, 2), (2, 4)))
    with pytest.raises(ValueError, match="pinned change of variables is singular"):
        check_configuration(config, 2)

    def no_attempt(*args):
        raise AssertionError("an attempt was drawn")

    monkeypatch.setattr(padic, "_draw_attempt", no_attempt)
    with pytest.raises(ValueError, match="pinned change of variables is singular"):
        solve_over_rationals(parse_system(TEXT), config)


@pytest.mark.parametrize("name", REFERENCE_ERRORS)
def test_oracle_errors_stay_in_the_oracle(name):
    for module, text in _sources().items():
        assert name not in text, module


@pytest.mark.parametrize("name", _names("parse"))
def test_parse_errors_exit_3(name, monkeypatch, tmp_path):
    err = _instance(name)

    def failing(source):
        raise err

    monkeypatch.setattr(cli, "parse_system", failing)
    src = tmp_path / "sys.txt"
    src.write_text(TEXT)
    assert cli.run([str(src)]) == 3


@pytest.mark.parametrize("name", _names("outcome"))
def test_outcomes_exit_2(name, monkeypatch, tmp_path):
    err = _instance(name)

    def failing(slp, config):
        raise err

    monkeypatch.setattr(cli, "solve_over_rationals", failing)
    monkeypatch.setattr(cli, "solve_modular", failing)
    src = tmp_path / "sys.txt"
    src.write_text(TEXT)
    for flags in ([], ["--mod-p-only"]):
        assert cli.run([str(src), *flags]) == 2
