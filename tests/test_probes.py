"""Every probe of the benchmark's tracer names a function that exists.

``perfbench/tracing.py`` wraps functions of ``kronecker`` by module and
attribute name, and ``--trace 1`` fails if one of them is gone; this test
resolves each name the way the tracer does, without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _probes():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.PROBES


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for _, _, module, attr, _ in _probes()]
)
def test_probe_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_probes_cover_the_class_method():
    assert ("kronecker.rings", "PolyQuotient.mul") in {
        (module, attr) for _, _, module, attr, _ in _probes()
    }
