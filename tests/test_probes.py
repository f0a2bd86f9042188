"""Every probe of the benchmark's tracer names a function that exists, and
sees the work it is named for.

``perfbench/tracing.py`` wraps functions of ``kronecker`` by module and
attribute name, and ``--trace 1`` fails if one of them is gone; these tests
resolve each name the way the tracer does, without installing anything,
and count the divisions the tracer sees in a deep quotient.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _probes():
    return _tracing().PROBES


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


def test_deep_quotient_sums_divide_through_the_probed_function():
    # The benchmark charges the division by q to ``polys.divmod_monic``:
    # over a deep Z/p^k, where every provable rung multiplies by
    # convolution, each sum of products must divide through it, once.
    from kronecker.rings import PolyQuotient, ResidueRing

    R = ResidueRing(2**30 - 35, 512)
    for d in (1, 3, 6):
        q = tuple(range(3, 3 + d)) + (1,)
        A = PolyQuotient(R, q)
        us = [tuple(R.modulus - 1 - i for i in range(n)) for n in (d, 1, 2 * d - 1)]
        with _tracing().Tracer() as tracer:
            A.dot(us, us[::-1])
            A.mul(us[0], us[2])
        assert tracer.probes["polys.divmod_monic"].calls == 2
