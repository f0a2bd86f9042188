"""The outputs of the benchmark's 19 systems at seed 101, pinned.

Each workload of ``perfbench/systems.py`` is solved the way the benchmark
solves it: ``heur-n2`` and ``prov-n2`` through ``solve_over_rationals`` in
their mode with the pinned λ and lifting point, ``modp-n34`` through
``cli.run`` with ``--mod-p-only --emit-univariate``.  One SHA-256 per
workload covers every rational output, every ``Certificate.to_dict()`` and
every CLI document, so a change to the arithmetic that moves one digit or
one certificate field fails here.  The representation is canonical given
(λ, lifting point); a change that moves draws or bounds re-pins these on
purpose and says what moved.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from kronecker.cli import run
from kronecker.padic import SolveConfiguration, solve_over_rationals
from kronecker.slp import parse_system

SYSTEMS = Path(__file__).resolve().parents[1] / "perfbench" / "systems.py"
SEED = 101

PINNED_SHA256 = {
    "heur-n2": "19f41a24bb1be2eaa3fd351969cfa9febbc14fc07bc767c36063c58f38a1addb",
    "modp-n34": "8e1fef38ddd913ba77cbaf4cd398e1f4a17a6cda1d24492a28cce71eebb13ae5",
    "prov-n2": "13b031e3f15487c0ed5c66df2c23c3db4911d66a539177f83bee7ff4a68c344f",
}


def _systems_module():
    spec = importlib.util.spec_from_file_location("perfbench_systems", SYSTEMS)
    systems = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(systems)
    return systems


def _library_document(system, mode):
    config = SolveConfiguration(
        mode=mode,
        seed=system.solve_seed,
        lambda_matrix=system.lam,
        lifting_point=system.point,
    )
    rep, cert = solve_over_rationals(parse_system(system.text), config)
    doc = {
        "prim_var": rep.prim_var,
        "point": [str(c) for c in rep.point],
        "min_poly": [str(c) for c in rep.min_poly],
        "params": {str(j): [str(c) for c in w] for j, w in rep.params.items()},
        "form": rep.form,
        "certificate": cert.to_dict(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _cli_document(system, tmp_path):
    src = tmp_path / f"{system.sid}.txt"
    out = tmp_path / f"{system.sid}.json"
    src.write_text(system.text + "\n", encoding="utf-8")
    argv = [str(src), "--mod-p-only", "--emit-univariate",
            "--seed", str(system.solve_seed), "--out", str(out)]
    assert run(argv) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_benchmark_outputs_are_pinned(tmp_path, name):
    systems = _systems_module()
    workload = systems.WORKLOADS[name]
    digest = hashlib.sha256()
    for degrees, copy in workload.systems():
        system = systems.make_system(SEED, degrees, copy)
        if workload.entry == "cli":
            doc = _cli_document(system, tmp_path)
        else:
            doc = _library_document(system, workload.mode)
        digest.update(system.sid.encode() + b"\n" + doc + b"\n")
    assert digest.hexdigest() == PINNED_SHA256[name]
