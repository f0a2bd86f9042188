"""Benchmark of the Kronecker solver on seeded dense integer systems.

Usage (from the repository root):

    python3 perfbench/run.py --workload heur-n2 --seed 1 --seconds 30 --trace 0

One process, one thread, a closed loop with a single caller: each system is
solved only after the previous one returned.  The workload's systems are
solved round-robin through the public entry points
(``kronecker.padic.solve_over_rationals`` or ``kronecker.cli.run``) for
``--seconds`` seconds, at least one full pass.  Every output is checked
outside the timed region; see README.md for the metrics and checks.

With ``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced pass, and the spans are written to ``perfbench/out/``.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up is timed in fresh processes, half before and half after the timed
# loop, so that one slow spell of a shared machine cannot cover them all.
SETUP_PROBES = (11, 10)
PROBE_TIMEOUT_S = 60


def _import_program():
    """Put the checkout's ``src`` first on the path; exit 2 without it."""
    if not (SRC / "kronecker" / "__init__.py").is_file():
        print(f"perfbench: no kronecker package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def prepare(name, seed):
    """Set-up of one workload: generate, parse and (for the CLI) write the
    input files.  Returns the workload and one (system, slp, path) per
    system."""
    from kronecker.slp import parse_system

    from systems import WORKLOADS, make_system

    workload = WORKLOADS[name]
    items = []
    for degrees, copy in workload.systems():
        system = make_system(seed, degrees, copy)
        slp = parse_system(system.text)
        path = None
        if workload.entry == "cli":
            OUT.mkdir(exist_ok=True)
            path = OUT / f"input-{name}-{seed}-{system.sid}.txt"
            path.write_text(system.text + "\n", encoding="utf-8")
        items.append((system, slp, path))
    return workload, items


def _measure_setup(name, seed, count):
    """Set-up time of ``count`` fresh processes (import included), in
    reference seconds."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


class Outcome:
    """What one solve returned, reduced to what the checks compare."""

    def __init__(self, system, start, end):
        self.system = system
        self.start = start
        self.end = end
        self.seconds = end - start
        self.scaled = None  # reference seconds, set by the timed loop
        self.error = None
        self.digest = None
        self.counts = {}
        self.result = None  # (min_poly, params, lam) for the residual check
        self.modulus = None


def _check_shape(out, verified, min_poly):
    """A solve must end verified, with the Bézout stage degrees of a
    generic dense system and a minimal polynomial of degree δ."""
    system = out.system
    problems = []
    if not verified:
        problems.append("verification did not pass")
    if out.counts["stage_degrees"] != system.bezout:
        problems.append(
            f"stage degrees {out.counts['stage_degrees']} != {system.bezout}"
        )
    if len(min_poly) - 1 != system.delta:
        problems.append(f"deg Q = {len(min_poly) - 1} != {system.delta}")
    if problems:
        out.error = "; ".join(problems)


def _solve_library(workload, system, slp, clock=time.perf_counter):
    import kronecker.padic as padic

    from check import digest, height_bits

    config = padic.SolveConfiguration(
        mode=workload.mode,
        seed=system.solve_seed,
        lambda_matrix=system.lam,
        lifting_point=system.point,
    )
    start = clock()
    try:
        rep, cert = padic.solve_over_rationals(slp, config)
    except Exception as err:  # a failed solve is counted, never fatal
        out = Outcome(system, start, clock())
        out.error = f"{type(err).__name__}: {err}"
        return out
    out = Outcome(system, start, clock())
    out.digest = digest(rep.min_poly, rep.params)
    out.result = (rep.min_poly, rep.params, cert.lam)
    out.counts = {
        "attempts": cert.attempts,
        "precision_exponent": cert.precision_exponent,
        "rungs": len(cert.reconstruction_exponents),
        "output_height_bits": height_bits(
            list(rep.min_poly) + [c for w in rep.params.values() for c in w]
        ),
        "stage_degrees": tuple(cert.stage_degrees),
    }
    _check_shape(out, cert.verification.get("passed"), rep.min_poly)
    return out


def _solve_cli(system, path, clock):
    import kronecker.cli as cli

    target = path.with_suffix(".json")
    argv = [str(path), "--mod-p-only", "--seed", str(system.solve_seed),
            "--out", str(target)]
    start = clock()
    try:
        code = cli.run(argv)
    except Exception as err:  # a failed solve is counted, never fatal
        out = Outcome(system, start, clock())
        out.error = f"{type(err).__name__}: {err}"
        return out
    out = Outcome(system, start, clock())
    if code != 0:
        out.error = f"exit code {code}"
        return out
    from check import digest

    doc = json.loads(target.read_text(encoding="utf-8"))
    body = doc["representation"]
    n = system.n
    lam = doc["lambda"]
    min_poly = [int(c) for c in body["minimal_poly"]]
    params = {int(j): [int(c) for c in w]
              for j, w in body["parametrizations"].items()}
    out.digest = digest(min_poly, params)
    out.result = (min_poly, params, [lam[i * n:(i + 1) * n] for i in range(n)])
    out.modulus = int(doc["modulus"])
    out.counts = {
        "attempts": doc["attempts"],
        "precision_exponent": 0,
        "rungs": 0,
        "output_height_bits": 0,
        "stage_degrees": tuple(doc["stage_degrees"]),
    }
    _check_shape(out, doc["verification"].get("passed"), min_poly)
    return out


def solve(workload, item, clock):
    """One solve, timed with ``clock`` (a ``HostClock``) and scaled to
    reference seconds."""
    system, slp, path = item
    if workload.entry == "cli":
        out = _solve_cli(system, path, clock.now)
    else:
        out = _solve_library(workload, system, slp, clock.now)
    out.scaled = out.seconds * clock.scale(out.start, out.end)
    return out


def run_loop(workload, items, seconds, clock):
    """Round-robin solves until ``seconds`` have passed, after at least one
    full pass.  A solve starts only if its median time so far still fits.
    Returns one list of outcomes per system."""
    samples = [[] for _ in items]
    start = time.perf_counter()
    k = 0
    while True:
        i = k % len(items)
        if k >= len(items):
            past = statistics.median(o.seconds for o in samples[i])
            if time.perf_counter() - start + past > seconds:
                break
        samples[i].append(solve(workload, items[i], clock))
        k += 1
    return samples


def check_outcomes(samples, failures):
    """Residual-check each system's first output; compare every repeat to
    it (digest and counts).  ``failures`` maps (system id, solve index) to
    the reason that solve failed."""
    from check import rational_residuals_vanish, residuals_vanish

    for outs in samples:
        first = outs[0]
        sid = first.system.sid
        for k, out in enumerate(outs):
            if out.error:
                failures[sid, k] = out.error
            elif (out.digest, out.counts) != (first.digest, first.counts):
                failures[sid, k] = "output or counts differ from solve 0"
        if first.error:
            continue
        min_poly, params, lam = first.result
        dense = first.system.dense
        if first.modulus is None:
            ok = rational_residuals_vanish(dense, lam, min_poly, params)
        else:
            ok = residuals_vanish(dense, lam, min_poly, params, first.modulus)
        if not ok:
            failures[sid, 0] = "input polynomials do not vanish on the output"


def cross_mode_check(workload, items, samples, failures):
    """A provable solve must give the heuristic solve's output digit for
    digit, since the representation is canonical given (λ, lifting point).
    The provable workload re-solves each of its systems in heuristic mode,
    untimed: that takes a fraction of a provable solve."""
    from systems import WORKLOADS

    if workload.mode != "provable":
        return
    heuristic = WORKLOADS["heur-n2"]
    for item, outs in zip(items, samples):
        system = item[0]
        if outs[0].error:
            continue
        other = _solve_library(heuristic, system, item[1])
        if other.error or other.digest != outs[0].digest:
            failures[system.sid, 0] = "heuristic and provable outputs differ"
        else:
            print(f"cross-mode {system.sid}: heuristic == provable digest {other.digest[:16]}")


def wall_seconds(samples):
    """One pass over the workload in reference seconds: the sum over its
    systems of the median scaled solve time (``speed.py``)."""
    return sum(statistics.median(o.scaled for o in outs) for outs in samples)


def report(samples):
    for outs in samples:
        first = outs[0]
        times = [o.seconds for o in outs]
        scaled = [o.scaled for o in outs]
        print(
            f"system {first.system.sid} delta={first.system.delta} "
            f"solves={len(times)} median_ref_s={statistics.median(scaled):.4f} "
            f"min_s={min(times):.4f} "
            f"median_s={statistics.median(times):.4f} max_s={max(times):.4f} "
            f"times_s={[round(t, 4) for t in times]} "
            f"ref_s={[round(t, 4) for t in scaled]} "
            f"counts={first.counts} digest={first.digest}"
        )


def finish(attempted, failures, metrics):
    """Print the verdict and the result line; exit status 1 on any failure."""
    for (sid, k), reason in sorted(failures.items()):
        print(f"FAIL {sid} solve {k}: {reason}")
    failed = len(failures)
    print(f"fail_frac {failed / attempted:.4f} ({failed} of {attempted} solves)")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from speed import HostClock
    from systems import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    if args.trace:
        from traced import traced_run

        return traced_run(args)

    before, after = SETUP_PROBES
    setup_times = _measure_setup(args.workload, args.seed, before)
    workload, items = prepare(args.workload, args.seed)
    with HostClock() as clock:
        samples = run_loop(workload, items, args.seconds, clock)
    # Read before the checks, whose untimed re-solves are not the workload.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = wall_seconds(samples)
    setup_times += _measure_setup(args.workload, args.seed, after)
    setup_s = statistics.median(setup_times)
    print(f"setup_s samples {[round(t, 4) for t in setup_times]}")
    failures = {}
    check_outcomes(samples, failures)
    cross_mode_check(workload, items, samples, failures)
    report(samples)
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    attempted = sum(len(outs) for outs in samples)
    return finish(attempted, failures, metrics)


if __name__ == "__main__":
    sys.exit(main())
