"""The traced run: per-layer numbers for one workload.

For ``--seconds`` seconds (at least MIN_ROUNDS rounds) it solves each system
of the workload twice in a row, untraced and then under its own
``tracing.Tracer``, round-robin, timed with a ``speed.HostClock``.  Per
system, the traced solve with the median scaled time gives the layer numbers, so the layer self times add up to ``trace.wall_s``;
``trace.untraced_wall_s`` takes the untraced solves the same way, and
``trace.overhead_s`` is the difference.  Times are in reference seconds.
Counts must be identical in every traced solve of a system, and every
output must equal the first untraced one, or the run fails.  The spans of
the chosen solves are written to ``perfbench/out/trace-<workload>-<seed>.json``.
"""

import json
import statistics
import time

from run import OUT, check_outcomes, finish, prepare, report, solve
from speed import HostClock
from tracing import LAYERS, Tracer

MIN_ROUNDS = 2

# metric name -> probe whose inclusive time (``_s``) or call count it reports
TIME_METRICS = {
    "slp.eval_s": "slp.eval",
    "rings.pq_mul_s": "rings.pq_mul",
    "polys.poly_mul_s": "polys.poly_mul",
    "polys.divmod_monic_s": "polys.divmod_monic",
    "polys.is_squarefree_s": "polys.is_squarefree",
    "polys.factor_squarefree_s": "polys.factor_squarefree",
    "solver.solve_mod_p_s": "solver.solve_mod_p",
    "solver.lift_curve_s": "solver.lift_curve",
    "solver.intersect_minpoly_s": "solver.intersect_minpoly",
    "solver.intersect_param_s": "solver.intersect_param",
    "solver.solve_linear_s": "solver.solve_linear",
    "verify.gate_stage_s": "verify.gate_stage",
    "verify.check_rep_s": "verify.check_rep",
    "padic.reconstruct_s": "padic.reconstruct",
}
CALL_METRICS = {
    "slp.eval_calls": "slp.eval",
    "rings.pq_mul_calls": "rings.pq_mul",
    "polys.poly_mul_calls": "polys.poly_mul",
    "polys.divmod_monic_calls": "polys.divmod_monic",
    "polys.resultant_calls": "polys.resultant",
}
OUTCOME_COUNTS = ("rungs", "precision_exponent", "attempts", "output_height_bits")
# children of a solve_over_rationals span that are not the lift itself
NOT_LIFT = {"solver.solve_mod_p", "padic.reconstruct", "verify.check_rep"}


def _lift_seconds(spans):
    """Sum over solve_over_rationals spans of the span minus its
    solve_mod_p, reconstruct_rep and check_representation children."""
    spans = [s for s in spans if s is not None]
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for sid, parent, name, start, end in spans:
        if name == "padic.solve":
            total += end - start
        elif name in NOT_LIFT and parent in by_id and by_id[parent][2] == "padic.solve":
            total -= end - start
    return total


# Share of the traced time that the wrapped calls may leave uncovered: the
# outermost probe wraps the whole solve, so only the wrapper's own
# bookkeeping falls outside it.
UNCOVERED_TOLERANCE = 0.01


def _solve_metrics(tracer, out):
    """Layer numbers of one traced solve, times in reference seconds."""
    probes = tracer.probes
    scale = out.scaled / out.seconds
    m = {}
    for metric, probe in TIME_METRICS.items():
        m[metric] = (probes[probe].total * scale, "s")
    m["padic.lift_s"] = (_lift_seconds(tracer.spans) * scale, "s")
    m["cli.emit_s"] = (tracer.self_time["cli"] * scale, "s")
    for layer in LAYERS:
        m[f"self_s.{layer}"] = (tracer.self_time[layer] * scale, "s")
    m["trace.wall_s"] = (out.scaled, "s")
    for metric, probe in CALL_METRICS.items():
        m[metric] = (probes[probe].calls, "count")
    m["solver.curve_iterations"] = (probes["solver.lift_curve"].extra, "count")
    for key in OUTCOME_COUNTS:
        m[f"padic.{key}"] = (out.counts.get(key, 0), "count")
    m["stage.degree_sum"] = (sum(out.counts.get("stage_degrees", ())), "count")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m


def _median_solve(outs, key):
    """The solve whose scaled time is the (low) median."""
    return sorted(outs, key=key)[(len(outs) - 1) // 2]


def traced_run(args):
    workload, items = prepare(args.workload, args.seed)
    untraced = [[] for _ in items]
    traced = [[] for _ in items]  # (tracer, outcome) per traced solve
    start = time.perf_counter()
    k = 0
    with HostClock() as clock:
        while True:
            i = k % len(items)
            if k >= MIN_ROUNDS * len(items):
                # the traced solve takes about as long as the untraced one
                past = 2 * statistics.median(o.seconds for o in untraced[i])
                if time.perf_counter() - start + past > args.seconds:
                    break
            untraced[i].append(solve(workload, items[i], clock))
            tracer = Tracer(clock.now)
            with tracer:
                out = solve(workload, items[i], clock)
            traced[i].append((tracer, out))
            k += 1

    failures = {}
    merged = [u + [t[1] for t in ts] for u, ts in zip(untraced, traced)]
    check_outcomes(merged, failures)
    report(merged)

    totals = {}
    chosen = []
    untraced_wall = 0.0
    for item, outs, solves in zip(items, untraced, traced):
        per_solve = [_solve_metrics(*t) for t in solves]
        for m in per_solve[1:]:
            for name, (value, unit) in m.items():
                first = per_solve[0][name][0]
                if unit == "count" and value != first:
                    failures[f"{item[0].sid} traced solve", 0] = (
                        f"count {name} differs between traced solves: "
                        f"{value} != {first}"
                    )
        pick = _median_solve(range(len(solves)), lambda j: solves[j][1].scaled)
        chosen.append(solves[pick])
        for name, (value, unit) in per_solve[pick].items():
            totals[name] = (totals.get(name, (0, unit))[0] + value, unit)
        untraced_wall += _median_solve(outs, lambda o: o.scaled).scaled

    traced_wall = totals["trace.wall_s"][0]
    covered = sum(totals[f"self_s.{layer}"][0] for layer in LAYERS)
    if abs(traced_wall - covered) > UNCOVERED_TOLERANCE * traced_wall:
        failures["trace accounting", 0] = (
            f"layer self times {covered:.4f} s do not cover the traced "
            f"time {traced_wall:.4f} s"
        )
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in totals.items()}
    metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": traced_wall - untraced_wall,
        "unit": "s",
    }
    # Each workload lists its systems from the lightest to the heaviest.
    for name, outs in (("lightest", untraced[0]), ("heaviest", untraced[-1])):
        metrics[f"solve_s.{name}"] = {
            "value": statistics.median(o.scaled for o in outs),
            "unit": "s",
        }
    metrics["slp.length"] = {
        "value": sum(item[1].length for item in items),
        "unit": "count",
    }
    for name in sorted(metrics):
        print(f"layer {name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(
        f"trace accounting: self times {covered:.4f} s, traced "
        f"{traced_wall:.4f} s, untraced {untraced_wall:.4f} s, overhead "
        f"{traced_wall - untraced_wall:+.4f} s "
        f"({(traced_wall - untraced_wall) / untraced_wall:+.1%})"
    )

    _write_spans(args, chosen, untraced)
    attempted = sum(len(outs) for outs in merged)
    return finish(attempted, failures, metrics)


def _write_spans(args, chosen, untraced):
    OUT.mkdir(exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "untraced_solve_ref_s": {
            outs[0].system.sid: [o.scaled for o in outs] for outs in untraced
        },
        "median_traced_solves": {
            outcome.system.sid: {
                "solve_s": outcome.seconds,
                "solve_ref_s": outcome.scaled,
                "span_fields": ["id", "parent", "name", "start", "end"],
                "spans": [s for s in tracer.spans if s is not None],
                "self_s": tracer.self_time,
                "probes": {
                    name: {"calls": p.calls, "total_s": p.total, "extra": p.extra}
                    for name, p in tracer.probes.items()
                },
            }
            for tracer, outcome in chosen
        },
    }
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    print(f"spans written to {path.relative_to(OUT.parent.parent)}")
