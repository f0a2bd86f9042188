"""Outside-in tracing of the solver's public functions.

The tracer replaces a public function of ``kronecker`` at every module-level
name that is bound to it (``from .x import f`` copies the binding, so
patching only the defining module would miss calls) and, for
``PolyQuotient.mul``, on the class.  Nothing under ``src/`` is edited.

Every wrapped call pushes a frame on one stack; on return its duration is
charged to the probe (inclusive time) and to its parent frame (child time),
and ``duration - child time`` is charged to the probe's layer as self time.
A call made while the same probe is already active runs unwrapped, so counts
and times are for outermost calls only (``poly_mul`` and ``divmod_monic``
recurse through the ring they are given).

Coarse probes (``span=True``) also record a span (id, parent id, name,
start, end) in memory; the benchmark writes the spans out at the end.  Hot
kernel probes are aggregated only, since they run thousands of times per
solve.
"""

import importlib
import sys
import time

LAYERS = ("slp", "rings", "polys", "solver", "padic", "verify", "cli")

# (metric stem, layer, defining module, attribute, span?)
PROBES = (
    ("slp.eval", "slp", "kronecker.slp", "evaluate", False),
    ("slp.eval", "slp", "kronecker.slp", "evaluate_jacobian", False),
    ("slp.parse", "slp", "kronecker.slp", "parse_system", True),
    ("slp.compose", "slp", "kronecker.slp", "compose_affine", True),
    ("rings.pq_mul", "rings", "kronecker.rings", "PolyQuotient.mul", False),
    ("polys.poly_mul", "polys", "kronecker.polys", "poly_mul", False),
    ("polys.divmod_monic", "polys", "kronecker.polys", "divmod_monic", False),
    ("polys.is_squarefree", "polys", "kronecker.polys", "is_squarefree", False),
    ("polys.factor_squarefree", "polys", "kronecker.polys", "factor_squarefree", True),
    ("polys.resultant", "polys", "kronecker.polys", "resultant", False),
    ("solver.solve_mod_p", "solver", "kronecker.solver", "solve_mod_p", True),
    ("solver.lift_curve", "solver", "kronecker.solver", "lift_curve", True),
    ("solver.intersect_minpoly", "solver", "kronecker.solver", "intersect_minimal_poly", True),
    ("solver.intersect_param", "solver", "kronecker.solver", "intersect_parametrization", True),
    ("solver.solve_linear", "solver", "kronecker.solver", "solve_linear", False),
    ("verify.gate_stage", "verify", "kronecker.verify", "gate_stage", True),
    ("verify.check_rep", "verify", "kronecker.verify", "check_representation", True),
    ("padic.solve", "padic", "kronecker.padic", "solve_over_rationals", True),
    ("padic.reconstruct", "padic", "kronecker.padic", "reconstruct_rep", True),
    ("cli.run", "cli", "kronecker.cli", "run", True),
)


class _Probe:
    __slots__ = ("name", "layer", "span", "active", "calls", "total", "extra")

    def __init__(self, name, layer, span):
        self.name = name
        self.layer = layer
        self.span = span
        self.active = 0
        self.calls = 0
        self.total = 0.0
        self.extra = 0


def _curve_iterations(probe, result):
    probe.extra += result.iterations


ON_RESULT = {"solver.lift_curve": _curve_iterations}


class Tracer:
    """Installs wrappers on enter, restores every binding on exit."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.probes = {}
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.spans = []
        self._stack = []
        self._restore = []

    def __enter__(self):
        for name, layer, module, attr, span in PROBES:
            probe = self.probes.get(name)
            if probe is None:
                probe = self.probes[name] = _Probe(name, layer, span)
            self._install(probe, module, attr)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _install(self, probe, module, attr):
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            self._patch(cls, attr, original, self._wrap(probe, original))
            return
        original = getattr(owner, attr)
        wrapper = self._wrap(probe, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "kronecker":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, probe, fn):
        stack = self._stack
        spans = self.spans
        self_time = self.self_time
        on_result = ON_RESULT.get(probe.name)
        clock = self.clock

        def traced(*args, **kwargs):
            if probe.active:
                return fn(*args, **kwargs)
            probe.active = 1
            parent = stack[-1][0] if stack else -1
            # frame: [span id that children report as parent, child time]
            frame = [parent, 0.0]
            if probe.span:
                frame[0] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                probe.active = 0
                duration = end - start
                probe.calls += 1
                probe.total += duration
                self_time[probe.layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if probe.span:
                    spans[frame[0]] = (frame[0], parent, probe.name, start, end)
            if on_result is not None:
                on_result(probe, result)
            return result

        traced.__wrapped__ = fn
        return traced
