"""Per-layer spans and counts for the traced run.

Each layer is observed from outside equipot: the benchmark replaces the name
one equipot module uses to call into another (`equipot.extremal.lp_maximize`,
`equipot.numerics.linprog`, ...) with a wrapper that times the call, notes
the span it ran under, and reads counts off its arguments and result.  Nothing
in `src/` changes, and the untimed runs install no wrappers at all.

When a later version of equipot drops or renames one of these names, or
changes an argument a count is read from, the metrics that depend on it are
reported as absent; the run itself goes on.
"""

from __future__ import annotations

import collections
import functools
import importlib
import time

# (metric group, module whose global name is replaced, that name)
TARGETS = (
    ("equilibrium.solve", "equipot.equilibrium", "solve_equilibrium"),   # as called from cli
    ("equilibrium.solve", "equipot.extremal", "solve_equilibrium"),
    ("numerics.quad", "equipot.equilibrium", "_gauss_cheb_adaptive"),
    ("numerics.expand", "equipot.equilibrium", "chebyshev_expand"),
    ("equilibrium.eval", "equipot.equilibrium", "density_table"),        # as called from cli
    ("extremal.probe", "equipot.extremal", "markov_extremal"),
    ("numerics.lp", "equipot.extremal", "lp_maximize"),
    ("numerics.lp.highs", "equipot.numerics", "linprog"),
    ("schur", "equipot.schur", "build_witness"),                         # as called from cli
    ("schur", "equipot.schur", "audit_witness"),
)


def _counted(fn, tracer: "Tracer", key: str):
    """fn wrapped so that the length of every node array it is given is added to key."""
    if not callable(fn):
        raise TypeError(f"{key}: {fn!r} is not callable")

    def counted(t, *args, **kwargs):
        tracer.counts[key] += len(t)
        return fn(t, *args, **kwargs)

    return counted


class Tracer:
    """Span times, self times and counts, summed over the ops it is active for."""

    def __init__(self) -> None:
        self.active = False
        self.calls: collections.Counter = collections.Counter()
        self.time: collections.Counter = collections.Counter()
        self.self_time: collections.Counter = collections.Counter()
        self.counts: collections.Counter = collections.Counter()
        self.absent: set[str] = set()
        self.top_s = 0.0          # time spent in outermost wrapped spans
        self._stack: list[list[float]] = []
        self._solve_depth = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "equilibrium.solve": ("solve.gaps", self._before_solve, None),
            "numerics.quad": ("quad.nodes", self._before_quad, None),
            "numerics.expand": ("expand.nodes", self._before_expand, None),
            "equilibrium.eval": ("eval.points", None, self._after_eval),
            "extremal.probe": ("probe.result", None, self._after_probe),
            "numerics.lp": ("lp.rows", self._before_lp, None),
        }
        for group, module, attr in TARGETS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.add(group)
                continue
            label, before, after = hooks.get(group, (group, None, None))
            setattr(mod, attr, self._wrap(group, fn, label, before, after))
            self._undo.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def _wrap(self, group, fn, label, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                args = tracer._hook(label, before, args)
            is_solve = group == "equilibrium.solve"
            tracer._solve_depth += is_solve
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer._solve_depth -= is_solve
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                else:
                    tracer.top_s += dt
                tracer.calls[group] += 1
                tracer.time[group] += dt
                tracer.self_time[group] += dt - frame[0]
            if after is not None:
                tracer._hook(label, after, result)
            return result

        return wrapper

    def _hook(self, label, hook, value):
        try:
            return hook(value)
        except (AttributeError, TypeError, IndexError):
            self.absent.add(label)
            return value

    # -- counts read off arguments and results ------------------------------

    def _before_solve(self, args):
        self.counts["solve.gaps"] += args[0].m - 1
        return args

    def _before_quad(self, args):
        if self._solve_depth:
            self.counts["quad.in_solve"] += 1
        return (_counted(args[0], self, "quad.nodes"),) + tuple(args[1:])

    def _before_expand(self, args):
        return (_counted(args[0], self, "expand.nodes"),) + tuple(args[1:])

    def _after_eval(self, rows):
        self.counts["eval.points"] += len(rows)

    def _after_probe(self, res):
        self.counts["probe.exchange_rounds"] += int(res.exchange_rounds)
        self.counts["probe.grid_doubled"] += int(bool(res.grid_doubled))

    def _before_lp(self, args):
        self.counts["lp.rows"] += args[0].rows.shape[0]
        return args

    # -- metrics ------------------------------------------------------------

    def metrics(self, ops: int, op_s: float) -> dict[str, float]:
        """Per-layer metrics, per regular op where they are sums.

        `op_s` is the total wall time of the `ops` regular ops traced.  A
        metric whose layer or count could not be observed is left out.
        """
        c, t, n = self.calls, self.time, self.counts

        def per(x):
            return x / ops

        def ratio(x, y, empty):
            return x / y if y else empty

        # name: (layer groups and counts it needs, value)
        table = {
            "equilibrium.solve.calls": (("equilibrium.solve",), per(c["equilibrium.solve"])),
            "equilibrium.solve.s": (("equilibrium.solve",), per(t["equilibrium.solve"])),
            "equilibrium.solve.quad_per_gap": (
                ("equilibrium.solve", "numerics.quad", "solve.gaps"),
                ratio(n["quad.in_solve"], n["solve.gaps"], 0.0)),
            "numerics.quad.calls": (("numerics.quad",), per(c["numerics.quad"])),
            "numerics.quad.nodes": (("numerics.quad", "quad.nodes"),
                                    per(n["quad.nodes"])),
            "numerics.quad.s": (("numerics.quad",), per(t["numerics.quad"])),
            "numerics.expand.calls": (("numerics.expand",), per(c["numerics.expand"])),
            "numerics.expand.nodes": (("numerics.expand", "expand.nodes"),
                                      per(n["expand.nodes"])),
            "numerics.expand.s": (("numerics.expand",), per(t["numerics.expand"])),
            "equilibrium.eval.s": (("equilibrium.eval",), per(t["equilibrium.eval"])),
            "equilibrium.eval.us_per_point": (
                ("equilibrium.eval", "eval.points"),
                1e6 * ratio(t["equilibrium.eval"], n["eval.points"], 0.0)),
            "extremal.probe.calls": (("extremal.probe",), per(c["extremal.probe"])),
            "extremal.probe.s": (("extremal.probe",), per(t["extremal.probe"])),
            "extremal.probe.self_s": (("extremal.probe", "numerics.lp", "equilibrium.solve"),
                                      per(self.self_time["extremal.probe"])),
            "extremal.exchange_rounds": (("extremal.probe", "probe.result"), per(n["probe.exchange_rounds"])),
            "extremal.grid_doubled": (("extremal.probe", "probe.result"), per(n["probe.grid_doubled"])),
            "numerics.lp.calls": (("numerics.lp",), per(c["numerics.lp"])),
            "numerics.lp.rows": (("numerics.lp", "lp.rows"), per(n["lp.rows"])),
            "numerics.lp.s": (("numerics.lp",), per(t["numerics.lp"])),
            "numerics.lp.highs_calls": (("numerics.lp.highs",), per(c["numerics.lp.highs"])),
            "numerics.lp.highs_s": (("numerics.lp.highs",), per(t["numerics.lp.highs"])),
            "numerics.lp.useful_ratio": (
                ("numerics.lp", "numerics.lp.highs"),
                ratio(c["numerics.lp"], c["numerics.lp.highs"], 1.0)),
            "schur.s": (("schur",), per(t["schur"])),
            # op time outside every wrapped layer, so it needs all of them
            "cli.self_s": (tuple(g for g, _, _ in TARGETS), per(op_s - self.top_s)),
        }
        return {name: value for name, (needs, value) in table.items()
                if self.absent.isdisjoint(needs)}
