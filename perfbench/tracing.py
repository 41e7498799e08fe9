"""Spans and kernel counters recorded around calls into the package.

Nothing inside the package is edited.  ``Tracer.instrument`` swaps the
module attributes through which one layer calls the next for wrappers
that record a span (name, start, end, parent, operation) and restores
them on exit.  Kernels are called about 10^5 times per solve, so they
get no span each: a counter keeps their call count and total time.
Kernels are the callables of each ``OcProblem`` and the vector fields
handed to ``integrate_fixed`` and ``integrate_dp45``; these are
caller-supplied boundaries, so wrapping them changes no code path.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from sicaoc import analysis, cli, sweep

DP45_DEFAULT_RELTOL = 1e-6
DP45_TIGHT_RELTOL = 1e-12
FIXED_PROBE_STEPS = 800

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "model.rhs_controlled_us": "us",
    "model.adjoint_rhs_us": "us",
    "model.optimal_control_law_us": "us",
    "model.rhs_normalized_us": "us",
    "model.hamiltonian_us": "us",
    "sweep.forward_pass_ms": "ms",
    "sweep.backward_pass_ms": "ms",
    "sweep.update_control_ms": "ms",
    "sweep.relative_change_test_ms": "ms",
    "sweep.ms_per_iteration": "ms",
    "sweep.solve_ms": "ms",
    "sweep.solve_self_ms": "ms",
    "sweep.accounting_remainder_ms": "ms",
    "sweep.iterations": "count",
    "sweep.kernel_calls": "count",
    "integrators.dp45_ms": "ms",
    "integrators.dp45_f_evals": "count",
    "integrators.dp45_tight_ms": "ms",
    "integrators.dp45_tight_f_evals": "count",
    "integrators.fixed_euler_ms": "ms",
    "integrators.fixed_rk2_ms": "ms",
    "integrators.fixed_rk4_ms": "ms",
    "analysis.convergence_order_euler_ms": "ms",
    "analysis.convergence_order_rk2_ms": "ms",
    "analysis.convergence_order_rk4_ms": "ms",
    "analysis.build_norm_table_ms": "ms",
    "analysis.stationarity_residual_ms": "ms",
    "cli.import_ms": "ms",
    "cli.load_config_ms": "ms",
    "cli.write_csv_ms": "ms",
    "cli.write_manifest_ms": "ms",
    "cli.emit_plot_script_ms": "ms",
    "cli.main_simulate_ms": "ms",
    "cli.main_optimize_ms": "ms",
    "cli.main_compare_ms": "ms",
    "cli.main_orders_ms": "ms",
    "trace.overhead_pct": "%",
}

SWEEP_PASSES = ("forward_pass", "backward_pass", "update_control",
                "relative_change_test")
KERNELS = {"state_field": "model.rhs_controlled",
           "adjoint_field": "model.adjoint_rhs",
           "control_law": "model.optimal_control_law"}


@dataclass
class Span:
    ident: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    calls: int = 0              # kernel calls made inside the span
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and kernel counters of the operations run while it is on."""

    def __init__(self):
        self.spans: list[Span] = []
        self.kernels: dict[str, list] = {}   # name -> [calls, seconds]
        self.ops: list[str] = []
        self._stack: list[int] = []

    def begin_op(self, key: str) -> None:
        self.ops.append(key)

    def write(self, path) -> None:
        """Write the spans as JSON lines, each naming its operation."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.ident, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op,
                    "op_key": None if s.op is None else self.ops[s.op],
                    "calls": s.calls, **s.attrs}) + "\n")

    def kernel_calls(self) -> int:
        return sum(stat[0] for stat in self.kernels.values())

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        span = Span(len(self.spans), name, 0.0,
                    parent=self._stack[-1] if self._stack else None,
                    op=len(self.ops) - 1 if self.ops else None, attrs=attrs)
        self.spans.append(span)
        self._stack.append(span.ident)
        calls = self.kernel_calls()
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            span.calls = self.kernel_calls() - calls
            self._stack.pop()

    def kernel(self, name: str, fn):
        """Wrap a kernel so its calls and time add to the counter ``name``."""
        stat = self.kernels.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def counted(*args):
            start = clock()
            out = fn(*args)
            stat[1] += clock() - start
            stat[0] += 1
            return out
        return counted

    def wrap_problem(self, problem):
        for attr, name in KERNELS.items():
            setattr(problem, attr, self.kernel(name, getattr(problem, attr)))
        return problem

    def _spanned(self, name, fn, **attr_args):
        def traced(*args, **kwargs):
            attrs = {key: pick(*args, **kwargs) for key, pick in attr_args.items()}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def instrument(self):
        """Route the package's inter-layer calls through this tracer."""
        originals = []

        def patch(module, attr, replacement):
            originals.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)

        def fixed(orig):
            def traced(method, f, grid, x0):
                with self.span("integrators.integrate_fixed", method=method,
                               steps=grid.steps):
                    return orig(method, self.kernel("model.rhs_normalized", f), grid, x0)
            return traced

        def dp45(orig):
            def traced(f, t0, tf, x0, settings, sample):
                with self.span("integrators.integrate_dp45", reltol=settings.reltol,
                               nodes=sample.node_count):
                    return orig(self.kernel("model.rhs_normalized", f), t0, tf, x0,
                                settings, sample)
            return traced

        def problem_factory(orig):
            def traced(*args, **kwargs):
                return self.wrap_problem(orig(*args, **kwargs))
            return traced

        method = lambda m, *a, **k: m
        try:
            for name in SWEEP_PASSES:
                patch(sweep, name, self._spanned("sweep." + name, getattr(sweep, name)))
            for module in (cli, analysis):
                patch(module, "integrate_fixed", fixed(module.integrate_fixed))
                patch(module, "integrate_dp45", dp45(module.integrate_dp45))
            patch(analysis, "hamiltonian",
                  self.kernel("model.hamiltonian", analysis.hamiltonian))
            patch(cli, "sica_problem", problem_factory(cli.sica_problem))
            patch(cli, "solve", self._spanned("sweep.solve", cli.solve))
            for name in ("load_config", "write_csv", "write_manifest", "emit_plot_script"):
                patch(cli, name, self._spanned("cli." + name, getattr(cli, name)))
            patch(cli, "stationarity_residual",
                  self._spanned("analysis.stationarity_residual", cli.stationarity_residual))
            patch(cli, "build_norm_table",
                  self._spanned("analysis.build_norm_table", cli.build_norm_table,
                                method=method))
            patch(cli, "convergence_order",
                  self._spanned("analysis.convergence_order", cli.convergence_order,
                                method=method))
            yield self
        finally:
            for module, attr, orig in reversed(originals):
                setattr(module, attr, orig)

    # ------------------------------------------------------------ summaries

    def counts(self) -> dict:
        """Exact work counts: these repeat exactly for the same operations."""
        solves = self.named("sweep.solve")
        children = self.children()
        dp45 = self.named("integrators.integrate_dp45")
        return {
            "sweep.solves": len(solves),
            "sweep.iterations": sum(_iterations(s, children) for s in solves),
            "sweep.kernel_calls": sum(s.calls for s in solves),
            "integrators.dp45_f_evals": [s.calls for s in dp45
                                         if s.attrs["reltol"] == DP45_DEFAULT_RELTOL],
            "integrators.dp45_tight_f_evals": [s.calls for s in dp45
                                               if s.attrs["reltol"] == DP45_TIGHT_RELTOL],
            "integrators.fixed_f_evals": sum(
                s.calls for s in self.named("integrators.integrate_fixed")),
        }

    def named(self, name: str, **attrs) -> list[Span]:
        return [s for s in self.spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def children(self) -> dict[int, list[Span]]:
        index = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                index[s.parent].append(s)
        return index

    def layer_samples(self) -> dict[str, list[float]]:
        """Samples of every per-layer metric these spans can give.

        Self time is a span's duration minus its children's; children of
        one span run one after another, so their durations do not overlap.
        """
        out: dict[str, list[float]] = {}
        children = self.children()

        def put(metric, values):
            if values:
                out[metric] = list(values)

        def ms(spans):
            return [1e3 * s.duration for s in spans]

        for name, (calls, seconds) in self.kernels.items():
            if calls:
                put(name + "_us", [1e6 * seconds / calls])

        solves = self.named("sweep.solve")
        per_pass = {name: [] for name in SWEEP_PASSES}
        iters, self_ms, per_iter, remainder = [], [], [], []
        for solve in solves:
            kids = children[solve.ident]
            n = _iterations(solve, children)
            if not n:
                continue
            kid_ms = sum(1e3 * k.duration for k in kids)
            medians = 0.0
            for name in SWEEP_PASSES:
                durs = ms([k for k in kids if k.name == "sweep." + name])
                per_pass[name] += durs
                medians += statistics.median(durs)
            own = 1e3 * solve.duration - kid_ms
            iters.append(n)
            self_ms.append(own)
            per_iter.append(1e3 * solve.duration / n)
            remainder.append(1e3 * solve.duration - n * medians - own)
        for name in SWEEP_PASSES:
            put(f"sweep.{name}_ms", per_pass[name])
        put("sweep.ms_per_iteration", per_iter)
        put("sweep.solve_ms", ms(s for s in solves if _iterations(s, children)))
        put("sweep.solve_self_ms", self_ms)
        put("sweep.accounting_remainder_ms", remainder)
        if iters:
            # means over the solves: exact, and comparable between runs
            put("sweep.iterations", [sum(iters) / len(iters)])
            put("sweep.kernel_calls", [sum(s.calls for s in solves) / len(iters)])

        for metric, reltol in (("dp45", DP45_DEFAULT_RELTOL),
                               ("dp45_tight", DP45_TIGHT_RELTOL)):
            spans = self.named("integrators.integrate_dp45", reltol=reltol)
            put(f"integrators.{metric}_ms", ms(spans))
            put(f"integrators.{metric}_f_evals", [s.calls for s in spans])
        for method in ("euler", "rk2", "rk4"):
            put(f"integrators.fixed_{method}_ms",
                ms(self.named("integrators.integrate_fixed", method=method,
                              steps=FIXED_PROBE_STEPS)))
            put(f"analysis.convergence_order_{method}_ms",
                ms(self.named("analysis.convergence_order", method=method)))
        put("analysis.build_norm_table_ms", ms(self.named("analysis.build_norm_table")))
        put("analysis.stationarity_residual_ms",
            ms(self.named("analysis.stationarity_residual")))

        # I/O helpers run several times per operation: report time per operation
        for name in ("load_config", "write_csv", "write_manifest", "emit_plot_script"):
            per_op = defaultdict(float)
            for s in self.named("cli." + name):
                per_op[s.op] += 1e3 * s.duration
            put(f"cli.{name}_ms", per_op.values())
        for command in ("simulate", "optimize", "compare", "orders"):
            put(f"cli.main_{command}_ms", ms(self.named("cli.main", command=command)))
        return out


def _iterations(solve: Span, children) -> int:
    return sum(1 for k in children[solve.ident] if k.name == "sweep.forward_pass")
