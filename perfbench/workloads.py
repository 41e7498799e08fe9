"""The benchmark's workloads: the operations one pass runs, and their checks.

Every operation drives the package through its public entry points
(``cli.main`` or ``sweep.solve``) and is checked against values recorded
in ``reference.json``.  A check never raises: it returns an ``Outcome``,
so a failed operation is counted and the run goes on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sicaoc import cli
from sicaoc.integrators import TimeGrid
from sicaoc.model import ControlBounds, ModelParams
from sicaoc.sweep import SweepNonConvergence, SweepSettings, sica_problem, solve

WORKLOADS = ("optimize-default", "optimize-scenarios", "verify-numerics")

# Tolerances fixed before any measurement.  J(u*) from a sweep stopped at
# delta_error 1e-3 sits up to 1.4e-3 (relative) below the tightly converged
# value, so a changed iteration scheme may land anywhere in that gap.
J_REL_TOL = 5e-3
NORM_REL_TOL = 0.10

# Scenario distribution of optimize-scenarios.
HORIZONS = (10, 20, 40, 60)
STEPS_PER_YEAR = 5
U_MAX_RANGE = (0.2, 0.95)
BETA_RANGE = (1.0, 2.0)
X0_DIRICHLET = (6.0, 2.0, 1.0, 1.0)

OPTIMIZE_ARGV = ("optimize", "--plot")
# dp45 runs twice, once with its plot script.  Sorted by latency, the pass
# then has three fast fixed-step runs, the two dp45 runs, then compare and
# orders, so the median latency falls inside the dp45 pair, well apart
# from its neighbours, instead of in the upper tail of the fast runs.
VERIFY_ARGVS = (
    ("simulate", "--method", "euler"),
    ("simulate", "--method", "rk2"),
    ("simulate", "--method", "rk4"),
    ("simulate", "--method", "dp45"),
    ("simulate", "--method", "dp45", "--plot"),
    ("compare",),
    ("orders",),
)
# Passes of optimize-default run this many identical operations.
DEFAULT_OPS_PER_PASS = 2
# Passes of optimize-scenarios draw one scenario from each of this many
# strata of the catalogue.
STRATA = 16
# Pass p takes, from each stratum, the scenario at fraction
# frac(start + p * GOLDEN) of the stratum's work order, the start drawn
# once per stratum from the seed: however many passes a run makes, its
# draws spread evenly through every stratum, so which draws a seed picks
# moves the run's total work far less than independent draws would.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Tail percentile of each workload: the highest of p50/p75/p90/p95/p99 that
# leaves ten operations above it in a run of the usual length, fixed so
# that runs with a few more or fewer operations report the same percentile.
TAIL_PERCENTILE = {"optimize-default": 50, "optimize-scenarios": 75,
                   "verify-numerics": 95}


@dataclass
class Outcome:
    """Result of checking one operation.

    ``wrong`` separates a wrong answer from a failure the program itself
    reported (a sweep that says it did not converge): both count as failed
    operations, only the first makes the run's outputs incorrect.
    """

    ok: bool
    detail: str = ""
    iterations: int | None = None
    wrong: bool = False


def op_key(argv) -> str:
    """Name of a CLI operation in reference.json, e.g. ``simulate-rk4-plot``."""
    return "-".join(a.lstrip("-") for a in argv if a != "--method")


def sha256_dir(path: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


class CliOp:
    """One in-process ``sicaoc`` command run in a fixed, emptied directory.

    Artifact names are relative, so their bytes do not depend on where
    the work directory lies.
    """

    def __init__(self, argv, workdir: Path, reference: dict):
        self.argv = list(argv)
        self.command = argv[0]
        self.key = op_key(argv)
        self.workdir = workdir
        self.reference = reference

    def execute(self, tracer=None) -> tuple[float, object]:
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        cwd = os.getcwd()
        sink = io.StringIO()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                try:
                    if tracer is None:
                        code = cli.main(self.argv)
                    else:
                        with tracer.span("cli.main", command=self.command):
                            code = cli.main(self.argv)
                except Exception as exc:  # an operation that raises fails
                    code = exc
                elapsed = time.perf_counter() - start
        finally:
            os.chdir(cwd)
        return elapsed, (code, sink.getvalue())

    def check(self, handle) -> Outcome:
        code, output = handle
        if code != 0:
            return Outcome(False, f"{self.key}: exit {code!r}: {output.strip()[-200:]}",
                           wrong=True)
        ref = self.reference["cli"][self.key]
        got = sha256_dir(self.workdir)
        if got != ref["sha256"]:
            bad = sorted(set(got.items()) ^ set(ref["sha256"].items()))
            return Outcome(False, f"{self.key}: artifact hashes differ: {bad[:2]}",
                           wrong=True)
        check = getattr(self, "_check_" + self.command, None)
        return check(ref) if check else Outcome(True)

    def manifest(self, stem: str) -> dict:
        return json.loads((self.workdir / f"{stem}.manifest.json").read_text())

    def _check_optimize(self, ref) -> Outcome:
        diag = self.manifest("optimize")["diagnostics"]
        return check_objective(self.key, diag["converged"], diag["iterations"],
                               diag["objective"], diag["objective_zero_control"],
                               ref, exact_iterations=True)

    def _check_compare(self, ref) -> Outcome:
        published = self.reference["published_ode45_norms"]
        lines = (self.workdir / "compare_norms.csv").read_text().splitlines()[1:]
        for line in lines:
            method, var, norm, computed = line.split(",")[:4]
            if method not in published:
                continue
            base = published[method][var][("1", "2", "inf").index(norm)]
            if abs(float(computed) - base) > NORM_REL_TOL * base:
                return Outcome(False, f"compare: {method} {var} norm {norm} = "
                                      f"{computed}, published {base}", wrong=True)
        return Outcome(True)

    def _check_orders(self, ref) -> Outcome:
        slopes = self.manifest("orders")["diagnostics"]["slopes"]
        for method, (lo, hi) in self.reference["order_bands"].items():
            slope = slopes[method]["slope"]
            if not lo <= slope <= hi:
                return Outcome(False, f"orders: {method} slope {slope} outside "
                                      f"[{lo}, {hi}]", wrong=True)
        return Outcome(True)


def check_objective(key, converged, iterations, j, j_zero, ref,
                    exact_iterations=False) -> Outcome:
    if not converged:
        return Outcome(False, f"{key}: not converged after {iterations} iterations",
                       iterations)
    if exact_iterations and iterations != ref["iterations"]:
        return Outcome(False, f"{key}: {iterations} iterations, expected "
                              f"{ref['iterations']}", iterations, wrong=True)
    if not j >= j_zero:
        return Outcome(False, f"{key}: J(u*) {j} < J(0) {j_zero}", iterations,
                       wrong=True)
    j_ref = ref["objective"]
    if abs(j - j_ref) > J_REL_TOL * max(1.0, abs(j_ref)):
        return Outcome(False, f"{key}: J(u*) {j} differs from reference {j_ref}",
                       iterations, wrong=True)
    return Outcome(True, "", iterations)


class ScenarioOp:
    """One ``sweep.solve`` of a drawn scenario.

    The program receives only the scenario's inputs; the recorded
    reference values stay in the benchmark.
    """

    def __init__(self, entry: dict):
        self.entry = entry
        self.key = f"scenario-{entry['id']}"
        self.params = ModelParams(beta=entry["beta"])
        self.bounds = ControlBounds(entry["u_max"])
        self.x0 = np.array(entry["x0"])
        horizon = entry["horizon"]
        self.settings = SweepSettings(
            grid=TimeGrid(0.0, float(horizon), STEPS_PER_YEAR * horizon))

    def execute(self, tracer=None) -> tuple[float, object]:
        problem = sica_problem(self.params, self.bounds, self.x0)
        if tracer is not None:
            tracer.wrap_problem(problem)
        start = time.perf_counter()
        try:
            if tracer is None:
                result = solve(problem, self.settings)
            else:
                with tracer.span("sweep.solve"):
                    result = solve(problem, self.settings)
        except SweepNonConvergence as exc:
            result = exc.result
        except Exception as exc:  # an operation that raises fails
            result = exc
        return time.perf_counter() - start, result

    def check(self, result) -> Outcome:
        if isinstance(result, Exception):
            return Outcome(False, f"{self.key}: raised {result!r}", wrong=True)
        return check_objective(self.key, result.converged, result.iterations,
                               result.objective,
                               self.entry["objective_zero_control"], self.entry)


def strata(catalogue: list[dict]) -> list[list[int]]:
    """Indices of the catalogue scenarios that converged at the recording
    commit, split into STRATA groups of nearly equal size by recorded work
    (iterations times grid steps at the recording commit)."""
    order = sorted((k for k, entry in enumerate(catalogue) if entry["converged"]),
                   key=lambda k: (catalogue[k]["work"], k))
    return [[int(k) for k in part] for part in np.array_split(order, STRATA)]


def nonconvergent(catalogue: list[dict]) -> list[int]:
    """Ids of the catalogue scenarios the sweep did not solve at the
    recording commit; no pass draws them."""
    return [entry["id"] for entry in catalogue if not entry["converged"]]


def draw_scenario(rng: np.random.Generator, ident: int) -> dict:
    """One draw from the scenario distribution, as plain numbers."""
    return {
        "id": ident,
        "horizon": int(rng.choice(HORIZONS)),
        "u_max": float(rng.uniform(*U_MAX_RANGE)),
        "beta": float(rng.uniform(*BETA_RANGE)),
        "x0": [float(v) for v in rng.dirichlet(X0_DIRICHLET)],
    }


class Workload:
    """The operations of each pass of one workload, made from the seed."""

    def __init__(self, name: str, seed: int, reference: dict, workdir: Path):
        self.name = name
        self.seed = seed
        self.reference = reference
        self.workdir = workdir
        self.catalogue = reference["scenarios"]["catalogue"]
        self.strata = strata(self.catalogue)
        self.starts = np.random.default_rng(seed).random(STRATA)

    def pass_ops(self, index: int) -> list:
        """Operations of pass ``index``; the same seed gives the same list.

        Each operation's ``slot`` names its place in the list: the position
        in optimize-default, the command in verify-numerics and the stratum
        in optimize-scenarios.
        """
        rng = np.random.default_rng([self.seed, index])
        if self.name == "optimize-default":
            slots = range(DEFAULT_OPS_PER_PASS)
            ops = [CliOp(OPTIMIZE_ARGV, self.workdir, self.reference) for _ in slots]
        elif self.name == "verify-numerics":
            slots = rng.permutation(len(VERIFY_ARGVS))
            ops = [CliOp(VERIFY_ARGVS[k], self.workdir, self.reference) for k in slots]
        else:
            # one draw from each stratum of the recorded catalogue, in random order
            picks = [self.catalogue[ids[int(len(ids) * ((start + index * GOLDEN) % 1.0))]]
                     for ids, start in zip(self.strata, self.starts)]
            slots = rng.permutation(len(picks))
            ops = [ScenarioOp(picks[k]) for k in slots]
        for op, slot in zip(ops, slots):
            op.slot = int(slot)
        return ops

    def probe_ops(self) -> list:
        """One operation of each other kind, for layers this workload skips."""
        ops = []
        if self.name != "optimize-default":
            ops.append(CliOp(OPTIMIZE_ARGV, self.workdir, self.reference))
        if self.name != "verify-numerics":
            ops += [CliOp(argv, self.workdir, self.reference) for argv in VERIFY_ARGVS]
        return ops
