"""Record the reference values the benchmark checks every operation against.

    python3 perfbench/make_reference.py

Runs every CLI operation once and records the SHA-256 of its artifacts
and, for ``optimize``, its iteration count and objective.  Draws the
scenario catalogue of optimize-scenarios from a fixed master seed,
solves each draw once and records its iterations, J(u*) and J(0).  The
benchmark splits the scenarios that converged into 16 strata by
recorded work (iterations times grid steps); each pass of
optimize-scenarios draws one scenario from every stratum, so every pass
holds the same share of hard scenarios.  Last, it records the mean time of the benchmark's
calibration loop and the median time to spawn an interpreter that
imports numpy: the host speed every measured time is scaled to.

Run it only at a commit whose outputs are known good: every later run is
judged against what it writes.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import env

env.use_source()

import numpy as np  # noqa: E402

from sicaoc import analysis  # noqa: E402
from sicaoc.model import objective  # noqa: E402
from sicaoc.sweep import SweepSettings, forward_pass, sica_problem, solve  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402

MASTER_SEED = 19120951
CATALOGUE_SIZE = 512
CALIBRATION_SAMPLES = 15000   # about 20 s, so a passing fast or slow phase of the host weighs little
NUMPY_SPAWNS = 61
PATH = env.ROOT / "perfbench" / "reference.json"


def record_cli(reference: dict) -> None:
    workdir = env.OUT / "work"
    reference["cli"] = {}
    for argv in (wl.OPTIMIZE_ARGV,) + wl.VERIFY_ARGVS:
        op = wl.CliOp(argv, workdir, reference)
        _, (code, output) = op.execute()
        if code != 0:
            sys.exit(f"{op.key} failed with exit {code!r}: {output}")
        entry = {"sha256": wl.sha256_dir(workdir)}
        if op.command == "optimize":
            diag = op.manifest("optimize")["diagnostics"]
            entry.update(iterations=diag["iterations"], objective=diag["objective"],
                         objective_zero_control=diag["objective_zero_control"])
        reference["cli"][op.key] = entry


def robust_objective(problem, grid) -> float:
    """J(u*) of a draw the default sweep cannot solve, from a sweep with a
    smaller relaxation weight and a larger budget, so a later version
    that does converge is checked against the extremal."""
    settings = SweepSettings(grid=grid, relaxation=0.2, max_iterations=5000)
    return solve(problem, settings).objective


def record_catalogue(reference: dict) -> None:
    rng = np.random.default_rng(MASTER_SEED)
    catalogue = []
    start = time.perf_counter()
    for ident in range(CATALOGUE_SIZE):
        entry = wl.draw_scenario(rng, ident)
        op = wl.ScenarioOp(entry)
        _, result = op.execute()
        if isinstance(result, Exception):
            sys.exit(f"scenario {entry} raised {result!r}")
        grid = op.settings.grid
        zero = np.zeros(grid.node_count)
        problem = sica_problem(op.params, op.bounds, op.x0)
        entry.update(converged=result.converged, iterations=result.iterations,
                     objective=result.objective if result.converged
                     else robust_objective(problem, grid),
                     objective_zero_control=objective(forward_pass(problem, zero, grid), zero),
                     work=result.iterations * grid.steps)
        catalogue.append(entry)
        print(f"{ident:4d} T={entry['horizon']:2d} u_max={entry['u_max']:.3f} "
              f"beta={entry['beta']:.3f} iterations={result.iterations:3d} "
              f"converged={result.converged} ({time.perf_counter() - start:.0f} s)",
              flush=True)
    reference["scenarios"] = {"master_seed": MASTER_SEED, "catalogue": catalogue}


def record_host_speed(reference: dict) -> None:
    for _ in range(run.CALIBRATION_WARMUP):
        run.calibration_sample()
    reference["calibration_s"] = statistics.fmean(
        run.calibration_sample() for _ in range(CALIBRATION_SAMPLES))
    child_env = dict(os.environ, PYTHONPATH=str(env.SRC))
    reference["numpy_spawn_s"] = statistics.median(
        run.spawn_import("numpy", child_env)[0] for _ in range(NUMPY_SPAWNS))


def main() -> None:
    reference = {
        "commit": env.git_commit(),
        "published_ode45_norms": {m: analysis.OCTAVE_ODE45_BASELINE[m]
                                  for m in ("euler", "rk2")},
        "order_bands": analysis.ORDER_BANDS,
    }
    record_cli(reference)
    record_catalogue(reference)
    record_host_speed(reference)
    PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
