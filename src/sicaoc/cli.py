"""Command-line front end.

Subcommands
-----------
simulate   integrate the fraction model with one method, write CSV + manifest
optimize   run the forward-backward sweep, write CSV + manifest
compare    difference-norm tables of the fixed-step methods vs the baseline
orders     empirical convergence-order report

Configuration is a single JSON document; every field is optional and
falls back to the default scenario, ``control`` to the defaults of
``ControlBounds`` and ``SweepSettings``.  Unknown keys are rejected.  All
file outputs (CSV trajectories, JSON manifests, gnuplot scripts) are
byte-deterministic for a fixed configuration, and each manifest embeds
the fully resolved configuration needed to reproduce the run.

Output paths are resolved and checked before anything is computed, and
every file is written before anything is printed.
Exit codes: 0 success, 2 bad command line or configuration (output paths
included), 3 any ``NumericalFailure``, 4 any OSError (stdout's included).
Errors print one line ``error: <category>: <message>`` on stderr, the
category ``usage``, ``config``, ``numeric`` or ``io``.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import stat
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (OCTAVE_ODE45_BASELINE, ORDER_BANDS, REFINEMENTS, TIGHT_REFERENCE,
                       VARIABLES, build_norm_table, convergence_order, reference_trajectory,
                       refinement_grids, simplex_drift, stationarity_residual,
                       terminal_reference)
from .integrators import (FIXED_METHODS, AdaptiveSettings, NumericalFailure,
                          TimeGrid, first_step, integrate_dp45, integrate_fixed)
from .model import ADJOINT_MODES, ControlBounds, ModelParams, controlled_field, objective
from .sweep import SweepNonConvergence, SweepSettings, sica_problem, solve

SIMULATE_HEADER = ("t", "s", "i", "c", "a")
OPTIMIZE_HEADER = SIMULATE_HEADER + ("u", "lambda1", "lambda2", "lambda3", "lambda4")

# Largest `steps` or `refinements` entry a config may ask for (1000 times
# optimize's default grid), so a typo cannot make a run allocate gigabytes.
MAX_GRID_STEPS = 1_000_000
# Largest control.max_iterations (1000 times the default budget), so a sweep
# that never converges still stops and exits 3.
MAX_ITERATIONS = 500_000


class ConfigError(ValueError):
    """Configuration file is malformed or violates an invariant."""


class _Parser(argparse.ArgumentParser):
    # raise rather than print usage and exit; add_subparsers builds the
    # subcommand parsers with this class too
    def error(self, message):
        raise argparse.ArgumentError(None, message)

    # write --help and --version like any output: argparse ignores an OSError here
    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


@dataclass
class RunConfig:
    """Fully resolved run configuration; ``sweep.grid`` is every subcommand's grid."""

    params: ModelParams
    initial: np.ndarray
    bounds: ControlBounds
    sweep: SweepSettings
    adjoint_mode: str
    refinements: tuple[int, ...]
    output: dict

    @property
    def grid(self) -> TimeGrid:
        return self.sweep.grid

    def resolved_dict(self) -> dict:
        return {
            "params": asdict(self.params),
            "initial": dict(zip("sica", self.initial.tolist())),
            "horizon": self.grid.tf,
            "steps": self.grid.steps,
            "control": {
                "u_max": self.bounds.u_max,
                "relaxation": self.sweep.relaxation,
                "delta_error": self.sweep.delta_error,
                "max_iterations": self.sweep.max_iterations,
            },
            "adjoint_mode": self.adjoint_mode,
            "refinements": list(self.refinements),
            "output": dict(self.output),
        }


def _reject_unknown(mapping: dict, allowed, where: str):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown} in {where}")


def _number(mapping: dict, key: str, where: str, default=None) -> float:
    value = mapping.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not _finite(value):
        raise ConfigError(f"{where}.{key} must be a finite number, got {value!r}")
    return float(value)


def _finite(value: int | float) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:   # an integer too large for a float
        return False


def _build(section: str, cls, *args, **kwargs):
    """Construct a library object; the range checks it makes become config errors."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {section}: {exc}") from exc


def _capped(section: str, grid: TimeGrid) -> TimeGrid:
    """``grid``, unless its step count exceeds ``MAX_GRID_STEPS``: then a config error."""
    if grid.steps > MAX_GRID_STEPS:
        raise ConfigError(f"invalid {section}: {grid.steps} steps exceed the cap "
                          f"of {MAX_GRID_STEPS}")
    return grid


def _section(doc: dict, key: str, allowed) -> dict:
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config.{key} must be an object")
    _reject_unknown(section, allowed, f"config.{key}")
    return section


def parse_config(doc: dict, default_steps: int = 100) -> RunConfig:
    """Check a config document; ``default_steps`` applies when it has no ``steps``."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(doc, ("params", "initial", "horizon", "steps", "control",
                          "adjoint_mode", "refinements", "output"), "config")

    raw_params = _section(doc, "params", [f.name for f in fields(ModelParams)])
    # "b": null keeps the default recruitment rate, 2.1 * mu
    params = _build("params", ModelParams, **{
        k: _number(raw_params, k, "params") for k in raw_params
        if not (k == "b" and raw_params[k] is None)})

    raw_initial = _section(doc, "initial", tuple("sica"))
    defaults = {"s": 0.6, "i": 0.2, "c": 0.1, "a": 0.1}
    initial = np.array([_number(raw_initial, k, "initial", defaults[k])
                        for k in "sica"], dtype=float)
    if np.any(initial < 0.0) or np.any(initial > 1.0):
        raise ConfigError("initial fractions must lie in [0, 1]")
    if abs(float(initial.sum()) - 1.0) > 1e-9:
        raise ConfigError(f"initial fractions must sum to 1, got {float(initial.sum())!r}")

    horizon = _number(doc, "horizon", "config", 20.0)
    steps = default_steps if doc.get("steps") is None else doc["steps"]
    grid = _capped("grid", _build("grid", TimeGrid, 0.0, horizon, steps))

    raw_control = _section(doc, "control",
                           ("u_max", "relaxation", "delta_error", "max_iterations"))
    # absent keys keep the ControlBounds and SweepSettings defaults; the
    # max_iterations count goes to SweepSettings as given, like steps to TimeGrid
    control = {k: v if k == "max_iterations" else _number(raw_control, k, "control")
               for k, v in raw_control.items()}
    u_max = {"u_max": control.pop("u_max")} if "u_max" in control else {}
    bounds = _build("control", ControlBounds, **u_max)
    sweep = _build("control", SweepSettings, grid=grid, **control)
    if sweep.max_iterations > MAX_ITERATIONS:
        raise ConfigError(f"invalid control: max_iterations exceeds the cap "
                          f"of {MAX_ITERATIONS}")

    adjoint_mode = doc.get("adjoint_mode", "derived")
    if adjoint_mode not in ADJOINT_MODES:
        raise ConfigError(
            f"adjoint_mode must be one of {ADJOINT_MODES}, got {adjoint_mode!r}")

    refinements = doc.get("refinements", list(REFINEMENTS))
    if not isinstance(refinements, list):
        raise ConfigError("refinements must be a list of step counts")
    grids = _build("refinements", refinement_grids, refinements, 0.0, horizon)
    refinements = tuple(_capped("refinements", grid).steps for grid in grids)

    output = _section(doc, "output", ("csv", "manifest"))
    if not all(isinstance(path, str) for path in output.values()):
        raise ConfigError("config.output paths must be strings")

    return RunConfig(params=params, initial=initial, bounds=bounds, sweep=sweep,
                     adjoint_mode=adjoint_mode, refinements=refinements,
                     output=output)


def load_config(path: str | None, default_steps: int = 100) -> RunConfig:
    if path is None:
        return parse_config({}, default_steps)
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    # ValueError: not UTF-8, malformed JSON, an integer past int's digit
    # limit, or a NUL in the path; RecursionError: arrays nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(doc, default_steps)


# ---------------------------------------------------------------- output


def _fmt(value: float) -> str:
    # repr of a double is the shortest string that round-trips exactly
    return repr(float(value))


def write_csv(path: Path, header, rows) -> None:
    # "%s" is str() of each cell; one format per row skips a call per cell
    row_format = ",".join(["%s"] * len(header))
    lines = [row_format % tuple(row) for row in (header, *rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_manifest(path: Path, manifest: dict) -> None:
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n",
                    encoding="utf-8", newline="\n")


def _output_paths(config: RunConfig, out: str | None, default_stem: str,
                  suffixes=()) -> list[Path]:
    """Resolve a run's output paths and check them before it computes anything.

    Each given path (``out``, ``output.csv``, ``output.manifest``), used or
    not, is a config error if it names no file (``""``, ``"."``, ``"dir/"``, ``"f/."``) or
    holds a control character (U+0000 to U+001F, DEL, U+0080 to U+009F) or
    line separator (U+2028, U+2029), every break of ``str.splitlines``; only
    an absent one takes a default.  The CSV is ``out``, else ``output.csv``,
    else ``<default_stem>.csv``; the manifest (unless given) and each of
    ``suffixes`` are its name less a trailing ``.csv`` plus that suffix, in
    its directory.  Returns ``[csv, manifest, *more]``.  Two paths naming one
    file are a config error.  Each path is checked after every symlink is
    followed: a missing directory or a symlink loop raises the OSError of a write.
    """
    for path in (p for p in (out, *config.output.values()) if p is not None):
        if any(c < " " or "\x7f" <= c <= "\x9f" or c in "\u2028\u2029" for c in path):
            raise ConfigError(f"output path {path!r} holds a control character "
                              "or line separator")
        # Path drops a trailing separator or "." part: "dir/" and "f/." would name "dir", "f"
        if os.path.basename(path) in ("", "."):
            raise ConfigError(f"output path {path!r} names no file")
    csv_path = Path(config.output.get("csv", f"{default_stem}.csv") if out is None else out)
    stem = csv_path.name.removesuffix(".csv")
    paths = [csv_path] + [csv_path.with_name(stem + s) for s in (".manifest.json", *suffixes)]
    if "manifest" in config.output:
        paths[1] = Path(config.output["manifest"])
    seen = {}
    for path in paths:
        first = seen.setdefault(os.path.realpath(path), path)
        if first is not path:
            raise ConfigError(f"output paths {str(first)!r} and {str(path)!r} "
                              "name the same file")
    # realpath leaves a loop in place; Path.is_dir raises ENAMETOOLONG, os.path.isdir would not
    for real, path in seen.items():
        real = Path(real)
        try:
            code = (errno.ENOTDIR if not stat.S_ISDIR(os.stat(real.parent).st_mode)
                    else errno.EISDIR if real.is_dir()
                    else errno.ELOOP if real.is_symlink() else 0)
        except OSError as exc:
            code = exc.errno
        if code:
            raise OSError(code, os.strerror(code), str(path))
    return paths


def _emit(command: str, config: RunConfig, paths: list[Path], summary: list[str],
          header, rows, fields: dict, extra: dict) -> None:
    """Write a run's CSV and manifest, then print ``summary`` and a ``wrote`` line per path.

    ``paths`` come from ``_output_paths``; the command writes those past
    the first two before it calls this.  The manifest holds the tool, the
    command, the resolved config, ``fields`` and ``outputs``: the CSV,
    then ``extra``.  Every file is written before anything is printed and
    stdout is flushed last, so an unwritable stdout fails the run after
    its artifacts, buffered or not.
    """
    csv_path, manifest_path = paths[:2]
    write_csv(csv_path, header, rows)
    write_manifest(manifest_path, {
        "tool": {"name": "sicaoc", "version": __version__},
        "command": command,
        "config": config.resolved_dict(),
        **fields,
        "outputs": {"csv": str(csv_path), **extra},
    })
    print(*summary, *(f"wrote {path}" for path in paths), sep="\n")
    sys.stdout.flush()


def emit_plot_script(out_path: Path, csv_path: Path, kind: str,
                     baseline_csv: Path | None = None) -> None:
    """Write ``out_path``, a gnuplot script drawing one figure kind to its ``.png``.

    ``kind`` is ``states`` (the s, i, c, a columns of ``csv_path``),
    ``states-vs-uncontrolled`` (the same against ``baseline_csv``) or
    ``control`` (its u column).  The script text depends only on the
    arguments, so repeated calls are byte-stable.
    """
    png, data = _gp_string(out_path.with_suffix(".png").name), _gp_string(csv_path.name)
    lines = [
        f"# generated by sicaoc {__version__}",
        'set datafile separator ","',
        "set key autotitle columnhead",
        'set xlabel "t (years)"',
        "set grid",
        "set terminal pngcairo size 900,600",
        f"set output {png}",
    ]
    if kind == "control":
        lines.append('set ylabel "prevention effort u"')
        lines.append("set yrange [0:*]")
        lines.append(f'plot {data} using "t":"u" with lines lw 2 title "u"')
    else:
        lines.append('set ylabel "population fraction"')
        label = "" if kind == "states" else " (control)"
        curves = [f'{data} using "t":"{v}" with lines lw 2 title "{v}{label}"'
                  for v in "sica"]
        if kind == "states-vs-uncontrolled":
            curves += [f'{_gp_string(baseline_csv.name)} using "t":"{v}" with lines dt 2 lw 2 '
                       f'title "{v} (no control)"' for v in "sica"]
        lines.append("plot " + ", \\\n     ".join(curves))
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _gp_string(name: str) -> str:
    """``name`` as a double-quoted gnuplot string, its backslashes and quotes escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


# ------------------------------------------------------------ subcommands


def cmd_simulate(config: RunConfig, args: argparse.Namespace) -> int:
    paths = _output_paths(config, args.out, f"simulate_{args.method}",
                          (".states.gp",) if args.plot else ())
    grid = config.grid
    integrator: dict = {"sampling": "clip-to-node"}
    f = controlled_field(config.params)
    if args.method == "dp45":
        settings = AdaptiveSettings()
        traj = integrate_dp45(f, grid.t0, grid.tf, config.initial, settings, grid)
        integrator.update(asdict(settings), initial_step=first_step(grid.t0, grid.tf))
    else:
        traj = integrate_fixed(args.method, f, grid, config.initial)
        integrator.update({"step_size": grid.h})
    drift = simplex_drift(traj)
    summary = [f"simulate method={args.method} steps={grid.steps} horizon={grid.tf}",
               f"max |s+i+c+a-1| = {_fmt(drift)}"]
    extra = {}
    if args.plot:
        emit_plot_script(paths[2], paths[0], "states")
        extra = {"plots": [str(paths[2])]}
    _emit("simulate", config, paths, summary, SIMULATE_HEADER,
          np.column_stack((grid.nodes(), traj.states)).tolist(),
          {"method": args.method, "integrator": integrator,
           "diagnostics": {"simplex_drift": drift}}, extra)
    return 0


def cmd_optimize(config: RunConfig, args: argparse.Namespace) -> int:
    """Solve and write the result; a non-convergence is re-raised after writing."""
    paths = _output_paths(config, args.out, "optimize", (
        ".uncontrolled.csv", ".states-vs-uncontrolled.gp", ".control.gp") if args.plot else ())
    grid = config.grid
    problem = sica_problem(config.params, config.bounds, config.initial,
                           config.adjoint_mode)
    try:
        result, failure = solve(problem, config.sweep), None
    except SweepNonConvergence as exc:
        result, failure = exc.result, exc
    # the sweep starts from the zero control: its first pass is the uncontrolled run
    uncontrolled = result.initial_states
    j_zero = objective(uncontrolled, np.zeros(grid.node_count))
    times = grid.nodes()
    summary = [f"optimize steps={grid.steps} horizon={grid.tf} "
               f"u_max={config.bounds.u_max} adjoint={config.adjoint_mode}",
               f"converged={result.converged} iterations={result.iterations} "
               f"margin={_fmt(result.final_margin)}",
               f"J(u*) = {_fmt(result.objective)}  J(0) = {_fmt(j_zero)}"]
    extra = {}
    if args.plot:
        csv_path, _, baseline, versus, control = paths
        write_csv(baseline, SIMULATE_HEADER,
                  np.column_stack((times, uncontrolled.states)).tolist())
        emit_plot_script(versus, csv_path, "states-vs-uncontrolled", baseline)
        emit_plot_script(control, csv_path, "control")
        extra = {"uncontrolled_csv": str(baseline), "plots": [str(versus), str(control)]}
    diagnostics = {
        "converged": result.converged,
        "iterations": result.iterations,
        "final_margin": result.final_margin,
        "objective": result.objective,
        "objective_zero_control": j_zero,
        "stationarity_residual": stationarity_residual(result, config.params,
                                                       config.bounds),
        "simplex_drift": simplex_drift(result.states),
        "terminal_adjoint": [float(v) for v in result.adjoints.states[-1]],
        "control_range": [float(result.control.min()), float(result.control.max())],
    }
    _emit("optimize", config, paths, summary, OPTIMIZE_HEADER,
          np.column_stack((times, result.states.states, result.control,
                           result.adjoints.states)).tolist(),
          {"integrator": {"scheme": "forward-backward rk4", "step_size": grid.h},
           "diagnostics": diagnostics}, extra)
    if failure is not None:
        raise failure
    return 0


def cmd_compare(config: RunConfig, args: argparse.Namespace) -> int:
    paths = _output_paths(config, args.out, "compare_norms")
    grid = config.grid
    settings = AdaptiveSettings()
    reference = reference_trajectory(config.params, config.initial, grid, settings)
    tables = {m: build_norm_table(m, config.params, config.initial, reference)
              for m in FIXED_METHODS}
    summary = [f"difference norms vs adaptive 5(4) reference "
               f"(reltol={settings.reltol}, abstol={settings.abstol}) "
               f"on {grid.node_count} nodes of [0, {grid.tf}]",
               f"{'method':7s} {'var':3s} {'norm':4s} {'computed':>14s} "
               f"{'ode45 baseline':>14s} {'rel dev':>9s}"]
    rows = []
    worst = {m: 0.0 for m in FIXED_METHODS}
    for method, table in tables.items():
        baseline = OCTAVE_ODE45_BASELINE[method]
        for var in VARIABLES:
            for norm_name, got, ref in zip(("1", "2", "inf"), table[var], baseline[var]):
                dev = (got - ref) / ref
                worst[method] = max(worst[method], abs(dev))
                summary.append(f"{method:7s} {var:3s} {norm_name:4s} {got:14.7f} "
                               f"{ref:14.7f} {dev:+9.4f}")
                rows.append((method, var, norm_name, got, ref, dev))
    _emit("compare", config, paths, summary,
          ("method", "variable", "norm", "computed", "baseline", "rel_dev"), rows,
          {"integrator": {"reltol": settings.reltol, "abstol": settings.abstol,
                          "sampling": "clip-to-node"},
           "diagnostics": {"max_abs_rel_dev": worst}}, {})
    return 0


def cmd_orders(config: RunConfig, args: argparse.Namespace) -> int:
    paths = _output_paths(config, args.out, "orders")
    horizon = config.grid.tf
    ref_end = terminal_reference(config.params, config.initial, 0.0, horizon)
    studies = {m: convergence_order(m, config.params, config.initial,
                                    config.refinements, 0.0, horizon,
                                    reference=ref_end)
               for m in FIXED_METHODS}
    summary = [f"terminal-error convergence at t={horizon} over M={list(config.refinements)} "
               f"(reference: adaptive 5(4), reltol={TIGHT_REFERENCE.reltol})",
               f"{'method':7s} {'slope':>7s} {'band':>12s} {'status':>7s}"]
    slopes = {}
    for method, study in studies.items():
        lo, hi = ORDER_BANDS[method]
        ok = lo <= study.slope <= hi
        slopes[method] = {"slope": study.slope, "band": [lo, hi], "within_band": ok}
        summary.append(f"{method:7s} {study.slope:7.3f} {f'[{lo}, {hi}]':>12s} "
                       f"{'ok' if ok else 'FAIL':>7s}")
    rows = [(method, m, h, err) for method, study in studies.items()
            for m, h, err in zip(study.refinements, study.step_sizes,
                                 study.terminal_errors)]
    _emit("orders", config, paths, summary,
          ("method", "steps", "step_size", "terminal_error"), rows,
          {"diagnostics": {"slopes": slopes}}, {})
    return 0


# ------------------------------------------------------------------ main


# built once per process: parsing leaves the tree as it was, and its defaults are constants
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sicaoc",
        description="SICA HIV/AIDS model simulation and optimal-control toolkit")
    parser.add_argument("--version", action="version",
                        version=f"sicaoc {__version__}")
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--config")
    files.add_argument("--out")
    plot = argparse.ArgumentParser(add_help=False)
    plot.add_argument("--plot", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[files, plot],
                           help="integrate the fraction model")
    p_sim.add_argument("--method", required=True,
                       choices=list(FIXED_METHODS) + ["dp45"])
    p_opt = sub.add_parser("optimize", parents=[files, plot],
                           help="solve the prevention control problem")
    p_opt.add_argument("--adjoint", choices=list(ADJOINT_MODES))
    p_cmp = sub.add_parser("compare", parents=[files],
                           help="norm tables vs the ode45 baseline")
    p_ord = sub.add_parser("orders", parents=[files], help="convergence-order report")
    # optimize's sweep resolves the control on a finer default grid
    p_sim.set_defaults(run=cmd_simulate, steps=100)
    p_opt.set_defaults(run=cmd_optimize, steps=1000)
    p_cmp.set_defaults(run=cmd_compare, steps=100)
    p_ord.set_defaults(run=cmd_orders, steps=100)
    return parser


# every failure main reports, by type (no two overlap): its category and exit code
FAILURES = {argparse.ArgumentError: ("usage", 2), ConfigError: ("config", 2),
            NumericalFailure: ("numeric", 3), OSError: ("io", 4)}


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit:   # --help or --version, printed to stdout
            code = 0
        else:
            config = load_config(args.config, args.steps)
            if getattr(args, "adjoint", None):
                config.adjoint_mode = args.adjoint
            code = args.run(config, args)
        sys.stdout.flush()   # a closed pipe or a full disk under stdout is an io error
        return code
    except tuple(FAILURES) as exc:
        category, code = next(v for kind, v in FAILURES.items() if isinstance(exc, kind))
        # one line, whatever whitespace the message holds
        print(f"error: {category}: {' '.join(str(exc).split())}", file=sys.stderr)
        return code


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:   # else the interpreter's exit flush fails again, on stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
