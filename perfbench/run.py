"""Benchmark of the sicaoc package, run from the root of a checkout.

    python3 perfbench/run.py --workload optimize-default --seed 1 \
        --seconds 30 --trace 0

Builds nothing: it imports the package from ``src/`` of its checkout.
One run measures the set-up time (fresh interpreters importing
``sicaoc.cli``, each scaled by a reference interpreter that imports numpy
alone), runs one counting pass of the workload with the layer
counters on, then repeats passes of the workload for ``--seconds`` and
checks every operation.  After each measured operation it times a short
calibration loop, and scales the operation's time by the loop's mean
time just before and just after it to the host speed recorded in
``reference.json``, so that the drift of a shared host's speed cancels
out.  With ``--trace 0``
it prints the end-to-end metrics; with ``--trace 1`` it alternates plain
and traced passes and prints the per-layer metrics, unscaled, and the
tracing overhead.  The last line of standard output is one JSON object;
a JSON file with provenance, every sample and its quartiles, and the
unscaled times goes to ``perfbench/out/results/``.

Everything runs in this one process, one operation at a time; the only
child processes are the set-up and reference interpreters, started one
after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import env

SETUP_SAMPLES = 11      # pairs of a set-up child and a reference child
MIN_PASSES = 3          # untraced passes per run, at the least
MIN_TRACED_PAIRS = 1    # plain + traced pass pairs per traced run, at the least
TAIL_BEYOND = 10        # samples the tail percentile must leave above it
TAIL_LADDER = (50, 75, 90, 95, 99)
CALIBRATION_STEPS = 55      # RK4 steps in one calibration sample, about 2 ms
CALIBRATION_WARMUP = 25     # samples run and dropped before the first kept one
CALIBRATION_SHARE = 0.05    # calibration time per second of measured operations

END_TO_END = {
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

IMPORT_CHILD = ("import time\n"
                "start = time.perf_counter()\n"
                "import {module}\n"
                "print(time.perf_counter() - start, flush=True)\n")


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values), "q1": q1,
            "q3": q3, "min": values[0], "max": values[-1]}


def tail(latencies, pct: int) -> tuple[int, float]:
    """Latency at percentile ``pct``, or at the highest percentile of
    TAIL_LADDER that leaves TAIL_BEYOND samples above it when ``pct``
    leaves fewer (the median when none does); returns (percentile, value)."""
    n = len(latencies)
    if n * (100 - pct) < 100 * TAIL_BEYOND:
        pct = max([p for p in TAIL_LADDER if n * (100 - p) >= 100 * TAIL_BEYOND],
                  default=TAIL_LADDER[0])
    cut = statistics.quantiles(latencies, n=100)[pct - 1] if n >= 2 else latencies[0]
    return pct, cut


def slot_medians(passes, column: int) -> list[float]:
    """Each slot's median latency across the passes, the latencies taken
    from ``column`` of each pass.  A slot is a place in the workload's
    list; the passes fill it with the same command or with draws from the
    same stratum, so its median is steady where single latencies are not."""
    by_slot: dict[int, list[float]] = {}
    for one in passes:
        for slot, latency in zip(one[2], one[column]):
            by_slot.setdefault(slot, []).append(latency)
    return [statistics.median(v) for v in by_slot.values()]


def _calibration_field(x: np.ndarray, u: float) -> np.ndarray:
    s, i, c, a = x
    infection = (1.0 - u) * 1.5 * (i + 0.5 * c + 0.3 * a) * s
    return np.array([0.02 * (1.0 - s) - infection + 0.01 * a * s,
                     infection - 0.3 * i + 0.1 * c + 0.05 * a,
                     0.2 * i - 0.25 * c,
                     0.1 * i - 0.2 * a])


def calibration_sample() -> float:
    """Time of CALIBRATION_STEPS RK4 steps of a fixed four-compartment
    system, written the way the package's steppers and vector fields are
    (unpacked numpy scalars, a fresh 4-vector per evaluation), but none
    of the package's code, so that no change to the package moves it."""
    h = 0.02
    x = np.array([0.7, 0.1, 0.1, 0.1])
    out = np.empty((CALIBRATION_STEPS + 1, 4))
    out[0] = x
    start = time.perf_counter()
    for k in range(CALIBRATION_STEPS):
        k1 = _calibration_field(x, 0.3)
        k2 = _calibration_field(x + (h / 2.0) * k1, 0.3)
        k3 = _calibration_field(x + (h / 2.0) * k2, 0.3)
        k4 = _calibration_field(x + h * k3, 0.3)
        x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.isfinite(x).all():
            raise ArithmeticError("calibration system diverged")
        out[k + 1] = x
    return time.perf_counter() - start


class HostSpeed:
    """Speed of the host around each measured operation, from calibration
    samples taken before the first operation and after every one.

    A shared host switches between a fast and a slow state, about 1.7
    times apart, from one second to the next, and drifts by 15-30% over
    minutes; every operation slows and speeds up with it.  The
    calibration loop does so too, so an operation's time divided by the
    loop's mean time just before and just after it holds still.  The
    mean, not the median: an operation's time is a sum, and takes in the
    slow moments a median of short samples would leave out.  ``after``
    scales an operation's time to a host that runs the loop in
    ``reference_s``, the mean recorded in reference.json.
    """

    def __init__(self, reference_s: float):
        self.reference_s = reference_s
        self.samples: list[float] = []
        self.factors: list[float] = []
        for _ in range(CALIBRATION_WARMUP):
            calibration_sample()
        self.last = self.take(0.0)

    def take(self, busy_s: float) -> list[float]:
        """One sample, and more until they add up to CALIBRATION_SHARE of
        ``busy_s``."""
        taken = [calibration_sample()]
        while sum(taken) < CALIBRATION_SHARE * busy_s:
            taken.append(calibration_sample())
        self.samples += taken
        return taken

    def after(self, elapsed: float) -> float:
        """Sample after an operation of ``elapsed`` seconds; return its time
        scaled by the samples just before and just after it."""
        taken = self.take(elapsed)
        self.factors.append(self.reference_s / statistics.fmean(self.last + taken))
        self.last = taken
        return elapsed * self.factors[-1]


def spawn_import(module: str, child_env: dict) -> tuple[float, float]:
    """Wall time from spawning an interpreter to ``module`` imported, and
    the import time the child reports."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", IMPORT_CHILD.format(module=module)],
                          cwd=env.ROOT, env=child_env, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or not line.strip():
            raise RuntimeError(f"set-up interpreter failed to import {module}")
    return elapsed, float(line)


def measure_setup(samples: int) -> tuple[list[float], list[float], list[float]]:
    """Set-up times (spawn until ``sicaoc.cli`` is imported), the import
    times the children report, and the spawn times of a reference child
    run just before each, which imports numpy alone.  One child at a
    time.

    Spawning and importing do not follow the calibration loop's drift,
    but they follow the reference child's: on a shared host, set-up time
    per spawn correlated 0.87 with it.  numpy is no code of the package,
    so no change to the package moves the reference child."""
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(env.SRC)] + ([child_env["PYTHONPATH"]] if child_env.get("PYTHONPATH") else []))
    setup, imports, reference = [], [], []
    for _ in range(samples):
        reference.append(spawn_import("numpy", child_env)[0])
        elapsed, imported = spawn_import("sicaoc.cli", child_env)
        setup.append(elapsed)
        imports.append(imported)
    return setup, imports, reference


class Run:
    """State of one benchmark run: operations done, failures, counts."""

    def __init__(self, workload, host: HostSpeed):
        self.workload = workload
        self.host = host        # sampled after every measured operation
        self.attempted = 0      # operations of the measured, untraced passes
        self.failed = 0
        self.failures: list[str] = []   # every failed check, of any pass
        self.wrong = 0                  # wrong answers, of any pass
        self.flags: list[str] = []

    def run_pass(self, ops, tracer=None, measured=True):
        """Run and check ``ops``; return their latencies, outcomes and, in a
        measured pass, latencies scaled to the reference host speed."""
        latencies, outcomes, scaled = [], [], []
        for op in ops:
            if tracer is not None:
                tracer.begin_op(op.key)
            elapsed, handle = op.execute(tracer)
            outcome = op.check(handle)
            if measured:
                scaled.append(self.host.after(elapsed))
                self.attempted += 1
                self.failed += not outcome.ok
            if not outcome.ok:
                self.failures.append(outcome.detail)
                self.wrong += outcome.wrong
            latencies.append(elapsed)
            outcomes.append(outcome)
        return latencies, outcomes, scaled

    def traced_pass(self, ops, tracer):
        """A pass with the layer tracer on: checked, but not counted in
        ``attempted``, which covers the measured passes only."""
        with tracer.instrument():
            return self.run_pass(ops, tracer, measured=False)[:2]

    def timed_passes(self, seconds: float, tracer=None):
        """Plain passes until ``seconds`` are used, each followed by a traced
        pass over the same operations when a tracer is given.  Returns the
        plain passes' (latencies, outcomes, slots, scaled latencies) and the
        traced passes' latencies."""
        traced = tracer is not None
        plain, traced_lat = [], []
        wall = []
        start = time.perf_counter()
        index = 0
        minimum = MIN_TRACED_PAIRS if traced else MIN_PASSES
        while True:
            t0 = time.perf_counter()
            ops = self.workload.pass_ops(index)
            lat, outcomes, scaled = self.run_pass(ops)
            plain.append((lat, outcomes, [op.slot for op in ops], scaled))
            if traced:
                lat_t, outcomes_t = self.traced_pass(self.workload.pass_ops(index), tracer)
                traced_lat.append(lat_t)
                self.compare_iterations(index, outcomes, outcomes_t)
            wall.append(time.perf_counter() - t0)
            index += 1
            used = time.perf_counter() - start
            # an odd count of plain passes, so the median pass is one pass
            if (index >= minimum and (traced or index % 2)
                    and used + statistics.median(wall) > seconds):
                return plain, traced_lat

    def compare_iterations(self, index, first, second):
        a = [o.iterations for o in first]
        b = [o.iterations for o in second]
        if a != b:
            self.flags.append(f"pass {index}: iterations {a} then {b}")


def counts_check(counts: dict, workload: str, seed: int, result_name: str) -> list[str]:
    """Compare this run's exact counts with earlier runs of the same inputs
    in this checkout, and append them to the shared log."""
    log = env.OUT / "counts.jsonl"
    key = {"workload": workload}
    if workload == "optimize-scenarios":   # the only workload whose inputs use the seed
        key["seed"] = seed
    flags = []
    if log.exists():
        for line in log.read_text().splitlines():
            earlier = json.loads(line)
            if all(earlier.get(k) == v for k, v in key.items()) and earlier["counts"] != counts:
                flags.append(f"counts differ from run {earlier['result']}")
                break
    with log.open("a") as fh:
        fh.write(json.dumps({**key, "seed": seed, "counts": counts,
                             "result": result_name}) + "\n")
    return flags


def provenance(args) -> dict:
    import numpy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(), "git_commit": env.git_commit(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env.use_source()
    except env.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {wl.WORKLOADS}",
              file=sys.stderr)
        return 2
    reference = json.loads((env.ROOT / "perfbench" / "reference.json").read_text())
    workload = wl.Workload(args.workload, args.seed, reference, env.OUT / "work")
    env.OUT.mkdir(parents=True, exist_ok=True)

    setup, imports, numpy_spawn = measure_setup(SETUP_SAMPLES)
    host = HostSpeed(reference["calibration_s"])
    run = Run(workload, host)

    # counting pass: exact work counts of pass 0; also warms every cache
    counter = tracing.Tracer()
    _, outcomes0 = run.traced_pass(workload.pass_ops(0), counter)
    counts = counter.counts()

    tracer = tracing.Tracer() if args.trace else None
    plain, traced_lat = run.timed_passes(args.seconds, tracer)
    run.compare_iterations(0, outcomes0, plain[0][1])
    pass_s = [sum(one[0]) for one in plain]
    latencies = [x for one in plain for x in one[0]]
    scaled = [x for one in plain for x in one[3]]

    extra: dict = {"host_speed": {"reference_s": host.reference_s,
                                  "mean_s": statistics.fmean(host.samples),
                                  "samples": quartiles(host.samples),
                                  "factors": quartiles(host.factors),
                                  "numpy_spawn_reference_s": reference["numpy_spawn_s"],
                                  "numpy_spawn": quartiles(numpy_spawn)}}
    if args.workload == "optimize-scenarios":
        extra["nonconvergent_not_drawn"] = wl.nonconvergent(workload.catalogue)
    if args.trace:
        layer = tracer.layer_samples()
        missing = [m for m in tracing.PER_LAYER if m not in layer
                   and m not in ("cli.import_ms", "trace.overhead_pct")]
        if missing:
            # layers this workload never enters: one probe of each other kind
            probe = tracing.Tracer()
            run.traced_pass(workload.probe_ops(), probe)
            probed = probe.layer_samples()
            extra["probed_metrics"] = sorted(m for m in missing if m in probed)
            layer.update({m: probed[m] for m in missing if m in probed})
        layer["cli.import_ms"] = [1e3 * x for x in imports]
        layer["trace.overhead_pct"] = [
            100.0 * (sum(t) / sum(p) - 1.0) for (p, *_), t in zip(plain, traced_lat)]
        samples = layer
        units = dict(tracing.PER_LAYER)
        extra["spans"] = len(tracer.spans)
    else:
        pct, cut = tail(scaled, wl.TAIL_PERCENTILE[args.workload])
        extra["pass_s"] = pass_s
        extra["latencies_ms"] = [1e3 * x for x in latencies]
        extra["unscaled"] = {"run_s": sum(slot_medians(plain, 0)),
                             "op_p50_ms": 1e3 * statistics.median(slot_medians(plain, 0)),
                             "op_tail_ms": 1e3 * tail(latencies, pct)[1],
                             "setup_s": statistics.median(setup)}
        samples = {
            "run_s": [sum(slot_medians(plain, 3))],
            "op_p50_ms": [1e3 * x for x in slot_medians(plain, 3)],
            "op_tail_ms": [1e3 * cut],
            "setup_s": [x * reference["numpy_spawn_s"] / r
                        for x, r in zip(setup, numpy_spawn)],
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
            "ok_frac": [(run.attempted - run.failed) / run.attempted],
        }
        units = dict(END_TO_END)
        extra["tail_percentile"] = pct
        extra["op_count"] = len(latencies)

    absent = [m for m in units if m not in samples]
    if absent:
        print(f"error: no samples for {absent}", file=sys.stderr)
        return 1

    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}_{stamp}_{os.getpid()}"
    flags = run.flags + counts_check(counts, args.workload, args.seed, name)
    stats = {m: {"unit": units[m], **quartiles(samples[m]), "samples": samples[m]}
             for m in units}
    result = {
        "provenance": provenance(args),
        "attempted": run.attempted, "failed": run.failed,
        "failed_frac": run.failed / run.attempted, "wrong_answers": run.wrong,
        "failures": run.failures,
        "counts": counts, "counts_consistent": not flags, "count_flags": flags,
        "passes": len(plain), "metrics": stats, **extra,
    }
    results = env.OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        tracer.write(results / f"{name}.spans.jsonl")

    for key, value in result["provenance"].items():
        print(f"# {key}: {value}")
    print(f"# passes {len(plain)}, operations {run.attempted}, failed {run.failed}, "
          f"wrong answers {run.wrong}"
          + (f", tail percentile p{extra['tail_percentile']}" if not args.trace else ""))
    print(f"# counts {json.dumps(counts)}")
    for flag in flags:
        print(f"# warning: {flag}")
    for failure in run.failures[:10]:
        print(f"# failed: {failure}")
    for m, s in stats.items():
        print(f"{m:40s} {s['median']:14.6g} {s['unit']:6s} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} n {s['n']}")
    print(f"# result file {results / (name + '.json')}")
    metrics = {m: {"value": stats[m]["median"], "unit": units[m]} for m in units}
    # a sweep that reports non-convergence fails its operation without
    # giving a wrong answer; any other failed check is a wrong output
    print(json.dumps({"correct": run.wrong == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
