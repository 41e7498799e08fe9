"""Spread of each metric across the runs recorded in ``perfbench/out/results``.

    python3 perfbench/summarize.py [--workload NAME] [--trace 0|1]

For every workload and metric it prints the median of the per-run values,
their quartiles and the spread (third minus first quartile, as a share of
the median), next to the bound ``BENCHMARK.json`` fixes for that metric,
and the same for the times before their scaling to the reference host
speed.  It flags any run whose exact counts differed from another's.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = defaultdict(list)
    for path in sorted((HERE / "out" / "results").glob("*.json")):
        result = json.loads(path.read_text())
        prov = result["provenance"]
        if prov["trace"] != bool(args.trace):
            continue
        if args.workload and prov["workload"] != args.workload:
            continue
        runs[prov["workload"]].append((prov["started"], path.name, result))

    for workload, items in sorted(runs.items()):
        items.sort()
        seeds = [r["provenance"]["seed"] for _, _, r in items]
        failed = sum(r["failed"] for _, _, r in items)
        attempted = sum(r["attempted"] for _, _, r in items)
        print(f"{workload}: {len(items)} runs, seeds {seeds}, "
              f"failed {failed}/{attempted}")
        rows = [(m, [r["metrics"][m]["median"] for _, _, r in items])
                for m in items[0][2]["metrics"]]
        # the times as measured, before scaling to the reference host speed
        rows += [(f"{m} unscaled", [r["unscaled"][m] for _, _, r in items])
                 for m in items[0][2].get("unscaled", {})]
        for metric, values in rows:
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(metric)
            note = "" if bound is None else (
                f" bound {bound:.2f}" + ("  ** above bound/3" if spread > bound / 3 else ""))
            print(f"  {metric:38s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:6.3f}{note}")
        for _, name, r in items:
            for flag in r["count_flags"]:
                print(f"  count flag in {name}: {flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
