"""Record the benchmark baseline and its run-to-run spread.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

This makes two series of measurements of the same code.  In each, every
workload of BENCHMARK.json runs ``--runs`` times untraced, each time
with another seed.  Per series it prints, for each end-to-end metric,
the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (quartile distance over median, the figure the metric's bound
applies to); then how far the second series' median lies from the
first's.  Each workload then runs once traced.  ``--out`` receives all
of it with the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from run import ROOT


def run_once(command: List[str], workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: "
                         f"exit {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values),
            "spread": (q3 - q1) / statistics.median(values)}


#: Series of ``--runs`` runs per workload; the second checks that the
#: first's medians repeat within the bounds.
SERIES = 2


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=None,
                        help="write the baseline document here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]

    doc = {"host": f"{platform.machine()}, {platform.processor() or '?'}, "
                   f"python {platform.python_version()}",
           "runs": args.runs, "series": SERIES,
           "run_seconds": spec["run_seconds"],
           "workloads": {w: {"series": []} for w in workloads}}
    for series in range(SERIES):
        for workload in workloads:
            samples: Dict[str, List[float]] = {}
            attempted = failed = 0
            for seed in range(series * args.runs + 1,
                              (series + 1) * args.runs + 1):
                started = time.monotonic()
                result = run_once(spec["command"], workload, seed,
                                  spec["run_seconds"], trace=0)
                attempted += result["attempted"]
                failed += result["failed"]
                for name, metric in result["metrics"].items():
                    samples.setdefault(name, []).append(metric["value"])
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{n}={m['value']:.4g}"
                    for n, m in result["metrics"].items())
                    + f" ({time.monotonic() - started:.0f}s)", flush=True)
            entry = {"fail_rate": failed / attempted,
                     "end_to_end": {name: summarize(values)
                                    for name, values in samples.items()}}
            for name, stats in entry["end_to_end"].items():
                print(f"  series {series + 1} {workload} {name}: median "
                      f"{stats['median']:.4g} q1 {stats['q1']:.4g} "
                      f"q3 {stats['q3']:.4g} spread {stats['spread']:.3f} "
                      f"(bound {bounds[name]})", flush=True)
            doc["workloads"][workload]["series"].append(entry)
    for workload in workloads:
        entry = doc["workloads"][workload]
        first, *later = entry["series"]
        entry["median_shift"] = {
            name: later[-1]["end_to_end"][name]["median"] / stats["median"] - 1.0
            for name, stats in first["end_to_end"].items()}
        for name, shift in entry["median_shift"].items():
            print(f"  {workload} {name}: second median {shift:+.3f} of the "
                  f"first (bound {bounds[name]})", flush=True)
        traced = run_once(spec["command"], workload, 1, spec["run_seconds"],
                          trace=1)
        entry["per_layer"] = {name: metric["value"]
                              for name, metric in traced["metrics"].items()}
        entry["obs.overhead_ratio"] = entry["per_layer"]["obs.overhead_ratio"]
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
