"""Self-tests of the benchmark itself (two to four minutes on two cores).

Usage, from the root of a checkout::

    python3 perfbench/selftest.py                 # run every check
    python3 perfbench/selftest.py --write-golden  # re-record golden.json

Checks:

- every metric name matches ``[A-Za-z0-9_.-]+`` and BENCHMARK.json
  lists exactly the metrics the benchmark prints;
- in a directory holding only BENCHMARK.json and perfbench/, the
  command exits non-zero without printing a result;
- a traced ``sodor-mc`` run (two traced processes): the probes leave
  the fingerprint unchanged, the layer self-times sum to no more than
  the traced verdict time, the counts that must repeat exactly do, and
  the parent model-checks with SAT;
- on a held-out CEGAR seed, every workload passes its checks,
  ``sodor-speculate`` (traced) gives the fingerprint of ``sodor-mc``,
  and its parent, which model-checks nothing, counts no SAT solve: the
  validator's own solves are not taken for model checking.

Exits non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

from probes import EXACT_COUNTS, EXACT_SAT_COUNTS, LAYER_METRICS, SETUP_SPANS
from run import (
    END_TO_END,
    GOLDEN,
    PER_LAYER,
    ROOT,
    TMP_ROOT,
    WORKLOADS,
    Bench,
    measure_layers,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
HELD_OUT_SEED = 1

#: Layer self-times spent inside ``run_compass``.
VERDICT_LAYER_TIMES = tuple(
    name for name, unit in LAYER_METRICS
    if unit == "s" and name[:-len("_s")] not in SETUP_SPANS
    and name not in ("cegar.unattributed_s", "obs.traced_verdict_s"))


def _bench(workload, seed: int) -> Bench:
    return Bench(workload, seed, deadline=time.monotonic() + 300.0)


class Checks:
    def __init__(self) -> None:
        self.failures = []

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            self.failures.append(what)


def check_names(checks: Checks) -> None:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    bad = [n for n in names if not NAME.fullmatch(n) or len(n) > 64]
    checks.expect(not bad, f"metric and workload names are well formed {bad}")
    checks.expect(len(names) == len(set(names)), "names are used once")
    checks.expect(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END),
        "BENCHMARK.json end_to_end matches the printed metrics")
    checks.expect(
        [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER),
        "BENCHMARK.json per_layer matches the printed metrics")
    checks.expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
                  "BENCHMARK.json workloads match run.py")


def check_bare_directory(checks: Checks) -> None:
    TMP_ROOT.mkdir(exist_ok=True)
    bare = TMP_ROOT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(Path(__file__).resolve().parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        with open(bare / "BENCHMARK.json") as handle:
            command = json.load(handle)["command"]
        proc = subprocess.run(
            [*command, "--workload", "sodor-mc", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        checks.expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
                      f"bare directory: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def check_traced(checks: Checks) -> None:
    bench = _bench(WORKLOADS["sodor-mc"], 0)
    try:
        runs, _metrics = measure_layers(bench)
    finally:
        bench.close()
    problems = [p for run in runs for p in run.problems]
    checks.expect(not problems, f"traced sodor-mc: probes transparent, "
                                f"run checks pass {problems}")
    rounds = [run.record["layers"] for run in runs
              if run.mode == "trace" and not run.problems]
    checks.expect(len(rounds) == 2, f"{len(rounds)} of 2 traced processes")
    if len(rounds) != 2:
        return
    for attempt, values in enumerate(rounds, 1):
        layer_sum = sum(values[name] for name in VERDICT_LAYER_TIMES)
        checks.expect(layer_sum <= values["obs.traced_verdict_s"] + 1e-6,
                      f"traced sodor-mc #{attempt}: layer self-times "
                      f"{layer_sum:.3f}s <= verdict "
                      f"{values['obs.traced_verdict_s']:.3f}s")
    for name in EXACT_COUNTS + EXACT_SAT_COUNTS:
        checks.expect(rounds[0][name] == rounds[1][name],
                      f"{name} repeats exactly "
                      f"({rounds[0][name]} vs {rounds[1][name]})")
    first = rounds[0]
    checks.expect(first["formal.calls"] > 0 and first["formal.bmc_s"] > 0
                  and first["formal.sat.solves"] > 0,
                  f"sodor-mc model-checks in the parent: "
                  f"{first['formal.calls']} calls, "
                  f"{first['formal.sat.solves']} SAT solves")


def check_held_out_seed(checks: Checks) -> None:
    runs = {}
    for workload in WORKLOADS.values():
        bench = _bench(workload, HELD_OUT_SEED)
        mode = "trace" if workload.name == "sodor-speculate" else "verify"
        try:
            run = bench.spawn(mode)
        finally:
            bench.close()
        checks.expect(not run.problems,
                      f"{workload.name} at CEGAR seed {HELD_OUT_SEED} "
                      f"passes its checks {run.problems}")
        runs[workload.name] = run
    checks.expect(
        runs["sodor-speculate"].fingerprint == runs["sodor-mc"].fingerprint,
        f"sodor-speculate and sodor-mc agree at seed {HELD_OUT_SEED}")
    layers = runs["sodor-speculate"].record.get("layers") or {}
    checks.expect(
        layers.get("formal.calls") == 0 and layers.get("formal.sat.solves") == 0
        and layers.get("cegar.validate_s", 0) > 0,
        f"sodor-speculate parent: validator time "
        f"{layers.get('cegar.validate_s', 0):.3f}s, SAT solves "
        f"{layers.get('formal.sat.solves')} with "
        f"{layers.get('formal.calls')} model-checking calls")


def write_golden() -> int:
    """Record the seed-0 fingerprint; every workload must agree on it."""
    fingerprints = []
    for workload in WORKLOADS.values():
        bench = _bench(workload, 0)
        bench.golden = None
        try:
            run = bench.spawn("verify")
        finally:
            bench.close()
        if run.problems:
            return 1
        print(f"{workload.name}: {run.fingerprint}")
        fingerprints.append(run.fingerprint)
    if any(fp != fingerprints[0] for fp in fingerprints):
        print("the workloads disagree; golden.json left unchanged",
              file=sys.stderr)
        return 1
    with open(GOLDEN, "w") as handle:
        json.dump({"0": fingerprints[0]}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write-golden", action="store_true",
                        help="re-record golden.json from CEGAR seed 0")
    args = parser.parse_args()
    if args.write_golden:
        return write_golden()
    checks = Checks()
    check_names(checks)
    check_bare_directory(checks)
    check_traced(checks)
    check_held_out_seed(checks)
    print(f"{len(checks.failures)} check(s) failed" if checks.failures
          else "all checks passed")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
