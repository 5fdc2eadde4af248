"""The repository benchmark: ``repro verify`` from CLI to verdict.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sodor-mc --seed 0 --seconds 50 --trace 0

Every measurement is one fresh process (:mod:`child`) that calls the
real CLI entry point on the tiny Sodor contract task.  ``--trace 0``
prints the end-to-end metrics (set-up time, verdict time, CPU, peak
RSS); ``--trace 1`` alternates untraced runs with runs that have the
layer probes of :mod:`probes` installed and prints the per-layer
metrics.  While a child runs, the runner times a fixed slice of Python
work on the CPU the child last ran on; the end-to-end times are scaled
by the host speed this measures (see ``ChildRun.host_speed``).  Every run is checked
against the known answer; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.

See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from probes import LAYER_METRICS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TMP_ROOT = ROOT / ".perfbench_tmp"
GOLDEN = BENCH_DIR / "golden.json"

#: The tiny Sodor contract task every workload verifies.
CORE_ARGS = ("--core", "Sodor", "--xlen", "4", "--imem", "4", "--dmem", "4",
             "--secret-words", "1")

#: Fresh set-up-only processes before each verify process of an
#: untraced run (the verify processes contribute one set-up sample each
#: on top).  Spreading them over the run lets their median see the
#: same stretches of the host as the verifies.
SETUP_PROBES = 3

#: Verify processes per untraced run even when they overrun
#: ``--seconds``: on a shared host one process runs 10-20% slower than
#: the next, and the median over several damps a single slow one.
MIN_VERIFIES = 2

#: Untraced/traced process pairs in a ``--trace 1`` run.  Alternating
#: them lets both medians see the same stretches of a drifting host.
TRACE_PAIRS = 2

#: A run must end within this many seconds of its start.
RUN_DEADLINE_S = 165.0

#: Seconds between two host-speed probes while a child runs.
PROBE_INTERVAL_S = 0.05

#: The CPUs the runner may use.  It pins itself to one of them to probe
#: it, and gives every child all of them.
RUNNER_CPUS = frozenset(os.sched_getaffinity(0))

#: Time one ``speed_probe`` takes on an uncontended CPU of the 2-vCPU
#: Xeon VM the benchmark was written on: the speed the scaled times
#: refer to.
REFERENCE_PROBE_S = 0.65e-3

SECURE_STATUSES = ("bound_reached", "proved")

#: The CEGAR walk every run verifies (``repro verify --seed``).  The
#: walk length depends on it, so the workload seed does not change it;
#: ``golden.json`` holds this seed's fingerprint.
CEGAR_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    args: Tuple[str, ...]
    #: Pass a fresh ``--store`` and ``--checkpoint`` directory per run.
    state_dirs: bool


#: The verdict's bound must equal this ``--max-bound``.
MAX_BOUND = 3

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("sodor-mc", ("--max-bound", str(MAX_BOUND)), state_dirs=True),
    Workload("sodor-speculate",
             ("--max-bound", str(MAX_BOUND), "--speculate", "1"),
             state_dirs=False),
)}

END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))

#: What ``--trace 1`` prints: the layer metrics of :mod:`probes`, and
#: the host speed the traced processes ran at.
PER_LAYER = LAYER_METRICS + (("host.speed", "ratio"),)


def speed_probe() -> float:
    """Seconds a fixed slice of dict, int and str work takes.

    On a shared host a CPU runs at different speeds from second to
    second as neighbours come and go or the hypervisor takes it away,
    and the time of the same work grows with it.  The slice is
    independent of ``src/``, so a change to the program cannot move it.
    """
    started = time.perf_counter()
    table: Dict[int, int] = {}
    width = 0
    for value in range(3000):
        key = value & 255
        table[key] = table.get(key, 0) + value
        width += len(str(value))
    return time.perf_counter() - started


@dataclass
class ChildRun:
    """One finished child process and what it reported."""

    mode: str
    setup_s: float = 0.0
    verdict_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    record: dict = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: (monotonic time, seconds) of each ``speed_probe`` run on the CPU
    #: the child last ran on, while it lived.
    probes: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def fingerprint(self) -> Optional[dict]:
        return self.record.get("fingerprint")

    def host_speed(self, start: float = float("-inf"),
                   end: float = float("inf")) -> float:
        """Mean speed of the child's CPU from ``start`` to ``end``.

        1.0 is the uncontended reference speed, 0.5 half of it.  A probe
        measures the time per unit of work at one moment, so the mean
        of its inverse is the work per second over the interval.
        Times scaled by it are what the interval would have taken at
        the reference speed.  Falls back to every probe of the child
        when none fell inside the interval.
        """
        costs = ([cost for at, cost in self.probes if start <= at <= end]
                 or [cost for _at, cost in self.probes])
        return statistics.fmean(REFERENCE_PROBE_S / cost for cost in costs)


def _set_child_subreaper() -> None:
    """Adopt orphaned grandchildren, so a leftover worker can be reaped."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    pr_set_child_subreaper = 36
    libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0)


def _reap_orphans() -> None:
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _last_cpu(pid: int) -> Optional[int]:
    """The CPU ``pid`` last ran on (None once it has ended)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return int(fields[36])  # field 39, "processor"; fields[0] is field 3


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def load_golden() -> dict:
    """Known fingerprints, keyed by CEGAR seed."""
    with open(GOLDEN) as handle:
        return json.load(handle)


class Bench:
    """Runs children for one workload in a private temp dir."""

    def __init__(self, workload: Workload, cegar_seed: int,
                 deadline: float) -> None:
        self.workload = workload
        self.cegar_seed = cegar_seed
        self.deadline = deadline
        TMP_ROOT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
        self._count = 0
        self._proc: Optional[subprocess.Popen] = None
        self.golden = load_golden().get(str(cegar_seed))

    def close(self) -> None:
        self.kill_current()
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run's temp dir is still there

    def kill_current(self) -> None:
        proc = self._proc
        if proc is not None and proc.returncode is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            _reap_orphans()

    def verify_args(self, run_dir: Path) -> List[str]:
        args = [*CORE_ARGS, *self.workload.args,
                "--seed", str(self.cegar_seed)]
        if self.workload.state_dirs:
            for flag, name in (("--store", "store"),
                               ("--checkpoint", "checkpoint")):
                path = run_dir / name
                path.mkdir()
                args += [flag, str(path)]
        return args

    def spawn(self, mode: str) -> ChildRun:
        """Run one child to completion and check what it reported."""
        self._count += 1
        run_dir = self.tmp / f"{self._count:03d}-{mode}"
        run_dir.mkdir()
        out = run_dir / "record.json"
        log = run_dir / "log.txt"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, str(out),
               "--", *self.verify_args(run_dir)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   TMPDIR=str(run_dir))
        run = ChildRun(mode)
        with open(log, "w") as log_handle:
            spawned = time.monotonic()
            self._proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=log_handle,
                stderr=subprocess.STDOUT, start_new_session=True,
                preexec_fn=functools.partial(os.sched_setaffinity, 0,
                                             RUNNER_CPUS))
            status, usage = self._wait(self._proc, run)
        run.wall_s = time.monotonic() - spawned
        run.cpu_s = (usage.ru_utime + usage.ru_stime) * run.host_speed()
        run.peak_rss_mb = usage.ru_maxrss / 1024.0
        if self._left_behind(self._proc.pid):
            run.problems.append("left a child process behind")
        exit_code = os.waitstatus_to_exitcode(status)
        if exit_code != 0:
            run.problems.append(f"child exited with {exit_code}")
        if out.exists():
            with open(out) as handle:
                run.record = json.load(handle)
        self._check(run, spawned)
        if run.problems:
            tail = log.read_text(errors="replace").splitlines()[-15:]
            print(f"{self.workload.name} {mode} run failed: "
                  f"{'; '.join(run.problems)}", file=sys.stderr)
            for line in tail:
                print(f"  | {line}", file=sys.stderr)
        shutil.rmtree(run_dir, ignore_errors=True)
        return run

    def _wait(self, proc: subprocess.Popen, run: ChildRun):
        """wait4 the child, probing the speed of the CPU it last ran on
        until it ends; its rusage covers the workers it reaped."""
        while True:
            cpu = _last_cpu(proc.pid)
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            run.probes.append((time.monotonic(), speed_probe()))
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return status, usage
            if time.monotonic() > self.deadline:
                run.problems.append("timed out")
                os.killpg(proc.pid, signal.SIGKILL)
                _pid, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return status, usage
            time.sleep(PROBE_INTERVAL_S)

    def _left_behind(self, pgid: int) -> bool:
        """True when a process of the child's group outlived it (killed)."""
        grace = time.monotonic() + 2.0
        while True:
            _reap_orphans()
            if not _group_alive(pgid):
                return False
            if time.monotonic() > grace:
                os.killpg(pgid, signal.SIGKILL)
                time.sleep(0.1)
                _reap_orphans()
                return True
            time.sleep(0.05)

    def _check(self, run: ChildRun, spawned: float) -> None:
        record = run.record
        if not record:
            run.problems.append("no record written")
            return
        if record.get("exit_code") != 0:
            run.problems.append(f"verify exited with {record.get('exit_code')}")
        if record.get("leftover_children"):
            run.problems.append(
                f"children alive after verify: {record['leftover_children']}")
        if "entry" not in record:
            run.problems.append("run_compass was never entered")
            return
        entry = record["entry"]
        run.setup_s = (entry - spawned) * run.host_speed(spawned, entry)
        if run.mode == "setup":
            return
        fp = run.fingerprint
        if fp is None or "exit" not in record:
            run.problems.append("no verdict recorded")
            return
        run.verdict_s = ((record["exit"] - entry)
                         * run.host_speed(entry, record["exit"]))
        if fp["status"] not in SECURE_STATUSES:
            run.problems.append(f"status {fp['status']} (Sodor is secure)")
        if fp["bound"] != MAX_BOUND:
            run.problems.append(f"bound {fp['bound']} != --max-bound {MAX_BOUND}")
        if self.golden is not None and fp != self.golden:
            run.problems.append(f"fingerprint {fp} != golden {self.golden}")


def _failures(runs: List[ChildRun]) -> int:
    return sum(1 for run in runs if run.problems)


def _ok(runs: List[ChildRun]) -> List[ChildRun]:
    return [run for run in runs if not run.problems]


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure_end_to_end(bench: Bench, seconds: float) -> Tuple[List[ChildRun], dict]:
    """Set-up probes and a verify run, repeated for ``seconds``
    (``MIN_VERIFIES`` at least, deadline permitting)."""
    runs: List[ChildRun] = []
    started = time.monotonic()
    for count in itertools.count(1):
        runs += [bench.spawn("setup") for _ in range(SETUP_PROBES)]
        run = bench.spawn("verify")
        runs.append(run)
        now = time.monotonic()
        if now + run.wall_s > bench.deadline:
            break
        if count >= MIN_VERIFIES and now - started + run.wall_s > seconds:
            break
    ok = _ok(runs)
    verifies = [run for run in ok if run.mode == "verify"]
    values = {
        "setup_s": _median([run.setup_s for run in ok]),
        "verdict_s": _median([run.verdict_s for run in verifies]),
        "cpu_s": _median([run.cpu_s for run in verifies]),
        "peak_rss_mb": _median([run.peak_rss_mb for run in verifies]),
    }
    return runs, {name: {"value": values[name], "unit": unit}
                  for name, unit in END_TO_END}


def measure_layers(bench: Bench) -> Tuple[List[ChildRun], dict]:
    """Untraced and traced runs in turn (``TRACE_PAIRS`` pairs, deadline
    permitting); per-layer metrics are medians over the traced runs."""
    runs: List[ChildRun] = []
    for _pair in range(TRACE_PAIRS):
        started = time.monotonic()
        reference = bench.spawn("verify")
        traced = bench.spawn("trace")
        runs += [reference, traced]
        if not traced.problems and not reference.problems \
                and traced.fingerprint != reference.fingerprint:
            traced.problems.append("probes changed the fingerprint")
        now = time.monotonic()
        if now + (now - started) > bench.deadline:
            break
    ok = _ok(runs)
    traced = [run for run in ok if run.mode == "trace"]
    layers = {name: _median([run.record["layers"][name] for run in traced])
              for name, _unit in LAYER_METRICS}
    layers["host.speed"] = _median([run.host_speed() for run in traced])
    untraced = _median([run.verdict_s for run in ok if run.mode == "verify"])
    if untraced and traced:
        layers["obs.overhead_ratio"] = (
            _median([run.verdict_s for run in traced]) / untraced - 1.0)
    return runs, {name: {"value": layers[name], "unit": unit}
                  for name, unit in PER_LAYER}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (the workload inputs are fixed; "
                             "see README.md)")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="after the first two verify runs, start another "
                             "only while it is expected to end within this "
                             "many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    started = time.monotonic()
    _set_child_subreaper()
    bench = Bench(WORKLOADS[args.workload], CEGAR_SEED,
                  deadline=started + RUN_DEADLINE_S)

    def on_term(signum, _frame):
        bench.close()
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    try:
        if args.trace:
            runs, metrics = measure_layers(bench)
        else:
            runs, metrics = measure_end_to_end(bench, args.seconds)
    finally:
        bench.close()
    failed = _failures(runs)
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
