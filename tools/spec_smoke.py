#!/usr/bin/env python3
"""Speculation smoke: speculative CEGAR must match the sequential walk.

Runs a multi-refinement CEGAR verify four ways and fails unless every
run lands on the byte-identical final scheme, verdict and refinement
sequence:

1. sequentially (the reference trajectory);
2. with ``speculate=4`` — and the run must actually speculate (waves
   submitted, at least one model-checking call answered by a
   speculative verdict);
3. with ``speculate=2`` while a seeded :class:`repro.faults.FaultPlan`
   SIGKILLs a candidate worker after its first solve — the supervised
   relaunch must deliver the same answer;
4. with ``speculate=2`` while *every* worker attempt is killed — the
   scheduler must fall back to inline verification and still match.

This is the result-transparency regression guard for the speculative
scheduler: first-verdict-wins consumption, loser cancellation, crash
supervision and the inline fallback all have to preserve the exact
sequential trajectory.

Run:  PYTHONPATH=src python tools/spec_smoke.py
"""

from __future__ import annotations

import pathlib
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import faults  # noqa: E402
from repro.cegar import (  # noqa: E402
    CegarConfig,
    TaintVerificationTask,
    run_compass,
)
from repro.hdl import ModuleBuilder  # noqa: E402
from repro.taint import TaintSources  # noqa: E402
from repro.taint.scheme_io import scheme_to_dict  # noqa: E402

GADGETS = 3
BASE_DEPTH = 6
STAGGER = 2
WIDTH = 8


def make_task():
    """A small staggered-pipeline design: one secret register feeds
    mux gadgets that are safe (the select is a constant zero) but
    overtainted under the naive scheme, each behind a pipeline of a
    different depth.  No counterexample is long enough to expose the
    next gadget, which forces one model-checking call per gadget —
    enough MC-bound iterations for speculation to engage."""
    b = ModuleBuilder("specsmoke")
    zero = b.const(0, 1)
    zw = b.const(0, WIDTH)
    outs = []
    with b.scope("m"):
        secret = b.reg("secret", WIDTH)
        secret.drive(secret)
        for g in range(GADGETS):
            pub = b.reg(f"pub{g}", WIDTH)
            pub.drive(pub)
            mix = b.named(f"mix{g}", b.mux(zero, ~pub ^ (secret & zw), pub))
            cur = mix
            for d in range(BASE_DEPTH + STAGGER * g):
                reg = b.reg(f"p{g}_{d}", WIDTH)
                reg.drive(cur)
                cur = reg
            outs.append(cur)
    acc = outs[0]
    for out in outs[1:]:
        acc = acc ^ out
    b.output("sink", acc)
    circuit = b.build()
    return TaintVerificationTask(
        name="specsmoke", circuit=circuit,
        sources=TaintSources(registers={"m.secret": -1}),
        sinks=("sink",),
        symbolic_registers=frozenset(r.q.name for r in circuit.registers),
    )


def config(**extra):
    return CegarConfig(max_bound=16, use_induction=False, seed=0,
                       sim_trials=64, sim_depth=4, retry_backoff=0.05,
                       **extra)


def fingerprint(result):
    return (result.status, result.bound, scheme_to_dict(result.scheme),
            tuple(result.stats.refinement_log))


def main() -> int:
    failures = []

    started = time.monotonic()
    clean = run_compass(make_task(), config())
    print(f"sequential run:  {clean.status.value} "
          f"({time.monotonic() - started:.1f}s, "
          f"{clean.stats.refinements} refinements)")
    reference = fingerprint(clean)

    # Phase 1: plain speculation must hit and must not change anything.
    started = time.monotonic()
    spec = run_compass(make_task(), config(speculate=4))
    s = spec.stats
    print(f"speculate=4 run: {spec.status.value} "
          f"({time.monotonic() - started:.1f}s) — {s.spec_waves} waves, "
          f"{s.spec_submitted} submitted, {s.spec_hits} hits / "
          f"{s.spec_misses} misses, {s.spec_cancelled} cancelled")
    if fingerprint(spec) != reference:
        failures.append("speculate=4 diverged from the sequential walk")
    if not s.spec_submitted:
        failures.append("speculate=4 run never speculated")
    if not s.spec_hits:
        failures.append("speculate=4 run never consumed a speculative verdict")

    # Phase 2: SIGKILL a candidate worker after its first solve; the
    # supervised relaunch (attempt 1, where the fault is unarmed) must
    # keep the trajectory.
    plan = faults.FaultPlan(seed=2026, specs=(
        faults.kill_worker("spec", after_solves=1),))
    started = time.monotonic()
    killed = run_compass(make_task(), config(speculate=2, faults=plan))
    k = killed.stats
    print(f"killed-worker run: {killed.status.value} "
          f"({time.monotonic() - started:.1f}s) — {k.spec_crashes} crashes, "
          f"{k.spec_retries} supervised relaunches")
    if fingerprint(killed) != reference:
        failures.append("verdict changed under a SIGKILLed candidate worker")
    if not k.spec_crashes:
        failures.append("injected worker kill was never observed")
    if not k.spec_retries:
        failures.append("killed candidate worker produced no relaunch")

    # Phase 3: kill every attempt — speculation must degrade to inline
    # verification, not to a wrong answer.
    unrecoverable = faults.FaultPlan(seed=2026, specs=tuple(
        faults.kill_worker("spec", after_solves=1, attempt=a)
        for a in range(4)))
    started = time.monotonic()
    inline = run_compass(make_task(),
                         config(speculate=2, max_worker_retries=1,
                                faults=unrecoverable))
    print(f"unrecoverable run: {inline.status.value} "
          f"({time.monotonic() - started:.1f}s) — "
          f"{inline.stats.spec_misses} inline fallbacks")
    if fingerprint(inline) != reference:
        failures.append("inline fallback diverged from the sequential walk")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if not failures:
        print("spec smoke OK: speculative runs byte-identical to sequential")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
