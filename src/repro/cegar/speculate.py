"""Speculative candidate-scheme verification for the CEGAR loop.

The Compass loop walks the taint-scheme lattice one candidate at a
time, but at every refinement signal the *next* candidates are already
known: the scheme the ladder just settled on, and its ladder siblings
at the same location (the schemes a repeat counterexample at that
location would produce).  This module makes "verify one candidate" a
schedulable unit and runs those predictions concurrently:

- :func:`verify_candidate` is the pure verification unit extracted
  from the loop body — instrument, static pre-screen, engine dispatch,
  counterexample extraction — with **no loop state**.  The loop and
  the speculative workers run the exact same function, which is what
  makes speculation *result-transparent*: a worker's verdict is
  consumed only for the precise scheme the sequential walk reaches, so
  the final (scheme, verdict, refinement sequence) is bit-identical to
  the sequential run for any fan-out ``N`` (given deterministic engine
  settings; wall-clock-limited runs are deterministic modulo their
  time limits, exactly like the sequential loop).

- :class:`SpeculativeScheduler` runs the predictions on the supervised
  :class:`~repro.workers.WorkerPool` the portfolio also uses: crashed
  workers are relaunched with exponential backoff, losers are
  cancelled on the first refinement signal, and every worker streams
  its solve results back through the shared cache as they are
  produced — a cancelled loser's work still warms the (store-backed)
  cache for the next iteration.  With ``remote`` set, candidates are
  dispatched to the job daemon as ``candidate`` jobs instead; remote
  cancellation is advisory (an abandoned job completes server-side and
  warms the daemon's store).

Workers run their nested portfolio in forced-sequential mode: daemonic
pool processes cannot spawn children, and a cancel must never leave
orphan grandchildren behind.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.formal.bmc import BmcStatus, bounded_model_check
from repro.formal.cache import SolveCache
from repro.formal.counterexample import Counterexample
from repro.formal.induction import InductionStatus, k_induction
from repro.formal.portfolio import (
    EngineReport,
    PortfolioConfig,
    PortfolioResult,
    PortfolioStatus,
    verify_portfolio,
)
from repro.obs import NULL_TRACER, Tracer
from repro.workers import POLL_INTERVAL, WorkerPool
from repro.taint.policies import effective_complexity
from repro.taint.scheme_io import scheme_to_dict
from repro.taint.space import TaintOption, TaintScheme, refinement_ladder
from repro.cegar.backtrace import LocationKind, RefinementLocation

#: Engine label speculative candidate workers report under — fault
#: plans target them with e.g. ``kill_worker("spec", after_solves=1)``.
SPEC_ENGINE = "spec"


def scheme_digest(scheme: TaintScheme) -> str:
    """Content digest of a candidate scheme (the scheduler's slot key)."""
    doc = scheme_to_dict(scheme)
    doc.pop("name", None)  # candidate identity, not its display name
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class CandidateVerdict:
    """The outcome of verifying one candidate scheme.

    A plain, picklable record: the loop folds it into its stats and
    trajectory identically whether it was computed inline, by a
    speculative worker, or by the job daemon (``source``).
    """

    digest: str
    status: str = "bound_reached"  # proved | counterexample | bound_reached
    counterexample: Optional[Counterexample] = None
    #: Deepest cycle the engines proved clean (folded into the loop's
    #: running bound on non-proved outcomes).
    bound: int = -1
    #: Clean bound donated by an inconclusive static pre-screen
    #: (folded unconditionally, mirroring the inlined loop body).
    static_bound: int = -1
    proved_by: str = ""
    #: Raw engine status for the parent's ``cegar.model-check`` span.
    engine_status: str = ""
    winner: Optional[str] = None  # portfolio winner engine
    static_prescreens: int = 0
    static_proofs: int = 0
    static_cex: int = 0
    static_skipped_bounds: int = 0
    suspects: Tuple[str, ...] = ()
    portfolio: Optional[PortfolioResult] = None
    elapsed: float = 0.0
    source: str = "inline"  # inline | speculative | remote


def verify_candidate(
    task,
    scheme: TaintScheme,
    config,
    *,
    cache: Optional[SolveCache] = None,
    tracer: Optional[Tracer] = None,
    design=None,
    prop=None,
    time_limit: Optional[float] = None,
    iteration: Optional[int] = None,
    in_worker: bool = False,
) -> CandidateVerdict:
    """Verify one candidate scheme: the pure unit behind the CEGAR loop.

    Instrument → static pre-screen → engine dispatch → counterexample
    extraction, reproducing the historical loop body exactly, with no
    loop state.  ``time_limit`` is the model-checking wall-clock budget
    for this candidate (the loop passes ``mc_time_limit`` clamped to
    the remaining ``total_time_limit``); ``in_worker`` forces a nested
    portfolio into sequential mode (pool workers are daemonic and must
    not leave grandchildren behind on cancellation).

    Args:
        task: the :class:`~repro.cegar.loop.TaintVerificationTask`.
        scheme: the candidate taint scheme.
        config: a :class:`~repro.cegar.loop.CegarConfig` (engine
            selection and budgets; ``trace``/``solve_cache`` on it are
            ignored — pass ``tracer``/``cache`` explicitly).
        design, prop: optionally the already-instrumented design for
            ``scheme`` (the loop reuses its own instrumentation; a
            worker instruments from scratch — deterministically the
            same result).
    """
    from repro.cegar.loop import instrument_task

    started = time.monotonic()
    tracer = tracer or NULL_TRACER
    span_args = {} if iteration is None else {"iteration": iteration}
    if design is None or prop is None:
        design, prop = instrument_task(task, scheme)
    verdict = CandidateVerdict(digest=scheme_digest(scheme))

    start_bound = 0
    if config.mc_enabled and (config.static_prescreen
                              or config.engine == "static"):
        from repro.analyze import static_verify

        with tracer.span("cegar.analyze", cat="mc", **span_args) as asp:
            sres = static_verify(
                design.circuit, prop,
                max_frames=config.static_max_frames, tracer=tracer,
            )
            asp.set(status=sres.status, bound=sres.bound)
        verdict.static_prescreens = 1
        tracer.count("analyze.prescreens")
        if sres.proved:
            verdict.static_proofs = 1
            verdict.status = "proved"
            verdict.proved_by = "static"
            verdict.elapsed = time.monotonic() - started
            return verdict
        if sres.status == "violation":
            verdict.static_cex = 1
            verdict.status = "counterexample"
            verdict.counterexample = sres.counterexample
            verdict.elapsed = time.monotonic() - started
            return verdict
        verdict.suspects = tuple(sres.suspects)
        verdict.static_bound = sres.bound
        if sres.bound >= 0:
            start_bound = sres.bound + 1
            verdict.static_skipped_bounds = start_bound
            tracer.count("analyze.skipped_bounds", start_bound)

    if config.mc_enabled and config.engine != "static" \
            and config.faults is not None:
        # Injected backend latency (chaos/bench): sleep in whichever
        # process dispatches the model-checking call, so the latency
        # overlaps across processes like a real slow solve service.
        lag = config.faults.solve_delay()
        if lag > 0:
            time.sleep(lag)

    if not config.mc_enabled or config.engine == "static":
        pass  # no model checker to consult; stop at the bound
    elif config.engine == "portfolio":
        pres = verify_portfolio(
            design.circuit, prop,
            PortfolioConfig(
                engines=config.portfolio_engines,
                jobs=config.jobs,
                max_bound=config.max_bound,
                induction_max_k=config.induction_max_k,
                unique_states=config.unique_states,
                pdr_max_frames=config.pdr_max_frames,
                time_limit=time_limit,
                max_conflicts=config.max_conflicts,
                start_bound=start_bound,
                static_max_frames=config.static_max_frames,
                certify=config.certify,
                max_worker_retries=config.max_worker_retries,
                retry_backoff=config.retry_backoff,
                faults=config.faults,
                force_sequential=in_worker,
            ),
            cache=cache,
            tracer=tracer if tracer is not NULL_TRACER else None,
        )
        verdict.portfolio = pres
        verdict.engine_status = pres.status.value
        verdict.winner = pres.winner
        if pres.status is PortfolioStatus.PROVED:
            verdict.status = "proved"
            verdict.proved_by = pres.winner or "portfolio"
        elif pres.status is PortfolioStatus.COUNTEREXAMPLE:
            verdict.status = "counterexample"
            verdict.counterexample = pres.counterexample
        verdict.bound = pres.bound
    elif config.use_induction:
        ind = k_induction(
            design.circuit, prop,
            max_k=config.induction_max_k,
            time_limit=time_limit,
            unique_states=config.unique_states,
            cache=cache,
            tracer=tracer if tracer is not NULL_TRACER else None,
        )
        verdict.engine_status = ind.status.value
        if ind.status is InductionStatus.PROVED:
            verdict.status = "proved"
            verdict.proved_by = "kind"
        elif ind.status is InductionStatus.COUNTEREXAMPLE:
            verdict.status = "counterexample"
            verdict.counterexample = ind.counterexample
            verdict.bound = ind.bound
        else:
            # Induction inconclusive: fall back to plain BMC for depth.
            bmc = bounded_model_check(
                design.circuit, prop,
                max_bound=config.max_bound, time_limit=time_limit,
                start_bound=start_bound,
                cache=cache,
                tracer=tracer if tracer is not NULL_TRACER else None,
            )
            if bmc.status is BmcStatus.COUNTEREXAMPLE:
                verdict.status = "counterexample"
                verdict.counterexample = bmc.counterexample
            verdict.bound = bmc.bound
    else:
        bmc = bounded_model_check(
            design.circuit, prop,
            max_bound=config.max_bound, time_limit=time_limit,
            start_bound=start_bound,
            cache=cache,
            tracer=tracer if tracer is not NULL_TRACER else None,
        )
        verdict.engine_status = bmc.status.value
        if bmc.status is BmcStatus.COUNTEREXAMPLE:
            verdict.status = "counterexample"
            verdict.counterexample = bmc.counterexample
        verdict.bound = bmc.bound
    verdict.elapsed = time.monotonic() - started
    return verdict


# ---------------------------------------------------------------------------
# Candidate prediction
# ---------------------------------------------------------------------------

def ladder_siblings(
    circuit,
    scheme: TaintScheme,
    design,
    location: RefinementLocation,
) -> List[TaintScheme]:
    """Schemes a repeat refinement at ``location`` would settle on.

    After the ladder picked option ``o`` at a CELL location, the next
    counterexample that backtraces to the *same* location walks the
    ladder from ``o`` — producing exactly ``scheme + (location -> o')``
    for some later ladder option ``o'``.  This mirrors
    :func:`repro.cegar.refine.apply_refinement`'s walk (including the
    effective-complexity dedup) so the sibling digests match what the
    loop would instrument.  MODULE and REGISTER refinements are
    terminal at their location: no siblings.
    """
    from repro.hdl.circuit import CircuitError

    if location.kind is not LocationKind.CELL:
        return []
    try:
        cell = circuit.producer(circuit.signal(location.name))
    except CircuitError:
        return []
    if cell is None:
        return []
    current = design.applied_options.get(
        location.name, scheme.option_for_cell(location.name))
    tried = {(current.granularity, effective_complexity(cell.op, current))}
    siblings: List[TaintScheme] = []
    for option in refinement_ladder(current):
        effective = effective_complexity(cell.op, option)
        key = (option.granularity, effective)
        if key in tried:
            continue
        tried.add(key)
        sibling = scheme.copy()
        sibling.refine_cell(location.name, TaintOption(option.granularity,
                                                       effective))
        siblings.append(sibling)
    return siblings


def predict_candidates(
    task,
    scheme: TaintScheme,
    design,
    location: Optional[RefinementLocation],
    limit: int,
) -> List[TaintScheme]:
    """The next speculative wave after a refinement settled on ``scheme``.

    The settled scheme itself leads (the lookahead: the cheapest
    surviving option is what the next model-checking call verifies),
    followed by its ladder siblings at the refinement location,
    cheapest first, capped at ``limit``.
    """
    wave = [scheme]
    if location is not None:
        wave.extend(ladder_siblings(task.circuit, scheme, design, location))
    return wave[:max(1, limit)]


# ---------------------------------------------------------------------------
# Worker process entry point
# ---------------------------------------------------------------------------

def _speculate_candidate(task, scheme, config, *, time_limit, cache, tracer):
    """Pool target: :func:`verify_candidate` in a candidate worker.

    The worker's cache streams every solve to the parent (under the
    ``spec`` label), so a cancelled loser's partial work — and the
    memoized portfolio verdict of a completed one — still reaches the
    shared (store-backed) cache.
    """
    verdict = verify_candidate(task, scheme, config, cache=cache,
                               tracer=tracer, time_limit=time_limit,
                               in_worker=True)
    verdict.source = "speculative"
    return verdict


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------

@dataclass
class _Slot:
    """One in-flight speculative candidate."""

    digest: str
    scheme: TaintScheme
    state: str = "running"  # running | done | failed | cancelled
    time_limit: Optional[float] = None
    job: Optional[Dict[str, Any]] = None  # remote mode submission doc


class SpeculativeScheduler:
    """First-verdict-wins speculation over candidate taint schemes.

    Lifecycle, from the loop's point of view::

        spec = SpeculativeScheduler(task, config, cache, stats, tracer)
        spec.ensure(scheme, limit)        # iteration start: current scheme
        spec.discard(scheme)              # sim prefilter produced the cex
        v = spec.collect(scheme, limit)   # model-check time; None = miss
        spec.advance(wave, limit)         # refinement settled: next wave
        spec.close()                      # loop exit (any path)

    ``advance`` reconciles the in-flight set against the new wave:
    slots whose candidate survives are *promoted* (kept running), the
    rest are cancelled — first-refinement-signal-wins, mirroring the
    per-property portfolio race.  Local candidates run in a
    :class:`~repro.workers.WorkerPool` keyed by scheme digest: all
    worker solve traffic merges into ``cache`` (losers included), and
    per-candidate tracer spans are adopted onto the parent timeline.
    A candidate whose worker cannot start or fails for good is a miss.
    """

    def __init__(self, task, config, cache: Optional[SolveCache],
                 stats, tracer: Optional[Tracer] = None,
                 remote: Optional[str] = None) -> None:
        # The stimulus sampler is a closure (unpicklable) and only the
        # sim prefilter uses it — workers never do.
        self.task = replace(task, stimulus_sampler=None)
        self.config = replace(config, trace=None, solve_cache=None,
                              store_dir=None, speculate=0,
                              speculate_remote=None)
        self.cache = cache
        self.stats = stats
        self.tracer = tracer or NULL_TRACER
        self.remote = remote
        self.jobs = max(1, int(config.speculate))
        self._slots: Dict[str, _Slot] = {}
        self._results: Dict[str, CandidateVerdict] = {}
        self._closed = False
        self._pool = None
        if remote is None:
            self._pool = WorkerPool(cache, self.tracer, faults=config.faults,
                                    max_retries=config.max_worker_retries,
                                    backoff=config.retry_backoff)
        else:
            import threading

            self._lock = threading.Lock()
            self._remote_task_doc = self._build_remote_task_doc()

    # -- public API --------------------------------------------------------

    def in_flight(self) -> List[str]:
        """Digests of candidates currently speculated on (for snapshots)."""
        return sorted(d for d, s in self._slots.items()
                      if s.state == "running")

    def snapshot(self) -> Dict[str, Any]:
        """Checkpointable record of the in-flight speculation."""
        return {
            "n": self.jobs,
            "schemes": [self._slots[d].scheme.copy()
                        for d in self.in_flight()],
        }

    def ensure(self, scheme: TaintScheme,
               time_limit: Optional[float] = None) -> None:
        """Make sure ``scheme`` is being speculated on (iteration start).

        Never cancels other slots — siblings in flight may be the next
        wave's candidates.  At capacity, one non-essential slot is
        evicted: the current scheme is the one candidate certain to be
        needed.
        """
        if self._closed:
            return
        self._pump()
        digest = scheme_digest(scheme)
        if digest in self._results or digest in self._slots:
            return
        if len(self.in_flight()) >= self.jobs:
            victim = next((d for d in reversed(list(self._slots))
                           if self._slots[d].state == "running"), None)
            if victim is None:
                return
            self._cancel(victim)
        self._submit(scheme, digest, time_limit)

    def advance(self, wave: List[TaintScheme],
                time_limit: Optional[float] = None) -> None:
        """Reconcile in-flight speculation against the next wave.

        Keeps (promotes) slots whose candidate is in ``wave``, cancels
        the rest, and submits the missing candidates in wave order
        until ``speculate`` slots are busy.
        """
        if self._closed:
            return
        self._pump()
        self.stats.spec_waves += 1
        wanted = {}
        for scheme in wave[:self.jobs]:
            wanted.setdefault(scheme_digest(scheme), scheme)
        for digest in self.in_flight():
            if digest in wanted:
                self.stats.spec_promoted += 1
            else:
                self._cancel(digest)
        for digest, scheme in wanted.items():
            if len(self.in_flight()) >= self.jobs:
                break
            if digest in self._slots or digest in self._results:
                continue
            self._submit(scheme, digest, time_limit)

    def discard(self, scheme: TaintScheme) -> None:
        """Drop the speculation on ``scheme`` (the prefilter beat it)."""
        if self._closed:
            return
        self._pump()
        digest = scheme_digest(scheme)
        if digest in self._slots and self._slots[digest].state == "running":
            self._cancel(digest)
        self._results.pop(digest, None)

    def collect(self, scheme: TaintScheme) -> Optional[CandidateVerdict]:
        """The loop needs this scheme's verdict now; wait for it.

        Returns the speculative :class:`CandidateVerdict` (a hit), or
        None when the candidate was never speculated on or its worker
        failed unrecoverably (a miss — the caller verifies inline).
        """
        if self._closed:
            return None
        digest = scheme_digest(scheme)
        verdict = self._wait(digest)
        if verdict is not None:
            self.stats.spec_hits += 1
            self.tracer.count("speculate.hits")
        else:
            self.stats.spec_misses += 1
            self.tracer.count("speculate.misses")
        return verdict

    def close(self) -> None:
        """Cancel everything in flight and tear the pool down."""
        if self._closed:
            return
        for digest in self.in_flight():
            self._cancel(digest)
        if self._pool is not None:
            self._pool.close()
        self._closed = True

    # -- local workers -----------------------------------------------------

    def _submit(self, scheme: TaintScheme, digest: str,
                time_limit: Optional[float]) -> None:
        slot = _Slot(digest=digest, scheme=scheme.copy(),
                     time_limit=time_limit)
        self._slots[digest] = slot
        self.stats.spec_submitted += 1
        self.tracer.count("speculate.submitted")
        if self.remote is not None:
            self._launch_remote(slot)
        else:
            self._launch(slot)

    def _launch(self, slot: _Slot) -> None:
        try:
            self._pool.launch(slot.digest, _speculate_candidate,
                              (self.task, slot.scheme, self.config),
                              slot.time_limit, label=SPEC_ENGINE)
        except OSError:
            # No worker processes here (restricted environment): a
            # miss, so the loop verifies this candidate inline.
            slot.state = "failed"

    def _cancel(self, digest: str) -> None:
        self._slots[digest].state = "cancelled"
        self.stats.spec_cancelled += 1
        self.tracer.count("speculate.cancelled")
        if self._pool is not None:
            self._pool.cancel(digest)
        # Remote cancellation is advisory: the daemon completes the job
        # and its verdict warms the daemon-side store; we just stop
        # listening (the submission thread is a daemon thread).

    def _pump(self, timeout: float = 0.0) -> None:
        """Relaunch due crashed workers and fold in the pool's events."""
        if self._pool is None:
            return
        for digest in self._pool.due():
            self._launch(self._slots[digest])
        for event in self._pool.poll(timeout):
            slot = self._slots[event.key]
            if event.kind == "crashed":
                self.stats.spec_crashes += 1
                self.tracer.count("speculate.worker_crashes")
                if event.retry_in is not None:
                    self.stats.spec_retries += 1
                    self.tracer.count("speculate.worker_retries")
                    continue
                self.tracer.count("speculate.worker_crashes_unrecovered")
            if event.kind == "result":
                slot.state = "done"
                self._results[event.key] = event.result
            else:
                # In-worker errors are deterministic and a wedged or
                # dead-for-good worker is not worth more time: a miss,
                # and the loop verifies inline (reproducing any real
                # error).
                slot.state = "failed"

    def _wait(self, digest: str) -> Optional[CandidateVerdict]:
        while True:
            if digest in self._results:
                return self._results.pop(digest)
            slot = self._slots.get(digest)
            if slot is None or slot.state in ("cancelled", "failed"):
                return None
            if self.remote is not None:
                time.sleep(POLL_INTERVAL)
                continue
            self._pump(POLL_INTERVAL)

    # -- remote mode -------------------------------------------------------

    def _build_remote_task_doc(self) -> Dict[str, Any]:
        from repro.hdl.serialize import circuit_to_dict

        task = self.task
        return {
            "name": task.name,
            "circuit": circuit_to_dict(task.circuit),
            "sources": {"registers": dict(task.sources.registers),
                        "inputs": dict(task.sources.inputs)},
            "sinks": list(task.sinks),
            "clean_assumptions": list(task.clean_assumptions),
            "gated_clean_assumptions": [list(p) for p in
                                        task.gated_clean_assumptions],
            "assumption_outputs": list(task.assumption_outputs),
            "init_assumption_outputs": list(task.init_assumption_outputs),
            "symbolic_registers": sorted(task.symbolic_registers),
            "blackbox_modules": (list(task.blackbox_modules)
                                 if task.blackbox_modules is not None
                                 else None),
            "precise_modules": list(task.precise_modules),
        }

    def _launch_remote(self, slot: _Slot) -> None:
        import threading

        config = self.config
        slot.job = {
            "kind": "candidate",
            "task": self._remote_task_doc,
            "scheme": scheme_to_dict(slot.scheme),
            "config": {
                "engine": config.engine,
                "mc_enabled": config.mc_enabled,
                "use_induction": config.use_induction,
                "max_bound": config.max_bound,
                "induction_max_k": config.induction_max_k,
                "unique_states": config.unique_states,
                "static_prescreen": config.static_prescreen,
                "static_max_frames": config.static_max_frames,
                "jobs": config.jobs,
                "portfolio_engines": list(config.portfolio_engines),
                "pdr_max_frames": config.pdr_max_frames,
                "max_conflicts": config.max_conflicts,
                "certify": config.certify,
                "mc_time_limit": slot.time_limit,
                "max_worker_retries": config.max_worker_retries,
                "retry_backoff": config.retry_backoff,
            },
        }
        slot.state = "running"
        threading.Thread(target=self._remote_worker, args=(slot,),
                         daemon=True).start()

    def _remote_worker(self, slot: _Slot) -> None:
        try:
            from repro.serve.client import connect

            client = connect(self.remote, timeout=slot.time_limit)
            with client:
                reply = client.submit(slot.job, deadline=slot.time_limit)
            verdict = verdict_from_doc(reply.get("result") or {})
            verdict.source = "remote"
        except Exception:
            with self._lock:
                if slot.state == "running":
                    slot.state = "failed"
            return
        with self._lock:
            if slot.state == "running":
                slot.state = "done"
                self._results[slot.digest] = verdict


# ---------------------------------------------------------------------------
# JSON round trip (the `candidate` job kind's result document)
# ---------------------------------------------------------------------------

def verdict_to_doc(verdict: CandidateVerdict) -> Dict[str, Any]:
    """JSON-able form of a verdict (the daemon's result document)."""
    doc: Dict[str, Any] = {
        "digest": verdict.digest,
        "status": verdict.status,
        "bound": verdict.bound,
        "static_bound": verdict.static_bound,
        "proved_by": verdict.proved_by,
        "engine_status": verdict.engine_status,
        "winner": verdict.winner,
        "static_prescreens": verdict.static_prescreens,
        "static_proofs": verdict.static_proofs,
        "static_cex": verdict.static_cex,
        "static_skipped_bounds": verdict.static_skipped_bounds,
        "suspects": list(verdict.suspects),
        "elapsed": round(verdict.elapsed, 3),
        "counterexample": None,
        "portfolio": None,
    }
    cex = verdict.counterexample
    if cex is not None:
        doc["counterexample"] = {
            "length": cex.length,
            "inputs": [dict(frame) for frame in cex.inputs],
            "initial_state": dict(cex.initial_state),
            "bad_signal": cex.bad_signal,
        }
    pres = verdict.portfolio
    if pres is not None:
        doc["portfolio"] = {
            "status": pres.status.value,
            "winner": pres.winner,
            "bound": pres.bound,
            "mode": pres.mode,
            "cache_hit": pres.cache_hit,
            "certificate_ok": pres.certificate_ok,
            "reports": [
                {"engine": r.engine, "status": r.status, "bound": r.bound,
                 "elapsed": round(r.elapsed, 3), "retries": r.retries,
                 "winner": r.winner}
                for r in pres.reports
            ],
        }
    return doc


def verdict_from_doc(doc: Dict[str, Any]) -> CandidateVerdict:
    """Rebuild a :class:`CandidateVerdict` from the daemon's document.

    The portfolio block becomes a summary :class:`PortfolioResult`
    (reports and winner only — certificates stay server-side) so
    ``RefinementStats.record_portfolio`` folds remote candidates the
    same way as local ones.
    """
    verdict = CandidateVerdict(
        digest=str(doc.get("digest", "")),
        status=str(doc.get("status", "bound_reached")),
        bound=int(doc.get("bound", -1)),
        static_bound=int(doc.get("static_bound", -1)),
        proved_by=str(doc.get("proved_by", "")),
        engine_status=str(doc.get("engine_status", "")),
        winner=doc.get("winner"),
        static_prescreens=int(doc.get("static_prescreens", 0)),
        static_proofs=int(doc.get("static_proofs", 0)),
        static_cex=int(doc.get("static_cex", 0)),
        static_skipped_bounds=int(doc.get("static_skipped_bounds", 0)),
        suspects=tuple(doc.get("suspects", ()) or ()),
        elapsed=float(doc.get("elapsed", 0.0)),
    )
    cdoc = doc.get("counterexample")
    if cdoc is not None:
        verdict.counterexample = Counterexample(
            length=int(cdoc["length"]),
            inputs=[dict(frame) for frame in cdoc.get("inputs", ())],
            initial_state=dict(cdoc.get("initial_state", {})),
            bad_signal=str(cdoc.get("bad_signal", "")),
        )
    pdoc = doc.get("portfolio")
    if pdoc is not None:
        verdict.portfolio = PortfolioResult(
            status=PortfolioStatus(pdoc["status"]),
            winner=pdoc.get("winner"),
            bound=int(pdoc.get("bound", -1)),
            mode=str(pdoc.get("mode", "remote")),
            cache_hit=bool(pdoc.get("cache_hit", False)),
            certificate_ok=pdoc.get("certificate_ok"),
            reports=[
                EngineReport(
                    engine=str(r.get("engine", "?")),
                    status=str(r.get("status", "not_run")),
                    bound=int(r.get("bound", -1)),
                    elapsed=float(r.get("elapsed", 0.0)),
                    retries=int(r.get("retries", 0)),
                    winner=bool(r.get("winner", False)),
                )
                for r in pdoc.get("reports", ())
            ],
        )
    return verdict
