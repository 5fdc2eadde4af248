"""Parallel verification portfolio over the formal engines.

The paper's Section 4 flow hands each model-checking obligation to
JasperGold, which races several proof engines (``Mp``/``AM``/``I``
unbounded, ``Ht`` bounded) and takes whichever converges first.  This
module reproduces that scheduling layer over our own engines:

- **bmc** — bounded search, definitive on *violations*;
- **pdr** — IC3-family unbounded proof, definitive on both outcomes;
- **kind** — k-induction, definitive on proofs and base-case violations.

:func:`verify_portfolio` runs the engines concurrently in supervised
worker processes (:mod:`repro.workers`, at most ``jobs`` at a time),
each under its own wall-clock deadline.  The first *definitive* verdict wins:
the remaining workers are terminated and their partial results (depths
proven clean so far) are folded into the final bound.  Engines beyond
the ``jobs`` limit are queued; when a running engine retires without a
definitive verdict, the next queued engine starts — seeded with every
solve result the finished engines cached, so e.g. a k-induction worker
launched after BMC answers its base case from the cache instead of
re-solving the frames.

When process spawning is unavailable (restricted environments,
pickling failures) or ``jobs == 1``, the portfolio degrades gracefully
to in-process sequential execution with identical verdict semantics —
engines then share the live cache directly.

Verdicts are memoized in a :class:`~repro.formal.cache.SolveCache`
keyed on the lowered netlist's content hash, the property, and the
engine parameters, so a CEGAR loop that re-poses an already-answered
question (re-verification, pruning, benchmark reruns) returns
instantly.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.faults import FaultPlan
from repro.hdl.circuit import Circuit
from repro.hdl.lowering import LoweredCircuit
from repro.formal.bmc import BmcStatus, _as_lowered, bounded_model_check
from repro.formal.cache import CachedVerdict, SolveCache, solve_key
from repro.formal.certificate import Certificate, check_certificate
from repro.formal.counterexample import Counterexample
from repro.formal.induction import InductionStatus, k_induction
from repro.formal.pdr import PdrStatus, pdr_prove
from repro.formal.properties import SafetyProperty
from repro.obs import NULL_TRACER

#: Engine launch order.  BMC first: it retires quickly on small bounds
#: and its cached frames seed the k-induction base case; PDR second as
#: the strongest unbounded engine; k-induction last (it profits most
#: from running after BMC).
ENGINE_NAMES: Tuple[str, ...] = ("bmc", "pdr", "kind")

#: Engines accepted in ``PortfolioConfig.engines``: the SAT racers
#: above plus the opt-in SAT-free abstract-interpretation engine
#: (:func:`repro.analyze.static_verify`).  ``static`` is deliberately
#: not in the default lineup — it answers a strictly weaker class of
#: questions and is selected explicitly (``--engine static`` or a
#: custom engine tuple) or used as the CEGAR pre-screen.
ALL_ENGINE_NAMES: Tuple[str, ...] = ENGINE_NAMES + ("static",)


class PortfolioStatus(enum.Enum):
    PROVED = "proved"                  # some engine closed an unbounded proof
    COUNTEREXAMPLE = "counterexample"  # some engine found a violation
    BOUND_REACHED = "bound_reached"    # clean up to `bound`, nothing definitive
    UNKNOWN = "unknown"                # every engine timed out with no bound


@dataclass
class PortfolioConfig:
    """Engine selection, budgets and scheduling knobs."""

    engines: Tuple[str, ...] = ENGINE_NAMES
    #: Maximum concurrently running engine processes; 0 means one per
    #: engine, 1 selects the in-process sequential mode.
    jobs: int = 0
    max_bound: int = 20                # BMC depth
    induction_max_k: int = 12
    unique_states: bool = True
    pdr_max_frames: int = 50
    #: Overall wall-clock deadline for the whole portfolio call.
    time_limit: Optional[float] = None
    #: Per-engine wall-clock deadlines (seconds); engines not listed
    #: inherit the overall ``time_limit``.  When empty, the scheduler
    #: fair-shares the remaining window over the unfinished engines so
    #: the ones queued behind the ``jobs`` limit always get a slot.
    engine_deadlines: Dict[str, float] = field(default_factory=dict)
    #: Deterministic per-SAT-call conflict budget (see Solver.solve).
    max_conflicts: Optional[int] = None
    #: BMC skips SAT queries below this depth — the caller (the CEGAR
    #: pre-screen) vouches those cycles are violation-free.
    start_bound: int = 0
    #: Frame budget of the ``static`` engine's bounded ternary pass.
    static_max_frames: int = 64
    #: Skip process workers entirely (forced degraded mode).
    force_sequential: bool = False
    #: Supervision: how many times a *crashed* worker (process dead
    #: without shipping a verdict — OOM kill, segfault, injected fault)
    #: is relaunched before its engine is written off.  Deadline and
    #: in-worker Python errors are not retried: the former already
    #: spent its budget, the latter is deterministic.
    max_worker_retries: int = 2
    #: Exponential retry backoff base (seconds): the n-th relaunch of a
    #: crashed worker waits ``retry_backoff * 2**(n-1)`` first.
    retry_backoff: float = 0.1
    #: Deterministic fault-injection plan (:mod:`repro.faults`) shipped
    #: into every worker; None injects nothing.  Tests use this to
    #: prove the supervision/recovery paths actually work.
    faults: Optional[FaultPlan] = None
    #: Validate PDR proof certificates with the independent checker
    #: (:func:`repro.formal.certificate.check_certificate`) before
    #: reporting PROVED; a certificate that fails to check downgrades
    #: the verdict to UNKNOWN instead of shipping an untrusted proof.
    certify: bool = True

    def deadline_for(self, engine: str) -> Optional[float]:
        if engine in self.engine_deadlines:
            return self.engine_deadlines[engine]
        return self.time_limit


@dataclass
class EngineReport:
    """What one engine contributed to a portfolio call."""

    engine: str
    #: Engine status string, or one of the scheduler's own outcomes:
    #: not_run / cancelled / deadline (budget spent) / error (in-worker
    #: exception) / crashed (process dead without a verdict, retries
    #: exhausted) / retrying (crashed, relaunch scheduled).
    status: str = "not_run"
    bound: int = -1             # deepest cycle this engine proved clean
    elapsed: float = 0.0
    winner: bool = False
    detail: str = ""
    attempts: int = 0           # worker launches (> 1 after a retry)
    retries: int = 0            # supervised relaunches after a crash

    def row(self) -> str:
        mark = " <- winner" if self.winner else ""
        bound = f" bound={self.bound}" if self.bound >= 0 else ""
        retries = f" retries={self.retries}" if self.retries else ""
        return (f"{self.engine:<5} {self.status:<15} "
                f"{self.elapsed:6.2f}s{bound}{retries}{mark}")


@dataclass
class PortfolioResult:
    status: PortfolioStatus
    winner: Optional[str] = None
    bound: int = -1
    counterexample: Optional[Counterexample] = None
    elapsed: float = 0.0
    reports: List[EngineReport] = field(default_factory=list)
    mode: str = "process"        # "process" | "sequential"
    cache_hit: bool = False      # whole verdict answered from the cache
    #: PDR's inductive-invariant certificate when it won with a proof.
    certificate: Optional[Certificate] = None
    #: True/False once the independent checker ran; None when there was
    #: no certificate to check (other winner, cache hit, certify off).
    certificate_ok: Optional[bool] = None

    @property
    def proved(self) -> bool:
        return self.status is PortfolioStatus.PROVED

    @property
    def found_cex(self) -> bool:
        return self.status is PortfolioStatus.COUNTEREXAMPLE


# ---------------------------------------------------------------------------
# Engine adapters: run one engine, produce a uniform plain-data verdict.
# ---------------------------------------------------------------------------

def _run_engine(
    engine: str,
    lowered: LoweredCircuit,
    prop: SafetyProperty,
    config: PortfolioConfig,
    time_limit: Optional[float],
    cache: Optional[SolveCache],
    tracer=None,
) -> Dict[str, object]:
    """Execute one engine; returns a picklable verdict record.

    ``definitive`` marks outcomes that settle the property (violation
    or unbounded proof); everything else is partial information.
    """
    started = time.monotonic()
    if engine == "bmc":
        res = bounded_model_check(
            lowered, prop, max_bound=config.max_bound, time_limit=time_limit,
            start_bound=config.start_bound,
            max_conflicts=config.max_conflicts, cache=cache, tracer=tracer,
        )
        definitive = res.status is BmcStatus.COUNTEREXAMPLE
        return {
            "engine": engine,
            "status": res.status.value,
            "definitive": definitive,
            "proved": False,
            "bound": res.bound,
            "counterexample": res.counterexample,
            "elapsed": time.monotonic() - started,
        }
    if engine == "kind":
        res = k_induction(
            lowered, prop, max_k=config.induction_max_k, time_limit=time_limit,
            unique_states=config.unique_states,
            max_conflicts=config.max_conflicts, cache=cache, tracer=tracer,
        )
        definitive = res.status in (InductionStatus.PROVED,
                                    InductionStatus.COUNTEREXAMPLE)
        return {
            "engine": engine,
            "status": res.status.value,
            "definitive": definitive,
            "proved": res.status is InductionStatus.PROVED,
            "bound": res.bound,
            "counterexample": res.counterexample,
            "elapsed": time.monotonic() - started,
        }
    if engine == "pdr":
        res = pdr_prove(
            lowered, prop, max_frames=config.pdr_max_frames, time_limit=time_limit,
            max_conflicts=config.max_conflicts, tracer=tracer,
        )
        definitive = res.status in (PdrStatus.PROVED, PdrStatus.COUNTEREXAMPLE)
        return {
            "engine": engine,
            "status": res.status.value,
            "definitive": definitive,
            "proved": res.status is PdrStatus.PROVED,
            "bound": -1,  # PDR frames are not cycle bounds
            "counterexample": res.counterexample,
            "elapsed": time.monotonic() - started,
            # Plain tuples/strings: pickles across the worker boundary.
            "certificate": res.certificate,
        }
    if engine == "static":
        from repro.analyze import static_verify

        res = static_verify(lowered, prop,
                            max_frames=config.static_max_frames,
                            tracer=tracer)
        detail = res.reason
        if res.suspects:
            detail += f"; {len(res.suspects)} suspects"
        return {
            "engine": engine,
            "status": res.status,
            "definitive": res.definitive,
            "proved": res.proved,
            "bound": res.bound,
            "counterexample": res.counterexample,
            "elapsed": time.monotonic() - started,
            "detail": detail,
            "suspects": res.suspects,
        }
    raise ValueError(f"unknown portfolio engine {engine!r} "
                     f"(expected one of {ENGINE_NAMES})")


# ---------------------------------------------------------------------------
# Result assembly
# ---------------------------------------------------------------------------

_PROOF_KEY_PARAMS = ("max_bound", "induction_max_k", "unique_states",
                     "pdr_max_frames", "max_conflicts", "start_bound",
                     "static_max_frames")


def _portfolio_key(lowered: LoweredCircuit, prop: SafetyProperty,
                   config: PortfolioConfig) -> str:
    params = {name: getattr(config, name) for name in _PROOF_KEY_PARAMS}
    params["engines"] = sorted(config.engines)
    return solve_key(lowered.circuit, prop, "portfolio", params)


def _finalize(
    reports: Dict[str, EngineReport],
    order: Tuple[str, ...],
    winner: Optional[Dict[str, object]],
    elapsed: float,
    mode: str,
) -> PortfolioResult:
    bound = max((r.bound for r in reports.values()), default=-1)
    ordered = [reports[name] for name in order]
    if winner is not None:
        name = winner["engine"]
        reports[name].winner = True
        if winner["proved"]:
            status = PortfolioStatus.PROVED
        else:
            status = PortfolioStatus.COUNTEREXAMPLE
        return PortfolioResult(
            status, winner=name, bound=bound,
            counterexample=winner["counterexample"],
            elapsed=elapsed, reports=ordered, mode=mode,
            certificate=winner.get("certificate"),
        )
    status = PortfolioStatus.BOUND_REACHED if bound >= 0 else PortfolioStatus.UNKNOWN
    return PortfolioResult(status, bound=bound, elapsed=elapsed,
                           reports=ordered, mode=mode)


def _memoize(cache: Optional[SolveCache], key: Optional[str],
             result: PortfolioResult) -> None:
    if cache is None or key is None:
        return
    if result.status is PortfolioStatus.UNKNOWN:
        return  # nothing worth replaying
    cache.put(key, CachedVerdict(
        result.status.value, bound=result.bound,
        counterexample=result.counterexample,
        detail={"winner": result.winner},
    ))


def _from_memo(entry: CachedVerdict, order: Tuple[str, ...]) -> PortfolioResult:
    status = PortfolioStatus(entry.status)
    winner = entry.detail.get("winner")
    reports = [EngineReport(name, status="cached") for name in order]
    return PortfolioResult(
        status, winner=winner, bound=entry.bound,
        counterexample=entry.counterexample,
        elapsed=0.0, reports=reports, mode="cache", cache_hit=True,
    )


# ---------------------------------------------------------------------------
# Schedulers
# ---------------------------------------------------------------------------

def _run_sequential(
    lowered: LoweredCircuit,
    prop: SafetyProperty,
    config: PortfolioConfig,
    cache: Optional[SolveCache],
    started: float,
    tracer=None,
) -> PortfolioResult:
    """Degraded mode: engines run in-process, in order, sharing the cache."""
    tracer = tracer or NULL_TRACER
    reports = {name: EngineReport(name) for name in config.engines}
    winner: Optional[Dict[str, object]] = None
    for position, engine in enumerate(config.engines):
        remaining = None
        if config.time_limit is not None:
            remaining = config.time_limit - (time.monotonic() - started)
            if remaining <= 0:
                break
        deadline = config.deadline_for(engine)
        if not config.engine_deadlines and remaining is not None:
            # Same fair-share policy as process mode: split what is
            # left of the window over the engines still to run, so one
            # engine cannot starve the ones behind it.
            deadline = remaining / (len(config.engines) - position)
        if deadline is None:
            deadline = remaining
        elif remaining is not None:
            deadline = min(deadline, remaining)
        with tracer.span("portfolio.engine", cat="portfolio", engine=engine) as span:
            verdict = _run_engine(engine, lowered, prop, config, deadline, cache,
                                  tracer=tracer)
            span.set(status=str(verdict["status"]))
        report = reports[engine]
        report.status = str(verdict["status"])
        report.bound = int(verdict["bound"])
        report.elapsed = float(verdict["elapsed"])
        if verdict["definitive"]:
            winner = verdict
            break
    return _finalize(reports, config.engines, winner,
                     time.monotonic() - started, mode="sequential")


def _run_processes(
    lowered: LoweredCircuit,
    prop: SafetyProperty,
    config: PortfolioConfig,
    cache: Optional[SolveCache],
    started: float,
    jobs: int,
    tracer=None,
) -> PortfolioResult:
    """Process mode: up to ``jobs`` concurrent engine workers."""
    from repro.workers import POLL_INTERVAL, WorkerPool

    tracer = tracer or NULL_TRACER
    reports = {name: EngineReport(name) for name in config.engines}
    pending = list(config.engines)
    winner: Optional[Dict[str, object]] = None
    pool = WorkerPool(cache, tracer, faults=config.faults,
                      max_retries=config.max_worker_retries,
                      backoff=config.retry_backoff)

    def launch(engine: str) -> bool:
        """Start one engine worker; False when its budget is spent.

        The engine's wall-clock budget (its own deadline capped by the
        remaining overall time) is enforced *inside* the worker as the
        engine ``time_limit``, so the worker retires on its own with a
        partial verdict and its cache entries intact; the pool's
        backstop only catches a wedged worker.
        """
        budget = config.deadline_for(engine)
        if config.time_limit is not None:
            remaining = config.time_limit - (time.monotonic() - started)
            if remaining <= 0:
                return False
            if not config.engine_deadlines:
                # No explicit per-engine budgets: fair-share the
                # remaining window over the unfinished engines so the
                # ones queued behind the ``jobs`` limit are guaranteed
                # a slot before the overall deadline.
                unfinished = (1 + len(pending) + len(pool.running())
                              + len(pool.waiting()))
                share = remaining * jobs / unfinished
                budget = share if budget is None else min(budget, share)
            budget = remaining if budget is None else min(budget, remaining)
        pool.launch(engine, _run_engine, (engine, lowered, prop, config),
                    budget)
        reports[engine].attempts += 1
        return True

    try:
        while pending or pool.running() or pool.waiting():
            # Crashed engines whose backoff expired relaunch ahead of
            # anything still queued behind the jobs limit.
            pending[:0] = pool.due()
            while len(pool.running()) < jobs and pending:
                if not launch(pending.pop(0)):
                    # Overall budget exhausted before this engine got a
                    # slot; its report stays "not_run".
                    pending.clear()
                    break
            if (config.time_limit is not None
                    and time.monotonic() - started > config.time_limit + 5.0):
                # Backstop only: workers receive the remaining overall
                # budget as their own time_limit, so they normally ship
                # a (partial) verdict before this fires.
                break
            for event in pool.poll(POLL_INTERVAL):
                report = reports[event.key]
                report.elapsed = event.elapsed
                if event.kind == "result":
                    verdict = event.result
                    report.status = str(verdict["status"])
                    report.bound = int(verdict["bound"])
                    report.elapsed = float(verdict["elapsed"])
                    report.detail = str(verdict.get("detail", ""))
                    if verdict["definitive"] and winner is None:
                        winner = verdict
                elif event.kind in ("error", "deadline"):
                    report.status = event.kind
                    report.detail = event.detail
                else:  # crashed: only crashes are worth retrying
                    tracer.count("portfolio.worker_crashes")
                    report.retries = event.retries
                    if event.retry_in is not None:
                        report.status = "retrying"
                        report.detail = (
                            f"crashed (exit {event.exitcode}), "
                            f"retry {report.retries} in {event.retry_in:.2f}s")
                        tracer.count("portfolio.worker_retries")
                    else:
                        report.status = "crashed"
                        report.detail = (f"exit {event.exitcode} after "
                                         f"{report.attempts} attempt(s)")
            if winner is not None:
                break
    finally:
        for engine in pool.running():
            reports[engine].status = "cancelled"
            reports[engine].elapsed = pool.cancel(engine)
        for report in reports.values():
            if report.status == "retrying":
                report.status = "cancelled"
        pool.close()

    return _finalize(reports, config.engines, winner,
                     time.monotonic() - started, mode="process")


def verify_portfolio(
    circuit: Union[Circuit, LoweredCircuit],
    prop: SafetyProperty,
    config: Optional[PortfolioConfig] = None,
    cache: Optional[SolveCache] = None,
    tracer=None,
) -> PortfolioResult:
    """Race the verification engines on ``prop``; first definitive wins.

    Args:
        circuit: design under verification (cell- or gate-level).
        prop: the safety property.
        config: engine selection, budgets and scheduling knobs.
        cache: optional cross-call :class:`SolveCache`; consulted for a
            memoized verdict first, seeded into workers, and updated
            with everything they solve.
        tracer: optional :class:`~repro.obs.Tracer`; engine frames and
            SAT counters are recorded (worker events merged back with
            per-process track ids) along with solve-cache hit/miss
            counters for this call.

    Returns a :class:`PortfolioResult`; ``reports`` lists what every
    engine did (status, time, partial bound) for observability.
    """
    config = config or PortfolioConfig()
    if not config.engines:
        raise ValueError("portfolio needs at least one engine")
    for engine in config.engines:
        if engine not in ALL_ENGINE_NAMES:
            raise ValueError(f"unknown portfolio engine {engine!r} "
                             f"(expected one of {ALL_ENGINE_NAMES})")
    started = time.monotonic()
    tracer = tracer or NULL_TRACER
    lowered = _as_lowered(circuit, prop)

    key = None
    if cache is not None:
        key = _portfolio_key(lowered, prop, config)
        entry = cache.get(key)
        if entry is not None:
            tracer.count("solve_cache.memo_hits")
            return _from_memo(entry, config.engines)

    stats_before = replace(cache.stats) if cache is not None else None
    jobs = config.jobs if config.jobs > 0 else len(config.engines)
    result: Optional[PortfolioResult] = None
    # Process mode whenever more than one concurrent job is allowed —
    # even for a single engine, since a worker process buys crash
    # isolation and supervised retry; jobs == 1 or a single engine with
    # default jobs stays in-process.
    if not config.force_sequential and jobs > 1:
        try:
            result = _run_processes(lowered, prop, config, cache, started, jobs,
                                    tracer=tracer)
        except (ImportError, OSError, PermissionError):
            # Restricted environments (no /dev/shm, no fork) land here:
            # degrade to in-process sequential execution.
            result = None
    if result is None:
        result = _run_sequential(lowered, prop, config, cache, started,
                                 tracer=tracer)
    if (config.certify and result.status is PortfolioStatus.PROVED
            and result.certificate is not None):
        # Re-check PDR's invariant on a fresh encoding before the
        # verdict leaves the portfolio.  A certificate that does not
        # check means the proof cannot be trusted: downgrade rather
        # than ship it.
        check = check_certificate(lowered, prop, result.certificate)
        result.certificate_ok = bool(check.ok)
        tracer.count("portfolio.certificates_checked")
        if not check.ok:
            tracer.count("portfolio.certificate_failures")
            result.status = PortfolioStatus.UNKNOWN
            for report in result.reports:
                if report.winner:
                    report.winner = False
                    report.detail = f"certificate rejected: {check.reason}"
            result.winner = None
    _memoize(cache, key, result)
    if tracer.enabled and stats_before is not None:
        tracer.count("solve_cache.hits", cache.stats.hits - stats_before.hits)
        tracer.count("solve_cache.misses", cache.stats.misses - stats_before.misses)
        tracer.count("solve_cache.stores", cache.stats.stores - stats_before.stores)
    return result
