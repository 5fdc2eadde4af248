"""Supervised worker processes for the verification races.

The engine portfolio (:mod:`repro.formal.portfolio`, one worker per
engine) and speculative CEGAR (:mod:`repro.cegar.speculate`, one
worker per candidate scheme) both run their workers on a
:class:`WorkerPool`, which owns the process life cycle and leaves each
caller only its policy.  A worker runs ``target(*args,
time_limit=budget, cache=, tracer=)`` over a :class:`StreamingCache`
seeded from the parent's cache; every solve it stores streams back at
once, and its result returns with its cache-stats delta and trace
events.  The pool cancels (SIGTERM, then SIGKILL), relaunches crashed
workers after an exponential backoff, reports in-worker exceptions
without retrying them, and reaps wedged workers through a
``budget + 2 + 0.25 * budget`` backstop.  The :mod:`repro.faults`
worker hooks are keyed by the worker's label and attempt number.
See ``docs/robustness.md`` ("Worker supervision").
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from repro.faults import FaultPlan
from repro.formal.cache import CachedVerdict, CacheStats, SolveCache
from repro.obs import NULL_TRACER, Tracer

#: The platform-default multiprocessing context every worker runs in.
CONTEXT = multiprocessing.get_context()

#: How long (seconds) callers block on the result queue per poll.
POLL_INTERVAL = 0.05

#: How long a dead worker's result may still be in flight through the
#: queue before its exit counts as a crash.
EXIT_GRACE = 1.0

#: Join timeout of each reap step (after SIGTERM, then after SIGKILL).
REAP_TIMEOUT = 5.0


class StreamingCache(SolveCache):
    """Worker-side cache that forwards every store to the parent.

    Entries reach the parent as soon as they are solved, not only with
    the final result: a worker launched later is seeded with everything
    the running workers have learned so far, and a terminated loser's
    partial work still survives.
    """

    def __init__(self, queue, label: str,
                 faults: Optional[FaultPlan] = None, attempt: int = 0) -> None:
        super().__init__()
        self._queue = queue
        self._label = label
        self._faults = faults
        self._attempt = attempt

    def put(self, key: str, entry: CachedVerdict) -> None:
        super().put(key, entry)
        payload = entry
        if self._faults is not None:
            # Injected message loss/corruption; None drops the message.
            payload = self._faults.filter_entry(self._label, self._attempt,
                                                entry)
        if payload is not None:
            self._queue.put({"type": "entry", "key": key, "entry": payload})
        if self._faults is not None:
            # One put == one completed solve; may os._exit the worker.
            self._faults.on_worker_solve(self._label, self._attempt)


def _worker_main(queue, key, label, attempt, target, args, budget,
                 seed_entries, traced, faults):
    """Entry point of a worker process: run the target, ship the result.

    ``attempt`` counts supervised relaunches (0 on the first launch);
    the fault plan uses it to scope injected faults to one attempt, so
    a retried worker runs clean.  With ``traced`` the worker records
    into its own :class:`~repro.obs.Tracer` (absolute monotonic
    timestamps, the worker's pid as track id).
    """
    cache = StreamingCache(queue, label, faults=faults, attempt=attempt)
    if seed_entries:
        cache.merge_entries(seed_entries)
    baseline = replace(cache.stats)
    tracer = Tracer() if traced else None
    msg: Dict[str, Any] = {"type": "done", "worker": key}
    try:
        msg["result"] = target(*args, time_limit=budget, cache=cache,
                               tracer=tracer)
    except Exception as exc:
        msg["error"] = f"{type(exc).__name__}: {exc}"
    stats = cache.stats
    # Only this worker's lookups: its stores count in the parent's merge.
    msg["stats"] = CacheStats(hits=stats.hits - baseline.hits,
                              misses=stats.misses - baseline.misses,
                              rejected=stats.rejected - baseline.rejected)
    msg["entries"] = cache.snapshot_entries()
    if tracer is not None:
        msg["trace_events"] = tracer.snapshot_events()
        msg["trace_pid"] = os.getpid()
    if faults is not None:
        delay = faults.verdict_delay(label, attempt)
        if delay > 0:
            time.sleep(delay)
    queue.put(msg)


@dataclass
class WorkerEvent:
    """Something that happened to a worker, reported by :meth:`WorkerPool.poll`.

    ``kind`` is ``result`` (``result`` holds the target's return
    value), ``error`` (in-worker exception, ``detail`` holds it),
    ``deadline`` (reaped by the backstop) or ``crashed`` (dead without
    a result; ``retry_in`` is the backoff before the worker is due for
    relaunch, None once retries are exhausted).
    """

    key: str
    kind: str
    elapsed: float = 0.0           # since the worker's last launch
    retries: int = 0               # relaunches granted so far
    result: Any = None
    detail: str = ""
    exitcode: Optional[int] = None
    retry_in: Optional[float] = None


@dataclass
class _Worker:
    key: str
    label: str
    proc: Any = None                      # None between attempts
    started: float = 0.0
    kill_at: Optional[float] = None       # backstop, seconds after start
    dead_since: Optional[float] = None    # exit seen, result not yet
    relaunch_at: Optional[float] = None   # crashed, backing off
    attempts: int = 0
    retries: int = 0


class WorkerPool:
    """Supervised worker processes keyed by caller-chosen names.

    A worker stays known to the pool from :meth:`launch` until it
    finishes, is cancelled, or crashes for good; a crashed worker with
    retries left is *waiting* until its backoff expires, then *due*:
    the caller relaunches it with :meth:`launch` (same key, fresh
    budget), which counts as its next attempt.

    The result queue is created on the first launch, so a platform
    that cannot start processes raises ``OSError`` from :meth:`launch`.
    """

    def __init__(self, cache: Optional[SolveCache] = None,
                 tracer: Optional[Tracer] = None,
                 faults: Optional[FaultPlan] = None,
                 max_retries: int = 2, backoff: float = 0.1) -> None:
        self.cache = cache
        self.tracer = tracer or NULL_TRACER
        self.faults = faults
        self.max_retries = max_retries
        self.backoff = backoff
        self._queue = None
        self._workers: Dict[str, _Worker] = {}

    def running(self) -> List[str]:
        """Keys of workers with a live (or not yet reaped) process."""
        return [k for k, w in self._workers.items() if w.proc is not None]

    def waiting(self) -> List[str]:
        """Keys of crashed workers still backing off."""
        return [k for k, w in self._workers.items()
                if w.relaunch_at is not None]

    def due(self) -> List[str]:
        """Crashed workers whose backoff expired, in first-launch order.

        Each key is returned once; the caller relaunches it (or not).
        """
        now = time.monotonic()
        keys = [k for k, w in self._workers.items()
                if w.relaunch_at is not None and now >= w.relaunch_at]
        for key in keys:
            self._workers[key].relaunch_at = None
        return keys

    def launch(self, key: str, target: Callable[..., Any], args: tuple,
               budget: Optional[float] = None,
               label: Optional[str] = None) -> None:
        """Start ``target(*args, time_limit=budget, cache=, tracer=)``.

        ``target`` must be a module-level function and its arguments
        picklable.  ``label`` names the worker for fault plans and its
        trace track (default: the key).
        """
        worker = self._workers.get(key) or _Worker(key, label or key)
        if self._queue is None:
            self._queue = CONTEXT.Queue()
        seed = self.cache.snapshot_entries() if self.cache is not None else None
        proc = CONTEXT.Process(
            target=_worker_main,
            args=(self._queue, key, worker.label, worker.attempts, target,
                  args, budget, seed, self.tracer.enabled, self.faults),
            daemon=True,
        )
        proc.start()
        worker.proc = proc
        worker.attempts += 1
        worker.started = time.monotonic()
        worker.dead_since = None
        worker.relaunch_at = None
        worker.kill_at = None if budget is None else budget + 2.0 + 0.25 * budget
        self._workers[key] = worker

    def cancel(self, key: str) -> float:
        """Stop and forget a worker; returns seconds since its launch."""
        worker = self._workers.pop(key, None)
        return 0.0 if worker is None else self._reap(worker)

    def poll(self, timeout: float = 0.0) -> List[WorkerEvent]:
        """Merge queued worker traffic and police the running workers.

        Blocks up to ``timeout`` seconds for the first message, then
        drains whatever else is queued.  Streamed entries and the
        cache/trace payload of every finished worker are merged even
        when the worker was cancelled meanwhile; events are reported
        only for workers the pool still knows.
        """
        events: List[WorkerEvent] = []
        while self._queue is not None:
            try:
                msg = (self._queue.get(timeout=timeout) if timeout
                       else self._queue.get_nowait())
            except queue_mod.Empty:
                break
            timeout = 0.0  # only block for the first message
            if msg["type"] == "entry":
                if self.cache is not None:
                    self.cache.merge_entries({str(msg["key"]): msg["entry"]})
                continue
            event = self._finish(msg)
            if event is not None:
                events.append(event)
        events.extend(self._supervise())
        return events

    def close(self) -> None:
        """Cancel every worker and tear the queue down (idempotent)."""
        for key in list(self._workers):
            self.cancel(key)
        if self._queue is not None:
            self.poll()  # fold in what the cancelled workers streamed
            # Drop the feeder thread so a half-drained queue can never
            # hang interpreter shutdown.
            self._queue.close()
            self._queue.cancel_join_thread()
            self._queue = None

    # -- internals ---------------------------------------------------------

    def _finish(self, msg: Dict[str, Any]) -> Optional[WorkerEvent]:
        key = str(msg["worker"])
        worker = self._workers.get(key)
        if self.cache is not None:
            self.cache.merge_entries(msg.get("entries") or {})
            stats = msg.get("stats")
            if isinstance(stats, CacheStats):
                self.cache.stats.hits += stats.hits
                self.cache.stats.misses += stats.misses
                self.cache.stats.rejected += stats.rejected
        if self.tracer.enabled and msg.get("trace_events"):
            self.tracer.adopt(msg["trace_events"])
            label = worker.label if worker is not None else key
            self.tracer.label_track(int(msg["trace_pid"]), f"{label} worker")
        if worker is None or worker.proc is None:
            return None  # cancelled or given up meanwhile
        elapsed = self._reap(self._workers.pop(key), finished=True)
        if "error" in msg:
            return WorkerEvent(key, "error", elapsed, worker.retries,
                               detail=str(msg["error"]))
        return WorkerEvent(key, "result", elapsed, worker.retries,
                           result=msg.get("result"))

    def _supervise(self) -> List[WorkerEvent]:
        events = []
        now = time.monotonic()
        for key, worker in list(self._workers.items()):
            if worker.proc is None:
                continue
            if worker.kill_at is not None and now - worker.started > worker.kill_at:
                # Overran its own time limit by the grace allowance.
                elapsed = self.cancel(key)
                events.append(WorkerEvent(key, "deadline", elapsed,
                                          worker.retries))
            elif not worker.proc.is_alive():
                if worker.dead_since is None:
                    worker.dead_since = now
                elif now - worker.dead_since > EXIT_GRACE:
                    events.append(self._crash(worker))
        return events

    def _crash(self, worker: _Worker) -> WorkerEvent:
        """A worker died without a result: schedule a relaunch or give up."""
        exitcode = worker.proc.exitcode
        elapsed = self._reap(worker)
        retry_in = None
        if worker.retries < self.max_retries:
            retry_in = self.backoff * (2 ** worker.retries)
            worker.retries += 1
            worker.relaunch_at = time.monotonic() + retry_in
        else:
            del self._workers[worker.key]
        return WorkerEvent(worker.key, "crashed", elapsed, worker.retries,
                           exitcode=exitcode, retry_in=retry_in)

    @staticmethod
    def _reap(worker: _Worker, finished: bool = False) -> float:
        """Stop the worker's process; returns seconds since its launch."""
        elapsed = time.monotonic() - worker.started
        proc, worker.proc = worker.proc, None
        if proc is None:
            return elapsed
        if finished:
            # It sent its result: let it exit on its own.  Terminating
            # it while its queue feeder still holds the queue's shared
            # write lock would leave the lock taken and block every
            # other worker's messages for good.
            proc.join(timeout=REAP_TIMEOUT)
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=REAP_TIMEOUT)
        if proc.is_alive():  # ignores SIGTERM: escalate
            proc.kill()
            proc.join(timeout=REAP_TIMEOUT)
        return elapsed
