"""Unit tests for repro.workers: the supervised worker pool.

Covers the paths the portfolio and speculation tests only reach by
accident: SIGTERM-to-SIGKILL escalation, in-worker exceptions,
crash/backoff relaunch, the deadline backstop, fault hooks keyed by
label, and tear-down that leaves no child behind.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro import faults, workers
from repro.formal.cache import CachedVerdict, SolveCache
from repro.obs import Tracer
from repro.workers import WorkerPool


def _square(x, *, time_limit, cache, tracer):
    cache.put("solved", CachedVerdict("unsat", bound=x))
    if tracer is not None:
        with tracer.span("square", cat="test"):
            pass
    return x * x


def _lookup(key, *, time_limit, cache, tracer):
    entry = cache.get(key)
    return None if entry is None else entry.status


def _linger(*, time_limit, cache, tracer):
    # Runs at worker exit, after the result was flushed to the parent.
    multiprocessing.util.Finalize(None, time.sleep, args=(0.5,),
                                  exitpriority=0)
    return "done"


def _raise(*, time_limit, cache, tracer):
    raise ValueError("boom")


def _exit(code, *, time_limit, cache, tracer):
    os._exit(code)


def _sleep(*, time_limit, cache, tracer):
    time.sleep(60)


def _ignore_sigterm(*, time_limit, cache, tracer):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    cache.put("ready", CachedVerdict("unsat"))  # tells the parent
    time.sleep(60)


def _events(pool, within=10.0):
    """Poll until the pool reports something."""
    deadline = time.monotonic() + within
    while time.monotonic() < deadline:
        events = pool.poll(workers.POLL_INTERVAL)
        if events:
            return events
    raise AssertionError("the pool reported no event")


def _new_children(before):
    return [p for p in multiprocessing.active_children()
            if p.pid not in before]


class TestResults:
    def test_result_entries_and_trace_reach_the_parent(self):
        cache, tracer = SolveCache(), Tracer()
        pool = WorkerPool(cache, tracer)
        try:
            pool.launch("w", _square, (3,), budget=30.0)
            [event] = _events(pool)
        finally:
            pool.close()
        assert (event.key, event.kind, event.result) == ("w", "result", 9)
        assert cache.peek("solved") == CachedVerdict("unsat", bound=3)
        names = {e.get("name") for e in tracer.snapshot_events()}
        assert "square" in names
        assert pool.running() == []

    def test_workers_are_seeded_and_report_their_lookups(self):
        cache = SolveCache()
        cache.put("solved", CachedVerdict("unsat"))
        pool = WorkerPool(cache)
        try:
            pool.launch("w", _lookup, ("solved",))
            [event] = _events(pool)
        finally:
            pool.close()
        assert event.result == "unsat"
        assert (cache.stats.hits, cache.stats.misses) == (1, 0)

    def test_finished_worker_exits_on_its_own(self):
        """A worker that sent its result is joined, not terminated:
        killing it while its queue feeder holds the shared write lock
        would block every other worker's messages."""
        pool = WorkerPool()
        before = {p.pid for p in multiprocessing.active_children()}
        try:
            pool.launch("w", _linger, ())
            [proc] = _new_children(before)
            [event] = _events(pool)
        finally:
            pool.close()
        assert event.result == "done"
        assert proc.exitcode == 0

    def test_in_worker_exception_is_an_error_and_not_retried(self):
        pool = WorkerPool(max_retries=2, backoff=0.0)
        try:
            pool.launch("w", _raise, ())
            [event] = _events(pool)
        finally:
            pool.close()
        assert event.kind == "error"
        assert event.detail == "ValueError: boom"
        assert event.retries == 0
        assert pool.running() == pool.waiting() == pool.due() == []


class TestSupervision:
    def test_crash_backs_off_then_gives_up(self, monkeypatch):
        monkeypatch.setattr(workers, "EXIT_GRACE", 0.05)
        pool = WorkerPool(max_retries=1, backoff=0.01)
        try:
            pool.launch("w", _exit, (3,))
            [event] = _events(pool)
            assert (event.kind, event.exitcode) == ("crashed", 3)
            assert event.retry_in == pytest.approx(0.01)
            assert pool.waiting() == ["w"]
            time.sleep(0.05)
            assert pool.due() == ["w"]
            assert pool.due() == []  # handed out once
            pool.launch("w", _exit, (3,))
            [event] = _events(pool)
        finally:
            pool.close()
        assert event.kind == "crashed"
        assert event.retry_in is None
        assert event.retries == 1
        assert pool.running() == pool.waiting() == []

    def test_fault_hooks_are_keyed_by_label(self, monkeypatch):
        monkeypatch.setattr(workers, "EXIT_GRACE", 0.05)
        plan = faults.FaultPlan((faults.kill_worker("lbl", after_solves=1),))
        pool = WorkerPool(SolveCache(), faults=plan, max_retries=0)
        try:
            pool.launch("key", _square, (2,), label="lbl")
            [event] = _events(pool)
        finally:
            pool.close()
        assert (event.kind, event.exitcode) == ("crashed",
                                                faults.KILLED_EXIT_CODE)

    def test_backstop_reaps_a_wedged_worker(self):
        pool = WorkerPool()
        try:
            pool.launch("w", _sleep, (), budget=0.0)  # backstop after 2 s
            [event] = _events(pool)
        finally:
            pool.close()
        assert event.kind == "deadline"
        assert event.elapsed >= 2.0

    def test_sigterm_ignoring_worker_is_killed(self, monkeypatch):
        monkeypatch.setattr(workers, "REAP_TIMEOUT", 0.5)
        cache = SolveCache()
        pool = WorkerPool(cache)
        before = {p.pid for p in multiprocessing.active_children()}
        try:
            pool.launch("w", _ignore_sigterm, ())
            deadline = time.monotonic() + 10.0
            while cache.peek("ready") is None:
                assert time.monotonic() < deadline, "worker never got ready"
                pool.poll(workers.POLL_INTERVAL)
            [proc] = _new_children(before)
            pool.cancel("w")
            assert not proc.is_alive()
            assert proc.exitcode == -signal.SIGKILL
        finally:
            pool.close()

    def test_launch_failure_raises_and_registers_nothing(self, monkeypatch):
        def no_queue(self, *args, **kwargs):
            raise OSError("no process support here")

        monkeypatch.setattr(multiprocessing.context.BaseContext, "Queue",
                            no_queue)
        pool = WorkerPool()
        with pytest.raises(OSError):
            pool.launch("w", _square, (1,))
        assert pool.running() == []
        pool.close()


class TestClose:
    def test_close_twice_leaves_no_child(self):
        before = {p.pid for p in multiprocessing.active_children()}
        pool = WorkerPool()
        pool.launch("a", _sleep, ())
        pool.launch("b", _sleep, ())
        assert len(_new_children(before)) == 2
        pool.close()
        pool.close()
        assert _new_children(before) == []
        assert pool.running() == []
