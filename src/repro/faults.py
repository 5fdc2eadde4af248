"""Deterministic fault injection for robustness testing.

Long-running CEGAR verifies must survive crashed engine workers,
dropped queue messages and torn files.  Proving that the recovery
paths actually work requires *reproducing* those failures on demand,
so this module provides a seeded, deterministic :class:`FaultPlan`
that the portfolio scheduler, the engine workers and the checkpoint
journal consult at well-defined injection points:

- :func:`kill_worker` — ``os._exit`` a specific engine worker after it
  finished its M-th solve (simulates an OOM kill / segfault mid-run);
- :func:`drop_entry` — silently drop the N-th cache entry a worker
  streams to the scheduler (simulates a lost queue message);
- :func:`corrupt_entry` — replace the N-th streamed cache entry with
  garbage (simulates queue/disk corruption; the parent-side merge must
  reject it);
- :func:`delay_verdict` — sleep before shipping the final verdict
  (simulates a slow worker racing the scheduler's deadline backstop);
- :func:`corrupt_checkpoint` / :func:`truncate_checkpoint` — damage a
  checkpoint journal entry on disk right after it was written (the
  reader must detect the bad checksum and fall back);
- :func:`kill_after_checkpoint` — SIGKILL the *calling process* right
  after journal entry N hit the disk (simulates a dead parent; the
  integration tests resume from the journal and expect the identical
  verdict);
- :func:`torn_segment` / :func:`corrupt_manifest` — damage a persistent
  solve-store segment or its manifest right after it was written (the
  store's torn-tail / manifest-rebuild recovery must kick in on the
  next open);
- :func:`stale_lock` — plant a store lock file owned by a dead pid
  before the store is opened (the open must detect the dead owner and
  take the lock over);
- :func:`enospc` — fail the N-th store segment write with ``ENOSPC``
  (the store must keep the entries pending and retry on the next
  flush instead of crashing the verify).

Faults are scoped to a worker *attempt* (default: the first), so a
killed worker's supervised retry runs clean — which is exactly the
recovery the tests want to observe.  A :class:`FaultPlan` is plain
picklable data plus per-process counters; shipping it into a worker
process gives that worker its own independent counter state.
"""

from __future__ import annotations

import os
import random
import signal
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

#: Exit code used by injected worker kills; distinctive so tests (and
#: humans reading scheduler logs) can tell an injected crash from a
#: genuine one.
KILLED_EXIT_CODE = 66

_WORKER_KINDS = ("kill_worker", "drop_entry", "corrupt_entry", "delay_verdict")
_JOURNAL_KINDS = ("corrupt_checkpoint", "truncate_checkpoint",
                  "kill_after_checkpoint")
_STORE_KINDS = ("torn_segment", "corrupt_manifest", "stale_lock", "enospc")
KINDS = _WORKER_KINDS + _JOURNAL_KINDS + _STORE_KINDS

#: What a corrupted streamed cache entry is replaced with: not a
#: :class:`~repro.formal.cache.CachedVerdict`, so a validating merge
#: must drop it instead of storing it.
CORRUPT_ENTRY_PAYLOAD = "\x00corrupt-cache-entry\x00"


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault (plain data; see the module constructors)."""

    kind: str
    engine: Optional[str] = None   # worker faults: which engine to hit
    after: int = 0                 # solve count / entry index / journal index
    attempt: int = 0               # which worker attempt the fault arms on
    delay: float = 0.0             # delay_verdict only
    pid: Optional[int] = None      # stale_lock only: the planted dead owner

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(expected one of {KINDS})")
        if self.kind in _WORKER_KINDS and not self.engine:
            raise ValueError(f"fault {self.kind!r} needs an engine name")


def kill_worker(engine: str, after_solves: int = 1, attempt: int = 0) -> FaultSpec:
    """Hard-kill the ``engine`` worker once it completed N solves."""
    return FaultSpec("kill_worker", engine=engine, after=after_solves,
                     attempt=attempt)


def drop_entry(engine: str, index: int = 0, attempt: int = 0) -> FaultSpec:
    """Drop the index-th cache entry the ``engine`` worker streams."""
    return FaultSpec("drop_entry", engine=engine, after=index, attempt=attempt)


def corrupt_entry(engine: str, index: int = 0, attempt: int = 0) -> FaultSpec:
    """Replace the index-th streamed cache entry with garbage."""
    return FaultSpec("corrupt_entry", engine=engine, after=index,
                     attempt=attempt)


def delay_verdict(engine: str, delay: float, attempt: int = 0) -> FaultSpec:
    """Sleep ``delay`` seconds before shipping the final verdict."""
    return FaultSpec("delay_verdict", engine=engine, delay=delay,
                     attempt=attempt)


def corrupt_checkpoint(index: int = 0) -> FaultSpec:
    """Flip bytes in journal entry ``index`` right after it is written."""
    return FaultSpec("corrupt_checkpoint", after=index)


def truncate_checkpoint(index: int = 0) -> FaultSpec:
    """Cut journal entry ``index`` in half right after it is written."""
    return FaultSpec("truncate_checkpoint", after=index)


def kill_after_checkpoint(index: int = 0) -> FaultSpec:
    """SIGKILL the writing process after journal entry ``index`` landed."""
    return FaultSpec("kill_after_checkpoint", after=index)


def torn_segment(index: int = 0) -> FaultSpec:
    """Truncate solve-store segment write ``index`` right after it lands."""
    return FaultSpec("torn_segment", after=index)


def corrupt_manifest(index: int = 0) -> FaultSpec:
    """Flip bytes in the store manifest after its ``index``-th write."""
    return FaultSpec("corrupt_manifest", after=index)


def stale_lock(pid: Optional[int] = None) -> FaultSpec:
    """Plant a store lock owned by a dead pid before the store opens.

    ``pid=None`` spawns (and reaps) a short-lived child at injection
    time and uses its — by then certainly dead — pid.
    """
    return FaultSpec("stale_lock", pid=pid)


def enospc(index: int = 0) -> FaultSpec:
    """Fail solve-store segment write ``index`` with ``ENOSPC``."""
    return FaultSpec("enospc", after=index)


@dataclass
class FaultPlan:
    """A seeded, deterministic set of faults to inject during a run.

    The plan is consulted at each injection point; counters (solves per
    worker, streamed entries per worker, journal entries written) are
    kept per process, so the same plan pickled into a fresh worker
    starts counting from zero — deterministic regardless of scheduling.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0
    #: Per-process counters; never pickle-shared state of record.
    _solves: Dict[Tuple[str, int], int] = field(default_factory=dict, repr=False)
    _streamed: Dict[Tuple[str, int], int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.specs = tuple(self.specs)

    def __getstate__(self) -> Dict[str, Any]:
        # Counters are per-process scratch state: a plan pickled into a
        # fresh worker must start counting that worker's events from
        # zero, regardless of what the sending process observed.
        return {"specs": self.specs, "seed": self.seed,
                "_solves": {}, "_streamed": {}}

    def _matching(self, kind: str, engine: Optional[str] = None,
                  attempt: Optional[int] = None):
        for spec in self.specs:
            if spec.kind != kind:
                continue
            if engine is not None and spec.engine != engine:
                continue
            if attempt is not None and spec.attempt != attempt:
                continue
            yield spec

    # -- worker-side hooks -------------------------------------------------

    def on_worker_solve(self, engine: str, attempt: int) -> None:
        """Called by the worker after each completed solve (cache store)."""
        key = (engine, attempt)
        count = self._solves.get(key, 0) + 1
        self._solves[key] = count
        for spec in self._matching("kill_worker", engine, attempt):
            if count >= spec.after:
                # Let the queue's feeder thread drain the entries this
                # worker already streamed — the point of the fault is a
                # crash *after* M solves reached the scheduler, so the
                # supervised retry observably resumes from that work.
                import time
                time.sleep(0.2)
                # Then die hard: bypass atexit/finally and leave the
                # result queue exactly as a SIGKILL would.
                os._exit(KILLED_EXIT_CODE)

    def filter_entry(self, engine: str, attempt: int,
                     entry: Any) -> Optional[Any]:
        """Drop or corrupt one streamed cache entry; None means drop."""
        key = (engine, attempt)
        index = self._streamed.get(key, 0)
        self._streamed[key] = index + 1
        for spec in self._matching("drop_entry", engine, attempt):
            if index == spec.after:
                return None
        for spec in self._matching("corrupt_entry", engine, attempt):
            if index == spec.after:
                return CORRUPT_ENTRY_PAYLOAD
        return entry

    def verdict_delay(self, engine: str, attempt: int) -> float:
        """Seconds to sleep before shipping the final verdict."""
        return sum(spec.delay
                   for spec in self._matching("delay_verdict", engine, attempt))

    # -- journal-side hooks ------------------------------------------------

    def on_checkpoint_written(self, index: int, path: str) -> None:
        """Called by the journal right after entry ``index`` was renamed
        into place; damages the file or kills the process per plan."""
        for spec in self._matching("truncate_checkpoint"):
            if spec.after == index:
                size = os.path.getsize(path)
                with open(path, "r+b") as handle:
                    handle.truncate(max(1, size // 2))
        for spec in self._matching("corrupt_checkpoint"):
            if spec.after == index:
                rng = random.Random((self.seed << 16) ^ index)
                with open(path, "r+b") as handle:
                    data = bytearray(handle.read())
                    for _ in range(3):  # flip a few payload bytes
                        pos = rng.randrange(len(data) // 2, len(data))
                        data[pos] ^= 0xFF
                    handle.seek(0)
                    handle.write(bytes(data))
        for spec in self._matching("kill_after_checkpoint"):
            if spec.after == index:
                os.kill(os.getpid(), signal.SIGKILL)

    # -- store-side hooks --------------------------------------------------

    def on_store_open(self, directory: str) -> None:
        """Called by the solve store right before its lock acquisition;
        plants a stale lock file owned by a dead pid per plan."""
        for spec in self._matching("stale_lock"):
            from repro.store.lock import plant_stale_lock

            plant_stale_lock(directory, pid=spec.pid)

    def check_store_write(self, index: int) -> None:
        """Called by the store before segment write ``index`` (counted
        per open); raises an injected ``ENOSPC`` per plan."""
        import errno

        for spec in self._matching("enospc"):
            if spec.after == index:
                raise OSError(errno.ENOSPC, "injected ENOSPC (fault plan)")

    def on_segment_written(self, index: int, path: str) -> None:
        """Called right after segment write ``index`` was renamed into
        place; tears its tail per plan (the reader must keep the intact
        record prefix)."""
        for spec in self._matching("torn_segment"):
            if spec.after == index:
                size = os.path.getsize(path)
                with open(path, "r+b") as handle:
                    # Keep the magic intact: the point is a torn *tail*
                    # (keep-the-prefix recovery), not an unreadable file.
                    handle.truncate(max(24, size // 2))

    def on_manifest_written(self, index: int, path: str) -> None:
        """Called right after manifest write ``index`` (counted per
        open) landed; flips payload bytes per plan so the reader must
        rebuild the manifest from the segments on disk."""
        for spec in self._matching("corrupt_manifest"):
            if spec.after == index:
                rng = random.Random((self.seed << 16) ^ 0x5AFE ^ index)
                with open(path, "r+b") as handle:
                    data = bytearray(handle.read())
                    for _ in range(3):
                        pos = rng.randrange(len(data))
                        data[pos] ^= 0xFF
                    handle.seek(0)
                    handle.write(bytes(data))
