"""One measured ``repro verify`` in a fresh process.

Usage (run from the repository root with ``PYTHONPATH=src``)::

    python3 perfbench/child.py {setup|verify|trace} OUT.json -- VERIFY-ARGS...

The child calls the real CLI entry point, ``repro.cli.main``, with
``verify VERIFY-ARGS``.  A wrapper around ``repro.cegar.run_compass``
(the name ``cmd_verify`` resolves it through) records the monotonic
clock on entry and exit; ``CLOCK_MONOTONIC`` is system-wide, so the
parent can subtract the time it spawned this process.

- ``setup``: stop on entry into ``run_compass`` (measures set-up only).
- ``verify``: run to the verdict and record the result fingerprint.
- ``trace``: as ``verify``, with the layer probes of :mod:`probes`
  installed, and record the per-layer metrics.

The record written to OUT.json also lists child processes still alive
when the CLI returned.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time


class _SetupDone(Exception):
    """Raised on entry into ``run_compass`` in ``setup`` mode."""


def _live_children() -> list:
    """Pids of this process's children that are still running."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if fields[1] == me and fields[0] != "Z":
            found.append(int(entry))
    return found


def fingerprint(result) -> dict:
    """What must not change: status, bound, refinement log, final scheme."""
    from repro.cegar.speculate import scheme_digest

    log = "\n".join(result.stats.refinement_log).encode("utf-8")
    return {
        "status": result.status.value,
        "bound": result.bound,
        "refinement_log_sha256": hashlib.sha256(log).hexdigest(),
        "scheme_digest": scheme_digest(result.scheme),
    }


def _arg_value(argv: list, flag: str):
    return argv[argv.index(flag) + 1] if flag in argv else None


def main(argv: list) -> int:
    mode, out_path, sep, *verify_args = argv
    if mode not in ("setup", "verify", "trace") or sep != "--":
        raise SystemExit("usage: child.py {setup|verify|trace} OUT -- ARGS")

    import repro.cegar
    import repro.cli

    record: dict = {"mode": mode}
    results: list = []
    tracer = probes = None
    if mode == "trace":
        from repro.obs import Tracer

        from probes import RUN_SPAN, LayerProbes

        tracer = Tracer()
        probes = LayerProbes(tracer)
        probes.install()

    run_compass = repro.cegar.run_compass

    def timed_run_compass(*args, **kwargs):
        record["entry"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone
        if tracer is not None:
            with tracer.span(RUN_SPAN):
                result = run_compass(*args, **kwargs)
        else:
            result = run_compass(*args, **kwargs)
        record["exit"] = time.monotonic()
        results.append(result)
        return result

    repro.cegar.run_compass = timed_run_compass
    try:
        record["exit_code"] = repro.cli.main(["verify", *verify_args])
    except _SetupDone:
        record["exit_code"] = 0
    record["leftover_children"] = _live_children()
    if results:
        result = results[0]
        record["fingerprint"] = fingerprint(result)
        if probes is not None:
            record["layers"] = probes.metrics(
                result, record["exit"] - record["entry"],
                store_dir=_arg_value(verify_args, "--store"))
    with open(out_path, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
