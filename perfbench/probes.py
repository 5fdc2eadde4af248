"""Per-layer timing probes for the traced benchmark run.

Each probe replaces one public entry point, at the name the CEGAR loop
resolves it through, with a wrapper that opens a span on a
:class:`repro.obs.Tracer` owned by the benchmark.  Nothing under
``src/`` changes: the probes are installed in the benchmark's child
process before the CLI runs.  Self-times come from
:func:`repro.obs.summary_from_events`, the same code that backs
``repro trace summarize``.

Every ``*_s`` metric is a self-time: the time inside that layer's
wrapped calls minus the time inside wrapped calls nested in them.
The exact false-taint validator runs its own BMC on the self-composed
product; engine calls made inside it are not traced separately, so
they count as ``cegar.validate`` and the ``formal.*`` and ``hdl.*``
metrics cover model checking only.  Worker processes (``--speculate``) inherit the wrappers, but their
spans stay in the worker and are not reported.
"""

from __future__ import annotations

import functools
import importlib
import os
from typing import Any, Callable, Dict, Optional, Tuple

#: (module, attribute path, span name): the wrapped entry points.
PROBES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.cli", "_build_core", "cores.build"),
    ("repro.contracts", "make_contract_task", "contracts.task"),
    ("repro.lint", "lint", "lint.entry"),
    ("repro.cegar.loop", "instrument", "taint.instrument"),
    ("repro.cegar.refine", "instrument", "taint.instrument"),
    ("repro.formal.counterexample", "Counterexample.replay", "sim.replay"),
    ("repro.cegar.falsetaint", "ExactValidator.__init__", "cegar.validate"),
    ("repro.cegar.falsetaint", "ExactValidator.is_falsely_tainted",
     "cegar.validate"),
    ("repro.cegar.falsetaint", "FastFalseTaintOracle.__init__", "cegar.oracle"),
    ("repro.cegar.falsetaint", "FastFalseTaintOracle.value_changed",
     "cegar.oracle"),
    ("repro.cegar.falsetaint", "FastFalseTaintOracle.is_falsely_tainted",
     "cegar.oracle"),
    ("repro.cegar.loop", "find_refinement_location", "cegar.backtrace"),
    ("repro.cegar.loop", "apply_refinement", "cegar.refine"),
    ("repro.cegar.speculate", "verify_candidate", "formal.verify"),
    ("repro.cegar.speculate", "bounded_model_check", "formal.bmc"),
    ("repro.formal.unroll", "Unroller.add_frame", "formal.encode"),
    ("repro.formal.bmc", "lower_to_gates", "hdl.lower"),
    ("repro.hdl.lowering", "lower_to_gates", "hdl.lower"),
    ("repro.hdl.optimize", "simplify", "hdl.lower"),
    ("repro.hdl.optimize", "cone_of_influence", "hdl.lower"),
    ("repro.hdl.optimize", "strash", "hdl.lower"),
    ("repro.cegar.speculate", "SpeculativeScheduler.ensure",
     "cegar.speculate.launch"),
    ("repro.cegar.speculate", "SpeculativeScheduler.advance",
     "cegar.speculate.launch"),
    ("repro.cegar.speculate", "SpeculativeScheduler.collect",
     "cegar.speculate.wait"),
    ("repro.cegar.speculate", "SpeculativeScheduler.discard",
     "cegar.speculate.cancel"),
    ("repro.cegar.speculate", "SpeculativeScheduler.close",
     "cegar.speculate.cancel"),
    ("repro.store", "SolveStore.__init__", "store.open"),
    ("repro.store", "SolveStore.close", "store.close"),
)

#: The span of the exact false-taint validator.
VALIDATOR_SPAN = "cegar.validate"

#: Engine spans the validator also reaches.  Inside a validator span
#: these calls run untraced, so their time is the validator's.
ENGINE_SPANS = ("formal.encode", "formal.sat.solve", "hdl.lower")

#: Spans that run before ``run_compass`` is entered (set-up, not verdict).
SETUP_SPANS = ("cores.build", "contracts.task")

#: The span the benchmark opens around ``run_compass`` itself.
RUN_SPAN = "cegar.run"

#: Every metric a traced run reports, in report order, with its unit.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("cores.build_s", "s"),
    ("contracts.task_s", "s"),
    ("lint.entry_s", "s"),
    ("taint.instrument_s", "s"),
    ("taint.instrument_calls", "count"),
    ("taint.final_cells", "count"),
    ("sim.prefilter_s", "s"),
    ("sim.prefilter_calls", "count"),
    ("sim.trials", "count"),
    ("sim.steps", "count"),
    ("sim.steps_per_s", "1/s"),
    ("sim.prefilter_hits", "count"),
    ("sim.prefilter_hit_ratio", "ratio"),
    ("sim.replay_s", "s"),
    ("sim.replay_calls", "count"),
    ("cegar.validate_s", "s"),
    ("cegar.oracle_s", "s"),
    ("cegar.backtrace_s", "s"),
    ("cegar.refine_s", "s"),
    ("cegar.refinements", "count"),
    ("cegar.counterexamples", "count"),
    ("cegar.unattributed_s", "s"),
    ("formal.verify_s", "s"),
    ("formal.calls", "count"),
    ("formal.bmc_s", "s"),
    ("formal.encode_s", "s"),
    ("hdl.lower_s", "s"),
    ("formal.sat.solve_s", "s"),
    ("formal.sat.solves", "count"),
    ("formal.sat.conflicts", "count"),
    ("formal.sat.propagations", "count"),
    ("formal.sat.props_per_s", "1/s"),
    ("formal.sat.budget_outs", "count"),
    ("formal.cache.hits", "count"),
    ("formal.cache.misses", "count"),
    ("formal.cache.hit_ratio", "ratio"),
    ("cegar.speculate.launch_s", "s"),
    ("cegar.speculate.wait_s", "s"),
    ("cegar.speculate.cancel_s", "s"),
    ("cegar.speculate.submitted", "count"),
    ("cegar.speculate.hits", "count"),
    ("cegar.speculate.cancelled", "count"),
    ("cegar.speculate.crashes", "count"),
    ("cegar.speculate.useful_ratio", "ratio"),
    ("store.open_s", "s"),
    ("store.close_s", "s"),
    ("store.appended", "count"),
    ("store.bytes", "bytes"),
    ("cegar.checkpoint.append_s", "s"),
    ("cegar.checkpoint.writes", "count"),
    ("cegar.checkpoint.bytes", "bytes"),
    ("obs.traced_verdict_s", "s"),
    ("obs.overhead_ratio", "ratio"),
)

#: Counts that must repeat exactly between two traced runs of one
#: workload (the SAT ones only where the sequential engine solves).
EXACT_COUNTS = ("cegar.refinements", "cegar.counterexamples",
                "taint.final_cells", "sim.trials", "sim.steps")
EXACT_SAT_COUNTS = ("formal.sat.solves", "formal.sat.conflicts",
                    "formal.sat.propagations", "formal.sat.budget_outs")


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class LayerProbes:
    """Installs the wrappers and turns the recorded spans into metrics."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        #: Depth of open validator spans (the CEGAR loop is one thread).
        self.validating = 0

    # -- installation ----------------------------------------------------
    def wrap(self, module: str, path: str, span: str,
             after: Optional[Callable[[Any], None]] = None) -> None:
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        tracer = self.tracer

        engine = span in ENGINE_SPANS
        validator = span == VALIDATOR_SPAN

        @functools.wraps(original)
        def probe(*args, **kwargs):
            if engine and self.validating:
                return original(*args, **kwargs)
            self.validating += validator
            try:
                with tracer.span(span):
                    result = original(*args, **kwargs)
            finally:
                self.validating -= validator
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, probe)

    def install(self) -> None:
        for module, path, span in PROBES:
            self.wrap(module, path, span)
        self.wrap("repro.formal.sat.solver", "Solver.solve",
                  "formal.sat.solve", after=self._count_solve)
        self.wrap("repro.cegar.checkpoint", "CheckpointJournal.append",
                  "cegar.checkpoint.append", after=self._count_checkpoint)
        self._install_prefilter()

    def _count_solve(self, result) -> None:
        from repro.formal.sat.solver import SolveStatus

        self.tracer.count("formal.sat.conflicts", result.conflicts)
        self.tracer.count("formal.sat.propagations", result.propagations)
        if result.status is SolveStatus.UNKNOWN:
            self.tracer.count("formal.sat.budget_outs")

    def _count_checkpoint(self, path) -> None:
        self.tracer.count("cegar.checkpoint.bytes", os.path.getsize(path))

    def _install_prefilter(self) -> None:
        """The prefilter probe also counts the Simulators it builds.

        ``simulate_for_counterexample`` imports ``Simulator`` when it
        is called, so a counting subclass swapped in for the duration
        of the call sees exactly the prefilter's trials and steps.
        """
        import repro.sim.simulator as simulator_module

        tracer = self.tracer
        base = simulator_module.Simulator
        tally = {"trials": 0, "steps": 0}

        class CountingSimulator(base):
            def __init__(self, *args, **kwargs):
                tally["trials"] += 1
                super().__init__(*args, **kwargs)

            def step(self, *args, **kwargs):
                tally["steps"] += 1
                return super().step(*args, **kwargs)

        def after(cex) -> None:
            tracer.count("sim.trials", tally["trials"])
            tracer.count("sim.steps", tally["steps"])
            tally["trials"] = tally["steps"] = 0
            if cex is not None:
                tracer.count("sim.prefilter_hits")

        owner, attr = _resolve("repro.cegar.loop", "simulate_for_counterexample")
        original = getattr(owner, attr)

        @functools.wraps(original)
        def prefilter(*args, **kwargs):
            simulator_module.Simulator = CountingSimulator
            try:
                with tracer.span("sim.prefilter"):
                    result = original(*args, **kwargs)
            finally:
                simulator_module.Simulator = base
            after(result)
            return result

        setattr(owner, attr, prefilter)

    # -- metrics -----------------------------------------------------------
    def metrics(self, result, verdict_s: float,
                store_dir: Optional[str] = None) -> Dict[str, float]:
        """Per-layer metrics of one traced run (0 where a layer is idle).

        ``obs.overhead_ratio`` needs an untraced run and is filled in
        by the caller.
        """
        from repro.hdl.stats import cell_count
        from repro.obs import summary_from_events

        summary = summary_from_events(self.tracer.snapshot_events())
        calls: Dict[str, int] = {}
        self_s: Dict[str, float] = {}
        for name, count, _total, self_time in summary.by_name():
            calls[name] = count
            self_s[name] = self_time
        counters = summary.counters
        stats = result.stats

        def s(span: str) -> float:
            return self_s.get(span, 0.0)

        def c(counter: str) -> float:
            return counters.get(counter, 0)

        inner = sum(t for name, t in self_s.items()
                    if name not in SETUP_SPANS and name != RUN_SPAN)
        cache = stats.cache
        hits = cache.hits if cache is not None else 0
        misses = cache.misses if cache is not None else 0
        prefilter_calls = calls.get("sim.prefilter", 0)
        return {
            "cores.build_s": s("cores.build"),
            "contracts.task_s": s("contracts.task"),
            "lint.entry_s": s("lint.entry"),
            "taint.instrument_s": s("taint.instrument"),
            "taint.instrument_calls": calls.get("taint.instrument", 0),
            "taint.final_cells": cell_count(result.design.circuit),
            "sim.prefilter_s": s("sim.prefilter"),
            "sim.prefilter_calls": prefilter_calls,
            "sim.trials": c("sim.trials"),
            "sim.steps": c("sim.steps"),
            "sim.steps_per_s": _ratio(c("sim.steps"), s("sim.prefilter")),
            "sim.prefilter_hits": c("sim.prefilter_hits"),
            "sim.prefilter_hit_ratio": _ratio(c("sim.prefilter_hits"),
                                              prefilter_calls),
            "sim.replay_s": s("sim.replay"),
            "sim.replay_calls": calls.get("sim.replay", 0),
            "cegar.validate_s": s("cegar.validate"),
            "cegar.oracle_s": s("cegar.oracle"),
            "cegar.backtrace_s": s("cegar.backtrace"),
            "cegar.refine_s": s("cegar.refine"),
            "cegar.refinements": stats.refinements,
            "cegar.counterexamples": stats.counterexamples_eliminated,
            "cegar.unattributed_s": verdict_s - inner,
            "formal.verify_s": s("formal.verify"),
            "formal.calls": calls.get("formal.verify", 0),
            "formal.bmc_s": s("formal.bmc"),
            "formal.encode_s": s("formal.encode"),
            "hdl.lower_s": s("hdl.lower"),
            "formal.sat.solve_s": s("formal.sat.solve"),
            "formal.sat.solves": calls.get("formal.sat.solve", 0),
            "formal.sat.conflicts": c("formal.sat.conflicts"),
            "formal.sat.propagations": c("formal.sat.propagations"),
            "formal.sat.props_per_s": _ratio(c("formal.sat.propagations"),
                                             s("formal.sat.solve")),
            "formal.sat.budget_outs": c("formal.sat.budget_outs"),
            "formal.cache.hits": hits,
            "formal.cache.misses": misses,
            "formal.cache.hit_ratio": _ratio(hits, hits + misses),
            "cegar.speculate.launch_s": s("cegar.speculate.launch"),
            "cegar.speculate.wait_s": s("cegar.speculate.wait"),
            "cegar.speculate.cancel_s": s("cegar.speculate.cancel"),
            "cegar.speculate.submitted": stats.spec_submitted,
            "cegar.speculate.hits": stats.spec_hits,
            "cegar.speculate.cancelled": stats.spec_cancelled,
            "cegar.speculate.crashes": stats.spec_crashes,
            "cegar.speculate.useful_ratio": _ratio(stats.spec_hits,
                                                   stats.spec_submitted),
            "store.open_s": s("store.open"),
            "store.close_s": s("store.close"),
            "store.appended": (stats.store.appended
                               if stats.store is not None else 0),
            "store.bytes": _tree_bytes(store_dir),
            "cegar.checkpoint.append_s": s("cegar.checkpoint.append"),
            "cegar.checkpoint.writes": calls.get("cegar.checkpoint.append", 0),
            "cegar.checkpoint.bytes": c("cegar.checkpoint.bytes"),
            "obs.traced_verdict_s": verdict_s,
            "obs.overhead_ratio": 0.0,
        }


def _tree_bytes(path: Optional[str]) -> int:
    """Total size of the regular files under ``path`` (0 when unset)."""
    if not path:
        return 0
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total
