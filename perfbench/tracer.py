"""Outside-in layer tracing for the benchmark's traced pass.

The program's source carries no benchmark spans.  :class:`Tracer` wraps the
public entry points of each layer (``TARGETS``) from the benchmark's own
code, records one span per call in memory, and turns the spans into the
per-layer metrics listed in ``BENCHMARK.json``.

A function is patched where it is defined *and* wherever a module imported
it by name (``repro.experiments.pipeline.extract_faults`` and so on), because
a ``from x import f`` binding does not see a later patch of ``x.f``.  A
target that no longer exists is reported as missing, not fatal, so a change
that deletes a class does not have to edit the benchmark.

Three kinds of target:

``span``
    one span per call: ``{name, start, end, parent, job}``.
``leaf``
    high-frequency calls that never call another target (the per-fault
    detection words of the switch-level simulator); timed and counted, but
    folded into the enclosing span instead of stored one by one.
``gen``
    a generator (``SpatialIndex.candidate_pairs``); only the time spent
    inside ``next()`` is the layer's, the rest belongs to the consumer.

A span's self time is its duration minus the time its direct children
cover.  Calls run on one thread per process, so children nest strictly.

Pool workers inherit the wrappers by ``fork``.  A worker notices the new pid,
drops the state it inherited, and appends its spans and counts to a spool
file when each job returns; :meth:`Tracer.merge_spool` folds the spool into
the parent's totals.

The spans live here rather than in ``repro.obs``: the benchmark has to keep
measuring when a later change reshapes or deletes the program's own
observability code.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: CLOCK_MONOTONIC on Linux: one clock for the parent and its forked
#: workers, so their spans share a time axis.
clock = time.monotonic

Counts = dict[str, int]


def _bridge_and_open_counts(result: Any) -> Counts:
    from repro.defects.fault_types import (
        BridgeFault,
        FloatingNetFault,
        TransistorGateOpen,
        TransistorStuckOpen,
    )

    opens = (FloatingNetFault, TransistorGateOpen, TransistorStuckOpen)
    faults = list(result)
    return {
        "defects.faults": len(faults),
        "defects.bridges": sum(isinstance(f, BridgeFault) for f in faults),
        "defects.opens": sum(isinstance(f, opens) for f in faults),
    }


def _analysis_counts(result: Any) -> Counts:
    out: Counts = {}
    screen = result.untestable
    screened = set(screen.untestable) if screen is not None else set()
    if screen is not None:
        out["analysis.faults_in"] = screen.n_screened
        out["analysis.faults_untestable"] = len(screen.untestable)
    prover = result.prover
    if prover is not None:
        out["analysis.faults_proved"] = len(prover.proved)
        out["analysis.prover_beyond_screen"] = sum(
            f not in screened for f in prover.proved
        )
        out["analysis.prover_attempted"] = prover.n_screened
    return out


def _podem_counts(args: tuple, kwargs: dict, result: Any) -> Counts:
    faults = args[1] if len(args) > 1 else kwargs["faults"]
    return {
        "atpg.podem_targets": len(faults) - len(result.skipped_untestable),
        "atpg.podem_backtracks": result.backtracks,
        "atpg.podem_tests": len(result.tested),
        "atpg.podem_redundant": len(result.redundant),
        "atpg.podem_aborted": len(result.aborted),
    }


@dataclass(frozen=True)
class Target:
    """One wrapped entry point of one layer."""

    layer: str
    module: str
    qualname: str
    kind: str = "span"
    #: ``(args, kwargs, result) -> counts`` added to the tracer's totals.
    count: Callable[[tuple, dict, Any], Counts] | None = None
    #: ``(args, kwargs) -> job id`` for a campaign job: spans opened inside
    #: carry it, and a pool worker spools its spans when the job returns.
    job: Callable[[tuple, dict], str] | None = None

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"


_SIM = "repro.simulation"
TARGETS: tuple[Target, ...] = (
    Target("experiments", "repro.experiments.pipeline", "run_experiment"),
    Target("analysis", "repro.analysis", "analyze_circuit",
           count=lambda a, k, r: _analysis_counts(r)),
    Target("analysis", "repro.analysis.implication", "find_untestable_faults"),
    Target("analysis", "repro.analysis.prover", "RedundancyProver.prove"),
    Target("atpg", "repro.atpg.random_atpg", "generate_random_tests",
           count=lambda a, k, r: {
               "atpg.random_patterns": len(r.test_set),
               "atpg.random_residue": len(r.undetected),
           }),
    Target("atpg", "repro.atpg.podem", "generate_deterministic_tests",
           count=_podem_counts),
    Target("simulation", f"{_SIM}.fault_sim", "FaultSimulator.run"),
    Target("simulation", f"{_SIM}.fault_sim", "FaultSimulator.run_packed"),
    Target("simulation", f"{_SIM}.fault_sim", "FaultSimulator.detection_word",
           kind="leaf"),
    Target("simulation", f"{_SIM}.fault_sim",
           "FaultSimulator.detection_word_multi", kind="leaf"),
    Target("simulation", f"{_SIM}.fault_sim", "FaultSimulator.po_diff_words",
           kind="leaf"),
    Target("simulation", f"{_SIM}.numpy_sim", "NumpyFaultSimulator.run"),
    Target("simulation", f"{_SIM}.numpy_sim", "NumpyFaultSimulator.run_packed"),
    Target("simulation", f"{_SIM}.parallel", "ParallelFaultSimulator.run"),
    Target("simulation", f"{_SIM}.transition", "TransitionFaultSimulator.run"),
    Target("layout", "repro.layout.design", "build_layout",
           count=lambda a, k, r: {"layout.shapes": len(r.shapes)}),
    Target("layout", "repro.layout.spatial", "SpatialIndex.__init__"),
    Target("layout", "repro.layout.spatial", "SpatialIndex.candidate_pairs",
           kind="gen"),
    Target("defects", "repro.defects.extraction", "extract_faults",
           count=lambda a, k, r: _bridge_and_open_counts(r)),
    Target("switchsim", "repro.switchsim.simulator",
           "SwitchLevelFaultSimulator.__init__"),
    Target("switchsim", "repro.switchsim.simulator",
           "SwitchLevelFaultSimulator.run",
           count=lambda a, k, r: {
               "switchsim.faults": len(r.faults),
               "switchsim.detected_strict": len(r.first_detection),
               "switchsim.detected_iddq": len(r.first_detection_iddq),
           }),
    Target("core", "repro.switchsim.coverage", "build_coverage"),
    Target("core", "repro.core.fitting", "fit_sousa_model"),
    Target("campaign", "repro.campaign.journal", "Journal.append"),
    Target("campaign", "repro.campaign.store", "ResultStore.save"),
    Target("campaign", "repro.campaign.store", "ResultStore.load"),
    # The pool worker's job function: its spans are the jobs' walls, and its
    # return is where a worker flushes the job's spans.
    Target("campaign", "repro.campaign.supervisor", "_run_campaign_job",
           job=lambda a, k: a[0]),
)

LAYERS = (
    "experiments", "analysis", "atpg", "simulation", "layout", "defects",
    "switchsim", "core", "campaign",
)
_SWITCH_RUN = "repro.switchsim.simulator:SwitchLevelFaultSimulator.run"
#: The program's own ``fault_sim.*`` obs counters read into simulation.*.
_OBS_COUNTERS = ("fault_sim.faults_simulated", "fault_sim.patterns_applied")


def patch(module_name: str, qualname: str, make_wrapper: Callable) -> bool:
    """Replace ``module_name.qualname`` with ``make_wrapper(original)``.

    A module-level function is also rebound in every loaded module that
    imported it by name.  Returns False when the target does not exist.
    """
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    *path, attr = qualname.split(".")
    owner: Any = module
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return False
    original = vars(owner)[attr]
    wrapper = make_wrapper(original)
    setattr(owner, attr, wrapper)
    if owner is module:
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if not namespace or other is module:
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    setattr(other, name, wrapper)
    return True


def _obs_counters() -> Counts:
    from repro import obs

    registry = obs.registry()
    if registry is None:
        return {name: 0 for name in _OBS_COUNTERS}
    counters = registry.snapshot()["counters"]
    return {name: counters.get(name, 0) for name in _OBS_COUNTERS}


class Tracer:
    """In-memory span recorder over the ``TARGETS`` of every layer."""

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.main_pid = os.getpid()
        self.missing: list[str] = []
        self._layer_of = {t.key: t.layer for t in TARGETS}
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        #: [name, layer, start, end, parent index, job]
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._covered: list[float] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.job: str | None = None
        self._depth: dict[str, int] = defaultdict(int)
        self._obs_base = _obs_counters()

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Turn on the program's obs counters and wrap every target."""
        from repro import obs

        obs.enable()
        self._obs_base = _obs_counters()
        for target in TARGETS:
            make = {
                "span": self._span_wrapper,
                "leaf": self._leaf_wrapper,
                "gen": self._gen_wrapper,
            }[target.kind]
            if not patch(target.module, target.qualname,
                         functools.partial(make, target)):
                self.missing.append(target.key)

    def _span_wrapper(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = tracer._open(target, args, kwargs)
            try:
                result = fn(*args, **kwargs)
                if target.count is not None:
                    for name, value in target.count(args, kwargs, result).items():
                        tracer.counts[name] += value
                return result
            finally:
                tracer._close(target, index)

        return wrapper

    def _leaf_wrapper(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leaf(target, clock() - start)

        return wrapper

    def _gen_wrapper(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            inner = fn(*args, **kwargs)
            spent = 0.0
            items = 0
            try:
                while True:
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        spent += clock() - start
                        return
                    spent += clock() - start
                    items += 1
                    yield item
            finally:
                # The one generator target: SpatialIndex.candidate_pairs.
                tracer.counts["layout.candidate_pairs"] += items
                tracer._leaf(target, spent)

        return wrapper

    # -- recording ------------------------------------------------------
    def _open(self, target: Target, args: tuple, kwargs: dict) -> int:
        if os.getpid() != self.pid:  # a forked pool worker: start clean
            self._reset()
        if not self._stack and target.job is not None:
            self.job = target.job(args, kwargs)
        self._enter_layer(target)
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(
            [target.qualname, target.layer, clock(), None, parent, self.job]
        )
        self._stack.append(index)
        self._covered.append(0.0)
        return index

    def _close(self, target: Target, index: int) -> None:
        end = clock()
        span = self.spans[index]
        span[3] = end
        self._stack.pop()
        duration = end - span[2]
        self.self_s[target.key] += duration - self._covered.pop()
        self.calls[target.key] += 1
        if self._covered:
            self._covered[-1] += duration
        self._leave_layer(target, duration)
        if (
            not self._stack
            and target.job is not None
            and self.pid != self.main_pid
        ):
            self._flush()

    def _leaf(self, target: Target, duration: float) -> None:
        if os.getpid() != self.pid:
            self._reset()
        self._enter_layer(target)
        self.self_s[target.key] += duration
        self.calls[target.key] += 1
        if self._covered:
            self._covered[-1] += duration
        self._leave_layer(target, duration)

    def _enter_layer(self, target: Target) -> None:
        self._depth[target.layer] += 1
        if target.key == _SWITCH_RUN:
            self._depth["switch_run"] += 1

    def _leave_layer(self, target: Target, duration: float) -> None:
        self._depth[target.layer] -= 1
        if target.key == _SWITCH_RUN:
            self._depth["switch_run"] -= 1
        if self._depth[target.layer] == 0:
            # Outermost call into this layer: a call from another layer.
            self.counts[f"{target.layer}.calls"] += 1
            if target.layer == "simulation" and self._depth["switch_run"]:
                self.counts["switchsim.injections"] += 1
                self.self_s["switchsim.sim_wait"] += duration

    # -- pool workers ---------------------------------------------------
    def _flush(self) -> None:
        """Append this worker's finished job to its spool file, then clear."""
        now = _obs_counters()
        for name, value in now.items():
            self.counts[name] += value - self._obs_base.get(name, 0)
        self._obs_base = now
        record = {
            "pid": self.pid,
            "job": self.job,
            "spans": self.spans,
            "self_s": self.self_s,
            "calls": self.calls,
            "counts": self.counts,
        }
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        path = self.spool_dir / f"worker-{self.pid}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.job = None

    def merge_spool(self) -> list[dict]:
        """Fold every worker's spooled jobs into this process's totals.

        Returns the merged worker spans as :func:`_span_record` records.
        """
        merged: list[dict] = []
        if not self.spool_dir.is_dir():
            return merged
        for path in sorted(self.spool_dir.glob("worker-*.jsonl")):
            base = 0
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                merged.extend(
                    _span_record(span, record["pid"], base, i)
                    for i, span in enumerate(record["spans"])
                )
                base += len(record["spans"])
                for key, value in record["self_s"].items():
                    self.self_s[key] += value
                for key, value in record["calls"].items():
                    self.calls[key] += value
                for key, value in record["counts"].items():
                    self.counts[key] += value
        return merged

    # -- results --------------------------------------------------------
    def own_spans(self) -> list[dict]:
        """This process's closed spans as ``merge_spool`` records."""
        return [
            _span_record(span, self.pid, 0, i)
            for i, span in enumerate(self.spans)
            if span[3] is not None
        ]

    def obs_counts(self) -> Counts:
        """Program obs counters accumulated in this process since install."""
        now = _obs_counters()
        return {name: now[name] - self._obs_base.get(name, 0) for name in now}

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer (every target of the layer summed)."""
        out = {layer: 0.0 for layer in LAYERS}
        for key, seconds in self.self_s.items():
            layer = self._layer_of.get(key)
            if layer is not None:
                out[layer] += seconds
        return out

    def layer_calls(self) -> Counts:
        """Outermost calls into each layer (zero for a bypassed layer)."""
        return {layer: self.counts.get(f"{layer}.calls", 0) for layer in LAYERS}


def _span_record(span: list, pid: int, base: int, index: int) -> dict:
    """``{name, layer, start, end, id, parent, job, pid}``; ids are
    ``"<pid>:<n>"``, numbering the process's spans across its jobs."""
    name, layer, start, end, parent, job = span
    return {
        "name": name,
        "layer": layer,
        "start": start,
        "end": end,
        "id": f"{pid}:{base + index}",
        "parent": None if parent is None else f"{pid}:{base + parent}",
        "job": job,
        "pid": pid,
    }


def layer_metrics(tracer: Tracer, wall_s: float, campaign: dict | None) -> dict:
    """The per-layer metrics of ``BENCHMARK.json``, but for the tracing
    overhead and reconcile ratios, which need the untraced pass and this
    process's own spans.

    ``campaign`` carries the sweep's own report figures (jobs run, cached,
    submitted, retried, quarantined, worker count); None for a workload
    that never starts a campaign, whose ``campaign.*`` metrics read zero.
    """
    s = tracer.self_s
    c = tracer.counts
    obs_counts = {k: c.get(k, 0) for k in _OBS_COUNTERS}
    for name, value in tracer.obs_counts().items():
        obs_counts[name] += value

    def self_of(*qualnames: str) -> float:
        return sum(
            s.get(t.key, 0.0) for t in TARGETS if t.qualname in qualnames
        )

    def calls_of(qualname: str) -> int:
        return sum(
            tracer.calls.get(t.key, 0) for t in TARGETS if t.qualname == qualname
        )

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sim_s = sum(s.get(t.key, 0.0) for t in TARGETS if t.layer == "simulation")
    pairs = c.get("layout.candidate_pairs", 0)
    campaign = campaign or {}
    jobs_run = campaign.get("jobs_run", 0)
    job_walls = campaign.get("job_wall_s", 0.0)
    workers = campaign.get("workers", 0)
    metrics: dict[str, float] = {
        "layout.index_s": self_of(
            "SpatialIndex.__init__", "SpatialIndex.candidate_pairs"
        ),
        "layout.candidate_pairs": pairs,
        "layout.build_s": self_of("build_layout"),
        "layout.shapes": c.get("layout.shapes", 0),
        "defects.extract_s": self_of("extract_faults"),
        "defects.faults": c.get("defects.faults", 0),
        "defects.bridges": c.get("defects.bridges", 0),
        "defects.opens": c.get("defects.opens", 0),
        "defects.bridge_yield_ratio": ratio(c.get("defects.bridges", 0), pairs),
        "switchsim.setup_s": self_of("SwitchLevelFaultSimulator.__init__"),
        "switchsim.run_s": self_of("SwitchLevelFaultSimulator.run"),
        "switchsim.sim_wait_s": s.get("switchsim.sim_wait", 0.0),
        "switchsim.faults": c.get("switchsim.faults", 0),
        "switchsim.injections": c.get("switchsim.injections", 0),
        "switchsim.detected_strict": c.get("switchsim.detected_strict", 0),
        "switchsim.detected_iddq": c.get("switchsim.detected_iddq", 0),
        "simulation.calls": c.get("simulation.calls", 0),
        "simulation.self_s": sim_s,
        "simulation.faults_simulated": obs_counts["fault_sim.faults_simulated"],
        "simulation.patterns_applied": obs_counts["fault_sim.patterns_applied"],
        "analysis.setup_s": self_of("analyze_circuit"),
        "analysis.screen_s": self_of("find_untestable_faults"),
        "analysis.prover_s": self_of("RedundancyProver.prove"),
        "analysis.faults_in": c.get("analysis.faults_in", 0),
        "analysis.faults_untestable": c.get("analysis.faults_untestable", 0),
        "analysis.faults_proved": c.get("analysis.faults_proved", 0),
        "analysis.prover_gain_ratio": ratio(
            c.get("analysis.prover_beyond_screen", 0),
            c.get("analysis.prover_attempted", 0),
        ),
        "atpg.random_s": self_of("generate_random_tests"),
        "atpg.random_patterns": c.get("atpg.random_patterns", 0),
        "atpg.random_residue": c.get("atpg.random_residue", 0),
        "atpg.podem_s": self_of("generate_deterministic_tests"),
        "atpg.podem_targets": c.get("atpg.podem_targets", 0),
        "atpg.podem_backtracks": c.get("atpg.podem_backtracks", 0),
        "atpg.podem_tests": c.get("atpg.podem_tests", 0),
        "atpg.podem_redundant": c.get("atpg.podem_redundant", 0),
        "atpg.podem_aborted": c.get("atpg.podem_aborted", 0),
        "atpg.podem_resolved_ratio": ratio(
            c.get("atpg.podem_tests", 0) + c.get("atpg.podem_redundant", 0),
            c.get("atpg.podem_targets", 0),
        ),
        "core.coverage_s": self_of("build_coverage"),
        "core.fit_s": self_of("fit_sousa_model"),
        "experiments.self_s": self_of("run_experiment"),
        "campaign.jobs_run": jobs_run,
        "campaign.jobs_cached": campaign.get("jobs_cached", 0),
        "campaign.cache_hit_ratio": ratio(
            campaign.get("jobs_cached", 0), campaign.get("jobs_submitted", 0)
        ),
        "campaign.extractions_per_job": ratio(calls_of("extract_faults"), jobs_run),
        "campaign.switchsim_runs_per_job": ratio(
            calls_of("SwitchLevelFaultSimulator.run"), jobs_run
        ),
        "campaign.pool_busy_ratio": ratio(job_walls, wall_s * workers),
        "campaign.journal_appends": calls_of("Journal.append"),
        "campaign.journal_s": self_of("Journal.append"),
        "campaign.store_save_s": self_of("ResultStore.save"),
        "campaign.store_load_s": self_of("ResultStore.load"),
        "campaign.retries": campaign.get("retries", 0),
        "campaign.quarantined": campaign.get("quarantined", 0),
        "obs.traced_wall_s": wall_s,
    }
    return metrics


def chrome_trace(spans: list[dict], host: dict) -> dict:
    """Chrome trace-event JSON (opens in Perfetto) for merged span records."""
    origin = min((sp["start"] for sp in spans), default=0.0)
    events = []
    for sp in spans:
        events.append({
            "name": sp["name"],
            "cat": sp["layer"],
            "ph": "X",
            "ts": (sp["start"] - origin) * 1e6,
            "dur": (sp["end"] - sp["start"]) * 1e6,
            "pid": sp["pid"],
            "tid": sp["pid"],
            "args": {"id": sp["id"], "parent": sp["parent"], "job": sp["job"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": host}
