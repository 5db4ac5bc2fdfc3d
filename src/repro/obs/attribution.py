"""Cost attribution: where the simulation kernel actually spends its work.

Wall-clock profiles (:mod:`repro.obs.trace`) say *which stage* is slow; this
module says *why* — how many gate evaluations the fault-simulation kernel
executed, over which cone sizes, how many packed-pattern words moved, how
fast the fault list drained per pattern block, and (opt-in) how much memory
each pipeline stage peaked at.  It exists to aim the numpy re-platforming of
the inner loop (see ROADMAP: *native-speed kernel*): optimisation follows
measurement, and these counters are the measurement.

Design rules, shared with the rest of :mod:`repro.obs`:

* **stdlib-only** — no third-party imports;
* **off by default, zero overhead when off** — instrumented code fetches the
  collector once per run (one module-global read) and skips all accounting
  when it is ``None``;
* **cheap when on** — the kernel hooks are O(1) per pattern group plus O(1)
  per dropped fault (running bucket sums, never a per-fault-per-group
  branch), so enabling attribution costs under 2 % of kernel wall time
  (guarded by ``benchmarks/test_perf_attribution.py``).

Everything is stored as a flat ``dotted-key -> int`` counter map plus two
small non-counter maps: per-stage wall seconds and per-stage
``tracemalloc`` peaks (kept as the max seen).

Key families:

``stage.<component>.<quantity>``
    Kernel work counters — ``stage.fault_sim.gate_evals`` (faulty-machine
    gate evaluations), ``.good_gate_evals`` (fault-free passes),
    ``.words_simulated`` (packed words written through gate ops),
    ``.pattern_blocks`` / ``.pattern_bytes`` (packed groups processed and
    their input-word footprint).
``cone.<bucket>.<quantity>``
    The same gate-eval mass, bucketed by compiled cone size
    (``cone.le_0016.gate_evals``, ``cone.le_0016.faults``) — the histogram
    that says whether time goes to many small cones or few huge ones.
``block.<index>.faults_dropped``
    Faults dropped per packed pattern block: the drain curve of the active
    fault list, i.e. how quickly fault dropping pays off.

Per-run totals are *work-additive*: they count the work actually executed,
so simulating the same fault-free machine twice shows up twice, which is
exactly what a cost model needs.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from bisect import bisect_left

__all__ = [
    "AttributionCollector",
    "CONE_BUCKET_EDGES",
    "N_CONE_BUCKETS",
    "cone_bucket_index",
    "cone_bucket_label",
    "enable",
    "disable",
    "is_enabled",
    "collector",
    "stage",
]

#: Upper (inclusive) cone-size edge of each bucket; one overflow bucket past
#: the last edge.  Log-spaced: cone sizes spread over orders of magnitude.
CONE_BUCKET_EDGES: tuple[int, ...] = (4, 8, 16, 32, 64, 128, 256, 512, 1024)

N_CONE_BUCKETS = len(CONE_BUCKET_EDGES) + 1

_BUCKET_LABELS: tuple[str, ...] = tuple(
    f"le_{edge:04d}" for edge in CONE_BUCKET_EDGES
) + (f"gt_{CONE_BUCKET_EDGES[-1]:04d}",)


def cone_bucket_index(size: int) -> int:
    """Bucket index of a compiled cone of ``size`` gates."""
    return bisect_left(CONE_BUCKET_EDGES, size)


def cone_bucket_label(index: int) -> str:
    """Human/manifest label of a cone bucket (``le_0016`` / ``gt_1024``)."""
    return _BUCKET_LABELS[index]


class AttributionCollector:
    """Thread-safe accumulator of attribution counters for one run.

    ``memory=True`` additionally records the ``tracemalloc`` peak of every
    :func:`stage` block — genuinely costly (tracemalloc slows allocation),
    hence its own opt-in on top of attribution itself.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._stage_wall: dict[str, float] = {}
        self._memory_peaks: dict[str, int] = {}

    # -- recording ----------------------------------------------------------
    def add(self, key: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter at ``key`` (created on first use)."""
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + amount

    def record_stage_wall(self, stage_name: str, seconds: float) -> None:
        """Accumulate wall seconds attributed to ``stage_name``."""
        with self._lock:
            self._stage_wall[stage_name] = (
                self._stage_wall.get(stage_name, 0.0) + seconds
            )

    def record_memory_peak(self, stage_name: str, peak_bytes: int) -> None:
        """Record a stage's traced-memory peak (kept as the max seen)."""
        with self._lock:
            previous = self._memory_peaks.get(stage_name, 0)
            if peak_bytes > previous:
                self._memory_peaks[stage_name] = peak_bytes

    # -- queries ------------------------------------------------------------
    def counter_values(self) -> dict[str, int]:
        """Point-in-time copy of every flat counter."""
        with self._lock:
            return dict(self._counts)

    def stage_wall_seconds(self) -> dict[str, float]:
        """stage -> attributed wall seconds (a copy)."""
        with self._lock:
            return dict(self._stage_wall)

    def snapshot(self) -> dict[str, object]:
        """JSON-able nested view: stages, cone buckets, blocks, wall, memory."""
        with self._lock:
            counts = dict(self._counts)
            stage_wall = dict(self._stage_wall)
            memory_peaks = dict(self._memory_peaks)
        stages: dict[str, dict[str, int]] = {}
        cones: dict[str, dict[str, int]] = {}
        blocks: dict[str, int] = {}
        for key, value in sorted(counts.items()):
            parts = key.split(".")
            if key.startswith("stage.") and len(parts) == 3:
                stages.setdefault(parts[1], {})[parts[2]] = value
            elif key.startswith("cone.") and len(parts) == 3:
                cones.setdefault(parts[1], {})[parts[2]] = value
            elif key.startswith("block.") and len(parts) == 3:
                blocks[parts[1]] = value
            else:
                stages.setdefault("other", {})[key] = value
        out: dict[str, object] = {
            "stages": stages,
            "cone_buckets": cones,
            "drops_per_block": blocks,
            "stage_wall_s": {
                name: round(seconds, 6)
                for name, seconds in sorted(stage_wall.items())
            },
        }
        if memory_peaks:
            out["memory_peak_bytes"] = dict(sorted(memory_peaks.items()))
        return out

    def reconcile(self, pipeline_wall_s: float) -> dict[str, object]:
        """Compare attributed stage wall time against the pipeline span wall.

        The attribution layer times stages with its own clock, independent of
        the span collector; this reconciliation is the cross-check that the
        two measurement paths agree — ``coverage`` is the fraction of the
        pipeline's span-measured wall that stage attribution accounts for
        (the acceptance bar is >= 0.9, i.e. within 10 %).
        """
        attributed = sum(self.stage_wall_seconds().values())
        coverage = (
            attributed / pipeline_wall_s if pipeline_wall_s > 0 else 0.0
        )
        return {
            "pipeline_wall_s": round(pipeline_wall_s, 6),
            "attributed_wall_s": round(attributed, 6),
            "unattributed_wall_s": round(
                max(0.0, pipeline_wall_s - attributed), 6
            ),
            "coverage": round(coverage, 6),
        }


# ---------------------------------------------------------------------------
# Module state (mirrors repro.obs: one global, no-op when absent)
# ---------------------------------------------------------------------------
_collector: AttributionCollector | None = None
_owns_tracemalloc = False


def enable(memory: bool = False) -> AttributionCollector:
    """Install a fresh collector; ``memory=True`` also traces stage peaks."""
    global _collector, _owns_tracemalloc
    _collector = AttributionCollector(memory=memory)
    if memory and not tracemalloc.is_tracing():
        tracemalloc.start()
        _owns_tracemalloc = True
    return _collector


def disable() -> None:
    """Return to the zero-overhead no-op state."""
    global _collector, _owns_tracemalloc
    if _owns_tracemalloc and tracemalloc.is_tracing():
        tracemalloc.stop()
    _owns_tracemalloc = False
    _collector = None


def is_enabled() -> bool:
    """True while a collector is installed."""
    return _collector is not None


def collector() -> AttributionCollector | None:
    """The active collector, or None when attribution is disabled.

    Kernel hooks call this once per run and skip all accounting on None —
    the disabled path costs one module-global read.
    """
    return _collector


class _StageTimer:
    """Context manager attributing one stage's wall time (and memory peak)."""

    __slots__ = ("_name", "_collector", "_t0", "_trace")

    def __init__(self, name: str, active: AttributionCollector | None):
        self._name = name
        self._collector = active
        self._t0 = 0.0
        self._trace = False

    def __enter__(self) -> "_StageTimer":
        if self._collector is not None:
            self._trace = self._collector.memory and tracemalloc.is_tracing()
            if self._trace:
                tracemalloc.reset_peak()
            self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        if self._collector is not None:
            self._collector.record_stage_wall(
                self._name, time.perf_counter() - self._t0
            )
            if self._trace:
                _, peak = tracemalloc.get_traced_memory()
                self._collector.record_memory_peak(self._name, peak)
        return False


def stage(name: str) -> _StageTimer:
    """Attribute the wrapped block's wall time to ``name``.

    No-op (beyond one global read) while attribution is disabled.  With
    ``enable(memory=True)`` the block's ``tracemalloc`` peak is recorded
    too.  Stages are expected to run sequentially (the pipeline's do);
    nested use double-attributes wall time by design — same as nested spans.
    """
    return _StageTimer(name, _collector)
