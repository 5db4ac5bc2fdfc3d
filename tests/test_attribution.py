"""Cost attribution: kernel counters, stage timers and reconcile.

The attribution layer's acceptance properties:

* exactness — with fault dropping disabled, gate-evals equal
  ``n_groups x sum(cone sizes)`` and every internal total reconciles
  (cone buckets sum to the stage total, block drops sum to the dropped
  count);
* neutrality — enabling attribution never changes simulation results;
* isolation — disabled means no collector, no counters, no tracemalloc.
"""

import random

import pytest

from repro.obs import attribution
from repro.simulation import FaultSimulator, collapse_faults


@pytest.fixture(autouse=True)
def _clean_attribution():
    attribution.disable()
    yield
    attribution.disable()


def _patterns(circuit, n, seed=7):
    rng = random.Random(seed)
    n_pi = len(circuit.primary_inputs)
    return [[rng.randint(0, 1) for _ in range(n_pi)] for _ in range(n)]


# ---------------------------------------------------------------------------
# Cone buckets
# ---------------------------------------------------------------------------
def test_cone_bucket_index_and_labels():
    assert attribution.cone_bucket_index(1) == 0
    assert attribution.cone_bucket_index(4) == 0
    assert attribution.cone_bucket_index(5) == 1
    assert (
        attribution.cone_bucket_index(1024)
        == len(attribution.CONE_BUCKET_EDGES) - 1
    )  # last bounded bucket (le_1024)
    assert (
        attribution.cone_bucket_index(1025)
        == attribution.N_CONE_BUCKETS - 1
    )
    assert attribution.cone_bucket_label(0) == "le_0004"
    assert (
        attribution.cone_bucket_label(attribution.N_CONE_BUCKETS - 1)
        == "gt_1024"
    )
    # Labels are unique and sorted lexicographically == sorted by size,
    # so dashboards can sort on the string.
    labels = [
        attribution.cone_bucket_label(i)
        for i in range(attribution.N_CONE_BUCKETS)
    ]
    assert len(set(labels)) == attribution.N_CONE_BUCKETS


# ---------------------------------------------------------------------------
# Collector basics
# ---------------------------------------------------------------------------
def test_enable_disable_lifecycle():
    assert attribution.collector() is None
    assert not attribution.is_enabled()
    attribution.enable()
    assert attribution.is_enabled()
    assert attribution.collector() is not None
    attribution.disable()
    assert attribution.collector() is None


def test_snapshot_parses_dotted_keys():
    collector = attribution.AttributionCollector()
    collector.add("stage.fault_sim.gate_evals", 100)
    collector.add("stage.fault_sim.gate_evals", 20)
    collector.add("cone.le_0004.faults", 3)
    collector.add("cone.le_0004.gate_evals", 12)
    collector.add("block.0002.faults_dropped", 5)
    collector.add("oddball", 1)
    collector.record_stage_wall("atpg", 0.25)
    collector.record_stage_wall("atpg", 0.25)
    snap = collector.snapshot()
    assert snap["stages"]["fault_sim"]["gate_evals"] == 120
    assert snap["cone_buckets"]["le_0004"] == {
        "faults": 3,
        "gate_evals": 12,
    }
    assert snap["drops_per_block"] == {"0002": 5}
    assert snap["stages"]["other"]["oddball"] == 1
    assert snap["stage_wall_s"]["atpg"] == pytest.approx(0.5)


def test_reconcile_coverage():
    collector = attribution.AttributionCollector()
    collector.record_stage_wall("a", 0.6)
    collector.record_stage_wall("b", 0.3)
    rec = collector.reconcile(1.0)
    assert rec["attributed_wall_s"] == pytest.approx(0.9)
    assert rec["unattributed_wall_s"] == pytest.approx(0.1)
    assert rec["coverage"] == pytest.approx(0.9)


def test_stage_timer_noop_when_disabled():
    with attribution.stage("anything"):
        pass
    assert attribution.collector() is None


# ---------------------------------------------------------------------------
# Kernel accounting invariants
# ---------------------------------------------------------------------------
def _run_attributed(circuit, patterns, faults, drop_detected=True, width=64):
    attribution.enable()
    result = FaultSimulator(circuit, width=width).run(
        patterns, faults=faults, drop_detected=drop_detected
    )
    collector = attribution.collector()
    values = collector.counter_values()
    snap = collector.snapshot()
    attribution.disable()
    return result, values, snap


def test_no_drop_gate_evals_are_exact(c17_circuit):
    # Without fault dropping every fault runs every group, so gate-evals
    # are exactly n_groups x total cone size.
    width = 16
    patterns = _patterns(c17_circuit, 40)
    faults = collapse_faults(c17_circuit)
    sim = FaultSimulator(c17_circuit, width=width)
    cone_sizes = [sim._program(f).size for f in faults]
    n_groups = -(-len(patterns) // width)

    _, values, snap = _run_attributed(
        c17_circuit, patterns, faults, drop_detected=False, width=width
    )
    assert values["stage.fault_sim.gate_evals"] == n_groups * sum(cone_sizes)
    assert values["stage.fault_sim.good_gate_evals"] == n_groups * len(
        sim.logic.order
    )
    assert values["stage.fault_sim.pattern_blocks"] == n_groups
    # No drops recorded when nothing drops.
    assert snap["drops_per_block"] == {}


def test_cone_buckets_partition_the_totals(c17_circuit):
    patterns = _patterns(c17_circuit, 60)
    faults = collapse_faults(c17_circuit)
    result, values, snap = _run_attributed(c17_circuit, patterns, faults)
    buckets = snap["cone_buckets"]
    assert sum(b["faults"] for b in buckets.values()) == len(faults)
    assert (
        sum(b["gate_evals"] for b in buckets.values())
        == values["stage.fault_sim.gate_evals"]
    )
    # Every drop is charged to exactly one pattern block.
    assert sum(snap["drops_per_block"].values()) == len(
        result.first_detection
    )


def test_attribution_does_not_change_results(c17_circuit):
    patterns = _patterns(c17_circuit, 60)
    faults = collapse_faults(c17_circuit)
    baseline = FaultSimulator(c17_circuit, width=64).run(
        patterns, faults=faults
    )
    attributed, _, _ = _run_attributed(c17_circuit, patterns, faults)
    assert attributed.first_detection == baseline.first_detection
    assert attributed.detection_counts == baseline.detection_counts


def test_disabled_runs_record_nothing(c17_circuit):
    patterns = _patterns(c17_circuit, 20)
    FaultSimulator(c17_circuit, width=64).run(patterns)
    assert attribution.collector() is None


def test_memory_peaks_recorded_when_enabled():
    attribution.enable(memory=True)
    with attribution.stage("allocating"):
        blob = [0] * 200_000
        assert len(blob) == 200_000
        del blob
    snap = attribution.collector().snapshot()
    attribution.disable()
    peaks = snap.get("memory_peak_bytes", {})
    assert "allocating" in peaks
    assert peaks["allocating"] > 100_000
