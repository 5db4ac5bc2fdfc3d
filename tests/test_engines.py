"""The numpy bitslice engine against the python reference engine.

* preflight — the kernel's bit-layout probes pass on this platform, run
  once per process, and fail closed with a ``RuntimeError`` naming the
  failed probe;
* equivalence — a hypothesis property asserts identical
  ``FaultSimResult`` contents (first detections, detection counts,
  coverage curves) across benchmarks, word widths and both drop modes,
  with the python :class:`FaultSimulator` as the oracle;
* attribution — the numpy kernel feeds the same counters work-additively
  (bucket totals reconcile with the stage total) and enabling attribution
  never changes results.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.iscas import load_benchmark
from repro.obs import attribution
from repro.simulation import (
    FaultSimulator,
    NumpyFaultSimulator,
    collapse_faults,
    numpy_sim,
)
from repro.simulation.numpy_sim import check_bitslice_layout


@pytest.fixture(autouse=True)
def _clean_state():
    attribution.disable()
    yield
    attribution.disable()


def _patterns(circuit, n, seed=7):
    rng = random.Random(seed)
    n_pi = len(circuit.primary_inputs)
    return [[rng.randint(0, 1) for _ in range(n_pi)] for _ in range(n)]


def _assert_identical(result, reference):
    assert result.faults == reference.faults
    assert result.n_patterns == reference.n_patterns
    assert result.first_detection == reference.first_detection
    assert result.detection_counts == reference.detection_counts
    assert result.coverage_curve() == reference.coverage_curve()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
# ---------------------------------------------------------------------------
# Bit-layout preflight
# ---------------------------------------------------------------------------
def test_preflight_passes_and_is_cached():
    check_bitslice_layout()
    assert numpy_sim._layout_checked is True
    check_bitslice_layout()  # cached: a second call is a no-op


@pytest.mark.parametrize(
    "probe, message",
    [
        (lambda: False, "probe failed: forced by test"),
        (lambda: 1 // 0, "'forced by test' raised ZeroDivisionError"),
    ],
    ids=["false", "raises"],
)
def test_numpy_simulator_fails_closed_when_preflight_fails(
    monkeypatch, probe, message
):
    monkeypatch.setattr(numpy_sim, "_layout_checked", False)
    monkeypatch.setattr(
        numpy_sim,
        "_LAYOUT_PROBES",
        numpy_sim._LAYOUT_PROBES + (("forced by test", probe),),
    )
    ckt = load_benchmark("c17")
    with pytest.raises(RuntimeError, match=message):
        NumpyFaultSimulator(ckt)
    # A failed probe is never cached as a pass.
    assert numpy_sim._layout_checked is False


def test_numpy_engine_validates_width():
    ckt = load_benchmark("c17")
    with pytest.raises(ValueError):
        NumpyFaultSimulator(ckt, width=100)
    with pytest.raises(ValueError):
        NumpyFaultSimulator(ckt, width=0)


# ---------------------------------------------------------------------------
# Cross-engine equivalence
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("bench", ["c17", "c432_like", "c880_like"])
@pytest.mark.parametrize("drop", [False, True])
def test_numpy_matches_python_on_benchmarks(bench, drop):
    ckt = load_benchmark(bench)
    faults = collapse_faults(ckt)
    patterns = _patterns(ckt, 130, seed=11)
    # Same width for both engines: with fault dropping the detection
    # counts are defined per detection *group*, so group boundaries are
    # part of the contract.
    reference = FaultSimulator(ckt, width=128).run(
        patterns, faults=faults, drop_detected=drop
    )
    result = NumpyFaultSimulator(ckt, width=128, lane_batch=13).run(
        patterns, faults=faults, drop_detected=drop
    )
    _assert_identical(result, reference)


@settings(max_examples=20, deadline=None)
@given(
    bench=st.sampled_from(["c17", "c432_like"]),
    width_words=st.integers(min_value=1, max_value=4),
    n_patterns=st.integers(min_value=1, max_value=200),
    drop=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_cross_engine_equivalence_property(
    bench, width_words, n_patterns, drop, seed
):
    ckt = load_benchmark(bench)
    faults = collapse_faults(ckt)
    patterns = _patterns(ckt, n_patterns, seed=seed)
    width = 64 * width_words
    reference = FaultSimulator(ckt, width=width).run(
        patterns, faults=faults, drop_detected=drop
    )
    result = NumpyFaultSimulator(ckt, width=width, lane_batch=7).run(
        patterns, faults=faults, drop_detected=drop
    )
    _assert_identical(result, reference)


# ---------------------------------------------------------------------------
# Attribution through the numpy kernel
# ---------------------------------------------------------------------------
def test_numpy_attribution_counters_reconcile_and_stay_neutral():
    ckt = load_benchmark("c432_like")
    faults = collapse_faults(ckt)
    patterns = _patterns(ckt, 96, seed=13)
    sim = NumpyFaultSimulator(ckt, width=64, lane_batch=16)
    bare = sim.run(patterns, faults=faults)
    attribution.enable()
    attributed = sim.run(patterns, faults=faults)
    snap = attribution.collector().snapshot()
    attribution.disable()
    # Neutrality: the counters never change the simulation.
    _assert_identical(attributed, bare)
    stage = snap["stages"]["fault_sim"]
    assert stage["gate_evals"] > 0
    assert stage["good_gate_evals"] > 0
    assert stage["pattern_blocks"] == -(-96 // 64)
    # Work-additivity: cone-bucket totals are the same work re-binned.
    cones = snap["cone_buckets"]
    assert sum(b["gate_evals"] for b in cones.values()) == stage["gate_evals"]
    assert sum(b["faults"] for b in cones.values()) == len(faults)
