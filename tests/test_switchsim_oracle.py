"""The lane-based switch-level simulator against the per-fault oracle.

``switchsim_oracle`` keeps the switch-level simulator that walked the faults
one at a time on the python wide-word engine, with ``detection_word_multi``
for multi-pin force sets.  The three-pass simulator (numpy injection masks,
one numpy-engine lane per distinct force set, vectorised resolution) must
reproduce it exactly: the same strict, potential and IDDQ first detections
for every fault, and the same peak currents down to the last bit.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import random_patterns
from repro.circuit import BENCHMARKS
from repro.defects import extract_faults
from repro.layout import build_layout
from repro.simulation.faults import FaultSite, StuckAtFault, full_fault_universe
from repro.simulation.logic_sim import pack_patterns
from repro.simulation.numpy_sim import NumpyFaultSimulator
from repro.switchsim import SwitchLevelFaultSimulator
from switchsim_oracle import OracleFaultSimulator, OracleSwitchLevelFaultSimulator

#: Every built-in circuit below c432; c432 and c880 are covered by
#: ``benchmarks/test_perf_switchsim.py``.
_CIRCUITS = ("c17", "rca8", "rca16", "par16", "mux8", "dec4", "alu4", "mul4")
_cases: dict = {}


def _case(name: str):
    """``name``'s layout and extracted fault list, built once per session."""
    if name not in _cases:
        design = build_layout(BENCHMARKS[name]())
        _cases[name] = (design, extract_faults(design).faults)
    return _cases[name]


def _outcome(result) -> list:
    index = {id(fault): i for i, fault in enumerate(result.faults)}
    return [
        sorted((index[key], value) for key, value in detections.items())
        for detections in (
            result.first_detection,
            result.first_detection_potential,
            result.first_detection_iddq,
        )
    ] + [sorted((index[key], peak.hex()) for key, peak in result.iddq_peak.items())]


def _both(name: str, patterns, **thresholds) -> tuple[list, list]:
    design, faults = _case(name)
    new = SwitchLevelFaultSimulator(design, patterns, **thresholds).run(faults)
    old = OracleSwitchLevelFaultSimulator(design, patterns, **thresholds).run(faults)
    return _outcome(new), _outcome(old)


@pytest.mark.parametrize("name", _CIRCUITS)
def test_detections_match_oracle(name):
    design, _ = _case(name)
    patterns = random_patterns(len(design.mapped.primary_inputs), 300, seed=31)
    new, old = _both(name, patterns)
    assert new == old
    assert new[0], "the sequence detects nothing: the comparison is vacuous"


@settings(max_examples=25, deadline=None)
@given(
    n_patterns=st.one_of(
        st.just(0),
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1025, max_value=1300),
    ),
    seed=st.integers(min_value=0, max_value=2**16),
    thresholds=st.one_of(
        st.just({}),
        st.tuples(
            st.floats(min_value=0.05, max_value=0.5),
            st.floats(min_value=0.5, max_value=0.95),
        ).map(lambda t: {"v_low": t[0], "v_high": t[1]}),
    ),
)
def test_random_sequences_match_oracle(n_patterns, seed, thresholds):
    patterns = random_patterns(5, n_patterns, seed=seed)
    new, old = _both("c17", patterns, **thresholds)
    assert new == old


def test_empty_sequence_detects_nothing():
    new, old = _both("c17", [])
    assert new == old == [[], [], [], []]


# ----------------------------------------------------------------------
# Multi-force lanes of the numpy engine
# ----------------------------------------------------------------------
_LANE_CIRCUIT = BENCHMARKS["rca8"]()
_UNIVERSE = full_fault_universe(_LANE_CIRCUIT)
_PIN_FAULTS = [f for f in _UNIVERSE if f.site is FaultSite.GATE_INPUT]
_NET_FAULTS = [f for f in _UNIVERSE if f.site is FaultSite.NET]
_PI_FAULTS = [f for f in _NET_FAULTS if f.net in _LANE_CIRCUIT.primary_inputs]


@st.composite
def _gate_pins(draw):
    """Pin forces on several pins of one gate."""
    gate = draw(st.sampled_from(_LANE_CIRCUIT.gates))
    pins = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(gate.inputs) - 1),
            min_size=1,
            max_size=len(gate.inputs),
            unique=True,
        )
    )
    return tuple(
        StuckAtFault(
            gate.inputs[pin],
            draw(st.integers(min_value=0, max_value=1)),
            FaultSite.GATE_INPUT,
            gate.name,
            pin,
        )
        for pin in pins
    )


_LANES = st.one_of(
    _gate_pins(),
    st.tuples(st.sampled_from(_NET_FAULTS), st.sampled_from(_PIN_FAULTS)),
    st.lists(st.sampled_from(_PI_FAULTS), min_size=1, max_size=3).map(tuple),
    st.lists(st.sampled_from(_UNIVERSE), min_size=1, max_size=4).map(tuple),
)


def _oracle_word(oracle: OracleFaultSimulator, lane, patterns) -> int:
    """The oracle's detection bits for ``lane`` over the whole sequence."""
    word = 0
    width = oracle.width
    n_inputs = len(_LANE_CIRCUIT.primary_inputs)
    for g, words in enumerate(pack_patterns(patterns, n_inputs, width)):
        good = oracle.logic.simulate_packed(words)
        n_here = min(width, len(patterns) - g * width)
        hit = oracle.detection_word_multi(lane, good) & ((1 << n_here) - 1)
        word |= hit << (g * width)
    return word


@settings(max_examples=40, deadline=None)
@given(
    lanes=st.lists(_LANES, min_size=1, max_size=70),
    n_patterns=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_multi_force_lanes_match_oracle(lanes, n_patterns, seed):
    patterns = random_patterns(len(_LANE_CIRCUIT.primary_inputs), n_patterns, seed)
    engine = NumpyFaultSimulator(_LANE_CIRCUIT)
    words = engine.detection_words(lanes, engine.pack(patterns), n_patterns)
    oracle = OracleFaultSimulator(_LANE_CIRCUIT)
    for lane, row in zip(lanes, words):
        lane_word = sum(int(w) << (64 * i) for i, w in enumerate(row))
        assert lane_word == _oracle_word(oracle, lane, patterns), lane
