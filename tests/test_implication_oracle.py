"""The shared implication kernel against the dict-based code it replaced.

``tests/implication_oracle.py`` keeps PODEM's two-channel ``_imply``, the
screen's ``_propagate`` / ``_imply_gate`` and the prover's traced
``_closure`` as they were.  These tests hold the kernel to them:

* on random circuits and random partial assignments — net and pin faults,
  with and without learned implications — the kernel's values, trail order,
  traced steps and D-frontier equal the oracle's, and undoing to a mark
  restores the earlier state;
* on every built-in circuit, PODEM's statuses, vectors and backtrack counts,
  the prover's proved set, methods and certificate JSON, and the static
  learned map (in order: it feeds traced closures) equal the oracle's;
* the kernel's ``podem.*`` / ``prover.*`` work counters repeat exactly and
  PODEM evaluates fewer gates per decision than the oracle.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from implication_oracle import (
    OracleImplicationEngine,
    OraclePodemAtpg,
    OracleRedundancyProver,
    oracle_static_learning,
)

from repro import obs
from repro.analysis import ImplicationEngine, analyze_circuit
from repro.analysis.prover import (
    _STATIC_LEARNING_CACHE,
    RedundancyProver,
    netlist_hash,
    static_learning,
)
from repro.atpg.podem import PodemAtpg, generate_deterministic_tests
from repro.atpg.random_atpg import generate_random_tests
from repro.circuit import Circuit, GateType
from repro.circuit.iscas import BENCHMARKS
from repro.simulation.faults import (
    FaultSite,
    collapse_faults,
    full_fault_universe,
)

#: Every distinct built-in (``c432_like`` / ``c880_like`` are aliases).
BUILTINS = ("alu4", "c17", "c432", "c880", "dec4", "mul4", "mux8", "par16",
            "rca16", "rca8")
#: The oracle PODEM takes ~30 s over all of c432's or c880's collapsed
#: faults; every 8th fault keeps both in the suite at a few seconds each.
PODEM_STRIDE = {"c432": 8, "c880": 8}
#: c880 at the ``atpg_c880`` benchmark's depth; the rest at the default.
PROVER_DEPTH = {"c880": 1}

GATE_TYPES = [
    GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
    GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF,
]


@st.composite
def circuits(draw):
    """Small random netlists; pins may repeat a net (``XOR(a, a)``)."""
    ckt = Circuit(name="rand")
    nets = [ckt.add_input(f"i{k}") for k in range(draw(st.integers(2, 5)))]
    for g in range(draw(st.integers(1, 14))):
        gt = draw(st.sampled_from(GATE_TYPES))
        fan = 1 if gt in (GateType.NOT, GateType.BUF) else draw(st.integers(2, 3))
        sources = [draw(st.sampled_from(nets)) for _ in range(fan)]
        nets.append(ckt.add_gate(gt, sources, f"g{g}").output)
    ckt.add_output(nets[-1])
    if len(nets) > 3:
        ckt.add_output(draw(st.sampled_from(nets[:-1])))
    ckt.validate()
    return ckt


def literals(draw, circuit: Circuit, max_size: int = 4) -> list[tuple[str, int]]:
    nets = circuit.nets
    return draw(
        st.lists(
            st.tuples(st.sampled_from(nets), st.integers(0, 1)),
            max_size=max_size,
        )
    )


# ---------------------------------------------------------------------------
# Random partial assignments
# ---------------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_screen_closure_equals_oracle(data):
    circuit = data.draw(circuits())
    lits = literals(data.draw, circuit)
    new, old = ImplicationEngine(circuit), OracleImplicationEngine(circuit)
    got, want = new.closure(lits), old.closure(lits)
    # Trail order is derivation order: the dicts agree item by item.
    assert (got is None) == (want is None)
    if got is not None:
        assert list(got.items()) == list(want.items())
    assert new.stats == old.stats


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_prover_closure_and_extension_equal_oracle(data):
    circuit = data.draw(circuits())
    lits = tuple(literals(data.draw, circuit, max_size=5))
    use_learned = data.draw(st.booleans())
    new = RedundancyProver(circuit, depth=0)
    old = OracleRedundancyProver(circuit, depth=0)
    got = new._closure(lits, use_learned)
    want = old._closure(lits, use_learned)
    assert got.conflict == want.conflict
    if want.conflict is None:
        assert list(got.values.items()) == list(want.values.items())
    else:
        # The replay records the oracle's derivation step for step.
        assert got.steps == want.steps

    # Extending the closure of a prefix by the last literal reaches the
    # oracle's from-scratch closure of the whole tuple; undo restores it.
    if not lits:
        return
    k = new.kernel.fork()
    learned = new._learned if use_learned else None
    if not k.closure(k.ids(lits[:-1]), new._constants, learned):
        return
    before = k.assigned()
    mark = k.mark()
    extended = k.extend(k.ids(lits[-1:]), learned)
    assert extended == (want.conflict is None)
    if extended:
        assert k.assigned() == want.values
    k.undo(mark)
    assert list(k.assigned().items()) == list(before.items())


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_podem_channels_equal_oracle(data):
    circuit = data.draw(circuits())
    fault = data.draw(st.sampled_from(full_fault_universe(circuit)))
    learned = oracle_static_learning(circuit) if data.draw(st.booleans()) else None
    pis = circuit.primary_inputs
    chosen = data.draw(st.lists(st.sampled_from(pis), unique=True))
    assignment = {pi: data.draw(st.integers(0, 1)) for pi in chosen}

    new = PodemAtpg(circuit, learned=learned)
    old = OraclePodemAtpg(circuit, learned=learned)
    k = new.kernel
    site = k.index[fault.net]
    pin_gate = -1
    if fault.site is FaultSite.GATE_INPUT:
        pin_gate = k.gate_index[fault.gate]
        cone, gates = k.load_fault(site, fault.value, pin_gate, fault.pin)
    else:
        cone, gates = k.load_fault(site, fault.value)

    def check(partial: dict[str, int]) -> None:
        good, faulty = old._imply(fault, partial)
        n = k.n
        for i, name in enumerate(k.names):
            assert k.val[i] == good[name], name
            assert k.val[n + i if i in cone else i] == faulty[name], name
        if learned:
            pins = old._learned_pins(good)
            for i, name in enumerate(k.names):
                assert k.val[2 * n + i] == pins[name], name
        frontier = new._d_frontier(gates, cone, pin_gate, site, fault.value)
        assert [k.gname[g] for g in frontier] == [
            g.name for g in old._d_frontier(fault, good, faulty)
        ]

    check({})
    marks = []
    for pi, value in assignment.items():
        marks.append(k.mark())
        k.decide(k.index[pi], value)
    check(assignment)
    if marks:
        k.undo(marks[-1])
        check(dict(list(assignment.items())[:-1]))


# ---------------------------------------------------------------------------
# Every built-in circuit
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", BUILTINS)
def test_static_learning_equals_oracle_in_order(name):
    circuit = BENCHMARKS[name]()
    _STATIC_LEARNING_CACHE.pop(netlist_hash(circuit), None)
    got = static_learning(circuit)
    assert list(got.items()) == list(oracle_static_learning(circuit).items())


@pytest.mark.parametrize("name", BUILTINS)
def test_podem_equals_oracle(name):
    circuit = BENCHMARKS[name]()
    faults = collapse_faults(circuit)[:: PODEM_STRIDE.get(name, 1)]
    learned = static_learning(circuit)
    outcomes = []
    for cls in (PodemAtpg, OraclePodemAtpg):
        atpg = cls(circuit, backtrack_limit=100, learned=learned)
        runs = [atpg.generate(f) for f in faults]
        outcomes.append((
            [(o.status, o.pattern, o.backtracks) for o in runs],
            atpg.learned_prunes,
            atpg.learned_conflicts,
        ))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("name", BUILTINS)
def test_prover_equals_oracle(name):
    circuit = BENCHMARKS[name]()
    faults = collapse_faults(circuit)
    depth = PROVER_DEPTH.get(name, 2)
    got = RedundancyProver(circuit, depth=depth).prove(faults)
    want = OracleRedundancyProver(circuit, depth=depth).prove(faults)
    assert got.proved == want.proved
    assert got.methods == want.methods
    assert json.dumps(got.certificates) == json.dumps(want.certificates)
    for key in ("closures", "refutes", "splits", "intersections"):
        assert got.work[key] == want.work[key], key


# ---------------------------------------------------------------------------
# Work counters
# ---------------------------------------------------------------------------
def _flow_counters(circuit: Circuit) -> dict[str, int]:
    faults = collapse_faults(circuit)
    _, registry = obs.enable()
    try:
        analysis = analyze_circuit(circuit, faults=faults, prove=True)
        rest = generate_random_tests(
            circuit, analysis.screen(faults), target_coverage=0.9,
            max_patterns=256, seed=7,
        )
        generate_deterministic_tests(
            circuit, rest.undetected, backtrack_limit=100,
            untestable=analysis.untestable_faults(), scoap=analysis.scoap,
            learned=analysis.prover.learned,
        )
        counters = registry.snapshot()["counters"]
    finally:
        obs.disable()
    return {
        k: v for k, v in counters.items() if k.startswith(("podem.", "prover."))
    }


def test_work_counters_repeat_and_beat_oracle_evals():
    circuit = BENCHMARKS["c432"]()
    first, second = _flow_counters(circuit), _flow_counters(circuit)
    assert first == second
    for key in ("podem.decisions", "podem.gate_evals", "prover.closures",
                "prover.gate_visits", "prover.splits", "prover.replays"):
        assert key in first, key
    assert first["prover.closures"] > first["prover.replays"] > 0
    # The oracle simulates both channels of every gate per decision.
    assert first["podem.decisions"] > 0
    oracle_per_decision = 2 * len(circuit.gates)
    assert first["podem.gate_evals"] < oracle_per_decision * first["podem.decisions"]
