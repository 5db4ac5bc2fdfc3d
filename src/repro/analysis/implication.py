"""Static implication engine and fault-independent untestability screening.

Identifies provably-untestable stuck-at faults from circuit structure alone —
no test vectors, no search — in the spirit of FIRE (Iyer & Abramovici 1996):
a fault is untestable when a *necessary condition* for detecting it is
unsatisfiable.  Two necessary-condition families are used:

* **Activation** — detecting ``net/sa-v`` requires the good value of ``net``
  to be ``1-v``.  If asserting ``net = 1-v`` and closing direct implications
  reaches a contradiction (e.g. the net is provably constant ``v``), the
  fault is untestable.
* **Observation** — every sensitized path from the fault site to any primary
  output passes through the site's *dominator* gates; each dominator's side
  inputs that lie outside the fault's output cone must carry the gate's
  non-controlling value.  For pin faults the faulted gate's own side pins
  join the requirement (which is how tied-input pin faults are caught).
  The union of all required literals is closed under implication; any
  conflict proves untestability.  Nets with no structural path to a primary
  output are untestable outright.

All implications are *sound* (necessary consequences), so every flagged
fault is genuinely undetectable by any vector — the property the ATPG and
coverage-ceiling (``theta_max``) integrations rely on, and which
``tests/test_analysis_implication.py`` cross-checks against exhaustive
simulation and PODEM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.circuit.levelize import levelize
from repro.circuit.library import GateType, evaluate_gate_packed
from repro.circuit.netlist import Circuit
from repro.simulation.faults import FaultSite, StuckAtFault, full_fault_universe

from .kernel import ImplicationKernel

__all__ = [
    "propagate_constants",
    "ImplicationEngine",
    "UntestabilityReport",
    "find_untestable_faults",
]

#: Bound on distinct unknown inputs enumerated when proving a gate constant.
_CONST_ENUM_LIMIT = 8

_CONTROLLING = {
    GateType.AND: 0,
    GateType.NAND: 0,
    GateType.OR: 1,
    GateType.NOR: 1,
}
_NONCONTROLLING = {
    GateType.AND: 1,
    GateType.NAND: 1,
    GateType.OR: 0,
    GateType.NOR: 0,
}
_INVERTING = {GateType.NAND, GateType.NOR, GateType.NOT, GateType.XNOR}


#: A net's exact function as (support PIs, truth-table bitmask): bit ``i`` of
#: the mask is the net's value under the support assignment encoded by ``i``.
_Table = tuple[tuple[str, ...], int]


def _expand(table: _Table, merged: tuple[str, ...]) -> int:
    """Re-express ``table``'s truth mask over the wider support ``merged``."""
    support, mask = table
    n_assign = 1 << len(merged)
    if not support:
        return ((1 << n_assign) - 1) if mask else 0
    positions = [merged.index(net) for net in support]
    out = 0
    for idx in range(n_assign):
        sub = 0
        for j, pos in enumerate(positions):
            sub |= ((idx >> pos) & 1) << j
        if (mask >> sub) & 1:
            out |= 1 << idx
    return out


def propagate_constants(circuit: Circuit) -> dict[str, int]:
    """Nets provably constant under every input assignment (net -> 0/1).

    Each net with at most :data:`_CONST_ENUM_LIMIT` primary inputs in its
    support carries an exact truth table (a bitmask over support
    assignments), built forward through the levelized order with the packed
    gate evaluator.  An all-zeros/all-ones table is a proven constant — this
    catches tied pins (``XOR(a, a)``), reconvergent cancellation
    (``AND(a, NOT a)``) and anything else within the support bound.  Wider
    nets fall back to controlling-constant propagation only.
    """
    constants: dict[str, int] = {}
    tables: dict[str, _Table | None] = {
        pi: ((pi,), 0b10) for pi in circuit.primary_inputs
    }
    for gate in levelize(circuit):
        in_tables = [tables[n] for n in gate.inputs]
        merged: tuple[str, ...] | None = None
        if all(t is not None for t in in_tables):
            support: list[str] = []
            for t in in_tables:
                assert t is not None
                for net in t[0]:
                    if net not in support:
                        support.append(net)
            if len(support) <= _CONST_ENUM_LIMIT:
                merged = tuple(support)

        if merged is None:
            # Support too wide for an exact table: only a controlling
            # constant input can still force the output.
            ctrl = _CONTROLLING.get(gate.gate_type)
            if ctrl is not None and any(
                constants.get(n) == ctrl for n in gate.inputs
            ):
                out = ctrl if gate.gate_type not in _INVERTING else 1 - ctrl
                constants[gate.output] = out
                tables[gate.output] = ((), out)
            else:
                tables[gate.output] = None
            continue

        n_assign = 1 << len(merged)
        full = (1 << n_assign) - 1
        masks = [_expand(t, merged) for t in in_tables if t is not None]
        out_mask = evaluate_gate_packed(gate.gate_type, masks, mask=full)
        if out_mask == 0:
            constants[gate.output] = 0
            tables[gate.output] = ((), 0)
        elif out_mask == full:
            constants[gate.output] = 1
            tables[gate.output] = ((), 1)
        else:
            tables[gate.output] = (merged, out_mask)
    return constants


@dataclass
class UntestabilityReport:
    """Outcome of one static untestable-fault screen.

    Attributes
    ----------
    untestable:
        Faults proved untestable, in input-universe order.
    reasons:
        Fault -> short reason tag (``"activation"``, ``"unobservable"``,
        ``"observation-conflict"``).
    n_screened:
        Number of faults examined.
    work:
        Implication-engine work counters at the end of the screen.
    """

    untestable: list[StuckAtFault] = field(default_factory=list)
    reasons: dict[StuckAtFault, str] = field(default_factory=dict)
    n_screened: int = 0
    work: dict[str, int] = field(default_factory=dict)

    def __contains__(self, fault: StuckAtFault) -> bool:
        return fault in self.reasons


class ImplicationEngine:
    """Direct-implication closure over a combinational netlist.

    ``closure(literals)`` asserts net/value literals and propagates every
    *sound* direct consequence — three-valued forward evaluation, forced
    backward implications (AND output 1 forces all inputs 1, ...), last-free
    -input justification and XOR parity completion — returning the implied
    partial assignment, or ``None`` on contradiction.  Provable constants
    from :func:`propagate_constants` seed every closure.

    Work is metered in :attr:`stats` (``"closures"`` started, ``"steps"``
    gate evaluations) so callers can assert static-analysis cost bounds.
    """

    def __init__(self, circuit: Circuit, constants: dict[str, int] | None = None):
        circuit.validate()
        self.circuit = circuit
        self.kernel = ImplicationKernel(circuit)
        self.constants = (
            dict(constants) if constants is not None else propagate_constants(circuit)
        )
        self.stats: dict[str, int] = {"closures": 0, "steps": 0}
        self._constant_ids = self.kernel.ids(self.constants.items())
        self._unit_cache: dict[tuple[str, int], dict[str, int] | None] = {}
        self._obs_cache: dict[
            str, tuple[bool, tuple[tuple[str, str, int], ...]]
        ] = {}

    # ------------------------------------------------------------------
    # Closure
    # ------------------------------------------------------------------
    def closure(
        self, literals: Iterable[tuple[str, int]]
    ) -> dict[str, int] | None:
        """Implied assignment from asserting ``literals``; None on conflict.

        The returned dict lists nets in derivation order: constants, then
        the literals, then their consequences.
        """
        self.stats["closures"] += 1
        k = self.kernel
        visits = k.visits
        ok = k.closure(k.ids(literals), self._constant_ids)
        self.stats["steps"] += k.visits - visits
        return k.assigned() if ok else None

    def unit_closure(self, net: str, value: int) -> dict[str, int] | None:
        """Memoised closure of the single literal ``net = value``."""
        key = (net, value)
        if key not in self._unit_cache:
            self._unit_cache[key] = self.closure([key])
        return self._unit_cache[key]

    def is_justifiable(self, net: str, value: int) -> bool:
        """Whether ``net = value`` survives implication closure."""
        return self.unit_closure(net, value) is not None

    # ------------------------------------------------------------------
    # Observation requirements (dominators)
    # ------------------------------------------------------------------
    def observation_details(
        self, net: str
    ) -> tuple[bool, tuple[tuple[str, str, int], ...]]:
        """Necessary side-input literals for observing a change on ``net``.

        Returns ``(reachable, details)``: ``reachable`` is False when no
        primary output lies in the net's output cone (any fault there is
        untestable); each detail is ``(dominator_net, side_net,
        non_controlling_value)`` over the dominator gates strictly
        downstream of ``net`` — the shape the prover's certificates need so
        the independent checker can re-verify each dominator claim
        structurally.
        """
        cached = self._obs_cache.get(net)
        if cached is not None:
            return cached
        k = self.kernel
        source = k.index[net]
        cone, gates = k.cone(source)
        result: tuple[bool, tuple[tuple[str, str, int], ...]] = (False, ())
        if any(po in cone for po in k.outputs):
            # Dominators of every source->PO path, by forward dataflow over
            # the cone: dom(n) = {n} | intersection over in-cone predecessors.
            dom: dict[int, frozenset[int]] = {source: frozenset((source,))}
            for g in gates:
                out = k.gout[g]
                if out == source:
                    continue
                inter: frozenset[int] | None = None
                for p in k.gins[g]:
                    if p in cone:
                        inter = dom[p] if inter is None else inter & dom[p]
                dom[out] = (inter or frozenset()) | {out}
            common = frozenset.intersection(
                *(dom[po] for po in k.outputs if po in cone)
            )
            details: list[tuple[str, str, int]] = []
            for d in sorted(common - {source}, key=k.names.__getitem__):
                code = k.gtype[d - k.n_pi]
                if code >= 4:
                    continue  # XOR family / NOT / BUF propagate unconditionally
                details.extend(
                    (k.names[d], k.names[side], (code >> 1) ^ 1)
                    for side in k.gins[d - k.n_pi]
                    if side not in cone
                )
            result = (True, tuple(details))
        self._obs_cache[net] = result
        return result


def find_untestable_faults(
    circuit: Circuit,
    faults: list[StuckAtFault] | None = None,
    engine: ImplicationEngine | None = None,
) -> UntestabilityReport:
    """Screen ``faults`` (default: the full universe) for provable untestability.

    Every returned fault carries a proof sketch in ``reasons``; soundness is
    the contract — a flagged fault is undetectable by *any* input vector.
    """
    if faults is None:
        faults = full_fault_universe(circuit)
    if engine is None:
        engine = ImplicationEngine(circuit)

    report = UntestabilityReport(n_screened=len(faults))
    gate_by_name = {g.name: g for g in circuit.gates}

    def flag(fault: StuckAtFault, reason: str) -> None:
        report.untestable.append(fault)
        report.reasons[fault] = reason

    for fault in faults:
        # --- activation: the site must be drivable to the opposite value ---
        activation = (fault.net, 1 - fault.value)
        if not engine.is_justifiable(*activation):
            flag(fault, "activation")
            continue

        # --- observation: dominator side inputs + own-gate side pins -------
        required: set[tuple[str, int]] = {activation}
        if fault.site is FaultSite.GATE_INPUT:
            assert fault.gate is not None and fault.pin is not None
            gate = gate_by_name[fault.gate]
            nc = _NONCONTROLLING.get(gate.gate_type)
            if nc is not None:
                for pin, side in enumerate(gate.inputs):
                    if pin != fault.pin:
                        required.add((side, nc))
            source = gate.output
        else:
            source = fault.net
        reachable, details = engine.observation_details(source)
        if not reachable:
            flag(fault, "unobservable")
            continue
        required |= frozenset((side, nc) for _dom, side, nc in details)

        conflict = False
        merged: dict[str, int] = {}
        for literal in required:
            unit = engine.unit_closure(*literal)
            if unit is None:
                conflict = True
                break
            for net, value in unit.items():
                if merged.setdefault(net, value) != value:
                    conflict = True
                    break
            if conflict:
                break
        if not conflict and len(required) > 1:
            conflict = engine.closure(sorted(required)) is None
        if conflict:
            flag(fault, "observation-conflict")

    report.work = dict(engine.stats)
    return report
