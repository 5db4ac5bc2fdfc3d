"""Reference implication code: the string-keyed evaluators the kernel replaced.

Before :mod:`repro.analysis.kernel` existed, PODEM, the implication screen
and the redundancy prover each evaluated gates over ``{net name: value}``
dicts.  This module keeps that code as it was, as the oracle the kernel is
checked against (``tests/test_implication_oracle.py``) and timed against
(``benchmarks/test_perf_implication.py``):

* :class:`OraclePodemAtpg` — PODEM that re-simulates both channels of the
  whole circuit for every decision (``_imply`` / ``_eval3``), with
  ``_d_frontier`` and ``_learned_pins`` recomputed from those dicts;
* :class:`OracleImplicationEngine` — the screen's closure
  (``_propagate`` / ``_imply_gate`` / ``_forward``);
* :class:`OracleRedundancyProver` — the prover with its traced dict closure
  (``_closure`` / ``_deps_for``), recomputing every split branch from
  scratch, learning through the oracle engine; and
  :func:`oracle_static_learning`, the learning pass as it was.

Everything not listed (certificate emission, lemmas, observation
requirements, the public façades) is shared with ``src``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

from repro.analysis.implication import (
    _CONTROLLING,
    _INVERTING,
    _NONCONTROLLING,
    ImplicationEngine,
)
from repro.analysis.prover import (
    _STATIC_LEARNING_CACHE,
    LearnedMap,
    Lit,
    RedundancyProver,
    _ClosureResult,
    _Step,
    netlist_hash,
)
from repro.analysis.scoap import ScoapMeasures, compute_scoap
from repro.atpg.podem import AtpgOutcome, AtpgStatus
from repro.circuit.levelize import levelize
from repro.circuit.library import GateType
from repro.circuit.netlist import Circuit, Gate
from repro.simulation.faults import FaultSite, StuckAtFault

# ---------------------------------------------------------------------------
# PODEM
# ---------------------------------------------------------------------------
#: Three-valued signal levels; X is "unassigned / unknown".
ZERO, ONE, X = 0, 1, 2

#: Learned implications, as produced by ``repro.analysis.prover.static_learning``:
#: antecedent ``(net, value)`` -> consequent literals, each a tautology of the
#: fault-free circuit.
LearnedImplications = Mapping[tuple[str, int], tuple[tuple[str, int], ...]]


def _eval3(gate_type: GateType, values: list[int]) -> int:
    """Three-valued gate evaluation over {0, 1, X}."""
    if gate_type in (GateType.AND, GateType.NAND):
        if any(v == ZERO for v in values):
            core = ZERO
        elif any(v == X for v in values):
            core = X
        else:
            core = ONE
        return _inv(core) if gate_type is GateType.NAND else core
    if gate_type in (GateType.OR, GateType.NOR):
        if any(v == ONE for v in values):
            core = ONE
        elif any(v == X for v in values):
            core = X
        else:
            core = ZERO
        return _inv(core) if gate_type is GateType.NOR else core
    if gate_type in (GateType.XOR, GateType.XNOR):
        if any(v == X for v in values):
            return X
        core = 0
        for v in values:
            core ^= v
        return _inv(core) if gate_type is GateType.XNOR else core
    if gate_type is GateType.NOT:
        return _inv(values[0])
    if gate_type is GateType.BUF:
        return values[0]
    raise ValueError(f"unknown gate type {gate_type!r}")


def _inv(value: int) -> int:
    return X if value == X else 1 - value


class OraclePodemAtpg:
    """PODEM test generator bound to one circuit."""

    def __init__(
        self,
        circuit: Circuit,
        backtrack_limit: int = 2000,
        scoap: ScoapMeasures | None = None,
        learned: LearnedImplications | None = None,
    ):
        circuit.validate()
        self.circuit = circuit
        self.order = levelize(circuit)
        self.driver = {g.output: g for g in circuit.gates}
        self.fanout = circuit.fanout_map()
        if scoap is None:
            scoap = compute_scoap(circuit)
        self.cc = {
            net: (scoap.cc0[net], scoap.cc1[net]) for net in scoap.cc0
        }
        self.backtrack_limit = backtrack_limit
        self.learned: dict[tuple[str, int], tuple[tuple[str, int], ...]] = (
            dict(learned) if learned else {}
        )
        #: Cumulative counts over all :meth:`generate` calls: decision points
        #: failed early because learned implications pin the fault site to its
        #: stuck value, and D-frontier gates pruned because a learned
        #: implication pins a side input to the controlling value.
        self.learned_conflicts = 0
        self.learned_prunes = 0
        self._pi_index = {pi: i for i, pi in enumerate(circuit.primary_inputs)}
        self._gate_by_name = {g.name: g for g in circuit.gates}
        self._support_cache: dict[str, tuple[str, ...]] = {}
        self._cone_cache: dict[str, frozenset[str]] = {}

    # ------------------------------------------------------------------
    # Two-channel implication
    # ------------------------------------------------------------------
    def _imply(
        self, fault: StuckAtFault, assignment: dict[str, int]
    ) -> tuple[dict[str, int], dict[str, int]]:
        """Simulate good and faulty channels from a partial PI assignment."""
        good: dict[str, int] = {}
        faulty: dict[str, int] = {}
        for pi in self.circuit.primary_inputs:
            value = assignment.get(pi, X)
            good[pi] = value
            faulty[pi] = value
        if fault.site is FaultSite.NET and fault.net in faulty:
            faulty[fault.net] = fault.value

        for gate in self.order:
            g_ops = [good[n] for n in gate.inputs]
            f_ops = []
            for pin, net in enumerate(gate.inputs):
                if (
                    fault.site is FaultSite.GATE_INPUT
                    and gate.name == fault.gate
                    and pin == fault.pin
                ):
                    f_ops.append(fault.value)
                else:
                    f_ops.append(faulty[net])
            good[gate.output] = _eval3(gate.gate_type, g_ops)
            out_f = _eval3(gate.gate_type, f_ops)
            if fault.site is FaultSite.NET and gate.output == fault.net:
                out_f = fault.value
            faulty[gate.output] = out_f
        return good, faulty

    # ------------------------------------------------------------------
    # Search support
    # ------------------------------------------------------------------
    def _test_found(self, good: dict[str, int], faulty: dict[str, int]) -> bool:
        return any(
            good[po] != X and faulty[po] != X and good[po] != faulty[po]
            for po in self.circuit.primary_outputs
        )

    def _d_frontier(
        self,
        fault: StuckAtFault,
        good: dict[str, int],
        faulty: dict[str, int],
    ) -> list[Gate]:
        frontier = []
        for gate in self.order:
            out_g, out_f = good[gate.output], faulty[gate.output]
            if out_g != X and out_f != X:
                continue
            has_d = any(
                good[n] != X
                and faulty[n] != X
                and good[n] != faulty[n]
                for n in gate.inputs
            )
            # For a pin fault the discrepancy originates *inside* the faulted
            # gate (the net itself is healthy), so the gate joins the frontier
            # as soon as the pin's net carries the activating value.
            if (
                not has_d
                and fault.site is FaultSite.GATE_INPUT
                and gate.name == fault.gate
                and good[fault.net] == 1 - fault.value
            ):
                has_d = True
            if has_d:
                frontier.append(gate)
        return frontier

    def _x_path_exists(
        self,
        frontier: list[Gate],
        good: dict[str, int],
        faulty: dict[str, int],
    ) -> bool:
        """True when some D-frontier output can still reach a PO through X nets."""
        po_set = set(self.circuit.primary_outputs)
        seen: set[str] = set()
        stack = [g.output for g in frontier]
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            if net in po_set:
                return True
            for reader in self.fanout.get(net, []):
                out = reader.output
                if out in seen:
                    continue
                if good[out] == X or faulty[out] == X:
                    stack.append(out)
        return False

    # ------------------------------------------------------------------
    # Learned-implication support
    # ------------------------------------------------------------------
    def _learned_pins(self, good: dict[str, int]) -> dict[str, int]:
        """Good-channel values pinned by closing under learned implications.

        Every learned implication is a tautology of the fault-free circuit,
        so if ``net=v`` is determined in the good channel, every completion
        of the current partial assignment also satisfies the implication's
        consequents — and everything those consequents force through the
        gates.  The returned map extends ``good`` to a fixpoint of learned
        consequents and three-valued forward evaluation; entries that are X
        in ``good`` but definite here are values the current assignment
        forces in *every* completion, which the search can fail against.
        """
        pins = dict(good)
        stack = [(n, v) for n, v in pins.items() if v != X]
        while stack:
            net, value = stack.pop()
            for c_net, c_value in self.learned.get((net, value), ()):
                if pins.get(c_net, X) == X:
                    pins[c_net] = c_value
                    stack.append((c_net, c_value))
            for gate in self.fanout.get(net, []):
                if pins[gate.output] != X:
                    continue
                out = _eval3(
                    gate.gate_type, [pins[n] for n in gate.inputs]
                )
                if out != X:
                    pins[gate.output] = out
                    stack.append((gate.output, out))
        return pins

    def _effect_cone(self, source: str) -> frozenset[str]:
        """Nets downstream of the fault effect's origin (inclusive)."""
        cached = self._cone_cache.get(source)
        if cached is None:
            from repro.circuit.levelize import output_cone

            cached = frozenset(output_cone(self.circuit, source))
            self._cone_cache[source] = cached
        return cached

    def _prune_frontier(
        self,
        frontier: list[Gate],
        good: dict[str, int],
        pins: dict[str, int],
        cone: frozenset[str],
    ) -> list[Gate]:
        """Drop frontier gates a learned pin provably blocks.

        A gate cannot propagate the effect when a side input outside the
        fault's output cone (so its faulty value always equals its good
        value) is still X but pinned to the gate's controlling value: every
        completion controls the gate identically in both channels.
        """
        kept = []
        for gate in frontier:
            controlling = _controlling_value(gate.gate_type)
            blocked = controlling is not None and any(
                good[n] == X and n not in cone and pins.get(n) == controlling
                for n in gate.inputs
            )
            if blocked:
                self.learned_prunes += 1
            else:
                kept.append(gate)
        return kept

    def _objective(
        self,
        fault: StuckAtFault,
        good: dict[str, int],
        faulty: dict[str, int],
        frontier: list[Gate] | None = None,
    ) -> tuple[str, int] | None:
        site_value = good[fault.net]
        if site_value == X:
            return fault.net, 1 - fault.value
        if frontier is None:
            frontier = self._d_frontier(fault, good, faulty)
        if not frontier:
            return None
        frontier.sort(key=lambda g: self.cc[g.output][0] + self.cc[g.output][1])
        for gate in frontier:
            noncontrolling = _noncontrolling_value(gate.gate_type)
            for net in gate.inputs:
                if good[net] == X:
                    return net, noncontrolling if noncontrolling is not None else ZERO
        return None

    def _backtrace(
        self, net: str, value: int, good: dict[str, int]
    ) -> tuple[str, int] | None:
        """Walk the objective back to an unassigned primary input."""
        for _ in range(10 * (len(self.circuit.gates) + 1)):
            gate = self.driver.get(net)
            if gate is None:  # primary input
                return (net, value) if good[net] == X else None
            gt = gate.gate_type
            inverted = gt in (GateType.NAND, GateType.NOR, GateType.NOT, GateType.XNOR)
            core = value ^ 1 if inverted else value
            x_inputs = [n for n in gate.inputs if good[n] == X]
            if not x_inputs:
                return None
            if gt in (GateType.NOT, GateType.BUF):
                net, value = gate.inputs[0], core
                continue
            controlling = ZERO if gt in (GateType.AND, GateType.NAND) else ONE
            if gt in (GateType.XOR, GateType.XNOR):
                # Pick the easiest X input; target parity of core against the
                # definite inputs, defaulting to core when others are X.
                definite = [good[n] for n in gate.inputs if good[n] != X]
                parity = 0
                for v in definite:
                    parity ^= v
                target = core ^ parity if len(x_inputs) == 1 else core
                chosen = min(x_inputs, key=lambda n: min(self.cc[n]))
                net, value = chosen, target
                continue
            if core == controlling:
                # One input at the controlling value suffices: easiest first.
                chosen = min(x_inputs, key=lambda n: self.cc[n][controlling])
                net, value = chosen, controlling
            else:
                # All inputs must be non-controlling: hardest first.
                chosen = max(x_inputs, key=lambda n: self.cc[n][1 - controlling])
                net, value = chosen, 1 - controlling
        return None

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------
    def generate(self, fault: StuckAtFault, fill: int | None = 0) -> AtpgOutcome:
        """Search for a vector detecting ``fault``.

        Parameters
        ----------
        fault:
            The target stuck-at fault.
        fill:
            Value used for PIs left unassigned by the search (0, 1, or None
            to leave them 0 — callers wanting random fill should post-process
            via :func:`fill_dont_cares`).

        Returns
        -------
        AtpgOutcome
            ``TESTED`` with a full vector, ``REDUNDANT`` when the search space
            is exhausted, or ``ABORTED`` at the backtrack limit.
        """
        assignment: dict[str, int] = {}
        decisions: list[tuple[str, int, bool]] = []  # (pi, value, tried_both)
        backtracks = 0
        effect_source = fault.net
        if fault.site is FaultSite.GATE_INPUT and fault.gate is not None:
            effect_source = self._gate_by_name[fault.gate].output
        cone = (
            self._effect_cone(effect_source) if self.learned else frozenset()
        )

        while True:
            good, faulty = self._imply(fault, assignment)
            if self._test_found(good, faulty):
                return AtpgOutcome(
                    AtpgStatus.TESTED,
                    self._complete_pattern(assignment, fill),
                    backtracks,
                )
            pins = self._learned_pins(good) if self.learned else {}

            failed = False
            frontier: list[Gate] | None = None
            site_value = good[fault.net]
            if site_value != X and site_value == fault.value:
                failed = True  # activation impossible under this assignment
            elif site_value == X and pins.get(fault.net) == fault.value:
                # Learned implications pin the site to its stuck value in
                # every completion of this assignment: activation impossible.
                self.learned_conflicts += 1
                failed = True
            else:
                frontier = self._d_frontier(fault, good, faulty)
                if pins and frontier:
                    frontier = self._prune_frontier(frontier, good, pins, cone)
                activated = site_value != X
                if activated and not frontier:
                    failed = True
                elif frontier and not self._x_path_exists(frontier, good, faulty):
                    failed = True

            if not failed:
                step = None
                objective = self._objective(fault, good, faulty, frontier)
                if objective is not None:
                    step = self._backtrace(objective[0], objective[1], good)
                if step is None:
                    # Heuristic dead-end (e.g. the frontier's side inputs are
                    # X only in the faulty channel).  That is NOT a proof of
                    # failure — fall back to deciding any unassigned primary
                    # input of the fault's support cone, keeping REDUNDANT
                    # verdicts sound.
                    step = self._fallback_decision(fault, assignment)
                if step is None:
                    failed = True  # support exhausted: genuinely dead
                else:
                    pi, value = step
                    assignment[pi] = value
                    decisions.append((pi, value, False))
                    continue

            # Backtrack: flip the most recent single-tried decision.
            backtracks += 1
            if backtracks > self.backtrack_limit:
                return AtpgOutcome(AtpgStatus.ABORTED, None, backtracks)
            while decisions:
                pi, value, tried_both = decisions.pop()
                if tried_both:
                    del assignment[pi]
                    continue
                assignment[pi] = 1 - value
                decisions.append((pi, 1 - value, True))
                break
            else:
                return AtpgOutcome(AtpgStatus.REDUNDANT, None, backtracks)

    def _fallback_decision(
        self, fault: StuckAtFault, assignment: dict[str, int]
    ) -> tuple[str, int] | None:
        """Next unassigned PI in the fault's support cone, or None.

        The support cone — every PI that can influence the fault's activation
        or observation — is the sound decision universe: exhausting it proves
        redundancy.
        """
        for pi in self._support(fault.net):
            if pi not in assignment:
                return pi, ZERO
        return None

    def _support(self, net: str) -> tuple[str, ...]:
        cached = self._support_cache.get(net)
        if cached is not None:
            return cached
        from repro.circuit.levelize import input_cone, output_cone

        pis = set(self.circuit.primary_inputs)
        support: set[str] = set()
        for downstream in output_cone(self.circuit, net):
            support.update(input_cone(self.circuit, downstream) & pis)
        ordered = tuple(
            pi for pi in self.circuit.primary_inputs if pi in support
        )
        self._support_cache[net] = ordered
        return ordered

    def _complete_pattern(
        self, assignment: dict[str, int], fill: int | None
    ) -> list[int]:
        fill_value = 0 if fill is None else fill
        return [
            assignment.get(pi, fill_value)
            for pi in self.circuit.primary_inputs
        ]


def _noncontrolling_value(gate_type: GateType) -> int | None:
    if gate_type in (GateType.AND, GateType.NAND):
        return ONE
    if gate_type in (GateType.OR, GateType.NOR):
        return ZERO
    return None  # XOR family and single-input gates have no controlling value


def _controlling_value(gate_type: GateType) -> int | None:
    noncontrolling = _noncontrolling_value(gate_type)
    return None if noncontrolling is None else 1 - noncontrolling


# ---------------------------------------------------------------------------
# Implication screen
# ---------------------------------------------------------------------------
class OracleImplicationEngine(ImplicationEngine):
    """The screen's engine with its dict-based closure."""

    def __init__(self, circuit: Circuit, constants: dict[str, int] | None = None):
        super().__init__(circuit, constants=constants)
        self.order = levelize(circuit)
        self.driver: dict[str, Gate] = {g.output: g for g in circuit.gates}
        self.fanout: dict[str, list[Gate]] = circuit.fanout_map()

    def closure(
        self, literals: Iterable[tuple[str, int]]
    ) -> dict[str, int] | None:
        """Implied assignment from asserting ``literals``; None on conflict."""
        self.stats["closures"] += 1
        values: dict[str, int] = dict(self.constants)
        queue: list[str] = list(values)
        for net, value in literals:
            if values.get(net, value) != value:
                return None
            if net not in values:
                values[net] = value
                queue.append(net)
        return self._propagate(values, queue)

    def _propagate(
        self, values: dict[str, int], queue: list[str]
    ) -> dict[str, int] | None:
        def assign(net: str, value: int) -> bool:
            known = values.get(net)
            if known is None:
                values[net] = value
                queue.append(net)
                return True
            return known == value

        while queue:
            net = queue.pop()
            gates = list(self.fanout.get(net, ()))
            gate = self.driver.get(net)
            if gate is not None:
                gates.append(gate)
            for g in gates:
                self.stats["steps"] += 1
                if not self._imply_gate(g, values, assign):
                    return None
        return values

    def _imply_gate(
        self,
        gate: Gate,
        values: dict[str, int],
        assign: Callable[[str, int], bool],
    ) -> bool:
        gt = gate.gate_type
        ins = [values.get(n) for n in gate.inputs]
        out = values.get(gate.output)
        inverted = gt in _INVERTING

        # Forward: three-valued evaluation of the inputs.
        forward = self._forward(gt, ins)
        if forward is not None and not assign(gate.output, forward):
            return False
        out = values.get(gate.output)
        if out is None:
            return True
        core = 1 - out if inverted else out

        if gt in (GateType.NOT, GateType.BUF):
            return assign(gate.inputs[0], core)
        if gt in (GateType.XOR, GateType.XNOR):
            # Parity completion: all but one input known pins the last.
            unknown = [n for n, v in zip(gate.inputs, ins) if v is None]
            if len(unknown) == 1:
                parity = 0
                for v in ins:
                    if v is not None:
                        parity ^= v
                target = (out ^ parity) if gt is GateType.XOR else (1 - out) ^ parity
                return assign(unknown[0], target)
            return True

        controlling = _CONTROLLING[gt]
        if core == 1 - controlling:
            # Output forced to the all-noncontrolling case: every input known.
            nc = _NONCONTROLLING[gt]
            return all(assign(n, nc) for n in gate.inputs)
        # Output at the controlled value: at least one input controlling.
        # Last-free-input justification: if every other input is known
        # non-controlling, the remaining one must be controlling.
        unknown = [n for n, v in zip(gate.inputs, ins) if v is None]
        if len(unknown) == 1 and all(
            v == _NONCONTROLLING[gt] for v in ins if v is not None
        ):
            return assign(unknown[0], controlling)
        return True

    @staticmethod
    def _forward(gt: GateType, ins: list[int | None]) -> int | None:
        if gt in (GateType.AND, GateType.NAND):
            if any(v == 0 for v in ins):
                core = 0
            elif all(v == 1 for v in ins):
                core = 1
            else:
                return None
            return 1 - core if gt is GateType.NAND else core
        if gt in (GateType.OR, GateType.NOR):
            if any(v == 1 for v in ins):
                core = 1
            elif all(v == 0 for v in ins):
                core = 0
            else:
                return None
            return 1 - core if gt is GateType.NOR else core
        if gt in (GateType.XOR, GateType.XNOR):
            if any(v is None for v in ins):
                return None
            parity = 0
            for v in ins:
                parity ^= v  # type: ignore[operator]
            return 1 - parity if gt is GateType.XNOR else parity
        if ins[0] is None:
            return None
        return 1 - ins[0] if gt is GateType.NOT else ins[0]


def oracle_static_learning(
    circuit: Circuit, engine: ImplicationEngine | None = None
) -> LearnedMap:
    """Indirect implications learned by contrapositive analysis, cached.

    For every non-constant net literal ``(a, v)`` and every consequent
    ``(b, w)`` of its unit closure, the contrapositive ``(b, 1-w) -> (a, 1-v)``
    is a tautology.  Only *indirect* contrapositives — those the direct
    closure of ``(b, 1-w)`` does not already derive — are recorded, which
    keeps the learned base small and every entry informative.
    """
    if engine is None:
        engine = OracleImplicationEngine(circuit)
    acc: dict[Lit, list[Lit]] = {}
    nets = list(circuit.primary_inputs) + [g.output for g in engine.order]
    for net in nets:
        if net in engine.constants:
            continue
        for v in (0, 1):
            closure = engine.unit_closure(net, v)
            if closure is None:
                continue
            for b, w in closure.items():
                if b == net or b in engine.constants:
                    continue
                back = engine.unit_closure(b, 1 - w)
                if back is None:
                    continue  # (b, 1-w) is itself contradictory
                if back.get(net) == 1 - v:
                    continue  # direct — the closure already knows it
                acc.setdefault((b, 1 - w), []).append((net, 1 - v))
    learned: LearnedMap = {
        ant: tuple(dict.fromkeys(cons)) for ant, cons in acc.items()
    }
    return learned


# ---------------------------------------------------------------------------
# Redundancy prover
# ---------------------------------------------------------------------------
class OracleRedundancyProver(RedundancyProver):
    """The prover with its traced dict closure and from-scratch branches."""

    def __init__(
        self,
        circuit: Circuit,
        depth: int = 2,
        engine: OracleImplicationEngine | None = None,
        **kwargs: Any,
    ) -> None:
        # The base class learns through the (oracle) engine; keep the
        # process-wide learned cache out of it both ways.
        key = netlist_hash(circuit)
        cached = _STATIC_LEARNING_CACHE.pop(key, None)
        super().__init__(
            circuit,
            depth=depth,
            engine=engine or OracleImplicationEngine(circuit),
            **kwargs,
        )
        _STATIC_LEARNING_CACHE.pop(key, None)
        if cached is not None:
            _STATIC_LEARNING_CACHE[key] = cached

    def _closure(
        self,
        literals: tuple[Lit, ...],
        use_learned: bool,
        constant_floor: int | None = None,
    ) -> _ClosureResult:
        """Propagate ``literals`` recording every step's justification.

        ``constant_floor`` restricts seeded constants to nets whose
        topological index is strictly below the floor (used when certifying
        a constant without circular reasoning); ``None`` seeds them all.
        """
        self.work["closures"] += 1
        values: dict[str, int] = {}
        steps: list[_Step] = []
        queue: list[str] = []
        conflict: list[_Step | None] = [None]

        def assign(net: str, value: int, kind: str, data: Any) -> bool:
            known = values.get(net)
            if known is None:
                deps = self._deps_for(kind, data, values)
                values[net] = value
                steps.append((net, value, kind, data, deps))
                queue.append(net)
                return True
            if known == value:
                return True
            deps = self._deps_for(kind, data, values)
            conflict[0] = (net, value, kind, data, deps)
            return False

        for cnet, cval in self.engine.constants.items():
            if (
                constant_floor is not None
                and self._topo_index.get(cnet, -1) >= constant_floor
            ):
                continue
            if not assign(cnet, cval, "constant", None):
                return _ClosureResult(values, steps, conflict[0])
        for net, value in literals:
            if not assign(net, value, "premise", None):
                return _ClosureResult(values, steps, conflict[0])

        while queue:
            net = queue.pop()
            if use_learned:
                key = (net, values[net])
                for cons_net, cons_val in self.learned.get(key, ()):
                    if not assign(cons_net, cons_val, "learned", key):
                        return _ClosureResult(values, steps, conflict[0])
            gates = list(self.engine.fanout.get(net, ()))
            driver = self.engine.driver.get(net)
            if driver is not None:
                gates.append(driver)
            for gate in gates:
                self.work["steps"] += 1

                def on_assign(n: str, v: int, _g: Gate = gate) -> bool:
                    return assign(n, v, "gate", _g.name)

                if not self.engine._imply_gate(gate, values, on_assign):
                    return _ClosureResult(values, steps, conflict[0])
        return _ClosureResult(values, steps, None)

    def _deps_for(
        self, kind: str, data: Any, values: dict[str, int]
    ) -> tuple[str, ...]:
        if kind == "gate":
            gate = self._gate_by_name[data]
            return tuple(
                n
                for n in dict.fromkeys((*gate.inputs, gate.output))
                if n in values
            )
        if kind == "learned":
            return (data[0],)
        return ()

    def _candidates(self, values: dict[str, int]) -> list[str]:
        """Unknown inputs of unjustified gates — the split universe."""
        out: list[str] = []
        seen: set[str] = set()
        for gate in self.engine.order:
            o = values.get(gate.output)
            if o is None:
                continue
            ins = [values.get(n) for n in gate.inputs]
            if None not in ins:
                continue
            if OracleImplicationEngine._forward(gate.gate_type, ins) == o:
                continue  # already justified by its inputs
            for n, v in zip(gate.inputs, ins):
                if v is None and n not in seen:
                    seen.add(n)
                    out.append(n)
                    if len(out) >= self.max_candidates:
                        return out
        return out

    def _budget_left(self) -> bool:
        return self.work["closures"] - self._fault_start < self.fault_budget

    def _refute(
        self, literals: tuple[Lit, ...], depth: int
    ) -> tuple[dict[str, Any] | None, dict[str, int] | None]:
        """Try to refute ``literals``; return (certificate, closure-values).

        On success the certificate is a pure chain/split proof node; on
        failure the conflict-free closure values are returned for
        consequence intersection by the caller.
        """
        self.work["refutes"] += 1
        res = self._closure(literals, True)
        if res.conflict is not None:
            node = self._chain_node(res)
            return (node, None) if node is not None else (None, None)
        if depth <= 0 or not self._budget_left():
            return None, res.values
        context = list(literals)
        plan: list[str] = []
        cur = res
        for x in self._candidates(res.values):
            if not self._budget_left():
                break
            self.work["splits"] += 1
            p0, v0 = self._refute((*context, (x, 0)), depth - 1)
            p1, v1 = self._refute((*context, (x, 1)), depth - 1)
            if p0 is not None and p1 is not None:
                if plan:
                    return self._nest(literals, (*plan, x)), None
                return {"split": x, "cases": [p0, p1]}, None
            branch_values = [
                v for p, v in ((p0, v0), (p1, v1)) if p is None
            ]
            if not branch_values or any(v is None for v in branch_values):
                continue
            if len(branch_values) == 1:
                common = dict(branch_values[0] or {})
            else:
                first, second = branch_values[0] or {}, branch_values[1] or {}
                common = {n: v for n, v in first.items() if second.get(n) == v}
            new = [
                (n, v) for n, v in common.items() if cur.values.get(n) != v
            ]
            if not new:
                continue
            self.work["intersections"] += 1
            context.extend(new)
            plan.append(x)
            cur = self._closure(tuple(context), True)
            if cur.conflict is not None:
                return self._nest(literals, tuple(plan)), None
        return None, cur.values if cur.conflict is None else None
