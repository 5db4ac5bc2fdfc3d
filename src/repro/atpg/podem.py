"""PODEM deterministic test generation for single stuck-at faults.

The paper tops off its random prefix with vectors "deterministically generated
using the FAN algorithm"; this module plays that role with PODEM (Goel 1981),
which shares FAN's objective/backtrace structure.  Implication is a two-channel
(good/faulty) three-valued simulation, backtrace is guided by SCOAP
controllability, and an X-path check prunes dead branches early.

The public entry points are :class:`PodemAtpg` for a single fault and
:func:`generate_deterministic_tests` to extend a test set over a fault list
with fault dropping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection

from repro import obs
from repro.analysis.kernel import X, ImplicationKernel
from repro.analysis.prover import LearnedMap
from repro.analysis.scoap import ScoapMeasures, compute_scoap
from repro.atpg.patterns import TestSet
from repro.circuit.netlist import Circuit
from repro.obs.events import ProgressEvent
from repro.simulation.fault_sim import FaultSimulator
from repro.simulation.faults import FaultSite, StuckAtFault

__all__ = [
    "PodemAtpg",
    "AtpgStatus",
    "AtpgOutcome",
    "DeterministicAtpgResult",
    "generate_deterministic_tests",
]

class AtpgStatus:
    """Per-fault ATPG outcome labels."""

    TESTED = "tested"
    REDUNDANT = "redundant"  # proved untestable (search exhausted)
    ABORTED = "aborted"      # backtrack limit hit


@dataclass
class AtpgOutcome:
    """Result of one PODEM call: a status and, when tested, a vector."""

    status: str
    pattern: list[int] | None = None
    backtracks: int = 0


class PodemAtpg:
    """PODEM test generator bound to one circuit.

    The search runs on the shared implication kernel
    (:mod:`repro.analysis.kernel`): good and faulty channels are simulated
    event by event, a decision pushes a trail mark, and a backtrack undoes
    to it.  The D-frontier and X-path checks read the same value array,
    restricted to the fault effect's output cone; learned implications pin
    good values in a third channel of it.
    """

    def __init__(
        self,
        circuit: Circuit,
        backtrack_limit: int = 2000,
        scoap: ScoapMeasures | None = None,
        learned: LearnedMap | None = None,
    ):
        circuit.validate()
        self.circuit = circuit
        self.kernel = ImplicationKernel(circuit)
        if scoap is None:
            scoap = compute_scoap(circuit)
        self.cc = [(scoap.cc0[n], scoap.cc1[n]) for n in self.kernel.names]
        self.backtrack_limit = backtrack_limit
        #: Whether learned implications pin good values (a third channel).
        self.learned = bool(learned)
        if learned:
            self.kernel.learned = self.kernel.compile_learned(learned)
        #: Cumulative counts over all :meth:`generate` calls: decision points
        #: failed early because learned implications pin the fault site to its
        #: stuck value, and D-frontier gates pruned because a learned
        #: implication pins a side input to the controlling value.
        self.learned_conflicts = 0
        self.learned_prunes = 0
        #: Primary-input assignments made by the search, flips included.
        self.decisions = 0
        self._outputs = frozenset(self.kernel.outputs)
        self._support_cache: dict[int, tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # Search support
    # ------------------------------------------------------------------
    def _d_frontier(
        self, gates: tuple[int, ...], cone: frozenset[int], pin_gate: int,
        site: int, value: int,
    ) -> list[int]:
        k = self.kernel
        val, n, gins, gout = k.val, k.n, k.gins, k.gout
        frontier = []
        for g in gates:
            o = gout[g]
            if val[o] != X and val[n + o] != X:
                continue
            # A D on an input: good and faulty both known and different.
            # For a pin fault the discrepancy originates *inside* the faulted
            # gate (the net itself is healthy), so the gate joins the frontier
            # as soon as the pin's net carries the activating value.
            if any(
                i in cone and X != val[i] != val[n + i] != X for i in gins[g]
            ) or (g == pin_gate and val[site] == 1 - value):
                frontier.append(g)
        return frontier

    def _x_path_exists(self, frontier: list[int]) -> bool:
        """True when some D-frontier output can still reach a PO through X nets."""
        k = self.kernel
        val, n, gout, fanout = k.val, k.n, k.gout, k.fanout

        def x_readers(net: int) -> list[int]:
            outs = [gout[r] for r in fanout[net]]
            return [o for o in outs if val[o] == X or val[n + o] == X]

        reached = k.reach((gout[g] for g in frontier), x_readers)
        return not self._outputs.isdisjoint(reached)

    def _prune_frontier(
        self, frontier: list[int], cone: frozenset[int]
    ) -> list[int]:
        """Drop frontier gates a learned pin provably blocks.

        A gate cannot propagate the effect when a side input outside the
        fault's output cone (so its faulty value always equals its good
        value) is still X but pinned to the gate's controlling value: every
        completion controls the gate identically in both channels.
        """
        k = self.kernel
        val, pinned = k.val, 2 * k.n
        kept = []
        for g in frontier:
            code = k.gtype[g]
            blocked = code < 4 and any(
                val[i] == X and i not in cone and val[pinned + i] == code >> 1
                for i in k.gins[g]
            )
            if blocked:
                self.learned_prunes += 1
            else:
                kept.append(g)
        return kept

    def _objective(
        self, site: int, value: int, frontier: list[int]
    ) -> tuple[int, int] | None:
        k = self.kernel
        if k.val[site] == X:
            return site, 1 - value
        if not frontier:
            return None
        cc = self.cc
        frontier.sort(key=lambda g: sum(cc[k.gout[g]]))
        for g in frontier:
            code = k.gtype[g]
            # AND/NAND want 1, OR/NOR want 0; the XOR family and single-input
            # gates have no controlling value and take 0.
            target = (code >> 1) ^ 1 if code < 4 else 0
            for i in k.gins[g]:
                if k.val[i] == X:
                    return i, target
        return None

    def _backtrace(self, net: int, value: int) -> tuple[int, int] | None:
        """Walk the objective back to an unassigned primary input."""
        k = self.kernel
        val, cc, n_pi = k.val, self.cc, k.n_pi
        for _ in range(10 * (len(k.gtype) + 1)):
            if net < n_pi:  # primary input
                return (net, value) if val[net] == X else None
            g = net - n_pi
            code = k.gtype[g]
            core = value ^ (code & 1)
            x_inputs = [i for i in k.gins[g] if val[i] == X]
            if not x_inputs:
                return None
            if code >= 6:  # BUF / NOT
                net, value = x_inputs[0], core
                continue
            if code >= 4:
                # Pick the easiest X input; target parity of core against the
                # definite inputs, defaulting to core when others are X.
                parity = 0
                for i in k.gins[g]:
                    if val[i] != X:
                        parity ^= val[i]
                target = core ^ parity if len(x_inputs) == 1 else core
                net, value = min(x_inputs, key=lambda i: min(cc[i])), target
                continue
            controlling = code >> 1
            if core == controlling:
                # One input at the controlling value suffices: easiest first.
                net = min(x_inputs, key=lambda i: cc[i][controlling])
                value = controlling
            else:
                # All inputs must be non-controlling: hardest first.
                net = max(x_inputs, key=lambda i: cc[i][1 - controlling])
                value = 1 - controlling
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
        k = self.kernel
        val, n = k.val, k.n
        site, value = k.index[fault.net], fault.value
        pin_gate = -1
        if fault.site is FaultSite.GATE_INPUT and fault.gate is not None:
            pin_gate = k.gate_index[fault.gate]
        cone, gates = k.load_fault(site, value, pin_gate, fault.pin)
        outputs = [po for po in k.outputs if po in cone]
        pinned = 2 * n
        # (pi, value, tried_both, trail mark before the assignment)
        decisions: list[tuple[int, int, bool, int]] = []
        backtracks = 0

        while True:
            if any(
                val[po] != X and val[n + po] != X and val[po] != val[n + po]
                for po in outputs
            ):
                # Unassigned inputs take ``fill`` (None leaves them 0).
                pattern = [(fill or 0) if v == X else v for v in val[: k.n_pi]]
                return AtpgOutcome(AtpgStatus.TESTED, pattern, backtracks)

            frontier: list[int] = []
            site_value = val[site]
            if site_value == value:
                failed = True  # activation impossible under this assignment
            elif site_value == X and self.learned and val[pinned + site] == value:
                # Learned implications pin the site to its stuck value in
                # every completion of this assignment: activation impossible.
                self.learned_conflicts += 1
                failed = True
            else:
                frontier = self._d_frontier(gates, cone, pin_gate, site, value)
                if self.learned and frontier:
                    frontier = self._prune_frontier(frontier, cone)
                failed = (
                    not self._x_path_exists(frontier)
                    if frontier
                    else site_value != X
                )

            if not failed:
                step = None
                objective = self._objective(site, value, frontier)
                if objective is not None:
                    step = self._backtrace(*objective)
                if step is None:
                    # Heuristic dead-end (e.g. the frontier's side inputs are
                    # X only in the faulty channel).  That is NOT a proof of
                    # failure — fall back to deciding any unassigned primary
                    # input of the fault's support cone, keeping REDUNDANT
                    # verdicts sound.
                    step = self._fallback_decision(site)
                if step is None:
                    failed = True  # support exhausted: genuinely dead
                else:
                    pi, pi_value = step
                    decisions.append((pi, pi_value, False, k.mark()))
                    self.decisions += 1
                    k.decide(pi, pi_value)
                    continue

            # Backtrack: flip the most recent single-tried decision.
            backtracks += 1
            if backtracks > self.backtrack_limit:
                return AtpgOutcome(AtpgStatus.ABORTED, None, backtracks)
            while decisions:
                pi, pi_value, tried_both, mark = decisions.pop()
                k.undo(mark)
                if tried_both:
                    continue
                decisions.append((pi, 1 - pi_value, True, mark))
                self.decisions += 1
                k.decide(pi, 1 - pi_value)
                break
            else:
                return AtpgOutcome(AtpgStatus.REDUNDANT, None, backtracks)

    def _fallback_decision(self, site: int) -> tuple[int, int] | None:
        """Next unassigned PI in the fault's support cone, or None.

        The support cone — every PI that can influence the fault's activation
        or observation, i.e. feeding any net of the site's output cone — is
        the sound decision universe: exhausting it proves redundancy.
        """
        k = self.kernel
        support = self._support_cache.get(site)
        if support is None:
            support = self._support_cache[site] = k.support(k.cone(site)[0])
        return next(((pi, 0) for pi in support if k.val[pi] == X), None)


@dataclass
class DeterministicAtpgResult:
    """Outcome of deterministic top-off generation over a fault list."""

    test_set: TestSet
    tested: list[StuckAtFault] = field(default_factory=list)
    redundant: list[StuckAtFault] = field(default_factory=list)
    aborted: list[StuckAtFault] = field(default_factory=list)
    skipped_untestable: list[StuckAtFault] = field(default_factory=list)
    backtracks: int = 0
    learned_prunes: int = 0
    learned_conflicts: int = 0


def generate_deterministic_tests(
    circuit: Circuit,
    faults: list[StuckAtFault],
    backtrack_limit: int = 2000,
    fill: int = 0,
    untestable: Collection[StuckAtFault] | None = None,
    scoap: ScoapMeasures | None = None,
    learned: LearnedMap | None = None,
) -> DeterministicAtpgResult:
    """Run PODEM over ``faults`` with fault dropping.

    Each generated vector is fault-simulated against the remaining targets so
    one vector can retire several faults, matching the classic flow the paper
    uses after its random prefix.  Faults listed in ``untestable`` — proved
    undetectable by the static implication screen — are recorded in
    ``skipped_untestable`` without spending any search on them; ``scoap``
    passes precomputed testability measures to the backtrace; ``learned``
    hands the prover's static learned implications to the search, where they
    fail impossible activations early and prune blocked D-frontier gates
    (the per-run effect is reported in ``backtracks`` / ``learned_prunes`` /
    ``learned_conflicts``).
    """
    atpg = PodemAtpg(
        circuit, backtrack_limit=backtrack_limit, scoap=scoap, learned=learned
    )
    simulator = FaultSimulator(circuit)
    result = DeterministicAtpgResult(
        test_set=TestSet(n_inputs=len(circuit.primary_inputs))
    )
    skip = frozenset(untestable) if untestable else frozenset()
    remaining = []
    for fault in faults:
        if fault in skip:
            result.skipped_untestable.append(fault)
        else:
            remaining.append(fault)
    if result.skipped_untestable:
        obs.inc("podem.skipped_untestable", len(result.skipped_untestable))
    n_targets = len(remaining)
    targets_done = 0
    with obs.span("atpg.podem", n_targets=n_targets) as podem_span:
        while remaining:
            target = remaining.pop(0)
            outcome = atpg.generate(target, fill=fill)
            targets_done += 1
            # Retired targets (dropped by simulation below) also count, so
            # report progress as targets *resolved*, not searches run.
            if obs.events_enabled() and (
                targets_done % 16 == 0 or len(remaining) <= 1
            ):
                obs.emit(
                    ProgressEvent(
                        stage="podem",
                        completed=n_targets - len(remaining) - 1,
                        total=n_targets,
                        unit="targets",
                        data={
                            "faults_remaining": len(remaining),
                            "vectors": len(result.test_set),
                            "aborted": len(result.aborted),
                        },
                    )
                )
            obs.inc("podem.backtracks", outcome.backtracks)
            result.backtracks += outcome.backtracks
            if outcome.status == AtpgStatus.REDUNDANT:
                obs.inc("podem.redundant")
                result.redundant.append(target)
                continue
            if outcome.status == AtpgStatus.ABORTED:
                obs.inc("podem.aborted")
                result.aborted.append(target)
                continue
            obs.inc("podem.tested")
            vector = outcome.pattern
            assert vector is not None
            result.test_set.append(vector, "deterministic")
            result.tested.append(target)
            if remaining:
                sim = simulator.run([vector], faults=remaining, drop_detected=False)
                dropped = set(sim.first_detection)
                result.tested.extend(f for f in remaining if f in dropped)
                remaining = [f for f in remaining if f not in dropped]
        result.learned_prunes = atpg.learned_prunes
        result.learned_conflicts = atpg.learned_conflicts
        obs.inc("podem.decisions", atpg.decisions)
        obs.inc("podem.gate_evals", atpg.kernel.evals)
        if atpg.learned:
            obs.inc("podem.learned_prunes", atpg.learned_prunes)
            obs.inc("podem.learned_conflicts", atpg.learned_conflicts)
        podem_span.set(
            n_vectors=len(result.test_set),
            n_redundant=len(result.redundant),
            n_aborted=len(result.aborted),
            n_skipped_untestable=len(result.skipped_untestable),
            n_backtracks=result.backtracks,
        )
    return result
