"""Switch-level fault simulation of layout-extracted realistic faults.

Plays the role of the paper's *swift* simulator: applies the stuck-at test
sequence to every extracted fault and records, per fault, the first detecting
vector under three detection criteria:

* **strict voltage** — a guaranteed, fully-resolved logic flip reaches a
  primary output (intermediate/unknown levels never count; floating inputs
  must fail under *both* trapped-charge assumptions);
* **potential voltage** — the classic switch-level-simulator convention: an
  unknown (X) level reaching a sensitised primary output also counts, and a
  floating input counts under *either* charge assumption.  Production
  fault simulators of the paper's era (including the original *swift*)
  report this measure;
* **IDDQ** — a quiescent-current test flags the vector (contention or a
  conducting bridge), regardless of logic values.

Mechanics: each behavioural fault class reduces to masked gate-level
injections —

* a bridge resolves per vector by the two drivers' strengths; winning-side
  vectors become masked stuck-at injections, intermediate-voltage vectors
  count as potential detections when the X reaches an output;
* stuck-on devices create cell-level contention, resolved the same way;
* stuck-open devices make the cell output float on the vectors where the
  broken network should drive, with charge-retention (sequence) semantics;
* floating inputs are evaluated under both trapped-charge assumptions.

An injection is a *force set* (one or more stuck forces on nets or gate-input
pins) plus the vector mask on which it applies.  A force set's detection word
does not depend on the mask, so :meth:`SwitchLevelFaultSimulator.run` works in
three passes:

1. every fault's handler returns its injection groups, with the masks
   computed in numpy and bit-packed with ``np.packbits``;
2. each distinct force set is simulated once, as one lane of the numpy
   bitslice engine (:meth:`NumpyFaultSimulator.detection_words`);
3. a group's first detection is the lowest set bit of the OR of
   ``detect[set] & mask`` over its injections — the earliest of the
   injections' own first hits — and the handler maps its groups' firsts to
   the fault's :class:`Detection`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro import obs
from repro.circuit.library import GateType
from repro.circuit.netlist import Gate
from repro.defects.fault_types import (
    BridgeFault,
    FloatingNetFault,
    RealisticFault,
    TransistorGateOpen,
    TransistorStuckOn,
    TransistorStuckOpen,
)
from repro.layout.cells import GND, VDD
from repro.layout.design import LayoutDesign
from repro.simulation.faults import FaultSite, StuckAtFault
from repro.simulation.numpy_sim import Lane, NumpyFaultSimulator
from repro.switchsim.strengths import (
    PI_STRENGTH,
    SUPPLY_STRENGTH,
    V_HIGH,
    V_LOW,
    cell_conductances,
    solve_with_tap,
)

__all__ = ["SwitchSimResult", "SwitchLevelFaultSimulator", "Detection"]

_SUPPLIES = (VDD, GND)

#: ``(force set, vector mask)``: the forces apply on the mask's vectors.
_Injection = tuple[Lane, np.ndarray]

#: Injections staged before their masks are checked and packed together.
_STAGED_ROWS = 1024

#: Faults planned per batch times vectors: bounds the bridge planner's
#: per-row arrays.
_PLAN_ELEMENTS = 1 << 16

#: Index of the lowest set bit of each byte value (0 for 0).
_LOWEST_BIT = np.array(
    [(v & -v).bit_length() - 1 if v else 0 for v in range(256)], dtype=np.int64
)


@dataclass(frozen=True)
class Detection:
    """First-detection indices for one fault under each criterion."""

    strict: int | None = None
    potential: int | None = None
    iddq: int | None = None
    #: Peak quiescent current (VDD x conductance units) over the sequence.
    iddq_current: float = 0.0

    def merged_potential(self) -> int | None:
        """Potential never later than strict; normalise just in case."""
        candidates = [k for k in (self.strict, self.potential) if k is not None]
        return min(candidates) if candidates else None


@dataclass
class SwitchSimResult:
    """Per-fault first-detection indices under all detection techniques."""

    faults: list[RealisticFault]
    first_detection: dict[int, int] = field(default_factory=dict)
    first_detection_potential: dict[int, int] = field(default_factory=dict)
    first_detection_iddq: dict[int, int] = field(default_factory=dict)
    #: Peak quiescent current per fault (conductance units x VDD; only
    #: contention-causing faults appear).
    iddq_peak: dict[int, float] = field(default_factory=dict)
    n_patterns: int = 0

    def detected_voltage(self, fault: RealisticFault) -> int | None:
        """First strictly-detecting vector under voltage testing, or None."""
        return self.first_detection.get(id(fault))

    def detected_potential(self, fault: RealisticFault) -> int | None:
        """First (at least potentially) detecting vector, or None."""
        return self.first_detection_potential.get(id(fault))

    def detected_iddq(self, fault: RealisticFault) -> int | None:
        """First detecting vector under IDDQ testing, or None."""
        return self.first_detection_iddq.get(id(fault))

    def iddq_peak_current(self, fault: RealisticFault) -> float:
        """Largest quiescent current the fault draws over the sequence."""
        return self.iddq_peak.get(id(fault), 0.0)


@dataclass
class _CellInfo:
    gate: Gate
    instance: str
    inputs: tuple[str, ...]
    output: str
    gate_type: GateType


@dataclass
class _Pending:
    """One fault after pass 1.

    Each of ``groups`` resolves to the first vector where any of its
    injections misbehaves (None if none does); ``finish(firsts, *args)``
    maps those firsts, in group order, to the fault's :class:`Detection`.
    ``finish`` is a module-level function rather than a closure, which
    keeps the state held per fault until pass 3 small.
    """

    groups: list[list[_Injection]]
    finish: Callable[..., Detection]
    args: tuple = ()


def _given(firsts: Sequence[int | None], detection: Detection) -> Detection:
    return detection


def _fixed(detection: Detection) -> _Pending:
    """A fault whose detection needs no simulation."""
    return _Pending([], _given, (detection,))


def _voltage_detection(
    firsts: Sequence[int | None], iddq: int | None, peak: float
) -> Detection:
    """Groups (flips, X vectors): strict from the flips, potential from both."""
    strict, unknown = firsts
    return Detection(strict, _min_opt(strict, unknown), iddq, iddq_current=peak)


def _voltage(
    strict: list[_Injection],
    x_only: list[_Injection],
    iddq: int | None = None,
    peak: float = 0.0,
) -> _Pending:
    return _Pending([strict, x_only], _voltage_detection, (iddq, peak))


def _stuck_open_detection(firsts: Sequence[int | None]) -> Detection:
    """Groups (flips, X vectors) per cell: any cell's misbehaviour counts."""
    return Detection(_min_all(firsts[0::2]), _min_all(firsts), None)


def _gate_open_detection(
    firsts: Sequence[int | None], iddq: int | None, peak: float
) -> Detection:
    """Groups (flips, X vectors) for the always-on gate, then the always-off
    one: strict needs both assumptions to fail, potential either."""
    return Detection(
        _max_opt(firsts[0], firsts[2]), _min_all(firsts), iddq, iddq_current=peak
    )


def _floating_detection(firsts: Sequence[int | None]) -> Detection:
    """Groups per trapped-charge assumption: strict needs both to fail."""
    low, high = firsts
    return Detection(_max_opt(low, high), _min_opt(low, high), None)


class _InjectionTable:
    """Pass-1 store: the distinct force sets and every injection's packed mask.

    Injections are staged, then checked and packed ``_STAGED_ROWS`` at a
    time: one with an empty mask is dropped, so its forces are not simulated
    unless another injection needs them.
    """

    def __init__(self, n_patterns: int):
        self.n_patterns = n_patterns
        self.set_index: dict[Lane, int] = {}
        self.sets: list[Lane] = []
        self.injection_sets: list[int] = []
        self.injection_groups: list[int] = []
        self.n_groups = 0
        self._masks: list[np.ndarray] = []
        self._staged: list[tuple[int, Lane, np.ndarray]] = []

    def add(self, group: list[_Injection]) -> int:
        """Register one group of injections; return its id."""
        group_id = self.n_groups
        self.n_groups += 1
        self._staged.extend((group_id, forces, mask) for forces, mask in group)
        if len(self._staged) >= _STAGED_ROWS:
            self.flush()
        return group_id

    def flush(self) -> None:
        """Check and pack the staged injections."""
        if not self._staged:
            return
        masks = np.concatenate([mask for _, _, mask in self._staged]).reshape(
            len(self._staged), self.n_patterns
        )
        live = masks.any(axis=1)
        for (group_id, forces, _), alive in zip(self._staged, live.tolist()):
            if alive:
                set_id = self.set_index.get(forces)
                if set_id is None:
                    set_id = self.set_index[forces] = len(self.sets)
                    self.sets.append(forces)
                self.injection_sets.append(set_id)
                self.injection_groups.append(group_id)
        if live.any():
            self._masks.append(np.packbits(masks[live], axis=1, bitorder="little"))
        self._staged = []

    def firsts(self, detect: np.ndarray) -> list[int | None]:
        """Each group's 1-based first detecting vector, given the set words.

        ``detect`` holds one row of detection words per force set (call
        :meth:`flush` first, so that ``sets`` is complete); bytes of its
        little-endian words line up with the masks' packed bytes.
        """
        never = self.n_patterns + 1
        earliest = np.full(self.n_groups, never, dtype=np.int64)
        if self.injection_sets:
            detect_bytes = np.ascontiguousarray(detect).view(np.uint8)
            sets = np.asarray(self.injection_sets, dtype=np.intp)
            groups = np.asarray(self.injection_groups, dtype=np.intp)
            start = 0
            for masks in self._masks:
                end = start + len(masks)
                hits = detect_bytes[sets[start:end], : masks.shape[1]] & masks
                nonzero = hits != 0
                byte = nonzero.argmax(axis=1)
                value = hits[np.arange(len(hits)), byte]
                first = np.where(
                    nonzero.any(axis=1), byte * 8 + _LOWEST_BIT[value] + 1, never
                )
                np.minimum.at(earliest, groups[start:end], first)
                start = end
        return [k if k != never else None for k in earliest.tolist()]


class SwitchLevelFaultSimulator:
    """Simulator bound to one layout design and one vector sequence."""

    def __init__(
        self,
        design: LayoutDesign,
        patterns: Sequence[Sequence[int]],
        v_low: float = V_LOW,
        v_high: float = V_HIGH,
    ):
        self.design = design
        self.mapped = design.mapped
        self.patterns = [list(p) for p in patterns]
        self.n_patterns = len(self.patterns)
        if not 0 < v_low <= 0.5 <= v_high < 1:
            raise ValueError("thresholds must satisfy 0 < v_low <= 0.5 <= v_high < 1")
        self.v_low = v_low
        self.v_high = v_high
        self.engine = NumpyFaultSimulator(self.mapped)
        self.packed = self.engine.pack(self.patterns)

        self.cells: dict[str, _CellInfo] = {}
        self.driver_cell: dict[str, _CellInfo] = {}
        for gate in self.mapped.gates:
            info = _CellInfo(gate, gate.name, gate.inputs, gate.output, gate.gate_type)
            self.cells[gate.name] = info
            self.driver_cell[gate.output] = info
        self._combos: dict[str, np.ndarray] = {}
        self._conductances: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        #: Each net's force-to-0 and force-to-1 lanes.
        self._net_forces: dict[str, tuple[Lane, Lane]] = {}
        self._rows: tuple[dict[str, int], np.ndarray, np.ndarray] | None = None

        self._simulate_good()

    # ------------------------------------------------------------------
    # Fault-free preparation
    # ------------------------------------------------------------------
    def _simulate_good(self) -> None:
        # Per-net value arrays over all vectors (numpy uint8), unpacked from
        # the engine's bitslice good values.
        good = self.engine.good_values(self.packed)
        bits = np.unpackbits(
            np.ascontiguousarray(good.T).view(np.uint8),
            axis=1,
            count=self.n_patterns,
            bitorder="little",
        )
        net_id = self.engine.logic.net_id
        self.values: dict[str, np.ndarray] = {
            net: bits[net_id[net]] for net in self.mapped.nets
        }

        # Per-net drive strength arrays (strength holding the current value).
        self.drive: dict[str, np.ndarray] = {}
        for net in self.mapped.nets:
            self.drive[net] = self._net_drive(net)

    def _net_drive(self, net: str) -> np.ndarray:
        if net in _SUPPLIES:
            return np.full(self.n_patterns, SUPPLY_STRENGTH)
        cell = self.driver_cell.get(net)
        if cell is None:  # primary input: tester-driven
            return np.full(self.n_patterns, PI_STRENGTH)
        combos = self._combo_indices(cell)
        g_up, g_down = self._tables(cell)
        value = self.values[net]
        return np.where(value == 1, g_up[combos], g_down[combos])

    def _combo_indices(self, cell: _CellInfo) -> np.ndarray:
        combos = self._combos.get(cell.instance)
        if combos is None:
            combos = np.zeros(self.n_patterns, dtype=np.int64)
            for i, net in enumerate(cell.inputs):
                combos |= self.values[net].astype(np.int64) << i
            self._combos[cell.instance] = combos
        return combos

    def _tables(
        self,
        cell: _CellInfo,
        n_mods: tuple[tuple[int, str], ...] = (),
        p_mods: tuple[tuple[int, str], ...] = (),
    ) -> tuple[np.ndarray, np.ndarray]:
        """(G_pullup, G_pulldown) per input combination of a (faulty) cell."""
        n = len(cell.inputs)
        key = (cell.gate_type, n, n_mods, p_mods)
        tables = self._conductances.get(key)
        if tables is None:
            g_up = np.zeros(2**n)
            g_down = np.zeros(2**n)
            for code in range(2**n):
                bits = tuple((code >> i) & 1 for i in range(n))
                up, down = cell_conductances(
                    cell.gate_type, bits, dict(n_mods), dict(p_mods)
                )
                g_up[code], g_down[code] = up, down
            tables = self._conductances[key] = (g_up, g_down)
        return tables

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, faults: Sequence[RealisticFault]) -> SwitchSimResult:
        """Simulate every fault; return first-detection indices."""
        result = SwitchSimResult(faults=list(faults), n_patterns=self.n_patterns)
        with obs.span(
            "switch_sim.run", n_faults=len(result.faults), n_patterns=self.n_patterns
        ):
            detections, table = self._evaluate(result.faults)
            for fault, det in zip(result.faults, detections):
                if det.strict is not None:
                    result.first_detection[id(fault)] = det.strict
                potential = det.merged_potential()
                if potential is not None:
                    result.first_detection_potential[id(fault)] = potential
                if det.iddq is not None:
                    result.first_detection_iddq[id(fault)] = det.iddq
                if det.iddq_current > 0:
                    result.iddq_peak[id(fault)] = det.iddq_current
        obs.inc("switch_sim.faults_simulated", len(result.faults))
        classes = Counter(type(fault).__name__ for fault in result.faults)
        for name in sorted(classes):
            obs.inc(f"switch_sim.class.{name}", classes[name])
        obs.inc("switch_sim.injections", len(table.injection_sets))
        obs.inc("switch_sim.force_sets", len(table.sets))
        obs.inc(
            "switch_sim.lane_batches", -(-len(table.sets) // self.engine.lane_batch)
        )
        obs.inc("switch_sim.detected_strict", len(result.first_detection))
        obs.inc(
            "switch_sim.detected_potential", len(result.first_detection_potential)
        )
        obs.inc("switch_sim.detected_iddq", len(result.first_detection_iddq))
        return result

    def _dispatch(self, fault: RealisticFault) -> Detection:
        """Simulate one fault on its own."""
        return self._evaluate([fault])[0][0]

    def _evaluate(
        self, faults: Iterable[RealisticFault]
    ) -> tuple[list[Detection], _InjectionTable]:
        """The three passes: collect injections, simulate sets, resolve."""
        table = _InjectionTable(self.n_patterns)
        faults = list(faults)
        plans = []
        chunk = max(1, _PLAN_ELEMENTS // max(self.n_patterns, 1))
        for start in range(0, len(faults), chunk):
            batch = faults[start : start + chunk]
            # External-net bridges are planned together, as rows of arrays;
            # each is emitted in its fault's turn.
            external = [self._is_external_bridge(fault) for fault in batch]
            bridges = self._external_bridges(
                [fault for fault, ext in zip(batch, external) if ext]
            )
            for fault, ext in zip(batch, external):
                pending = next(bridges) if ext else self._plan(fault)
                ids = tuple(table.add(group) for group in pending.groups)
                plans.append((pending.finish, pending.args, ids))
        table.flush()
        detect = self.engine.detection_words(table.sets, self.packed, self.n_patterns)
        firsts = table.firsts(detect)
        detections = [
            finish([firsts[i] for i in ids], *args) for finish, args, ids in plans
        ]
        return detections, table

    def _plan(self, fault: RealisticFault) -> _Pending:
        if isinstance(fault, BridgeFault):
            return self._bridge(fault)
        if isinstance(fault, TransistorStuckOn):
            return self._stuck_on(fault.transistor)
        if isinstance(fault, TransistorStuckOpen):
            return self._stuck_open(fault.transistors)
        if isinstance(fault, TransistorGateOpen):
            return self._gate_open(fault.transistor)
        if isinstance(fault, FloatingNetFault):
            return self._floating_net(fault)
        raise TypeError(f"unknown fault class {type(fault).__name__}")

    # ------------------------------------------------------------------
    # Injection helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _first_true(mask: np.ndarray) -> int | None:
        indices = np.flatnonzero(mask)
        return int(indices[0]) + 1 if indices.size else None

    def _flip_injections(
        self, net: str, flip0: np.ndarray, flip1: np.ndarray
    ) -> list[_Injection]:
        """Masked single-net injections for force-to-0/force-to-1 vectors."""
        if net in _SUPPLIES:
            return []
        forces = self._net_forces.get(net)
        if forces is None:
            forces = self._net_forces[net] = (
                (StuckAtFault(net, 0),),
                (StuckAtFault(net, 1),),
            )
        return [(forces[0], flip0), (forces[1], flip1)]

    def _x_injections(
        self, net: str, x_mask: np.ndarray, values: np.ndarray
    ) -> list[_Injection]:
        """Potential-detection injections: force opposite of good at X vectors."""
        return self._flip_injections(
            net, x_mask & (values == 1), x_mask & (values == 0)
        )

    # ------------------------------------------------------------------
    # Bridge faults
    # ------------------------------------------------------------------
    def _bridge(self, fault: BridgeFault) -> _Pending:
        a, b = fault.net_a, fault.net_b
        if {a, b} == set(_SUPPLIES):
            # Power-to-ground short: the die draws massive current and no
            # valid levels exist — any vector fails either test.
            if self.n_patterns:
                return _fixed(Detection(1, 1, 1, iddq_current=1e3))
            return _fixed(Detection())
        if "#" in a or "#" in b:
            return self._bridge_internal(fault)
        return next(self._external_bridges([fault]))

    @staticmethod
    def _is_external_bridge(fault: RealisticFault) -> bool:
        """A bridge :meth:`_external_bridges` plans: between two external
        nets, not rail to rail."""
        return (
            isinstance(fault, BridgeFault)
            and "#" not in fault.net_a
            and "#" not in fault.net_b
            and {fault.net_a, fault.net_b} != set(_SUPPLIES)
        )

    def _external_bridges(self, faults: Sequence[BridgeFault]) -> Iterator[_Pending]:
        """Plan bridges between external nets, one array row per bridge.

        Per vector, the two drivers fight where the nets' good values
        differ; the bridged node settles at the divider voltage of the two
        drive strengths, and a side that loses the fight is forced to the
        winner's value.  Every row's arithmetic is that of a lone bridge.
        The plans are yielded one at a time, so that each can be consumed
        before the next one's objects exist.
        """
        if not self.n_patterns:
            for _ in faults:
                yield _fixed(Detection())
            return
        row, high, drive = self._bridge_rows()
        rows_a = [row[f.net_a] for f in faults]
        rows_b = [row[f.net_b] for f in faults]
        high_a, high_b = high[rows_a], high[rows_b]
        a_high = high_a & ~high_b  # a = 1 fights b = 0
        b_high = ~high_a & high_b  # a = 0 fights b = 1
        diff = a_high | b_high
        excited = diff.any(axis=1).tolist()
        iddq = (diff.argmax(axis=1) + 1).tolist()

        ga, gb = drive[rows_a], drive[rows_b]
        total = ga + gb
        # Quiescent current of the fight: VDD through the two drive paths in
        # series (zero bridge resistance).
        peaks = np.where(diff, ga * gb / total, 0.0).max(axis=1).tolist()
        # Divider voltage of the bridged node: on a fighting vector only the
        # high side's conductance pulls up.
        v_node = np.where(high_a, ga, gb) / total
        del ga, gb, total
        high_wins = v_node >= self.v_high
        # Wired-AND tie-break: an exactly balanced fight resolves low.
        low_wins = (v_node <= self.v_low) | (v_node == 0.5)
        unresolved = ~(high_wins | low_wins)
        a_low, b_low = a_high & low_wins, b_high & low_wins
        a_up, b_up = b_high & high_wins, a_high & high_wins
        a_x, b_x = a_high & unresolved, b_high & unresolved

        for k, fault in enumerate(faults):
            if not excited[k]:
                yield _fixed(Detection())
                continue
            a, b = fault.net_a, fault.net_b
            strict = self._flip_injections(b, b_low[k], b_up[k])
            strict += self._flip_injections(a, a_low[k], a_up[k])
            x_only = self._flip_injections(a, a_x[k], b_x[k])
            x_only += self._flip_injections(b, b_x[k], a_x[k])
            yield _voltage(strict, x_only, iddq[k], peaks[k])

    def _bridge_rows(self) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
        """Row of every net and rail, and the rows' levels (is 1) and drives.

        Built on first use."""
        if self._rows is None:
            nets = [net for net in self.mapped.nets if net not in _SUPPLIES]
            nets += _SUPPLIES
            high = np.stack([self._rail_or_values(net) == 1 for net in nets])
            drive = np.stack([self._rail_or_drive(net) for net in nets])
            self._rows = ({net: k for k, net in enumerate(nets)}, high, drive)
        return self._rows

    def _rail_or_values(self, net: str) -> np.ndarray:
        if net == VDD:
            return np.ones(self.n_patterns, dtype=np.uint8)
        if net == GND:
            return np.zeros(self.n_patterns, dtype=np.uint8)
        return self.values[net]

    def _rail_or_drive(self, net: str) -> np.ndarray:
        if net in _SUPPLIES:
            return np.full(self.n_patterns, SUPPLY_STRENGTH)
        return self.drive[net]

    def _bridge_internal(self, fault: BridgeFault) -> _Pending:
        """Bridge between an external net and a cell-internal chain node."""
        internal = fault.net_a if "#" in fault.net_a else fault.net_b
        external = fault.net_b if internal == fault.net_a else fault.net_a
        if "#" in external:
            # Internal-to-internal bridges across cells: both nodes sit
            # inside series stacks; the vector-level effect is at worst an
            # intermediate level.  Voltage-undetectable; IDDQ flags the
            # conducting pair (conservatively: from the first vector, at a
            # weak stack-limited current).
            if self.n_patterns:
                return _fixed(Detection(None, None, 1, iddq_current=0.1))
            return _fixed(Detection())
        instance, tag = internal.split("#", 1)
        cell = self.cells.get(instance)
        if cell is None:
            return _fixed(Detection())
        tap_index = int(tag[1:])

        out = cell.output
        combos = self._combo_indices(cell)
        ext_vals = self._rail_or_values(external)
        ext_drive = self._rail_or_drive(external)
        out_vals = self.values[out]

        # Solve the tapped cell once per distinct (input combination,
        # external value, external drive) triple.
        n = len(cell.inputs)
        drives, drive_index = np.unique(ext_drive, return_inverse=True)
        keys = ((drive_index.reshape(-1) * 2 + ext_vals) << n) | combos
        triples, inverse = np.unique(keys, return_inverse=True)
        out_levels = np.empty(len(triples), dtype=np.int8)
        tap_levels = np.empty(len(triples), dtype=np.int8)
        for t, key in enumerate(triples.tolist()):
            code = key & ((1 << n) - 1)
            out_levels[t], tap_levels[t] = solve_with_tap(
                cell.gate_type,
                tuple((code >> i) & 1 for i in range(n)),
                tap_index,
                float((key >> n) & 1),
                float(drives[key >> (n + 1)]),
            )
        out_new = out_levels[inverse.reshape(-1)]
        tap_val = tap_levels[inverse.reshape(-1)]

        out_x = out_new == 2
        ext_x = tap_val == 2
        iddq_mask = out_x | ext_x | (out_new != out_vals)

        strict = self._flip_injections(
            out, (out_new == 0) & (out_vals == 1), (out_new == 1) & (out_vals == 0)
        )
        strict += self._flip_injections(
            external, (tap_val == 0) & (ext_vals == 1), (tap_val == 1) & (ext_vals == 0)
        )
        x_only = self._x_injections(out, out_x, out_vals) + self._x_injections(
            external, ext_x, ext_vals
        )
        peak = 0.0
        if iddq_mask.any():
            # The fight runs through the external driver and the cell stack;
            # bound it by the external drive strength at the worst vector.
            peak = float(np.where(iddq_mask, np.minimum(ext_drive, 4.0), 0.0).max())
        return _voltage(strict, x_only, self._first_true(iddq_mask), peak)

    # ------------------------------------------------------------------
    # Transistor faults
    # ------------------------------------------------------------------
    def _device(self, name: str) -> tuple[_CellInfo, str, int] | None:
        instance, dev = name.rsplit(".", 1)
        cell = self.cells.get(instance)
        if cell is None:
            return None
        return cell, dev[0].lower(), int(dev[1:])

    def _stuck_on(self, device: str) -> _Pending:
        located = self._device(device)
        if located is None:
            return _fixed(Detection())
        return self._stuck_on_cell(*located)

    def _stuck_on_cell(self, cell: _CellInfo, polarity: str, index: int) -> _Pending:
        mod = ((index, "on"),)
        g_up, g_down = self._tables(
            cell, mod if polarity == "n" else (), mod if polarity == "p" else ()
        )

        combos = self._combo_indices(cell)
        up = g_up[combos]
        down = g_down[combos]
        out_vals = self.values[cell.output]

        contention = (up > 0) & (down > 0)
        iddq = self._first_true(contention)
        with np.errstate(invalid="ignore", divide="ignore"):
            fight = np.where(contention, up * down / np.where(up + down > 0, up + down, 1.0), 0.0)
        peak_current = float(fight.max()) if contention.any() else 0.0

        total = up + down
        with np.errstate(invalid="ignore", divide="ignore"):
            v_node = np.where(total > 0, up / np.where(total > 0, total, 1.0), np.nan)
        flips1 = (v_node >= self.v_high) & (out_vals == 0)
        flips0 = ((v_node <= self.v_low) | (v_node == 0.5)) & (out_vals == 1)
        x_mask = contention & (v_node > self.v_low) & (v_node < self.v_high) & (v_node != 0.5)

        return _voltage(
            self._flip_injections(cell.output, flips0, flips1),
            self._x_injections(cell.output, x_mask, out_vals),
            iddq,
            peak_current,
        )

    def _stuck_open(self, devices: tuple[str, ...]) -> _Pending:
        by_cell: dict[str, tuple[_CellInfo, dict[int, str], dict[int, str]]] = {}
        for name in devices:
            located = self._device(name)
            if located is None:
                continue
            cell, polarity, index = located
            entry = by_cell.setdefault(cell.instance, (cell, {}, {}))
            if polarity == "n":
                entry[1][index] = "absent"
            else:
                entry[2][index] = "absent"
        if not by_cell:
            return _fixed(Detection())
        # Multi-cell stuck-open sets (e.g. a supply-rail break) are handled
        # per cell; detection by any cell's misbehaviour counts.
        groups = []
        for cell, n_mods, p_mods in by_cell.values():
            groups += self._stuck_open_one_cell(
                cell, tuple(sorted(n_mods.items())), tuple(sorted(p_mods.items()))
            ).groups
        return _Pending(groups, _stuck_open_detection)  # no quiescent current

    def _stuck_open_one_cell(
        self,
        cell: _CellInfo,
        n_mods: tuple[tuple[int, str], ...],
        p_mods: tuple[tuple[int, str], ...],
    ) -> _Pending:
        g_up, g_down = self._tables(cell, n_mods, p_mods)
        # Per input combination: 0/1 = the output is driven to that value,
        # 2 = a residual fight (cannot happen in these families), 3 = the
        # output floats.
        kinds = np.where(
            g_up > 0, np.where(g_down > 0, 2, 1), np.where(g_down > 0, 0, 3)
        )[self._combo_indices(cell)]
        out_vals = self.values[cell.output]

        # Charge retention: a floating output keeps the value of the last
        # vector that drove it (unknown before the first); a fight is X and
        # leaves the charge alone.
        last = np.maximum.accumulate(np.where(kinds < 2, np.arange(self.n_patterns), -1))
        floating = kinds == 3
        faulty = np.where(floating, 2, kinds)
        held = floating & (last >= 0)
        faulty[held] = kinds[last[held]]

        x_mask = faulty == 2
        flips0 = (faulty == 0) & (out_vals == 1)
        flips1 = (faulty == 1) & (out_vals == 0)
        return _voltage(
            self._flip_injections(cell.output, flips0, flips1),
            self._x_injections(cell.output, x_mask, out_vals),
        )

    def _gate_open(self, device: str) -> _Pending:
        """Floating single gate: unknown but fixed state.

        Strict voltage detection requires failing under both the always-on
        and always-off assumption; potential detection under either.
        """
        located = self._device(device)
        if located is None:
            return _fixed(Detection())
        cell, polarity, index = located
        off = ((index, "absent"),)
        off_mods = (off, ()) if polarity == "n" else ((), off)

        on = self._stuck_on_cell(cell, polarity, index)
        off = self._stuck_open_one_cell(cell, *off_mods)
        return _Pending(on.groups + off.groups, _gate_open_detection, on.args)

    # ------------------------------------------------------------------
    # Floating-net (open) faults
    # ------------------------------------------------------------------
    def _floating_net(self, fault: FloatingNetFault) -> _Pending:
        if fault.floating_inputs:
            return self._floating_inputs(fault)
        if fault.stuck_open:
            return self._stuck_open(fault.stuck_open)
        # Only a primary-output observer floats: the tester cannot *rely* on
        # the unknown level (strict: undetected) but will very likely see a
        # wrong value at some point (potential: first vector).
        if fault.floats_output_port and self.n_patterns:
            return _fixed(Detection(None, 1, None))
        return _fixed(Detection())

    def _floating_inputs(self, fault: FloatingNetFault) -> _Pending:
        net = fault.net
        if net not in self.values:
            return _fixed(Detection())
        forces_template: list[tuple[str, int]] = []
        for instance, _ in fault.floating_inputs:
            cell = self.cells.get(instance)
            if cell is None:
                continue
            for pin, pin_net in enumerate(cell.inputs):
                if pin_net == net:
                    forces_template.append((instance, pin))
        if not forces_template:
            return _fixed(Detection())

        net_vals = self.values[net]
        groups = [
            [
                (
                    tuple(
                        StuckAtFault(net, assumption, FaultSite.GATE_INPUT, inst, pin)
                        for inst, pin in forces_template
                    ),
                    net_vals == (1 - assumption),
                )
            ]
            for assumption in (0, 1)
        ]
        return _Pending(groups, _floating_detection)


def _min_opt(a: int | None, b: int | None) -> int | None:
    candidates = [x for x in (a, b) if x is not None]
    return min(candidates) if candidates else None


def _min_all(values: Sequence[int | None]) -> int | None:
    candidates = [x for x in values if x is not None]
    return min(candidates) if candidates else None


def _max_opt(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return max(a, b)
