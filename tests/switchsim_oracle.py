"""The per-fault switch-level fault simulator, kept as a test oracle.

:class:`OracleSwitchLevelFaultSimulator` walks the faults one at a time,
packs every vector mask bit by bit, and calls the pure-python wide-word
engine once per (force set, mask) injection and packed group, with
``detection_word_multi`` for multi-pin force sets.  That method and its
compiler, ``_multi_program``, live on here in :class:`OracleFaultSimulator`,
since the library engine no longer carries them.

``repro.switchsim.simulator`` must reproduce this simulator exactly: the
same strict, potential and IDDQ first detections for every fault, and the
same peak quiescent currents down to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.circuit.library import GateType
from repro.circuit.netlist import Circuit, Gate
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
from repro.simulation.fault_sim import FaultSimulator, _Program
from repro.simulation.faults import FaultSite, StuckAtFault
from repro.simulation.logic_sim import pack_patterns
from repro.switchsim.simulator import Detection, SwitchSimResult
from repro.switchsim.strengths import (
    PI_STRENGTH,
    SUPPLY_STRENGTH,
    V_HIGH,
    V_LOW,
    cell_conductances,
    solve_with_tap,
)

_SUPPLIES = (VDD, GND)


class OracleFaultSimulator(FaultSimulator):
    """The python wide-word engine with masked multi-site injection."""

    def __init__(self, circuit: Circuit) -> None:
        super().__init__(circuit)
        self._multi_programs: dict[tuple[StuckAtFault, ...], _Program] = {}

    def _multi_program(self, forces: tuple[StuckAtFault, ...]) -> _Program:
        """Compiled schedule for several simultaneous stuck forces."""
        program = self._multi_programs.get(forces)
        if program is not None:
            return program
        logic = self.logic
        net_force: dict[int, int] = {}
        pin_force: dict[tuple[int, int], int] = {}
        gates: set[int] = set()
        po_ids: list[int] = []
        for fault in forces:
            stuck_word = self.mask if fault.value else 0
            nid = logic.net_id[fault.net]
            if fault.site is FaultSite.NET:
                net_force[nid] = stuck_word
            else:
                pin_force[(self._gate_index[fault.gate], fault.pin)] = stuck_word
            cone = self._cone(nid)
            gates.update(cone.gate_idx)
            for po in cone.po_ids:
                if po not in po_ids:
                    po_ids.append(po)
        program = self._compile(sorted(gates), po_ids, net_force, pin_force)
        self._multi_programs[forces] = program
        return program

    def detection_word_multi(
        self,
        forces: Sequence[StuckAtFault],
        good_values: Mapping[str, int] | Sequence[int],
    ) -> int:
        """Detection mask for several simultaneous stuck forces.

        The forced cone is the union of the individual cones; compiled
        schedules are memoised per force tuple.
        """
        if not forces:
            return 0
        good = self._good_list(good_values)
        return self._detect(self._multi_program(tuple(forces)), good)


@dataclass
class _CellInfo:
    gate: Gate
    instance: str
    inputs: tuple[str, ...]
    output: str
    gate_type: GateType


class OracleSwitchLevelFaultSimulator:
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
        self.fault_sim = OracleFaultSimulator(self.mapped)
        self.width = self.fault_sim.width
        self.patterns = [list(p) for p in patterns]
        self.n_patterns = len(self.patterns)
        if not 0 < v_low <= 0.5 <= v_high < 1:
            raise ValueError("thresholds must satisfy 0 < v_low <= 0.5 <= v_high < 1")
        self.v_low = v_low
        self.v_high = v_high

        self.cells: dict[str, _CellInfo] = {}
        self.driver_cell: dict[str, _CellInfo] = {}
        for gate in self.mapped.gates:
            info = _CellInfo(gate, gate.name, gate.inputs, gate.output, gate.gate_type)
            self.cells[gate.name] = info
            self.driver_cell[gate.output] = info

        self._simulate_good()

    # ------------------------------------------------------------------
    # Fault-free preparation
    # ------------------------------------------------------------------
    def _simulate_good(self) -> None:
        n_inputs = len(self.mapped.primary_inputs)
        width = self.width
        self.groups = pack_patterns(self.patterns, n_inputs, width)
        self.good: list[dict[str, int]] = [
            self.fault_sim.logic.simulate_packed(words) for words in self.groups
        ]
        self.group_masks = []
        for g in range(len(self.groups)):
            n_here = min(width, self.n_patterns - g * width)
            self.group_masks.append((1 << n_here) - 1)

        # Per-net value arrays over all vectors (numpy uint8).
        nets = self.mapped.nets
        self.values: dict[str, np.ndarray] = {}
        for net in nets:
            bits = np.zeros(self.n_patterns, dtype=np.uint8)
            for g, good in enumerate(self.good):
                word = good[net]
                base = g * width
                n_here = min(width, self.n_patterns - base)
                for b in range(n_here):
                    bits[base + b] = (word >> b) & 1
            self.values[net] = bits

        # Per-net drive strength arrays (strength holding the current value).
        self.drive: dict[str, np.ndarray] = {}
        for net in nets:
            self.drive[net] = self._net_drive(net)

    def _net_drive(self, net: str) -> np.ndarray:
        if net in _SUPPLIES:
            return np.full(self.n_patterns, SUPPLY_STRENGTH)
        cell = self.driver_cell.get(net)
        if cell is None:  # primary input: tester-driven
            return np.full(self.n_patterns, PI_STRENGTH)
        combos = self._combo_indices(cell)
        n = len(cell.inputs)
        g_up = np.zeros(2**n)
        g_down = np.zeros(2**n)
        for code in range(2**n):
            bits = tuple((code >> i) & 1 for i in range(n))
            up, down = cell_conductances(cell.gate_type, bits)
            g_up[code], g_down[code] = up, down
        value = self.values[net]
        return np.where(value == 1, g_up[combos], g_down[combos])

    def _combo_indices(self, cell: _CellInfo) -> np.ndarray:
        combos = np.zeros(self.n_patterns, dtype=np.int64)
        for i, net in enumerate(cell.inputs):
            combos |= self.values[net].astype(np.int64) << i
        return combos

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, faults: Sequence[RealisticFault]) -> SwitchSimResult:
        """Simulate every fault; return first-detection indices."""
        result = SwitchSimResult(faults=list(faults), n_patterns=self.n_patterns)
        for fault in result.faults:
            det = self._dispatch(fault)
            if det.strict is not None:
                result.first_detection[id(fault)] = det.strict
            potential = det.merged_potential()
            if potential is not None:
                result.first_detection_potential[id(fault)] = potential
            if det.iddq is not None:
                result.first_detection_iddq[id(fault)] = det.iddq
            if det.iddq_current > 0:
                result.iddq_peak[id(fault)] = det.iddq_current
        return result

    def _dispatch(self, fault: RealisticFault) -> Detection:
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
    # Masked packed detection helpers
    # ------------------------------------------------------------------
    def _mask_words(self, mask: np.ndarray) -> list[int]:
        words = []
        width = self.width
        for g in range(len(self.groups)):
            base = g * width
            n_here = min(width, self.n_patterns - base)
            word = 0
            for b in range(n_here):
                if mask[base + b]:
                    word |= 1 << b
            words.append(word)
        return words

    def _first_masked_detection(
        self, injections: list[tuple[list[StuckAtFault], np.ndarray]]
    ) -> int | None:
        """First vector where any (forces, vector-mask) injection misbehaves."""
        mask_words = [
            (forces, self._mask_words(mask))
            for forces, mask in injections
            if mask.any()
        ]
        if not mask_words:
            return None
        for g, good in enumerate(self.good):
            hit = 0
            for forces, words in mask_words:
                word = words[g] & self.group_masks[g]
                if not word:
                    continue
                if len(forces) == 1:
                    diff = self.fault_sim.detection_word(forces[0], good)
                else:
                    diff = self.fault_sim.detection_word_multi(forces, good)
                hit |= diff & word
            if hit:
                return g * self.width + ((hit & -hit).bit_length() - 1) + 1
        return None

    @staticmethod
    def _first_true(mask: np.ndarray) -> int | None:
        indices = np.flatnonzero(mask)
        return int(indices[0]) + 1 if indices.size else None

    def _flip_injections(
        self, net: str, flip0: np.ndarray, flip1: np.ndarray
    ) -> list[tuple[list[StuckAtFault], np.ndarray]]:
        """Masked single-net injections for force-to-0/force-to-1 vectors."""
        if net in _SUPPLIES:
            return []
        injections = []
        if flip0.any():
            injections.append(([StuckAtFault(net, 0)], flip0))
        if flip1.any():
            injections.append(([StuckAtFault(net, 1)], flip1))
        return injections

    def _x_injections(
        self, net: str, x_mask: np.ndarray, values: np.ndarray
    ) -> list[tuple[list[StuckAtFault], np.ndarray]]:
        """Potential-detection injections: force opposite of good at X vectors."""
        if net in _SUPPLIES or not x_mask.any():
            return []
        return self._flip_injections(net, x_mask & (values == 1), x_mask & (values == 0))

    # ------------------------------------------------------------------
    # Bridge faults
    # ------------------------------------------------------------------
    def _bridge(self, fault: BridgeFault) -> Detection:
        a, b = fault.net_a, fault.net_b
        if {a, b} == set(_SUPPLIES):
            # Power-to-ground short: the die draws massive current and no
            # valid levels exist — any vector fails either test.
            if self.n_patterns:
                return Detection(1, 1, 1, iddq_current=1e3)
            return Detection()
        if "#" in a or "#" in b:
            return self._bridge_internal(fault)

        va = self._rail_or_values(a)
        vb = self._rail_or_values(b)
        diff = va != vb
        if not diff.any():
            return Detection()
        iddq = self._first_true(diff)

        ga = self._rail_or_drive(a)
        gb = self._rail_or_drive(b)
        # Quiescent current of the fight: VDD through the two drive paths in
        # series (zero bridge resistance).
        fight_current = np.where(diff, ga * gb / (ga + gb), 0.0)
        peak_current = float(fight_current.max()) if diff.any() else 0.0
        v_node = (ga * va + gb * vb) / (ga + gb)
        # Wired-AND tie-break: an exactly balanced fight resolves low.
        low_wins = (v_node <= self.v_low) | (v_node == 0.5)
        a_wins = diff & (np.where(va == 1, v_node >= self.v_high, low_wins))
        b_wins = diff & (np.where(vb == 1, v_node >= self.v_high, low_wins))
        x_mask = diff & ~a_wins & ~b_wins

        strict_injections = []
        for net, wins, values in ((b, a_wins, vb), (a, b_wins, va)):
            strict_injections.extend(
                self._flip_injections(net, wins & (values == 1), wins & (values == 0))
            )
        strict = self._first_masked_detection(strict_injections)

        potential_injections = list(strict_injections)
        potential_injections.extend(self._x_injections(a, x_mask, va))
        potential_injections.extend(self._x_injections(b, x_mask, vb))
        potential = self._first_masked_detection(potential_injections)
        return Detection(strict, potential, iddq, iddq_current=peak_current)

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

    def _bridge_internal(self, fault: BridgeFault) -> Detection:
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
                return Detection(None, None, 1, iddq_current=0.1)
            return Detection()
        instance, tag = internal.split("#", 1)
        cell = self.cells.get(instance)
        if cell is None:
            return Detection()
        tap_index = int(tag[1:])

        out = cell.output
        combos = self._combo_indices(cell)
        ext_vals = self._rail_or_values(external)
        ext_drive = self._rail_or_drive(external)
        out_vals = self.values[out]

        out_flip0 = np.zeros(self.n_patterns, dtype=bool)
        out_flip1 = np.zeros(self.n_patterns, dtype=bool)
        out_x = np.zeros(self.n_patterns, dtype=bool)
        ext_flip0 = np.zeros(self.n_patterns, dtype=bool)
        ext_flip1 = np.zeros(self.n_patterns, dtype=bool)
        ext_x = np.zeros(self.n_patterns, dtype=bool)
        iddq_mask = np.zeros(self.n_patterns, dtype=bool)

        n = len(cell.inputs)
        for k in range(self.n_patterns):
            bits = tuple((int(combos[k]) >> i) & 1 for i in range(n))
            out_new, tap_val = solve_with_tap(
                cell.gate_type,
                bits,
                tap_index,
                float(ext_vals[k]),
                float(ext_drive[k]),
            )
            good_out = int(out_vals[k])
            if out_new == 2:
                out_x[k] = True
            elif out_new != good_out:
                (out_flip1 if out_new else out_flip0)[k] = True
            if external not in _SUPPLIES:
                if tap_val == 2:
                    ext_x[k] = True
                elif tap_val != int(ext_vals[k]):
                    (ext_flip1 if tap_val else ext_flip0)[k] = True
            if out_new == 2 or tap_val == 2 or out_new != good_out:
                iddq_mask[k] = True

        strict_injections = self._flip_injections(out, out_flip0, out_flip1)
        strict_injections.extend(self._flip_injections(external, ext_flip0, ext_flip1))
        strict = self._first_masked_detection(strict_injections)

        potential_injections = list(strict_injections)
        potential_injections.extend(self._x_injections(out, out_x, out_vals))
        potential_injections.extend(self._x_injections(external, ext_x, ext_vals))
        potential = self._first_masked_detection(potential_injections)
        peak = 0.0
        if iddq_mask.any():
            # The fight runs through the external driver and the cell stack;
            # bound it by the external drive strength at the worst vector.
            peak = float(np.where(iddq_mask, np.minimum(ext_drive, 4.0), 0.0).max())
        return Detection(strict, potential, self._first_true(iddq_mask), iddq_current=peak)

    # ------------------------------------------------------------------
    # Transistor faults
    # ------------------------------------------------------------------
    def _device(self, name: str) -> tuple[_CellInfo, str, int] | None:
        instance, dev = name.rsplit(".", 1)
        cell = self.cells.get(instance)
        if cell is None:
            return None
        return cell, dev[0].lower(), int(dev[1:])

    def _faulty_tables(
        self,
        cell: _CellInfo,
        n_mods: dict[int, str],
        p_mods: dict[int, str],
    ) -> tuple[np.ndarray, np.ndarray]:
        n = len(cell.inputs)
        g_up = np.zeros(2**n)
        g_down = np.zeros(2**n)
        for code in range(2**n):
            bits = tuple((code >> i) & 1 for i in range(n))
            up, down = cell_conductances(cell.gate_type, bits, n_mods, p_mods)
            g_up[code], g_down[code] = up, down
        return g_up, g_down

    def _stuck_on(self, device: str) -> Detection:
        located = self._device(device)
        if located is None:
            return Detection()
        cell, polarity, index = located
        n_mods = {index: "on"} if polarity == "n" else {}
        p_mods = {index: "on"} if polarity == "p" else {}
        g_up, g_down = self._faulty_tables(cell, n_mods, p_mods)

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

        strict_injections = self._flip_injections(cell.output, flips0, flips1)
        strict = self._first_masked_detection(strict_injections)
        potential_injections = list(strict_injections)
        potential_injections.extend(self._x_injections(cell.output, x_mask, out_vals))
        potential = self._first_masked_detection(potential_injections)
        return Detection(strict, potential, iddq, iddq_current=peak_current)

    def _stuck_open(self, devices: tuple[str, ...]) -> Detection:
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
            return Detection()
        # Multi-cell stuck-open sets (e.g. a supply-rail break) are handled
        # per cell; detection by any cell's misbehaviour counts.
        strict: int | None = None
        potential: int | None = None
        for cell, n_mods, p_mods in by_cell.values():
            det = self._stuck_open_one_cell(cell, n_mods, p_mods)
            strict = _min_opt(strict, det.strict)
            potential = _min_opt(potential, det.merged_potential())
        return Detection(strict, potential, None)  # no quiescent current

    def _stuck_open_one_cell(
        self,
        cell: _CellInfo,
        n_mods: dict[int, str],
        p_mods: dict[int, str],
    ) -> Detection:
        g_up, g_down = self._faulty_tables(cell, n_mods, p_mods)
        combos = self._combo_indices(cell)
        up = g_up[combos]
        down = g_down[combos]
        out_vals = self.values[cell.output]

        # Sequential charge-retention evaluation of the faulty output.
        flips0 = np.zeros(self.n_patterns, dtype=bool)
        flips1 = np.zeros(self.n_patterns, dtype=bool)
        x_mask = np.zeros(self.n_patterns, dtype=bool)
        state = 2  # unknown initial charge
        for k in range(self.n_patterns):
            if up[k] > 0 and down[k] <= 0:
                faulty = 1
            elif down[k] > 0 and up[k] <= 0:
                faulty = 0
            elif up[k] <= 0 and down[k] <= 0:
                faulty = state  # floating: retains charge
            else:  # residual contention (cannot happen in these families)
                faulty = 2
            if faulty == 2:
                x_mask[k] = True
            else:
                state = faulty
                good = int(out_vals[k])
                if faulty != good:
                    (flips1 if faulty else flips0)[k] = True

        strict_injections = self._flip_injections(cell.output, flips0, flips1)
        strict = self._first_masked_detection(strict_injections)
        potential_injections = list(strict_injections)
        potential_injections.extend(
            self._x_injections(cell.output, x_mask, out_vals)
        )
        potential = self._first_masked_detection(potential_injections)
        return Detection(strict, potential, None)

    def _gate_open(self, device: str) -> Detection:
        """Floating single gate: unknown but fixed state.

        Strict voltage detection requires failing under both the always-on
        and always-off assumption; potential detection under either.
        """
        located = self._device(device)
        if located is None:
            return Detection()
        cell, polarity, index = located
        off_mods = ({index: "absent"}, {}) if polarity == "n" else ({}, {index: "absent"})

        det_on = self._stuck_on(device)
        det_off = self._stuck_open_one_cell(cell, *off_mods)
        strict = _max_opt(det_on.strict, det_off.strict)
        potential = _min_opt(det_on.merged_potential(), det_off.merged_potential())
        return Detection(
            strict, potential, det_on.iddq, iddq_current=det_on.iddq_current
        )

    # ------------------------------------------------------------------
    # Floating-net (open) faults
    # ------------------------------------------------------------------
    def _floating_net(self, fault: FloatingNetFault) -> Detection:
        if fault.floating_inputs:
            return self._floating_inputs(fault)
        if fault.stuck_open:
            return self._stuck_open(fault.stuck_open)
        # Only a primary-output observer floats: the tester cannot *rely* on
        # the unknown level (strict: undetected) but will very likely see a
        # wrong value at some point (potential: first vector).
        if fault.floats_output_port and self.n_patterns:
            return Detection(None, 1, None)
        return Detection()

    def _floating_inputs(self, fault: FloatingNetFault) -> Detection:
        net = fault.net
        if net not in self.values:
            return Detection()
        forces_template: list[tuple[str, int]] = []
        for instance, _ in fault.floating_inputs:
            cell = self.cells.get(instance)
            if cell is None:
                continue
            for pin, pin_net in enumerate(cell.inputs):
                if pin_net == net:
                    forces_template.append((instance, pin))
        if not forces_template:
            return Detection()

        firsts: list[int | None] = []
        net_vals = self.values[net]
        for assumption in (0, 1):
            forces = [
                StuckAtFault(net, assumption, FaultSite.GATE_INPUT, inst, pin)
                for inst, pin in forces_template
            ]
            mask = net_vals == (1 - assumption)
            if not mask.any():
                firsts.append(None)
                continue
            firsts.append(self._first_masked_detection([(forces, mask)]))

        strict = None
        if firsts[0] is not None and firsts[1] is not None:
            strict = max(firsts[0], firsts[1])
        potential = _min_opt(firsts[0], firsts[1])
        return Detection(strict, potential, None)


def _min_opt(a: int | None, b: int | None) -> int | None:
    candidates = [x for x in (a, b) if x is not None]
    return min(candidates) if candidates else None


def _max_opt(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return max(a, b)
