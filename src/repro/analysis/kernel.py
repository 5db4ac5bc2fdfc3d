"""Shared three-valued implication kernel: integer ids, events, an undo trail.

The implication screen, the redundancy prover and PODEM all reason over
partial assignments on one compilation of the netlist.  Nets are integer ids
(primary inputs, then gate outputs in levelized order, so gate ``g`` drives
net ``n_pi + g``); gates are arrays of type codes and fan-in tuples; each net
has a *visit list*: its readers, one entry per pin in netlist order, then its
driver.  The state is one flat value list over {0, 1, X} and a trail of the
indices assigned since the last reset; :meth:`ImplicationKernel.undo` pops
back to a :meth:`ImplicationKernel.mark`.  Propagation is event-driven with a
LIFO queue, under one of two rule sets:

* **implication** (:meth:`closure` / :meth:`extend`) over ``[0, n)``: forward
  evaluation, forced backward values, last-free-input justification, XOR
  parity completion and, optionally, learned implications.  The visit order
  is the derivation order the prover's certificates were defined on, so a
  traced run (``trace=[...]``) records their steps exactly;
* **two-channel forward simulation** (:meth:`load_fault` / :meth:`decide`)
  for PODEM: good values over ``[0, n)``, faulty values over ``[n, 2n)`` for
  the fault's output cone (other nets read their good value) and, with
  learned implications loaded, the good values closed under them over
  ``[2n, 3n)``.

The certificate checker :mod:`repro.analysis.check` stays off this module:
it is the independent oracle for every proof the kernel helps find.
"""

from __future__ import annotations

import copy
from typing import Iterable, Mapping

from repro.circuit.levelize import levelize
from repro.circuit.library import GateType
from repro.circuit.netlist import Circuit

__all__ = ["X", "ImplicationKernel", "eval3"]

#: The unknown value of the three-valued logic.
X = 2

#: Gate-type codes.  ``code & 1`` is the output inversion and, for the AND /
#: OR family (codes 0-3), ``code >> 1`` is the controlling input value.
_CODE = {
    gate_type: code
    for code, gate_type in enumerate((
        GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
        GateType.XOR, GateType.XNOR, GateType.BUF, GateType.NOT,
    ))
}

#: Assignment sources below gate indices: a caller's premise, a seeded
#: constant; learned consequents use ``_LEARNED - literal``.
PREMISE = -1
CONSTANT = -2
_LEARNED = -3


def eval3(code: int, values: list[int]) -> int:
    """Three-valued evaluation of a gate of type ``code`` over ``values``."""
    if code < 4:
        c = code >> 1
        if c in values:
            return c ^ (code & 1)
        if X in values:
            return X
        return c ^ 1 ^ (code & 1)
    if X in values:
        return X
    parity = code & 1
    for v in values:
        parity ^= v
    return parity


class ImplicationKernel:
    """A netlist compiled to integer arrays, with one value array and trail."""

    def __init__(self, circuit: Circuit) -> None:
        order = levelize(circuit)
        self.names = list(circuit.primary_inputs) + [g.output for g in order]
        self.index: dict[str, int] = {n: i for i, n in enumerate(self.names)}
        self.n_pi = len(circuit.primary_inputs)
        n = self.n = len(self.names)
        index = self.index
        self.gate_index = {g.name: i for i, g in enumerate(order)}
        self.gtype = [_CODE[g.gate_type] for g in order]
        self.gins = [tuple(index[x] for x in g.inputs) for g in order]
        self.gout = [index[g.output] for g in order]
        self.gname = [g.name for g in order]
        readers: list[list[int]] = [[] for _ in range(n)]
        for gate in circuit.gates:
            for net in gate.inputs:
                readers[index[net]].append(self.gate_index[gate.name])
        #: Implication visit list: readers, one per pin, then the driver.
        self.visit = [
            tuple(r) + ((i - self.n_pi,) if i >= self.n_pi else ())
            for i, r in enumerate(readers)
        ]
        #: Forward-simulation fan-out: each reading gate once.
        self.fanout = [tuple(dict.fromkeys(r)) for r in readers]
        self.outputs = [index[po] for po in circuit.primary_outputs]
        self._cones: dict[int, tuple[frozenset[int], tuple[int, ...]]] = {}
        self._new_state()
        self.visits = 0
        self.evals = 0
        self.conflict: tuple | None = None

    def _new_state(self) -> None:
        n = self.n
        # Good | faulty | pinned channels, then the constant-0/1 slots.
        self.val = [X] * (3 * n) + [0, 1]
        self.trail: list[int] = []
        self.queue: list[int] = []
        self._nodes: list[tuple[int, tuple[int, ...], int]] = []
        self._node_readers: dict[int, list[int]] = {}
        #: A :meth:`compile_learned` table turns the pinned channel on.
        self.learned: list[tuple[tuple[int, int], ...]] | None = None

    def fork(self) -> "ImplicationKernel":
        """A kernel sharing this one's compiled arrays, with an empty state
        and zeroed work counters."""
        other = copy.copy(self)
        other._new_state()
        other.visits = other.evals = 0
        return other

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int = 0) -> None:
        """Unassign everything assigned since ``mark`` (0 resets)."""
        val, trail = self.val, self.trail
        while len(trail) > mark:
            val[trail.pop()] = X
        self.queue.clear()

    def assigned(self, mark: int = 0) -> dict[str, int]:
        """Net name -> value for the good-channel assignments since ``mark``."""
        val, names, n = self.val, self.names, self.n
        return {names[i]: val[i] for i in self.trail[mark:] if i < n}

    def ids(self, literals: Iterable[tuple[str, int]]) -> list[tuple[int, int]]:
        index = self.index
        return [(index[net], value) for net, value in literals]

    def compile_learned(
        self, learned: Mapping[tuple[str, int], tuple[tuple[str, int], ...]]
    ) -> list[tuple[tuple[int, int], ...]]:
        """Learned implications as a table indexed by literal ``2*id + value``."""
        table: list[tuple[tuple[int, int], ...]] = [()] * (2 * self.n)
        for (net, value), consequents in learned.items():
            table[2 * self.index[net] + value] = tuple(self.ids(consequents))
        return table

    def reach(self, starts: Iterable[int], step) -> set[int]:
        """``starts`` and every index reachable through ``step(index)``."""
        seen = set(starts)
        stack = list(seen)
        while stack:
            for j in step(stack.pop()):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    def cone(self, source: int) -> tuple[frozenset[int], tuple[int, ...]]:
        """Output cone of net ``source`` (inclusive) and its gates, levelized."""
        cached = self._cones.get(source)
        if cached is None:
            fanout, gout, n_pi = self.fanout, self.gout, self.n_pi
            seen = self.reach((source,), lambda i: [gout[g] for g in fanout[i]])
            gates = tuple(sorted(i - n_pi for i in seen if i >= n_pi))
            cached = self._cones[source] = (frozenset(seen), gates)
        return cached

    def support(self, nets: Iterable[int]) -> tuple[int, ...]:
        """Primary inputs in the transitive fan-in of ``nets``, in input order."""
        gins, n_pi = self.gins, self.n_pi
        seen = self.reach(nets, lambda i: gins[i - n_pi] if i >= n_pi else ())
        return tuple(i for i in range(n_pi) if i in seen)

    # ------------------------------------------------------------------
    # Implication rule set
    # ------------------------------------------------------------------
    def _assigner(self, trace: list | None):
        """The assignment action: plain, or also recording derivation steps.

        After a conflict the state is only fit for :meth:`undo`.
        """
        val, trail, queue = self.val, self.trail, self.queue

        def assign(net: int, value: int, src: int) -> bool:
            if val[net] == X:
                val[net] = value
                trail.append(net)
                queue.append(net)
                return True
            return False

        if trace is None:
            return assign
        names, gname, gins, gout = self.names, self.gname, self.gins, self.gout

        def traced(net: int, value: int, src: int) -> bool:
            if src >= 0:
                # The gate's distinct nets, inputs then output, known so far.
                nets = dict.fromkeys((*gins[src], gout[src]))
                deps = tuple(names[i] for i in nets if val[i] != X)
                step = (names[net], value, "gate", gname[src], deps)
            elif src == PREMISE:
                step = (names[net], value, "premise", None, ())
            elif src == CONSTANT:
                step = (names[net], value, "constant", None, ())
            else:
                lit = _LEARNED - src
                ant = names[lit >> 1]
                step = (names[net], value, "learned", (ant, lit & 1), (ant,))
            if assign(net, value, src):
                trace.append(step)
                return True
            self.conflict = step
            return False

        return traced

    def assume(
        self, literals: Iterable[tuple[int, int]], src: int, trace: list | None
    ) -> bool:
        """Assign ``(id, value)`` literals without propagating; False on conflict."""
        val = self.val
        assign = self._assigner(trace)
        return all(val[n] == v or assign(n, v, src) for n, v in literals)

    def closure(
        self,
        literals: Iterable[tuple[int, int]],
        constants: Iterable[tuple[int, int]] = (),
        learned: list[tuple[tuple[int, int], ...]] | None = None,
        trace: list | None = None,
    ) -> bool:
        """Reset, seed ``constants``, then :meth:`extend` by ``literals``."""
        self.undo()
        return self.assume(constants, CONSTANT, trace) and self.extend(
            literals, learned, trace
        )

    def extend(
        self,
        literals: Iterable[tuple[int, int]],
        learned: list[tuple[tuple[int, int], ...]] | None = None,
        trace: list | None = None,
    ) -> bool:
        """Assume ``literals`` as premises and propagate; False on conflict."""
        return self.assume(literals, PREMISE, trace) and self.propagate(
            learned, trace
        )

    def propagate(
        self,
        learned: list[tuple[tuple[int, int], ...]] | None = None,
        trace: list | None = None,
    ) -> bool:
        """Close the queued assignments under implication; False on conflict."""
        val, queue = self.val, self.queue
        visit, gtype, gins, gout = self.visit, self.gtype, self.gins, self.gout
        assign = self._assigner(trace)
        visits = 0
        try:
            while queue:
                net = queue.pop()
                if learned is not None:
                    lit = 2 * net + val[net]
                    for c, w in learned[lit]:
                        if val[c] != w and not assign(c, w, _LEARNED - lit):
                            return False
                for g in visit[net]:
                    visits += 1
                    code = gtype[g]
                    ins = gins[g]
                    o = gout[g]
                    out = val[o]
                    inv = code & 1
                    vs = [val[i] for i in ins]
                    if code < 4:  # AND / NAND / OR / NOR
                        c = code >> 1
                        f = c ^ inv if c in vs else X if X in vs else c ^ 1 ^ inv
                        if f != X and out != f:
                            if not assign(o, f, g):
                                return False
                            out = f
                        if out == X:
                            continue
                        if out ^ inv != c:  # every input non-controlling
                            for i in ins:
                                if val[i] != c ^ 1 and not assign(i, c ^ 1, g):
                                    return False
                        elif c not in vs and vs.count(X) == 1:
                            if not assign(ins[vs.index(X)], c, g):
                                return False
                        continue
                    # XOR / XNOR / BUF / NOT: parity, forward or completed.
                    unknown = vs.count(X)
                    if unknown == 0:
                        parity = inv
                        for v in vs:
                            parity ^= v
                        if out != parity and not assign(o, parity, g):
                            return False
                    elif out != X and unknown == 1:
                        parity = out ^ inv
                        for v in vs:
                            if v != X:
                                parity ^= v
                        if not assign(ins[vs.index(X)], parity, g):
                            return False
        finally:
            self.visits += visits
        return True

    # ------------------------------------------------------------------
    # Two-channel forward rule set (PODEM)
    # ------------------------------------------------------------------
    def load_fault(
        self, net: int, value: int, gate: int = -1, pin: int | None = None
    ) -> tuple[frozenset[int], tuple[int, ...]]:
        """Reset and arm the faulty channel for one stuck-at fault.

        A net fault (``gate < 0``) holds faulty net ``net`` at ``value``; a
        pin fault feeds ``value`` to pin ``pin`` of gate ``gate`` in the
        faulty channel only.  Returns the effect's output cone and its gates.
        """
        self.undo()
        n = self.n
        source = net if gate < 0 else self.gout[gate]
        cone, gates = self.cone(source)
        const = 3 * n + value
        nodes: list[tuple[int, tuple[int, ...], int]] = []
        readers: dict[int, list[int]] = {}
        for g in gates:
            out = self.gout[g]
            if out == net and gate < 0:
                continue  # the stuck net keeps its value
            ins = tuple(
                const if g == gate and p == pin else (n + i if i in cone else i)
                for p, i in enumerate(self.gins[g])
            )
            for i in dict.fromkeys(ins):
                readers.setdefault(i, []).append(len(nodes))
            nodes.append((self.gtype[g], ins, n + out))
        self._nodes, self._node_readers = nodes, readers
        if gate < 0:
            self.val[n + net] = value
            self.trail.append(n + net)
            self.queue.append(n + net)
        else:
            self.queue.append(const)
        self.simulate()
        return cone, gates

    def decide(self, net: int, value: int) -> None:
        """Assign primary input ``net`` in the good channel and simulate."""
        self.val[net] = value
        self.trail.append(net)
        self.queue.append(net)
        self.simulate()

    def simulate(self) -> None:
        """Forward-evaluate the queued changes over every loaded channel."""
        val, queue, trail = self.val, self.queue, self.trail
        n = self.n
        pinned = 2 * n
        gtype, gins, gout, fanout = self.gtype, self.gins, self.gout, self.fanout
        nodes, node_readers = self._nodes, self._node_readers
        learned = self.learned
        evals = 0

        def put(i: int, v: int) -> None:
            val[i] = v
            trail.append(i)
            queue.append(i)

        while queue:
            i = queue.pop()
            base = pinned if pinned <= i < pinned + n else 0
            if base:  # a pinned value: its learned consequents are pinned too
                for c, w in learned[2 * (i - base) + val[i]]:  # type: ignore[index]
                    if val[base + c] == X:
                        put(base + c, w)
            elif i < n and learned is not None and val[pinned + i] == X:
                put(pinned + i, val[i])
            if i < n or base:
                for g in fanout[i - base]:
                    o = base + gout[g]
                    if val[o] == X:
                        evals += 1
                        v = eval3(gtype[g], [val[base + j] for j in gins[g]])
                        if v != X:
                            put(o, v)
            for k in node_readers.get(i, ()):
                code, ins, o = nodes[k]
                if val[o] == X:
                    evals += 1
                    v = eval3(code, [val[j] for j in ins])
                    if v != X:
                        put(o, v)
        self.evals += evals
