"""Independent verifier for untestability certificates.

This module deliberately knows *nothing* about the prover's algorithms: it
verifies certificates from :mod:`repro.analysis.prover` using only gate
semantics and netlist adjacency, with its own gate evaluator and its own
structural routines.  Where the prover derives dominators by dataflow
intersection, the checker re-verifies each dominator claim by a cut test
(remove the node, confirm no primary output stays reachable); where the
prover's implication engine propagates three-valued rules, the checker
re-verifies each chain step by brute-force enumeration of the gate's local
assignments.  A certificate passes only if every premise is a genuine
necessary condition for detecting the fault and every proof step is a
genuine consequence — so a prover bug cannot smuggle a testable fault into
the proved set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any

from repro.circuit.library import GateType
from repro.circuit.netlist import Circuit, Gate

__all__ = ["CheckResult", "CertificateChecker", "check_certificate", "check_certificates"]

#: Certificate format versions this checker understands.  Independent copy
#: of the prover's ``CERTIFICATE_VERSION`` on purpose: bumping the writer
#: without teaching the checker the new format must fail checking.
_SUPPORTED_VERSIONS = (1,)

#: Refuse to enumerate gates wider than this many distinct nets.
_ENUM_CAP = 16

#: Hard ceilings against adversarial certificates.
_MAX_PROOF_NODES = 200_000
_MAX_SPLIT_DEPTH = 64

_NONCONTROLLING = {
    GateType.AND: 1,
    GateType.NAND: 1,
    GateType.OR: 0,
    GateType.NOR: 0,
}


@dataclass
class CheckResult:
    """Verdict of one certificate check."""

    ok: bool
    error: str | None = None


def _gate_value(gt: GateType, ins: list[int]) -> int:
    """The checker's own gate evaluator — independent of the simulators."""
    if gt is GateType.AND:
        return int(all(ins))
    if gt is GateType.NAND:
        return 1 - int(all(ins))
    if gt is GateType.OR:
        return int(any(ins))
    if gt is GateType.NOR:
        return 1 - int(any(ins))
    if gt is GateType.XOR:
        parity = 0
        for v in ins:
            parity ^= v
        return parity
    if gt is GateType.XNOR:
        parity = 0
        for v in ins:
            parity ^= v
        return 1 - parity
    if gt is GateType.NOT:
        return 1 - ins[0]
    if gt is GateType.BUF:
        return ins[0]
    raise ValueError(f"unknown gate type {gt!r}")


class CertificateChecker:
    """Reusable checker bound to one circuit (precomputed adjacency)."""

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.gate_by_name: dict[str, Gate] = {g.name: g for g in circuit.gates}
        self.driver: dict[str, Gate] = {g.output: g for g in circuit.gates}
        self.readers: dict[str, list[Gate]] = {}
        for gate in circuit.gates:
            for net in gate.inputs:
                self.readers.setdefault(net, []).append(gate)
        self.nets: set[str] = set(circuit.primary_inputs) | set(self.driver)
        self.po_set: set[str] = set(circuit.primary_outputs)
        self._nodes = 0

    # ------------------------------------------------------------------
    # Structural routines (the checker's own, not the prover's)
    # ------------------------------------------------------------------
    def _forward_cone(self, source: str, removed: str | None = None) -> set[str]:
        """Nets reachable from ``source`` by fanout, not expanding ``removed``."""
        seen: set[str] = set()
        stack = [source]
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            if net == removed:
                continue  # the cut: do not traverse through this node
            for gate in self.readers.get(net, ()):
                if gate.output not in seen:
                    stack.append(gate.output)
        return seen

    def _reaches_po(self, source: str, removed: str | None = None) -> bool:
        """Does some path from ``source`` reach a PO while avoiding ``removed``?

        The removed node is never expanded, so every net in the cone was
        reached on a path avoiding it — except the removed node itself, which
        may appear as an endpoint and must not count (a primary output is a
        legitimate dominator of the paths that end at it).
        """
        cone = self._forward_cone(source, removed)
        if removed is not None:
            cone = cone - {removed}
        return bool(cone & self.po_set)

    # ------------------------------------------------------------------
    # Local semantic check
    # ------------------------------------------------------------------
    def _forces(
        self, gate: Gate, known: dict[str, int], net: str, value: int
    ) -> bool:
        """Does ``gate`` (under ``known``, ignoring ``net``) force ``net=value``?

        Every 0/1 completion of the gate's nets consistent with ``known``
        (minus the target) and with the gate's function must give ``net`` the
        claimed value.  Zero consistent completions means ``known`` already
        contradicts the gate — also a valid conflict, hence accepted.
        """
        nets = list(dict.fromkeys((*gate.inputs, gate.output)))
        if net not in nets or len(nets) > _ENUM_CAP:
            return False
        fixed = {n: known[n] for n in nets if n in known and n != net}
        free = [n for n in nets if n not in fixed]
        for bits in product((0, 1), repeat=len(free)):
            local = dict(fixed)
            local.update(zip(free, bits))
            ins = [local[n] for n in gate.inputs]
            if _gate_value(gate.gate_type, ins) != local[gate.output]:
                continue
            if local[net] == 1 - value:
                return False
        return True

    # ------------------------------------------------------------------
    # Proof verification
    # ------------------------------------------------------------------
    def _verify_step(
        self,
        step: dict[str, Any],
        premises: frozenset[tuple[str, int]],
        known: dict[str, int],
    ) -> str | None:
        """Verify one chain step's justification; None when it holds."""
        try:
            net, value = step["assign"]
            by = step["by"]
        except (KeyError, TypeError, ValueError):
            return "malformed step"
        if net not in self.nets or value not in (0, 1):
            return f"step names unknown net/value {net!r}={value!r}"
        if by == "premise":
            if (net, value) not in premises:
                return f"premise step {net}={value} not among declared premises"
            return None
        if by == "gate":
            gate = self.gate_by_name.get(step.get("gate", ""))
            if gate is None:
                return f"step cites unknown gate {step.get('gate')!r}"
            if not self._forces(gate, known, net, value):
                return (
                    f"gate {gate.name} does not force {net}={value} "
                    f"under the current assignment"
                )
            return None
        if by == "constant":
            proof = step.get("proof")
            if not isinstance(proof, dict):
                return f"constant step {net}={value} carries no lemma proof"
            err = self._verify_proof(
                proof, frozenset({(net, 1 - value)}), depth=0
            )
            if err is not None:
                return f"constant lemma for {net}={value}: {err}"
            return None
        if by == "learned":
            ant = step.get("antecedent")
            proof = step.get("proof")
            if (
                not isinstance(ant, (list, tuple))
                or len(ant) != 2
                or not isinstance(proof, dict)
            ):
                return "malformed learned step"
            ant_net, ant_val = ant[0], ant[1]
            if known.get(ant_net) != ant_val and (ant_net, ant_val) not in premises:
                return (
                    f"learned antecedent {ant_net}={ant_val} not established"
                )
            err = self._verify_proof(
                proof,
                frozenset({(ant_net, ant_val), (net, 1 - value)}),
                depth=0,
            )
            if err is not None:
                return f"learned lemma {ant_net}={ant_val}->{net}={value}: {err}"
            return None
        return f"unknown step justification {by!r}"

    def _verify_proof(
        self,
        node: dict[str, Any],
        premises: frozenset[tuple[str, int]],
        depth: int,
    ) -> str | None:
        """Verify a chain/split proof node refutes ``premises``."""
        self._nodes += 1
        if self._nodes > _MAX_PROOF_NODES:
            return "proof too large"
        if depth > _MAX_SPLIT_DEPTH:
            return "split nesting too deep"
        if "split" in node:
            net = node["split"]
            cases = node.get("cases")
            if net not in self.nets:
                return f"split on unknown net {net!r}"
            if not isinstance(cases, list) or len(cases) != 2:
                return "split must carry exactly two cases (0 then 1)"
            for b, case in zip((0, 1), cases):
                if not isinstance(case, dict):
                    return "malformed split case"
                err = self._verify_proof(
                    case, premises | {(net, b)}, depth + 1
                )
                if err is not None:
                    return f"case {net}={b}: {err}"
            return None
        chain = node.get("chain")
        conflict = node.get("conflict")
        if not isinstance(chain, list) or not isinstance(conflict, dict):
            return "proof node is neither a split nor a chain with conflict"
        known: dict[str, int] = {}
        for step in chain:
            if not isinstance(step, dict):
                return "malformed step"
            err = self._verify_step(step, premises, known)
            if err is not None:
                return err
            net, value = step["assign"]
            if net in known:
                return f"chain assigns {net} twice"
            known[net] = value
        try:
            c_net, c_value = conflict["assign"]
        except (KeyError, TypeError, ValueError):
            return "malformed conflict"
        if known.get(c_net) != 1 - c_value:
            return (
                f"conflict claims {c_net}={c_value} against prior "
                f"{c_net}={known.get(c_net)!r} — no contradiction"
            )
        err = self._verify_step(conflict, premises, known)
        if err is not None:
            return f"conflict justification: {err}"
        return None

    # ------------------------------------------------------------------
    # Premise validation
    # ------------------------------------------------------------------
    def _verify_premises(
        self, cert: dict[str, Any]
    ) -> tuple[frozenset[tuple[str, int]] | None, str | None]:
        fault = cert.get("fault")
        if not isinstance(fault, dict):
            return None, "certificate carries no fault record"
        f_net = fault.get("net")
        f_value = fault.get("value")
        f_site = fault.get("site")
        if f_net not in self.nets or f_value not in (0, 1):
            return None, f"fault names unknown net/value {f_net!r}/{f_value!r}"

        if f_site == "pin":
            gate = self.gate_by_name.get(fault.get("gate", ""))
            f_pin = fault.get("pin")
            if gate is None or not isinstance(f_pin, int):
                return None, "pin fault without a valid gate/pin"
            if not (0 <= f_pin < len(gate.inputs)) or gate.inputs[f_pin] != f_net:
                return None, "pin fault's pin does not carry the faulted net"
            source = gate.output
        elif f_site == "net":
            source = f_net
            gate = None
            f_pin = None
        else:
            return None, f"unknown fault site {f_site!r}"

        if cert.get("reason") == "unobservable":
            claimed = cert.get("source")
            if claimed != source:
                return None, f"unobservable source mismatch: {claimed!r}"
            if self._reaches_po(source):
                return None, f"{source} reaches a primary output — observable"
            return frozenset(), None

        records = cert.get("premises")
        if not isinstance(records, list) or not records:
            return None, "certificate carries no premises"
        literals: set[tuple[str, int]] = set()
        saw_activation = False
        for rec in records:
            if not isinstance(rec, dict):
                return None, "malformed premise"
            net = rec.get("net")
            value = rec.get("value")
            kind = rec.get("kind")
            if net not in self.nets or value not in (0, 1):
                return None, f"premise names unknown net/value {net!r}"
            if kind == "activation":
                if net != f_net or value != 1 - f_value:
                    return None, "activation premise does not negate the fault"
                saw_activation = True
            elif kind == "side-pin":
                if gate is None or rec.get("gate") != gate.name:
                    return None, "side-pin premise on a non-pin fault"
                pin = rec.get("pin")
                nc = _NONCONTROLLING.get(gate.gate_type)
                if nc is None or value != nc:
                    return None, "side-pin premise with wrong value"
                if (
                    not isinstance(pin, int)
                    or not (0 <= pin < len(gate.inputs))
                    or pin == f_pin
                    or gate.inputs[pin] != net
                ):
                    return None, "side-pin premise names the wrong pin"
            elif kind == "dominator":
                err = self._verify_dominator_premise(rec, source, net, value)
                if err is not None:
                    return None, err
            else:
                return None, f"unknown premise kind {kind!r}"
            literals.add((net, value))
        if not saw_activation:
            return None, "certificate lacks the activation premise"
        return frozenset(literals), None

    def _verify_dominator_premise(
        self, rec: dict[str, Any], source: str, net: str, value: int
    ) -> str | None:
        dom = rec.get("dominator")
        if rec.get("source") != source:
            return "dominator premise cites the wrong source"
        if dom not in self.nets or dom == source:
            return f"invalid dominator {dom!r}"
        cone = self._forward_cone(source)
        if dom not in cone:
            return f"{dom} is not downstream of {source}"
        if not (cone & self.po_set):
            return f"{source} reaches no primary output"
        # The cut test: with dom removed, no PO may remain reachable.
        if self._reaches_po(source, removed=dom):
            return f"{dom} does not dominate every {source}->PO path"
        gate = self.driver.get(dom)
        if gate is None:
            return f"dominator {dom} has no driving gate"
        nc = _NONCONTROLLING.get(gate.gate_type)
        if nc is None or value != nc:
            return "dominator side value is not the non-controlling value"
        if net not in gate.inputs:
            return f"{net} is not an input of {dom}'s driver"
        if net in cone:
            return f"side input {net} lies inside the fault cone"
        return None

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def check(self, cert: dict[str, Any]) -> CheckResult:
        self._nodes = 0
        if not isinstance(cert, dict):
            return CheckResult(False, "certificate is not an object")
        if cert.get("version") not in _SUPPORTED_VERSIONS:
            return CheckResult(
                False,
                f"unsupported certificate version {cert.get('version')!r}",
            )
        premises, err = self._verify_premises(cert)
        if err is not None:
            return CheckResult(False, err)
        assert premises is not None
        if cert.get("reason") == "unobservable":
            return CheckResult(True)
        proof = cert.get("proof")
        if not isinstance(proof, dict):
            return CheckResult(False, "certificate carries no proof")
        proof_err = self._verify_proof(proof, premises, depth=0)
        if proof_err is not None:
            return CheckResult(False, proof_err)
        return CheckResult(True)


def check_certificate(circuit: Circuit, cert: dict[str, Any]) -> CheckResult:
    """Verify one certificate against ``circuit``."""
    return CertificateChecker(circuit).check(cert)


def check_certificates(
    circuit: Circuit, certs: list[dict[str, Any]]
) -> tuple[int, list[str]]:
    """Verify many certificates; returns (n_ok, error strings)."""
    checker = CertificateChecker(circuit)
    n_ok = 0
    errors: list[str] = []
    for i, cert in enumerate(certs):
        verdict = checker.check(cert)
        if verdict.ok:
            n_ok += 1
        else:
            fault = cert.get("fault", {}) if isinstance(cert, dict) else {}
            errors.append(
                f"certificate {i} ({fault.get('net')}/sa{fault.get('value')}): "
                f"{verdict.error}"
            )
    return n_ok, errors
