"""Implication cost: the dict-based oracle against the shared kernel.

PODEM, the implication screen and the redundancy prover all run on
``repro.analysis.kernel`` (integer ids, event-driven propagation, an undo
trail).  This benchmark times them against the string-keyed code they
replaced, kept in ``tests/implication_oracle.py``, on two inputs:

``c432_prover``
    the pipeline's static-analysis call on c432: the implication screen and
    the prover at depth 2 over the collapsed faults
    (``analyze_circuit(c432, faults=collapsed, prove=True)``);
``atpg_c880``
    the ``atpg_c880`` benchmark flow at seed 1234: the screen and the
    prover at depth 1 over the full universe, the random prefix, then PODEM
    at 500 backtracks with the learned implications.

For each (implementation, input) pair, run in a fresh interpreter so the
peak RSS is its own, it records the wall time of each phase, the
``prover.*`` and ``podem.*`` work counters, and the peak RSS.  The oracle's
``podem.gate_evals`` counts what its ``_imply`` does: both channels of
every gate per call.  Every mode asserts that the two implementations'
digests are equal: proved faults, methods and certificate JSON, and PODEM's
vectors, outcomes and backtrack counts.

Results are written to ``BENCH_implication.json`` at the repo root.  Quick
mode — ``IMPLICATION_BENCH_QUICK=1`` — runs ``c432_prover`` only.

Run one measurement by hand with
``PYTHONPATH=src:tests python benchmarks/test_perf_implication.py kernel atpg_c880``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
QUICK = bool(os.environ.get("IMPLICATION_BENCH_QUICK"))
BENCH_PATH = ROOT / "BENCH_implication.json"
INPUTS = ("c432_prover",) if QUICK else ("c432_prover", "atpg_c880")
SEED = 1234


def _digest(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _use_oracle() -> None:
    """Route the public entry points through the oracle classes."""
    from implication_oracle import (
        OracleImplicationEngine,
        OraclePodemAtpg,
        OracleRedundancyProver,
    )

    import repro.analysis
    import repro.atpg.podem

    class CountingOraclePodem(OraclePodemAtpg):
        """Counts what ``generate_deterministic_tests`` reports for PODEM."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.decisions = 0
            self.kernel = SimpleNamespace(evals=0)

        def generate(self, fault, fill=0):
            self.decisions -= 1  # the first _imply of a search is no decision
            return super().generate(fault, fill)

        def _imply(self, fault, assignment):
            self.decisions += 1
            self.kernel.evals += 2 * len(self.order)
            return super()._imply(fault, assignment)

    repro.analysis.ImplicationEngine = OracleImplicationEngine
    repro.analysis.RedundancyProver = OracleRedundancyProver
    repro.atpg.podem.PodemAtpg = CountingOraclePodem


def measure(implementation: str, name: str) -> dict:
    """Run input ``name`` on one implementation; time each phase."""
    if implementation == "oracle":
        _use_oracle()
    from repro import obs
    from repro.analysis import analyze_circuit
    from repro.atpg.podem import generate_deterministic_tests
    from repro.atpg.random_atpg import generate_random_tests
    from repro.circuit.iscas import load_benchmark
    from repro.experiments.pipeline import ExperimentConfig
    from repro.simulation.faults import collapse_faults

    circuit = load_benchmark("c432" if name == "c432_prover" else "c880")
    collapsed = collapse_faults(circuit)
    inputs_rss_mb = _peak_rss_mb()
    collector, registry = obs.enable()
    start = time.perf_counter()
    if name == "c432_prover":
        analysis = analyze_circuit(circuit, faults=collapsed, prove=True)
    else:
        analysis = analyze_circuit(circuit, prove=True, prover_depth=1)
    seconds = {"analysis": time.perf_counter() - start}
    payload: dict = {
        "proved": [str(f) for f in analysis.prover.proved],
        "methods": [analysis.prover.methods[f] for f in analysis.prover.proved],
        "certificates": analysis.prover.certificates,
    }
    if name == "atpg_c880":
        cfg = ExperimentConfig(benchmark="c880", seed=SEED, backtrack_limit=500)
        start = time.perf_counter()
        random = generate_random_tests(
            circuit,
            analysis.screen(collapsed),
            target_coverage=cfg.random_coverage_target,
            max_patterns=cfg.max_random_patterns,
            seed=cfg.seed,
            word_width=cfg.word_width,
        )
        seconds["random"] = time.perf_counter() - start
        start = time.perf_counter()
        det = generate_deterministic_tests(
            circuit,
            random.undetected,
            backtrack_limit=cfg.backtrack_limit,
            untestable=analysis.untestable_faults(),
            scoap=analysis.scoap,
            learned=analysis.prover.learned,
        )
        seconds["podem"] = time.perf_counter() - start
        payload["podem"] = {
            "vectors": list(det.test_set.patterns),
            "tested": [str(f) for f in det.tested],
            "redundant": [str(f) for f in det.redundant],
            "aborted": [str(f) for f in det.aborted],
            "backtracks": det.backtracks,
        }
    counters = registry.snapshot()["counters"]
    for span_name in ("analysis.implications", "analysis.prover"):
        seconds[span_name] = sum(s.wall_time for s in collector.find(span_name))
    obs.disable()
    seconds["total"] = sum(v for k, v in seconds.items() if "." not in k)
    return {
        "seconds": {k: round(v, 4) for k, v in sorted(seconds.items())},
        "counters": {
            k: v
            for k, v in sorted(counters.items())
            if k.startswith(("podem.", "prover."))
        },
        "digest": _digest(payload),
        "inputs_rss_mb": inputs_rss_mb,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _peak_rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def _measure_in_child(implementation: str, name: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH"))
        if p
    )
    done = subprocess.run(
        [sys.executable, __file__, implementation, name],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_perf_implication_kernel_vs_oracle():
    record: dict = {
        "quick": QUICK,
        "seed": SEED,
        "host": {"nproc": os.cpu_count(), "python": sys.version.split()[0]},
        "inputs": {},
    }
    for name in INPUTS:
        oracle = _measure_in_child("oracle", name)
        kernel = _measure_in_child("kernel", name)
        assert kernel["digest"] == oracle["digest"], name
        speedup = {
            phase: round(oracle["seconds"][phase] / kernel["seconds"][phase], 2)
            for phase in kernel["seconds"]
            if kernel["seconds"][phase] > 0
        }
        entry = {"oracle": oracle, "kernel": kernel, "speedup": speedup}
        for side in (oracle, kernel):
            counters = side["counters"]
            if counters.get("podem.decisions"):
                side["gate_evals_per_decision"] = round(
                    counters["podem.gate_evals"] / counters["podem.decisions"], 1
                )
        if "gate_evals_per_decision" in kernel:
            assert (
                kernel["gate_evals_per_decision"]
                < oracle["gate_evals_per_decision"]
            )
        # The same search: decisions and closures match one for one.
        for key in ("podem.decisions", "prover.closures", "prover.splits"):
            if key in oracle["counters"]:
                assert kernel["counters"][key] == oracle["counters"][key], key
        record["inputs"][name] = entry
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    print(json.dumps(measure(sys.argv[1], sys.argv[2])))
