"""Switch-level simulation cost: the per-fault oracle against the lane engine.

Switch-level simulation (``repro.switchsim.simulator``) gives every
extracted realistic fault its first detecting vector, from which the
paper's ``theta(k)`` curve is built.  This benchmark runs the reference
simulator kept in ``tests/switchsim_oracle.py`` (one fault at a time, masks
packed bit by bit, one python-engine call per injection and packed group)
and the three-pass one (numpy masks, one numpy-engine lane per distinct
force set, vectorised resolution) on the pipeline's own inputs: the layout,
the extracted fault list and the test sequence of
``run_experiment(ExperimentConfig(benchmark=circuit, seed=1234))``.

For each implementation it records:

* wall time of the simulator's set-up, and of ``run`` on each fault class
  on its own (``class.<FaultClass>``);
* ``run``: for the lane engine, one ``run`` over the whole fault list; for
  the oracle, which walks the faults independently, the sum of its class
  runs;
* for the lane engine, the deterministic ``switch_sim.*`` work counters of
  the whole-list run (injections, distinct force sets, lane batches, faults
  per class);
* the peak RSS of the process, and its peak once the inputs are loaded
  (``inputs_rss_mb``): the difference is the simulator's own.

Each (implementation, circuit) runs in a fresh interpreter so the peak RSS
is its own.  Every mode asserts that the two implementations' results are
bit-identical: the same strict, potential and IDDQ first detections for
every fault, and the same ``float.hex()`` peak currents.

Results are written to ``BENCH_switchsim.json`` at the repo root.  Quick
mode — ``SWITCHSIM_BENCH_QUICK=1`` — runs c432; full mode adds c880 and
also asserts that the lane engine is faster.
Each circuit's ``before`` holds the new implementation's seconds from
the record the run replaces, so the committed file shows the last change's
before and after side by side.

Run one measurement by hand with
``PYTHONPATH=src:tests python benchmarks/test_perf_switchsim.py new <inputs.pkl>``,
where ``inputs.pkl`` holds the pickled ``(design, patterns, faults)``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUICK = bool(os.environ.get("SWITCHSIM_BENCH_QUICK"))
BENCH_PATH = ROOT / "BENCH_switchsim.json"
CIRCUITS = ("c432",) if QUICK else ("c432", "c880")
SEED = 1234


def _outcomes(result, index: dict[int, int]) -> dict[int, tuple]:
    """Fault index -> (strict, potential, iddq, peak current hex)."""
    return {
        index[id(fault)]: (
            result.detected_voltage(fault),
            result.detected_potential(fault),
            result.detected_iddq(fault),
            result.iddq_peak_current(fault).hex(),
        )
        for fault in result.faults
    }


def _digest(outcomes: dict[int, tuple]) -> str:
    return hashlib.sha256(repr(sorted(outcomes.items())).encode()).hexdigest()


def measure(implementation: str, inputs: str) -> dict:
    """Simulate the pickled inputs with one implementation; time each class."""
    from switchsim_oracle import OracleSwitchLevelFaultSimulator

    from repro import obs
    from repro.switchsim import SwitchLevelFaultSimulator

    with open(inputs, "rb") as handle:
        design, patterns, faults = pickle.load(handle)
    inputs_rss_mb = _peak_rss_mb()
    new = implementation == "new"
    simulator = SwitchLevelFaultSimulator if new else OracleSwitchLevelFaultSimulator
    index = {id(fault): i for i, fault in enumerate(faults)}
    classes: dict[str, list] = {}
    for fault in faults:
        classes.setdefault(type(fault).__name__, []).append(fault)

    start = time.perf_counter()
    sim = simulator(design, patterns)
    seconds = {"setup": time.perf_counter() - start}
    outcomes: dict[int, tuple] = {}
    for name in sorted(classes):
        start = time.perf_counter()
        result = sim.run(classes[name])
        seconds[f"class.{name}"] = time.perf_counter() - start
        outcomes.update(_outcomes(result, index))
    record: dict = {"n_faults": len(faults), "n_patterns": len(patterns)}
    if new:
        _, registry = obs.enable()
        start = time.perf_counter()
        result = sim.run(faults)
        seconds["run"] = time.perf_counter() - start
        counters = registry.snapshot()["counters"]
        obs.disable()
        record["counters"] = {
            k: v for k, v in sorted(counters.items()) if k.startswith("switch_sim.")
        }
        record["class_runs_digest"] = _digest(outcomes)
        outcomes = _outcomes(result, index)
    else:
        seconds["run"] = sum(v for k, v in seconds.items() if k.startswith("class."))
    record["seconds"] = {k: round(v, 4) for k, v in seconds.items()}
    record["digest"] = _digest(outcomes)
    record["inputs_rss_mb"] = inputs_rss_mb
    record["peak_rss_mb"] = _peak_rss_mb()
    return record


def _peak_rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def _inputs(circuit: str, path: Path) -> None:
    """Pickle the pipeline's switch-level inputs for ``circuit``."""
    from repro.experiments.pipeline import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(benchmark=circuit, seed=SEED))
    payload = (result.design, result.test_patterns, result.realistic_faults.faults)
    path.write_bytes(pickle.dumps(payload))


def _previous_seconds() -> dict:
    """Per circuit, the new implementation's seconds in the current record."""
    try:
        circuits = json.loads(BENCH_PATH.read_text())["circuits"]
    except (OSError, ValueError, KeyError):
        return {}
    return {c: r["new"]["seconds"] for c, r in circuits.items() if "new" in r}


def _measure_in_child(implementation: str, inputs: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH"))
        if p
    )
    done = subprocess.run(
        [sys.executable, __file__, implementation, str(inputs)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_switchsim_lanes_are_bit_identical_to_the_oracle(tmp_path):
    record: dict = {"mode": "quick" if QUICK else "full", "seed": SEED, "circuits": {}}
    before = _previous_seconds()
    for circuit in CIRCUITS:
        inputs = tmp_path / f"{circuit}.pkl"
        _inputs(circuit, inputs)
        oracle = _measure_in_child("oracle", inputs)
        new = _measure_in_child("new", inputs)
        assert new["digest"] == oracle["digest"], circuit
        assert new["class_runs_digest"] == new["digest"], circuit
        counters = new["counters"]
        assert counters["switch_sim.faults_simulated"] == new["n_faults"]
        assert 0 < counters["switch_sim.force_sets"] < counters["switch_sim.injections"]
        if not QUICK:
            assert new["seconds"]["run"] < oracle["seconds"]["run"]
        record["circuits"][circuit] = {
            "oracle": oracle,
            "new": new,
            "before": before.get(circuit),
            "speedup": {
                name: round(oracle["seconds"][name] / new["seconds"][name], 2)
                for name in oracle["seconds"]
                if name.startswith("class.") or name == "run"
            },
        }
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    print(json.dumps(measure(sys.argv[1], sys.argv[2])))
