"""Fault-extraction cost: the reference passes against the fast ones.

Extraction (``repro.defects.extraction``) is the paper's *lift*: it gives
every realistic fault its weight, and it was the largest single cost of the
c432 experiment.  This benchmark runs the reference implementation kept in
``tests/extraction_oracle.py`` (all-pairs spatial walk, one breadth-first
search per open site) and the fast one (same-layer pair walk, one lowpoint
pass per net) on the same layouts and records, for each:

* wall time of the extractor's set-up (connectivity graph, the same code
  for both) and of each sub-pass: bridges, gate-oxide shorts, opens;
* the deterministic work counters ``pairs_walked`` (pairs the spatial walk
  yields), ``pairs_examined`` (same-layer pairs the bridge test sees),
  ``bridge_sites``, ``open_sites`` and ``net_passes`` (whole-net graph
  passes: one per BFS for the reference, one per net for the fast code);
* the peak RSS of the process, layout included.

Each (implementation, circuit) runs in a fresh interpreter so the peak RSS
is its own.  Every mode asserts that the two fault lists are bit-identical:
same faults, same order, same ``float.hex()`` weights, same origins.

Results are written to ``BENCH_extraction.json`` at the repo root.  Quick
mode — ``EXTRACTION_BENCH_QUICK=1`` — runs c432; full mode adds c880 and
also asserts that the fast extraction is faster.
Each circuit's ``before`` holds the fast implementation's seconds from
the record the run replaces, so the committed file shows the last change's
before and after side by side.

Run one measurement by hand with
``PYTHONPATH=src:tests python benchmarks/test_perf_extraction.py fast c432``.
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

ROOT = Path(__file__).resolve().parent.parent
QUICK = bool(os.environ.get("EXTRACTION_BENCH_QUICK"))
BENCH_PATH = ROOT / "BENCH_extraction.json"
CIRCUITS = ("c432",) if QUICK else ("c432", "c880")
_COUNTERS = ("pairs_examined", "bridge_sites", "open_sites", "net_passes")


def measure(implementation: str, circuit: str) -> dict:
    """Extract ``circuit``'s faults with one implementation; time each pass."""
    from extraction_oracle import OracleFaultExtractor

    from repro import obs
    from repro.circuit import load_benchmark
    from repro.defects import DefectStatistics, FaultList
    from repro.defects.extraction import FaultExtractor
    from repro.layout import build_layout

    design = build_layout(load_benchmark(circuit))
    fast = implementation == "fast"
    if fast:
        _, registry = obs.enable()
    start = time.perf_counter()
    extractor = (FaultExtractor if fast else OracleFaultExtractor)(
        design, DefectStatistics()
    )
    seconds = {"setup": time.perf_counter() - start}
    faults = FaultList()
    for name, run in (
        ("bridges", extractor.extract_bridges),
        ("oxide_shorts", extractor.extract_oxide_shorts),
        ("opens", extractor.extract_opens),
    ):
        start = time.perf_counter()
        run(faults)
        seconds[name] = time.perf_counter() - start
    seconds["total"] = sum(seconds.values())
    if fast:
        counters = {
            name: registry.counter(f"extraction.{name}").value for name in _COUNTERS
        }
        counters["pairs_walked"] = counters["pairs_examined"]
    else:
        counters = {
            name: getattr(extractor, name) for name in ("pairs_walked", *_COUNTERS)
        }
    signature = [
        (type(f).__name__, f.key(), f.weight.hex(), f.origin) for f in faults
    ]
    return {
        "seconds": {k: round(v, 4) for k, v in seconds.items()},
        "counters": counters,
        "n_faults": len(faults),
        "digest": hashlib.sha256(repr(signature).encode()).hexdigest(),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
    }


def _previous_seconds() -> dict:
    """Per circuit, the fast implementation's seconds in the current record."""
    try:
        circuits = json.loads(BENCH_PATH.read_text())["circuits"]
    except (OSError, ValueError, KeyError):
        return {}
    return {c: r["fast"]["seconds"] for c, r in circuits.items() if "fast" in r}


def _measure_in_child(implementation: str, circuit: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH"))
        if p
    )
    done = subprocess.run(
        [sys.executable, __file__, implementation, circuit],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_extraction_fast_paths_are_bit_identical_and_do_less_work():
    record: dict = {"mode": "quick" if QUICK else "full", "circuits": {}}
    before = _previous_seconds()
    for circuit in CIRCUITS:
        oracle = _measure_in_child("oracle", circuit)
        fast = _measure_in_child("fast", circuit)
        assert fast["digest"] == oracle["digest"], circuit
        assert fast["n_faults"] == oracle["n_faults"]
        for name in ("pairs_examined", "bridge_sites", "open_sites"):
            assert fast["counters"][name] == oracle["counters"][name], name
        assert fast["counters"]["pairs_walked"] < oracle["counters"]["pairs_walked"]
        assert fast["counters"]["net_passes"] < oracle["counters"]["net_passes"]
        if not QUICK:
            assert fast["seconds"]["total"] < oracle["seconds"]["total"]
        record["circuits"][circuit] = {
            "oracle": oracle,
            "fast": fast,
            "before": before.get(circuit),
            "speedup": {
                name: round(oracle["seconds"][name] / fast["seconds"][name], 2)
                for name in ("bridges", "opens", "total")
            },
        }
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    print(json.dumps(measure(sys.argv[1], sys.argv[2])))
