"""Self-test of the benchmark harness on the c17 versions of its workloads.

Run from the repository root::

    python -m pytest perfbench/tests -q

Each workload's plumbing (fresh-interpreter passes, output checks,
fingerprints, the traced pass with its pool-worker spool) runs on c17 and a
2-job sweep, so the harness is checked in about a minute without the long
passes.  The determinism tests pin what later changes cite as "less work":
every count metric repeats exactly for one seed, and the layout and
extraction counts repeat across seeds, because the seed moves only the test
patterns.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
SEED = 1234


@lru_cache(maxsize=None)
def bench(workload: str, seed: int, trace: int, repeat: int = 0) -> dict:
    """The result line of one small run (``repeat`` keys a second run)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def values(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = bench(workload, SEED, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    result = bench(workload, SEED, 1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    v = values(result)
    assert v["simulation.calls"] > 0
    assert v["analysis.faults_in"] > 0
    campaign = {k: x for k, x in v.items() if k.startswith("campaign.")}
    if workload == "sweep_dec4":
        assert v["campaign.jobs_run"] == 4 and v["campaign.jobs_cached"] == 2
        assert v["campaign.journal_appends"] > 0
        assert v["campaign.extractions_per_job"] == 1.0
        assert v["defects.faults"] > 0 and v["switchsim.faults"] > 0
    else:
        assert not any(campaign.values()), campaign
    if workload == "atpg_c880":
        assert v["layout.candidate_pairs"] == 0 and v["switchsim.faults"] == 0
        assert v["defects.faults"] == 0 and v["experiments.self_s"] == 0
    if workload == "paper_c432":
        assert v["layout.candidate_pairs"] > 0 and v["switchsim.injections"] > 0
        # Layer self times cover the traced wall.
        assert 0.9 <= v["obs.reconcile_ratio"] <= 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_one_seed(workload):
    first = values(bench(workload, SEED, 1))
    second = values(bench(workload, SEED, 1, repeat=1))
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layout_and_extraction_counts_repeat_across_seeds(workload):
    first = values(bench(workload, SEED, 1))
    other = values(bench(workload, SEED + 1, 1))
    keys = [k for k in COUNTS if k.startswith(("layout.", "defects."))]
    assert {k: first[k] for k in keys} == {k: other[k] for k in keys}


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
