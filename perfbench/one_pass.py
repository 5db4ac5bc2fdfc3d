"""One pass of one workload, in a fresh interpreter.

``run_experiment`` memoises per config in-process, so a second pass in the
same interpreter would time a cache hit: ``run.py`` starts this script once
per pass.  It writes one JSON object to ``--out``:

``setup_s``
    ``--launch`` (the parent's ``time.monotonic()`` just before it started
    this interpreter) to the first timed call: interpreter start, imports
    and input construction.
``wall_s``
    the workload's timed body.
``peak_rss_mb``
    peak resident memory of this process and of its reaped children (the
    sweep's pool workers), read as the timed body ends.
``errors`` / ``outputs`` / ``fingerprint``
    the output checks, run after the timed body.
``layers``
    (``--mode traced`` only) the per-layer metrics of the traced body; a
    Chrome trace of its spans goes to ``--trace-file``.

``--mode setup`` stops before the timed call and reports ``setup_s`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_pass(args: argparse.Namespace) -> dict:
    workload = workloads.make(
        args.workload, args.seed, Path(args.workdir), small=args.small
    )
    workload.prepare()
    tr = None
    if args.mode == "traced":
        tr = tracer.Tracer(Path(args.workdir) / "spool")
        tr.install()
    out: dict = {"setup_s": time.monotonic() - args.launch}
    if args.mode == "setup":
        return out
    start = time.monotonic()
    outcome = workload.run()
    out["wall_s"] = time.monotonic() - start
    out["peak_rss_mb"] = _peak_rss_mb()
    bypass_errors: list[str] = []
    if tr is not None:
        # Before the checks: their calls into the layers are not the pass's.
        own_layer_s = tr.layer_self_s()
        spans = tr.own_spans() + tr.merge_spool()
        campaign = workload.campaign_facts(outcome)
        if campaign is not None:
            campaign["job_wall_s"] = sum(
                sp["end"] - sp["start"]
                for sp in spans
                if sp["name"] == "_run_campaign_job" and sp["parent"] is None
            )
        layers = tracer.layer_metrics(tr, out["wall_s"], campaign)
        layers["obs.reconcile_ratio"] = sum(own_layer_s.values()) / out["wall_s"]
        out["layers"] = layers
        out["layer_self_s"] = tr.layer_self_s()
        calls = tr.layer_calls()
        out["missing_targets"] = tr.missing
        bypass_errors = [
            f"{layer}: {calls[layer]} calls in a workload that bypasses it"
            for layer in workload.bypassed
            if calls[layer]
        ]
        host = host_facts()
        host.update(workload=args.workload, seed=args.seed)
        Path(args.trace_file).parent.mkdir(parents=True, exist_ok=True)
        Path(args.trace_file).write_text(
            json.dumps(tracer.chrome_trace(spans, host)), encoding="utf-8"
        )
    errors, outputs = workload.check(outcome)
    out["errors"] = errors + bypass_errors
    out["outputs"] = outputs
    out["fingerprint"] = workload.fingerprint(outcome)
    return out


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"),
                        required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()
    try:
        result = run_pass(args)
    except Exception:
        result = {"errors": ["raised: " + traceback.format_exc(limit=8)]}
    result["host"] = host_facts()
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
