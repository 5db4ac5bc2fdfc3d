"""End-to-end benchmark of the defect-level pipeline.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_c432 --seed 1234 --seconds 30 --trace 0

Every pass runs in a fresh interpreter (``one_pass.py``).  With ``--trace
0`` the run first starts ``SETUP_PROBES`` interpreters that stop at the
first timed call, then runs untraced passes until another pass would end
past ``--seconds`` (at least one), and prints the end-to-end metrics.  With
``--trace 1`` it runs one untraced pass and one traced pass and prints the
per-layer metrics of the traced one, with the tracing overhead against the
untraced one.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A pass that raises,
fails an output check, or whose result fingerprint differs from the rest
of the run's passes counts as failed.

See ``perfbench/README.md`` for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("paper_c432", "atpg_c880", "sweep_dec4")
#: Set-up-only interpreters per untraced run; each pass adds one sample.
SETUP_PROBES = 2
#: Every child is killed once the run has used this much time.
RUN_LIMIT_S = 170.0


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_child(args: argparse.Namespace, mode: str, index: int,
               deadline: float) -> dict:
    """Run one ``one_pass.py`` interpreter; return its JSON result."""
    tag = f"{args.workload}-s{args.seed}-{mode}{index}"
    workdir = OUT / "work" / tag
    out_file = OUT / "work" / f"{tag}.json"
    out_file.parent.mkdir(parents=True, exist_ok=True)
    out_file.unlink(missing_ok=True)
    trace_file = OUT / "traces" / f"{args.workload}-s{args.seed}.trace.json"
    env = dict(os.environ)
    env["TMPDIR"] = str(OUT / "tmp")
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(HERE / "one_pass.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--workdir", str(workdir), "--out", str(out_file),
        "--trace-file", str(trace_file),
    ]
    if args.small:
        cmd.append("--small")
    cmd += ["--launch", repr(time.monotonic())]
    # A session of its own, so the sweep's pool workers die with it.
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        result = json.loads(out_file.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        result = {"errors": [f"{mode} pass killed at the run's time limit"]}
    except (OSError, ValueError) as exc:
        result = {"errors": [f"{mode} pass exited {proc.returncode}: {exc}"]}
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    result["mode"] = mode
    return result


def _mark_fingerprints(passes: list[dict]) -> None:
    """A pass whose fingerprint differs from the run's majority fails."""
    prints = Counter(p["fingerprint"] for p in passes if "fingerprint" in p)
    if not prints:
        return
    majority = prints.most_common(1)[0][0]
    for p in passes:
        if "fingerprint" in p and p["fingerprint"] != majority:
            p["errors"].append(
                f"fingerprint {p['fingerprint'][:16]} differs from the "
                f"run's {majority[:16]}"
            )


def _log(line: str) -> None:
    print(line, flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="run the c17 version of the workload "
                        "(harness self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    children: list[dict] = []
    if args.trace:
        children.append(_run_child(args, "pass", 0, deadline))
        children.append(_run_child(args, "traced", 0, deadline))
    else:
        for i in range(SETUP_PROBES):
            children.append(_run_child(args, "setup", i, deadline))
        walls: list[float] = []
        while True:
            result = _run_child(args, "pass", len(walls), deadline)
            children.append(result)
            if "wall_s" not in result:
                break
            walls.append(result["wall_s"])
            if time.monotonic() + statistics.median(walls) > started + args.seconds:
                break
    passes = [c for c in children if c["mode"] != "setup"]
    for c in children:
        c.setdefault("errors", [])
    _mark_fingerprints(passes)
    failed = sum(1 for c in children if c["errors"])

    host = next((c["host"] for c in children if "host" in c), {})
    _log(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"small={args.small} host: nproc={host.get('nproc')} "
        f"python={host.get('python')} numpy={host.get('numpy')}"
    )
    for c in children:
        line = f"  {c['mode']:6s} setup {c.get('setup_s', float('nan')):.3f} s"
        if "wall_s" in c:
            line += (
                f"  wall {c['wall_s']:.3f} s  rss {c.get('peak_rss_mb', 0):.1f} MB"
                f"  fingerprint {c.get('fingerprint', '-')[:16]}"
            )
        _log(line + ("  FAILED: " + "; ".join(c["errors"]) if c["errors"] else ""))
    outputs = next((p["outputs"] for p in passes if p.get("outputs")), {})
    if outputs:
        _log("  outputs: " + "  ".join(f"{k}={v}" for k, v in outputs.items()))

    metrics: dict[str, dict] = {}
    if args.trace:
        untraced, traced = passes
        layers = traced.get("layers", {})
        if "wall_s" in untraced and "wall_s" in traced:
            layers["obs.tracing_overhead_ratio"] = (
                traced["wall_s"] / untraced["wall_s"] - 1.0
            )
        for line in _layer_report(traced):
            _log(line)
        for m in spec["per_layer"]:
            metrics[m["name"]] = {
                "value": layers.get(m["name"], 0.0), "unit": m["unit"]
            }
        if set(m["name"] for m in spec["per_layer"]) - set(layers):
            failed = max(failed, 1)
    else:
        walls = [p["wall_s"] for p in passes if "wall_s" in p]
        setups = [c["setup_s"] for c in children if "setup_s" in c]
        rss = [p["peak_rss_mb"] for p in passes if "peak_rss_mb" in p]
        values = {
            "wall_s": (walls, "passes"),
            "setup_s": (setups, "interpreters"),
            "peak_rss_mb": (rss, "passes"),
        }
        for m in spec["end_to_end"]:
            samples, what = values[m["name"]]
            value = statistics.median(samples) if samples else 0.0
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            _log(f"  {m['name']:12s} {value:.4f} {m['unit']}  "
                 f"(median of {len(samples)} {what})")
    _log(f"  error_rate   {failed / len(children):.4f}  "
         f"({failed} of {len(children)} jobs failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


def _layer_report(traced: dict) -> list[str]:
    lines = []
    if traced.get("missing_targets"):
        lines.append("  missing targets: " + ", ".join(traced["missing_targets"]))
    self_s = traced.get("layer_self_s", {})
    if self_s:
        lines.append("  layer self time: " + "  ".join(
            f"{k}={v:.3f}s" for k, v in self_s.items() if v
        ))
    return lines


if __name__ == "__main__":
    sys.exit(main())
