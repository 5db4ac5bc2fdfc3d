"""``python -m repro campaign`` — drive a durable multi-experiment campaign.

Subcommands::

    campaign run SPEC --dir DIR      submit the spec's sweep and run it
    campaign resume --dir DIR        continue a stopped/killed campaign
    campaign status --dir DIR        job table + counts (read-only)
    campaign status --dir DIR --follow   live-updating table (read-only)
    campaign trace --dir DIR         Chrome trace from the journal alone
    campaign report --dir DIR        self-contained HTML sweep report
    campaign gc --dir DIR            prune results/checkpoints not in history
    campaign compact --dir DIR       fold the journal into a snapshot

``status --follow``, ``trace`` and ``report`` open the journal strictly
read-only — they are safe to run against a live campaign (the supervisor
stays the single writer).

Exit codes follow the repo-wide convention: ``0`` success (campaign
complete, no quarantined jobs), ``1`` complete but with quarantined jobs,
``2`` validation/environment error (bad spec, missing directory), and
``128 + signum`` when a signal stopped the run cleanly (``130`` SIGINT,
``143`` SIGTERM) — the stop point is journalled, so ``campaign resume``
continues exactly where the run stopped.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

from repro import obs
from repro.campaign.journal import (
    JOURNAL_NAME,
    Journal,
    JournalCorruptError,
    JournalError,
)
from repro.campaign.spec import CampaignSpecError, load_spec
from repro.campaign.state import DONE, LEASED, PENDING, QUARANTINED, CampaignState
from repro.campaign.supervisor import DEFAULT_LEASE_TIMEOUT, CampaignSupervisor
from repro.resilience.store import ArtifactStore, StoreError

__all__ = ["campaign_main", "build_campaign_parser"]


def build_campaign_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="Crash-safe supervised experiment campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--dir",
            required=True,
            metavar="DIR",
            help="campaign directory (journal, results, manifests, leases)",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            metavar="N",
            help=(
                "process-pool width; 0 runs jobs inline in the supervisor "
                "(default: CPU count)"
            ),
        )
        p.add_argument(
            "--lease-timeout",
            type=float,
            default=DEFAULT_LEASE_TIMEOUT,
            metavar="S",
            help=(
                "seconds a job may show no heartbeat progress before its "
                f"lease is reclaimed (default: {DEFAULT_LEASE_TIMEOUT:g})"
            ),
        )
        p.add_argument(
            "--results-dir",
            metavar="DIR",
            help=(
                "content-addressed result store (default: <dir>/results); "
                "share one across campaigns to share their cache"
            ),
        )
        p.add_argument(
            "--progress",
            action="store_true",
            help="render a live per-job fleet table on stderr",
        )
        p.add_argument(
            "--events",
            metavar="FILE",
            help=(
                "stream merged campaign + tagged worker events to FILE as "
                "JSON lines (tailable; appends across resumes)"
            ),
        )

    run = sub.add_parser("run", help="submit a spec's sweep and run it")
    run.add_argument("spec", metavar="SPEC", help="campaign spec JSON file")
    add_run_options(run)

    resume = sub.add_parser(
        "resume", help="continue a stopped or killed campaign"
    )
    add_run_options(resume)

    status = sub.add_parser("status", help="show the campaign's job table")
    status.add_argument("--dir", required=True, metavar="DIR")
    status.add_argument(
        "--follow",
        action="store_true",
        help=(
            "keep re-rendering until the campaign completes or stops "
            "(read-only; safe while a supervisor runs)"
        ),
    )
    status.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="S",
        help="journal poll interval for --follow (default: 1.0)",
    )

    trace = sub.add_parser(
        "trace",
        help="export a Chrome/Perfetto trace built from the journal alone",
    )
    trace.add_argument("--dir", required=True, metavar="DIR")
    trace.add_argument(
        "--out",
        metavar="FILE",
        help="trace JSON destination (default: <dir>/trace.json)",
    )
    trace.add_argument(
        "--events",
        metavar="FILE",
        help=(
            "overlay a merged --events JSONL stream as per-worker instant "
            "markers"
        ),
    )

    report = sub.add_parser(
        "report", help="render a self-contained HTML sweep report"
    )
    report.add_argument("--dir", required=True, metavar="DIR")
    report.add_argument(
        "--out",
        metavar="FILE",
        help="report destination (default: <dir>/report.html)",
    )
    report.add_argument(
        "--baseline",
        metavar="DIR",
        help=(
            "previous campaign directory to compare per-job wall times "
            "against (regression strip)"
        ),
    )
    report.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="X",
        help=(
            "regression threshold multiplier, same contract as "
            "obs check-bench (default: 3.0)"
        ),
    )
    report.add_argument(
        "--gate",
        action="store_true",
        help="exit 1 when any job regressed vs --baseline",
    )
    report.add_argument(
        "--results-dir",
        metavar="DIR",
        help=(
            "result store searched for per-job manifests "
            "(default: <dir>/results)"
        ),
    )

    gc = sub.add_parser(
        "gc",
        help="delete results/checkpoints whose hash left the history",
    )
    gc.add_argument("--dir", required=True, metavar="DIR")
    gc.add_argument(
        "--results-dir",
        metavar="DIR",
        help="result store to prune (default: <dir>/results)",
    )
    gc.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="also prune this per-stage checkpoint store",
    )
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be deleted without deleting",
    )

    compact = sub.add_parser(
        "compact", help="fold the journal into an atomic snapshot"
    )
    compact.add_argument("--dir", required=True, metavar="DIR")
    return parser


def _require_campaign_dir(directory: str) -> Path | None:
    """The campaign home, or None (with a message) when nothing lives there."""
    path = Path(directory)
    if not (path / JOURNAL_NAME).exists() and not (
        path / "snapshot.json"
    ).exists():
        print(
            f"error: {directory} holds no campaign journal; "
            "start one with: python -m repro campaign run SPEC --dir "
            f"{directory}",
            file=sys.stderr,
        )
        return None
    return path


def _load_state(directory: Path) -> CampaignState:
    journal = Journal(directory, readonly=True)
    try:
        return CampaignState.load(journal)
    finally:
        journal.close()


def _load_journal_view(
    directory: Path,
) -> tuple[CampaignState, list[dict], list[float]]:
    """Read-only (state, records, compaction stamps) for observers.

    ``records`` are the journal records *after* the snapshot — a compacted
    journal's folded history lives only in the snapshot, so trace/report
    panels built from records cover what the journal still holds (the
    snapshot's ``compacted_ts`` marks the fold point).
    """
    journal = Journal(directory, readonly=True)
    try:
        snapshot = journal.load_snapshot()
        records, last_seq = journal.replay()
        if snapshot is not None:
            state = CampaignState.from_payload(snapshot["state"])
        else:
            state = CampaignState()
        for record in records:
            state.apply(record)
        state.last_seq = last_seq
        compactions = []
        if snapshot is not None and snapshot.get("compacted_ts") is not None:
            compactions.append(float(snapshot["compacted_ts"]))
        return state, records, compactions
    finally:
        journal.close()


def _keep_hashes(state: CampaignState, manifest_path: Path) -> set[str]:
    """Every config hash still referenced by journal or manifest history."""
    keep = set(state.jobs)
    if manifest_path.exists():
        from repro.obs.manifest import read_manifests

        try:
            for manifest in read_manifests(str(manifest_path)):
                if manifest.config_hash:
                    keep.add(manifest.config_hash)
        except Exception as exc:
            print(
                f"warning: cannot read manifests {manifest_path}: {exc}; "
                "keeping journal hashes only",
                file=sys.stderr,
            )
    return keep


def _fmt_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} GiB"


def _run_or_resume(args: argparse.Namespace, spec_path: str | None) -> int:
    if spec_path is None:
        home = _require_campaign_dir(args.dir)
        if home is None:
            return 2
    if args.workers is not None and args.workers < 0:
        print("error: --workers must be >= 0", file=sys.stderr)
        return 2
    if args.lease_timeout <= 0:
        print("error: --lease-timeout must be positive", file=sys.stderr)
        return 2

    spec = None
    if spec_path is not None:
        try:
            spec = load_spec(spec_path)
        except CampaignSpecError as exc:
            print(f"error: invalid campaign spec: {exc}", file=sys.stderr)
            return 2

    renderer = event_sink = None
    streaming = args.progress or bool(args.events)
    if streaming:
        bus = obs.enable_events()
        if args.progress:
            from repro.campaign.telemetry import FleetRenderer

            renderer = FleetRenderer()
            bus.subscribe(renderer)
        if args.events:
            try:
                event_sink = obs.JsonlEventSink(args.events, bus)
            except OSError as exc:
                print(
                    f"error: cannot write events file {args.events}: {exc}",
                    file=sys.stderr,
                )
                obs.disable_events()
                return 2

    try:
        try:
            supervisor = CampaignSupervisor(
                args.dir,
                max_workers=args.workers,
                lease_timeout=args.lease_timeout,
                results_dir=args.results_dir,
            )
        except (JournalError, OSError, StoreError, ValueError) as exc:
            print(f"error: cannot open campaign: {exc}", file=sys.stderr)
            return 2
        if spec is not None:
            try:
                new = supervisor.submit(spec)
            except CampaignSpecError as exc:
                print(f"error: invalid campaign spec: {exc}", file=sys.stderr)
                return 2
            total = len(supervisor.state.jobs)
            print(
                f"campaign {supervisor.state.name!r}: {len(new)} new job(s) "
                f"submitted ({total} total) in {args.dir}"
            )
        elif not supervisor.state.jobs:
            print(
                f"error: campaign in {args.dir} has no jobs", file=sys.stderr
            )
            return 2
        report = supervisor.run()
    finally:
        if renderer is not None:
            renderer.close()
        if event_sink is not None:
            event_sink.close()
        if streaming:
            obs.disable_events()

    counts = report.counts
    print(
        f"campaign {report.name!r}: {counts.get(DONE, 0)} done "
        f"({report.jobs_cached} from cache, {report.jobs_computed} computed), "
        f"{counts.get(QUARANTINED, 0)} quarantined, "
        f"{counts.get(PENDING, 0) + counts.get(LEASED, 0)} remaining "
        f"[{report.wall_s:.1f}s]"
    )
    if report.leases_reclaimed:
        print(f"  reclaimed {report.leases_reclaimed} expired lease(s)")
    if report.stopped:
        print(
            f"stopped by {report.stop_reason}; resume with: "
            f"python -m repro campaign resume --dir {args.dir}"
        )
        try:
            return 128 + int(signal.Signals[str(report.stop_reason)].value)
        except (KeyError, ValueError):
            return 1
    return 1 if counts.get(QUARANTINED, 0) else 0


def _render_status(state: CampaignState) -> list[str]:
    """The status table as lines (shared by one-shot and --follow)."""
    if state.stopped_before_start:
        # A stop can be journalled before any campaign record (SIGINT while
        # the spec was still loading): the journal is valid, the campaign
        # just never started.
        return [
            f"campaign stopped before any job started "
            f"(stop reason: {state.stop_reason}); resume will wait for a "
            "spec submission"
        ]
    counts = state.counts()
    flags = []
    if state.finished:
        flags.append("finished")
    if state.stopped:
        flags.append(f"stopped ({state.stop_reason})")
    lines = [
        f"campaign {state.name!r}: {len(state.jobs)} job(s)"
        + (f"  [{', '.join(flags)}]" if flags else "")
    ]
    header = f"{'job':<18} {'status':<12} {'att':>3} {'prio':>4}  detail"
    lines.append(header)
    lines.append("-" * len(header))
    for job_id in state.job_order:
        job = state.jobs[job_id]
        if job.status == DONE:
            detail = "cache" if job.cached else "computed"
            if job.result_sha:
                detail += f"  sha={job.result_sha[:12]}"
        else:
            detail = job.last_error or ""
        lines.append(
            f"{job.job_id:<18} {job.status:<12} {job.attempts:>3} "
            f"{job.priority:>4}  {detail}"
        )
    lines.append(
        f"totals: {counts[DONE]} done, {counts[PENDING]} pending, "
        f"{counts[LEASED]} leased, {counts[QUARANTINED]} quarantined"
    )
    return lines


def _status(args: argparse.Namespace) -> int:
    home = _require_campaign_dir(args.dir)
    if home is None:
        return 2
    try:
        state = _load_state(home)
    except (JournalCorruptError, JournalError) as exc:
        print(f"error: cannot load campaign: {exc}", file=sys.stderr)
        return 2
    print("\n".join(_render_status(state)))
    if not args.follow:
        return 0
    if args.interval <= 0:
        print("error: --interval must be positive", file=sys.stderr)
        return 2
    # Follow mode: poll the journal read-only and re-render on change until
    # the campaign reaches a terminal state.  The journal is the only
    # channel — this works from any process, needs no event bus, and never
    # writes (a live supervisor stays the single writer).
    last_seq = state.last_seq
    try:
        while not (state.finished or state.stopped or
                   (state.jobs and state.complete)):
            time.sleep(args.interval)
            try:
                state = _load_state(home)
            except (JournalCorruptError, JournalError) as exc:
                print(
                    f"error: cannot load campaign: {exc}", file=sys.stderr
                )
                return 2
            if state.last_seq == last_seq:
                continue
            last_seq = state.last_seq
            print()
            print("\n".join(_render_status(state)))
    except KeyboardInterrupt:
        print()  # leave the table on its own line
    return 0


def _read_event_records(path: str) -> list[dict] | None:
    """JSONL event records from a ``--events`` stream (None on I/O error)."""
    records: list[dict] = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail of a killed writer
                if isinstance(record, dict):
                    records.append(record)
    except OSError as exc:
        print(f"error: cannot read events file {path}: {exc}",
              file=sys.stderr)
        return None
    return records


def _trace(args: argparse.Namespace) -> int:
    home = _require_campaign_dir(args.dir)
    if home is None:
        return 2
    try:
        _state, records, compactions = _load_journal_view(home)
    except (JournalCorruptError, JournalError) as exc:
        print(f"error: cannot load campaign: {exc}", file=sys.stderr)
        return 2
    events = None
    if args.events:
        events = _read_event_records(args.events)
        if events is None:
            return 2
    from repro.obs.export import write_campaign_trace

    out = args.out or str(home / "trace.json")
    try:
        count = write_campaign_trace(
            out, records, events=events, compactions=compactions
        )
    except OSError as exc:
        print(f"error: cannot write trace {out}: {exc}", file=sys.stderr)
        return 2
    print(
        f"wrote {count} trace event(s) to {out} "
        "(open in chrome://tracing or ui.perfetto.dev)"
    )
    return 0


def _campaign_manifests(home: Path, results_root: Path) -> list:
    """Every per-job manifest a campaign left behind.

    The supervisor appends to ``<dir>/manifests.jsonl``; jobs served from a
    *shared* result store may have journalled theirs next to the result
    payload instead, so the store is searched too.
    """
    from repro.obs.manifest import read_manifests

    paths = [home / "manifests.jsonl"]
    if results_root.is_dir():
        paths.extend(sorted(results_root.rglob("manifests.jsonl")))
    manifests = []
    for path in paths:
        if not path.is_file():
            continue
        try:
            manifests.extend(read_manifests(str(path)))
        except Exception as exc:
            print(
                f"warning: skipping unreadable manifests {path}: {exc}",
                file=sys.stderr,
            )
    return manifests


def _report(args: argparse.Namespace) -> int:
    from repro.obs.campaign_html import (
        DEFAULT_TOLERANCE,
        campaign_regressions,
        write_campaign_report,
    )

    home = _require_campaign_dir(args.dir)
    if home is None:
        return 2
    tolerance = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    if tolerance <= 0:
        print("error: --tolerance must be positive", file=sys.stderr)
        return 2
    try:
        state, records, _compactions = _load_journal_view(home)
    except (JournalCorruptError, JournalError) as exc:
        print(f"error: cannot load campaign: {exc}", file=sys.stderr)
        return 2
    base_records = None
    if args.baseline:
        base_home = _require_campaign_dir(args.baseline)
        if base_home is None:
            return 2
        try:
            _, base_records, _ = _load_journal_view(base_home)
        except (JournalCorruptError, JournalError) as exc:
            print(
                f"error: cannot load baseline campaign: {exc}",
                file=sys.stderr,
            )
            return 2
    results_root = Path(
        args.results_dir if args.results_dir else home / "results"
    )
    manifests = _campaign_manifests(home, results_root)
    out = args.out or str(home / "report.html")
    try:
        size = write_campaign_report(
            out,
            state.to_payload(),
            records,
            manifests=manifests,
            base_records=base_records,
            tolerance=tolerance,
            source=str(home),
        )
    except OSError as exc:
        print(f"error: cannot write report {out}: {exc}", file=sys.stderr)
        return 2
    print(
        f"wrote campaign report ({size} bytes, {len(state.jobs)} job(s), "
        f"{len(manifests)} manifest(s)) to {out}"
    )
    if base_records is None:
        return 0
    rows = campaign_regressions(records, base_records, tolerance)
    regressed = [r for r in rows if r["regressed"]]
    for row in rows:
        verdict = "REGRESSED" if row["regressed"] else "ok"
        print(
            f"  {row['job'][:18]:<18} {row['base_s']:.3f}s -> "
            f"{row['current_s']:.3f}s  ({row['ratio']:.2f}x)  {verdict}"
        )
    if not rows:
        print("  (no job computed in both campaigns; nothing to compare)")
    if regressed:
        print(
            f"{len(regressed)} job(s) slower than {tolerance:g}x baseline",
            file=sys.stderr,
        )
        if args.gate:
            return 1
    return 0


def _gc(args: argparse.Namespace) -> int:
    home = _require_campaign_dir(args.dir)
    if home is None:
        return 2
    try:
        state = _load_state(home)
    except (JournalCorruptError, JournalError) as exc:
        print(f"error: cannot load campaign: {exc}", file=sys.stderr)
        return 2
    keep = _keep_hashes(state, home / "manifests.jsonl")
    roots = [("result", Path(args.results_dir or home / "results"))]
    if args.checkpoint_dir:
        roots.append(("checkpoint", Path(args.checkpoint_dir)))
    for kind, root in roots:
        try:
            removed, reclaimed = ArtifactStore(root).prune(
                keep, dry_run=args.dry_run
            )
        except (OSError, StoreError) as exc:
            print(f"error: cannot prune {root}: {exc}", file=sys.stderr)
            return 2
        if args.dry_run:
            print(
                f"gc (dry run): would remove {removed} {kind} dir(s), "
                f"{_fmt_bytes(reclaimed)} from {root}"
            )
        else:
            print(
                f"gc: removed {removed} {kind} dir(s), "
                f"{_fmt_bytes(reclaimed)} reclaimed from {root}"
            )
    print(f"kept {len(keep)} hash(es) still in journal/manifest history")
    return 0


def _compact(args: argparse.Namespace) -> int:
    home = _require_campaign_dir(args.dir)
    if home is None:
        return 2
    journal = Journal(home)
    try:
        state = CampaignState.load(journal)
        journal.compact(state.to_payload())
    except (JournalCorruptError, JournalError) as exc:
        print(f"error: cannot compact campaign: {exc}", file=sys.stderr)
        return 2
    finally:
        journal.close()
    print(
        f"compacted {home / JOURNAL_NAME} into {home / 'snapshot.json'} "
        f"(last_seq={state.last_seq}, {len(state.jobs)} job(s))"
    )
    return 0


def campaign_main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro campaign``."""
    args = build_campaign_parser().parse_args(argv)
    if args.command == "run":
        return _run_or_resume(args, args.spec)
    if args.command == "resume":
        return _run_or_resume(args, None)
    if args.command == "status":
        return _status(args)
    if args.command == "trace":
        return _trace(args)
    if args.command == "report":
        return _report(args)
    if args.command == "gc":
        return _gc(args)
    if args.command == "compact":
        return _compact(args)
    raise AssertionError(f"unhandled command {args.command!r}")
