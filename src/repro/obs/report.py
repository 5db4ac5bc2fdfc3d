"""Human-readable rendering of collected spans and metrics.

``python -m repro --profile`` prints these after the run: a stage-timing
tree (wall and CPU milliseconds, self-time for spans with children) and a
table of every counter, gauge and histogram summary.

Kept free of imports from :mod:`repro.experiments` (which imports the
instrumented pipeline, which imports :mod:`repro.obs`) — the tiny table
formatter is local.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, TraceCollector

__all__ = [
    "render_span_tree",
    "render_metrics",
    "render_profile",
    "render_attribution",
]


def _fmt_ms(seconds: float) -> str:
    return f"{1000.0 * seconds:9.1f} ms"


#: Children sharing a name beyond this count render as one aggregate line
#: (e.g. the per-vector fault-sim calls inside the PODEM top-off loop).
_AGGREGATE_THRESHOLD = 4


def _span_lines(span: Span, depth: int, lines: list[str]) -> None:
    attrs = ""
    if span.attributes:
        attrs = "  [" + ", ".join(
            f"{k}={v}" for k, v in sorted(span.attributes.items())
        ) + "]"
    self_note = ""
    if span.children:
        self_note = f"  (self {1000.0 * span.self_wall_time:.1f} ms)"
    lines.append(
        f"{'  ' * depth}{span.name:<{max(1, 34 - 2 * depth)}}"
        f"{_fmt_ms(span.wall_time)}  cpu {_fmt_ms(span.cpu_time)}"
        f"{self_note}{attrs}"
    )
    by_name: dict[str, int] = {}
    for child in span.children:
        by_name[child.name] = by_name.get(child.name, 0) + 1
    aggregated: set[str] = set()
    for child in span.children:
        if by_name[child.name] >= _AGGREGATE_THRESHOLD:
            if child.name in aggregated:
                continue
            aggregated.add(child.name)
            group = [c for c in span.children if c.name == child.name]
            label = f"{child.name} ×{len(group)}"
            lines.append(
                f"{'  ' * (depth + 1)}{label:<{max(1, 34 - 2 * (depth + 1))}}"
                f"{_fmt_ms(sum(c.wall_time for c in group))}"
                f"  cpu {_fmt_ms(sum(c.cpu_time for c in group))}"
            )
        else:
            _span_lines(child, depth + 1, lines)


def render_span_tree(collector: TraceCollector) -> str:
    """The indented per-stage timing tree of every root span."""
    lines = ["stage timings (wall / thread-CPU):"]
    if not collector.roots:
        lines.append("  (no spans recorded)")
    for root in collector.roots:
        _span_lines(root, 1, lines)
    return "\n".join(lines)


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return lines


def render_metrics(registry: MetricsRegistry) -> str:
    """Counters, gauges and histogram summaries as one aligned table."""
    rows: list[list[str]] = []
    for name, counter in sorted(registry.counters.items()):
        rows.append([name, "counter", str(counter.value)])
    for name, gauge in sorted(registry.gauges.items()):
        if gauge.value is not None:
            rows.append([name, "gauge", f"{gauge.value:.6g}"])
    for name, hist in sorted(registry.histograms.items()):
        if not hist.count:
            continue
        rows.append(
            [
                name,
                "histogram",
                f"n={hist.count} mean={hist.mean:.3g} "
                f"p50={hist.percentile(50):.3g} "
                f"p95={hist.percentile(95):.3g} "
                f"min={hist.min:.3g} max={hist.max:.3g}",
            ]
        )
    lines = ["metrics:"]
    if rows:
        lines.extend("  " + line for line in _table(["name", "kind", "value"], rows))
    else:
        lines.append("  (no metrics recorded)")
    return "\n".join(lines)


def render_attribution(snapshot: dict[str, object]) -> str:
    """The "where the time goes" block of an attribution snapshot.

    ``snapshot`` is :meth:`AttributionCollector.snapshot`, optionally with a
    ``reconcile`` section merged in (``__main__`` adds it from the
    ``pipeline.run`` span wall).  Stage wall times render as a share-of-total
    table, kernel work counters and the cone-bucket histogram follow, and
    the reconciliation line closes the block.
    """
    lines = ["cost attribution:"]
    stage_wall = snapshot.get("stage_wall_s", {})
    if isinstance(stage_wall, dict) and stage_wall:
        total = sum(stage_wall.values()) or 1.0
        rows = [
            [name, f"{1000.0 * seconds:9.1f} ms", f"{100.0 * seconds / total:5.1f} %"]
            for name, seconds in sorted(
                stage_wall.items(), key=lambda kv: -kv[1]
            )
        ]
        lines.extend(
            "  " + line for line in _table(["stage", "wall", "share"], rows)
        )
    stages = snapshot.get("stages", {})
    if isinstance(stages, dict) and stages:
        lines.append("  kernel work:")
        for component, counters in sorted(stages.items()):
            for quantity, value in sorted(counters.items()):
                lines.append(f"    {component}.{quantity}: {value:,}")
    cones = snapshot.get("cone_buckets", {})
    if isinstance(cones, dict) and cones:
        total_evals = sum(
            c.get("gate_evals", 0) for c in cones.values()
        ) or 1
        lines.append("  gate-evals by cone size:")
        rows = [
            [
                bucket,
                str(counters.get("faults", 0)),
                f"{counters.get('gate_evals', 0):,}",
                f"{100.0 * counters.get('gate_evals', 0) / total_evals:5.1f} %",
            ]
            for bucket, counters in sorted(cones.items())
        ]
        lines.extend(
            "    " + line
            for line in _table(["cone bucket", "faults", "gate evals", "share"], rows)
        )
    memory = snapshot.get("memory_peak_bytes", {})
    if isinstance(memory, dict) and memory:
        lines.append("  memory peaks (tracemalloc):")
        for name, peak in sorted(memory.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {name}: {peak / 1e6:.2f} MB")
    reconcile = snapshot.get("reconcile", {})
    if isinstance(reconcile, dict) and reconcile:
        lines.append(
            "  reconciliation: "
            f"{reconcile.get('attributed_wall_s', 0.0):.3f} s attributed of "
            f"{reconcile.get('pipeline_wall_s', 0.0):.3f} s pipeline wall "
            f"({100.0 * float(reconcile.get('coverage', 0.0)):.1f} % covered)"
        )
    if len(lines) == 1:
        lines.append("  (no attribution recorded)")
    return "\n".join(lines)


def _render_engine(engine: dict[str, object]) -> str:
    """One-block descriptor of the engine that ran the stuck-at stage."""
    lines = ["engine:"]
    for key, value in engine.items():
        if value is None:
            continue
        lines.append(f"  {key}: {value}")
    return "\n".join(lines)


def render_profile(
    collector: TraceCollector,
    registry: MetricsRegistry,
    engine: dict[str, object] | None = None,
) -> str:
    """The full ``--profile`` report: span tree, engine block, metric table.

    ``engine`` is the fault-simulation engine descriptor
    (``ExperimentResult.engine``); when given it renders between the tree
    and the metrics.
    """
    parts = [render_span_tree(collector)]
    if engine:
        parts.append(_render_engine(engine))
    parts.append(render_metrics(registry))
    return "\n\n".join(parts)
