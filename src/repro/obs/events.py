"""Streaming pipeline events: pub/sub bus, typed events, sinks and renderer.

Long fault-simulation and ATPG campaigns give no signal while they run —
spans and counters only materialise *after* a stage finishes.  The event bus
closes that gap: instrumented code publishes small typed events **while
working**, and any number of subscribers consume them live:

* :class:`JsonlEventSink` — one JSON object per line, flushed per event, for
  machine consumption (``--events FILE``; tail it during a run);
* :class:`ProgressRenderer` — a dependency-free terminal renderer
  (``--progress``): patterns applied, faults remaining, detection rate,
  chunk completions and an ETA from an EWMA of chunk latencies;
* :class:`ListSink` — in-memory capture, used by the Chrome-trace exporter
  to place retry/checkpoint instant events on the timeline, and by tests.

Like spans and metrics, events are **zero-cost when disabled**: with no bus
installed ``obs.emit`` early-returns after one module-global check, and call
sites inside loops guard event *construction* behind
``obs.events_enabled()``.  Event publication is low-frequency by design —
per stage, per chunk, per pattern batch — never per pattern or per fault.

Every event carries two clocks: ``ts`` (``time.time()``, for humans and
cross-machine logs) and ``ts_mono`` (``time.perf_counter()``, the clock
spans use, so exporters can align events with span timelines).
"""

from __future__ import annotations

import json
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, TextIO

__all__ = [
    "Event",
    "ProgressEvent",
    "StageEvent",
    "RetryEvent",
    "CheckpointEvent",
    "CampaignEvent",
    "JobEvent",
    "EventBus",
    "JsonlEventSink",
    "ListSink",
    "BoundedEventBuffer",
    "ProgressRenderer",
    "event_from_record",
    "read_event_envelopes",
]


@dataclass
class Event:
    """Base event: a name, two clocks, free-form extras."""

    ts: float = field(default=0.0, kw_only=True)
    ts_mono: float = field(default=0.0, kw_only=True)

    def __post_init__(self) -> None:
        if not self.ts:
            self.ts = time.time()
        if not self.ts_mono:
            self.ts_mono = time.perf_counter()

    @property
    def type(self) -> str:
        return type(self).__name__

    def to_record(self) -> dict:
        """JSON-able representation; ``type`` discriminates on the wire."""
        record: dict = {"type": self.type}
        for key, value in self.__dict__.items():
            record[key] = value
        return record


@dataclass
class ProgressEvent(Event):
    """Incremental progress of one stage: ``completed`` of ``total`` units.

    ``total`` may be None for open-ended work (e.g. PODEM's target list
    shrinks as vectors retire several faults).  ``data`` carries stage
    telemetry for renderers: ``faults_remaining``, ``detection_rate``, ...
    """

    stage: str = "?"
    completed: float = 0.0
    total: float | None = None
    unit: str = ""
    data: dict = field(default_factory=dict)


@dataclass
class StageEvent(Event):
    """A named stage started or finished (``status``: "start" | "end")."""

    stage: str = "?"
    status: str = "start"
    wall_s: float | None = None
    data: dict = field(default_factory=dict)


@dataclass
class RetryEvent(Event):
    """A transiently-failed unit of work is being retried."""

    point: str = "?"
    key: object = None
    attempt: int = 0
    reason: str = ""
    delay_s: float = 0.0


@dataclass
class CheckpointEvent(Event):
    """A pipeline checkpoint was saved, restored, or found corrupt."""

    stage: str = "?"
    action: str = "save"  # "save" | "restore" | "corrupt"
    path: str | None = None


@dataclass
class CampaignEvent(Event):
    """A campaign job changed state under the supervisor.

    ``action``: ``"lease"`` | ``"done"`` | ``"cached"`` | ``"reclaim"`` |
    ``"quarantine"`` | ``"degrade"`` | ``"stop"``.  ``job`` is the config
    hash (``"-"`` for campaign-wide actions); ``data`` carries the action's
    detail (``attempt``, ``result_sha``, ``reason``, ``workers``, ...).
    """

    job: str = "?"
    action: str = "lease"
    data: dict = field(default_factory=dict)


@dataclass
class JobEvent(Event):
    """A worker-side event re-published by the campaign supervisor.

    Pool workers publish ordinary events (:class:`ProgressEvent`,
    :class:`StageEvent`, :class:`RetryEvent`, ...) on their own in-process
    bus; the supervisor ships them back and re-publishes each one wrapped in
    a ``JobEvent`` carrying the campaign coordinates the worker cannot know:
    ``job`` (the job id), ``config_hash`` and ``worker_pid``.  ``inner`` is
    the original event's :meth:`Event.to_record` dictionary, and the
    wrapper's ``ts``/``ts_mono`` mirror the inner clocks so renderers and
    trace exporters keep the worker's own timeline.
    """

    job: str = "?"
    config_hash: str = ""
    worker_pid: int | None = None
    inner: dict = field(default_factory=dict)

    @property
    def inner_type(self) -> str:
        """Type name of the wrapped event record (``"ProgressEvent"``...)."""
        return str(self.inner.get("type", "Event"))

    def inner_event(self) -> Event:
        """Rebuild the wrapped event as its original typed class."""
        return event_from_record(dict(self.inner))


_EVENT_TYPES: dict[str, type[Event]] = {
    cls.__name__: cls
    for cls in (
        ProgressEvent,
        StageEvent,
        RetryEvent,
        CheckpointEvent,
        CampaignEvent,
        JobEvent,
    )
}


def event_from_record(record: dict) -> Event:
    """Rebuild a typed event from a :meth:`Event.to_record` dictionary."""
    kind = _EVENT_TYPES.get(str(record.get("type")), None)
    fields = {k: v for k, v in record.items() if k != "type"}
    if kind is None:
        return Event(
            ts=float(fields.get("ts", 0.0)),
            ts_mono=float(fields.get("ts_mono", 0.0)),
        )
    return kind(**fields)


class EventBus:
    """Thread-safe fan-out of events to subscriber callbacks.

    A subscriber that raises is dropped after a one-line warning — a broken
    sink must never take the pipeline down with it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subscribers: list[Callable[[Event], None]] = []
        self.published = 0

    def subscribe(self, callback: Callable[[Event], None]) -> None:
        with self._lock:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[Event], None]) -> None:
        with self._lock:
            if callback in self._subscribers:
                self._subscribers.remove(callback)

    def publish(self, event: Event) -> None:
        with self._lock:
            subscribers = list(self._subscribers)
            self.published += 1
        dead: list[Callable[[Event], None]] = []
        for callback in subscribers:
            try:
                callback(event)
            except Exception as exc:
                warnings.warn(
                    f"event subscriber {callback!r} raised {exc!r}; "
                    "unsubscribing it",
                    RuntimeWarning,
                    stacklevel=2,
                )
                dead.append(callback)
        if dead:
            with self._lock:
                for callback in dead:
                    if callback in self._subscribers:
                        self._subscribers.remove(callback)


class ListSink:
    """Collect every published event in order (in-memory)."""

    def __init__(self, bus: EventBus | None = None):
        self.events: list[Event] = []
        if bus is not None:
            bus.subscribe(self)

    def __call__(self, event: Event) -> None:
        self.events.append(event)


class JsonlEventSink:
    """Append each event to ``path`` as one JSON line, flushed immediately.

    Flushing per event keeps the file tailable while the run is alive; the
    volume is low (events are per stage / chunk / batch).  Close the sink to
    release the handle; a closed sink silently discards.
    """

    def __init__(self, path: str, bus: EventBus | None = None):
        self.path = path
        self._handle: TextIO | None = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self.written = 0
        if bus is not None:
            bus.subscribe(self)

    def __call__(self, event: Event) -> None:
        with self._lock:
            if self._handle is None:
                return
            self._handle.write(
                json.dumps(event.to_record(), sort_keys=True, default=repr)
                + "\n"
            )
            self._handle.flush()
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class BoundedEventBuffer:
    """Bus subscriber shipping events through a JSONL envelope file.

    The worker half of the campaign event bridge: subscribe one of these to
    a worker's in-process bus and it appends *envelope* lines to ``path`` —

    ``{"tags": {...}, "dropped": N, "events": [<event records>...]}``

    with three hard guarantees:

    * **Bounded memory** — at most ``capacity`` records buffer between
      flushes; overflow drops the *oldest* record (the newest state is the
      interesting one for progress telemetry) and counts it.
    * **Bounded I/O** — an envelope is written at most once per
      ``min_interval`` seconds, or immediately once ``flush_size`` records
      are waiting, whichever comes first.  Each envelope is a single
      ``write`` of one line, so a reader consuming only newline-terminated
      lines never sees a torn envelope.
    * **Loss is never silent** — ``dropped`` carries the *cumulative* drop
      count on every envelope, and :meth:`close` always writes a final
      envelope (even an empty one) so the reader sees the final total.
    """

    def __init__(
        self,
        path: str,
        tags: dict | None = None,
        capacity: int = 512,
        min_interval: float = 0.25,
        flush_size: int = 64,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.path = path
        self.tags = dict(tags or {})
        self.capacity = capacity
        self.min_interval = min_interval
        self.flush_size = max(1, flush_size)
        self.dropped = 0
        self.envelopes_written = 0
        self._clock = clock
        self._records: list[dict] = []
        self._last_flush = clock()
        self._lock = threading.Lock()
        self._handle: TextIO | None = None
        self._closed = False

    def __call__(self, event: Event) -> None:
        with self._lock:
            if self._closed:
                return
            self._records.append(event.to_record())
            if len(self._records) > self.capacity:
                overflow = len(self._records) - self.capacity
                del self._records[:overflow]
                self.dropped += overflow
            now = self._clock()
            if (
                len(self._records) >= self.flush_size
                or now - self._last_flush >= self.min_interval
            ):
                self._flush_locked(now)

    def _flush_locked(self, now: float) -> None:
        envelope = {
            "tags": self.tags,
            "dropped": self.dropped,
            "events": self._records,
        }
        line = json.dumps(envelope, sort_keys=True, default=repr) + "\n"
        try:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line)
            self._handle.flush()
        except OSError:
            # A dead channel must never take the worker down; the records
            # stay counted as dropped so the loss is still visible.
            self.dropped += len(self._records)
        else:
            self.envelopes_written += 1
        self._records = []
        self._last_flush = now

    def flush(self) -> None:
        """Force the buffered records out regardless of throttling."""
        with self._lock:
            if not self._closed:
                self._flush_locked(self._clock())

    def close(self) -> None:
        """Flush a final envelope (always, publishing the final drop count)."""
        with self._lock:
            if self._closed:
                return
            self._flush_locked(self._clock())
            self._closed = True
            if self._handle is not None:
                self._handle.close()
                self._handle = None


def read_event_envelopes(
    path: str, offset: int = 0
) -> tuple[list[dict], int]:
    """Parse complete envelope lines from ``path`` starting at ``offset``.

    The supervisor half of the event bridge: returns ``(envelopes,
    new_offset)`` where ``new_offset`` covers exactly the newline-terminated
    lines consumed — a torn tail (a flush racing the read, or a killed
    writer) is left for the next call.  Unparsable *complete* lines are
    skipped: the channel is advisory telemetry, never state.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            data = handle.read()
    except OSError:
        return [], offset
    end = data.rfind(b"\n")
    if end < 0:
        return [], offset
    chunk = data[: end + 1]
    envelopes: list[dict] = []
    for raw in chunk.splitlines():
        try:
            envelope = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue
        if isinstance(envelope, dict):
            envelopes.append(envelope)
    return envelopes, offset + len(chunk)


def _fmt_eta(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


class ProgressRenderer:
    """Terminal renderer for the live event stream (``--progress``).

    On a TTY, progress lines redraw in place (carriage return); otherwise
    each update prints on its own line, throttled to at most one line per
    ``min_interval`` seconds per stage so CI logs stay readable.  Stage
    starts/ends, retries and checkpoint actions always get their own line.

    The ETA extrapolates the stage's observed completion rate.
    """

    def __init__(
        self,
        stream: TextIO | None = None,
        min_interval: float = 0.5,
    ):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._first_seen: dict[str, float] = {}
        self._last_printed: dict[str, float] = {}
        self._line_open = False
        try:
            self._tty = bool(self.stream.isatty())
        except (AttributeError, ValueError):
            self._tty = False

    # -- formatting ---------------------------------------------------------
    def _eta(self, event: ProgressEvent) -> float | None:
        if event.total is None or event.completed <= 0:
            return None
        remaining = max(0.0, event.total - event.completed)
        if not remaining:
            return 0.0
        first = self._first_seen.setdefault(event.stage, event.ts_mono)
        elapsed = event.ts_mono - first
        if elapsed <= 0:
            return None
        rate = event.completed / elapsed
        return remaining / rate if rate > 0 else None

    def _progress_line(self, event: ProgressEvent) -> str:
        parts = [f"[{event.stage}]"]
        if event.total is not None:
            parts.append(
                f"{event.completed:g}/{event.total:g} {event.unit}".rstrip()
            )
        else:
            parts.append(f"{event.completed:g} {event.unit}".rstrip())
        remaining = event.data.get("faults_remaining")
        if remaining is not None:
            parts.append(f"{remaining} faults left")
        rate = event.data.get("detection_rate")
        if rate is not None:
            parts.append(f"{100.0 * float(rate):.1f}% detected")
        eta = self._eta(event)
        if eta is not None and eta > 0:
            parts.append(f"eta {_fmt_eta(eta)}")
        return " | ".join(parts)

    # -- output -------------------------------------------------------------
    def _write_line(self, text: str, transient: bool) -> None:
        if self._tty:
            # Clear any in-place progress line before a permanent line.
            prefix = "\r\x1b[2K" if self._line_open else ""
            end = "" if transient else "\n"
            self.stream.write(f"{prefix}{text}{end}")
            self._line_open = transient
        else:
            self.stream.write(text + "\n")
        self.stream.flush()

    def __call__(self, event: Event) -> None:
        if isinstance(event, ProgressEvent):
            now = event.ts_mono
            finished = (
                event.total is not None and event.completed >= event.total
            )
            last = self._last_printed.get(event.stage)
            if (
                not self._tty
                and not finished
                and last is not None
                and now - last < self.min_interval
            ):
                return
            self._last_printed[event.stage] = now
            self._write_line(self._progress_line(event), transient=self._tty)
        elif isinstance(event, StageEvent):
            if event.status == "start":
                self._write_line(f"[{event.stage}] started", transient=False)
            else:
                duration = (
                    f" in {event.wall_s:.2f}s" if event.wall_s is not None else ""
                )
                detail = ""
                if event.data:
                    detail = "  (" + ", ".join(
                        f"{k}={v}" for k, v in sorted(event.data.items())
                    ) + ")"
                self._write_line(
                    f"[{event.stage}] done{duration}{detail}", transient=False
                )
        elif isinstance(event, RetryEvent):
            self._write_line(
                f"[retry] {event.point} key={event.key} "
                f"attempt={event.attempt} after {event.delay_s:.2f}s: "
                f"{event.reason}",
                transient=False,
            )
        elif isinstance(event, CheckpointEvent):
            self._write_line(
                f"[checkpoint] {event.action} {event.stage}", transient=False
            )
        elif isinstance(event, CampaignEvent):
            detail = ""
            if event.data:
                detail = "  (" + ", ".join(
                    f"{k}={v}" for k, v in sorted(event.data.items())
                ) + ")"
            self._write_line(
                f"[campaign] {event.action} {event.job}{detail}",
                transient=False,
            )
        elif isinstance(event, JobEvent):
            # Worker telemetry re-published by a campaign supervisor: render
            # the wrapped event under a short job-id prefix, throttled like
            # plain progress so a wide fleet stays readable.
            now = event.ts_mono
            key = f"job:{event.job}"
            last = self._last_printed.get(key)
            if (
                not self._tty
                and last is not None
                and now - last < self.min_interval
            ):
                return
            self._last_printed[key] = now
            inner = event.inner_event()
            if isinstance(inner, ProgressEvent):
                text = self._progress_line(inner)
            else:
                text = f"[{inner.type}]"
                stage = getattr(inner, "stage", None)
                if stage:
                    text = f"[{stage}] {inner.type}"
            self._write_line(
                f"({event.job[:10]}) {text}", transient=self._tty
            )

    def close(self) -> None:
        """Terminate a dangling in-place progress line."""
        if self._tty and self._line_open:
            self.stream.write("\n")
            self.stream.flush()
            self._line_open = False
