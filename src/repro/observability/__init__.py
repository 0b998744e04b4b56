"""Unified observability layer: tracing, metrics, profiling, drift.

One :class:`Observability` object rides along a debugging session (plain
or streaming) and collects three coordinated views of a run:

* **spans** (:mod:`repro.observability.spans`) — where wall-clock time
  went, as a nested tree;
* **metrics** (:mod:`repro.observability.metrics`) — the counters that
  previously lived separately in ``MatchStats`` and the streaming batch
  results, unified in one registry with ``snapshot()/diff()`` and
  JSON-lines export;
* **profile** (:mod:`repro.observability.profiler`) — sampled observed
  per-feature/per-rule costs and exact predicate selectivities, feeding
  :func:`~repro.observability.drift.detect_drift`.

Everything is opt-in: sessions built without an ``Observability`` run the
exact seed code paths (matcher counters byte-identical), and a disabled
tracer/absent profiler costs one pointer check on the paths it touches.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Optional

from .drift import (
    DriftMonitor,
    DriftReport,
    FeatureDrift,
    PredicateDrift,
    detect_drift,
    focus_rules_for_report,
    order_signature,
)
from .export import (
    Exposition,
    add_registry_snapshot,
    add_request_telemetry,
    parse_prometheus,
    rotate_file,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_quantile,
    record_batch_result,
    record_match_stats,
)
from .profiler import DEFAULT_SAMPLE_EVERY, Profiler
from .rolling import (
    RequestTelemetry,
    RequestWindow,
    RollingCounter,
    RollingHistogram,
)
from .slo import SLO, AlertLog, SLOPolicy, SLOStatus, default_slos
from .spans import SpanLog, SpanRecord, Tracer

__all__ = [
    "Observability",
    "Tracer",
    "SpanLog",
    "SpanRecord",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "bucket_quantile",
    "Profiler",
    "DriftMonitor",
    "DriftReport",
    "FeatureDrift",
    "PredicateDrift",
    "detect_drift",
    "focus_rules_for_report",
    "order_signature",
    "record_match_stats",
    "record_batch_result",
    "maybe_span",
    "RequestTelemetry",
    "RequestWindow",
    "RollingCounter",
    "RollingHistogram",
    "Exposition",
    "add_registry_snapshot",
    "add_request_telemetry",
    "parse_prometheus",
    "rotate_file",
    "SLO",
    "SLOPolicy",
    "SLOStatus",
    "AlertLog",
    "default_slos",
]


class Observability:
    """Tracer + metrics registry + optional profiler, as one handle.

    ``enabled`` controls tracing; ``profile`` attaches a
    :class:`Profiler` with the given ``sample_every``.  The object is
    shared — a :class:`~repro.core.session.DebugSession` and a wrapping
    :class:`~repro.streaming.session.StreamingSession` both write into the
    same span log and registry, which is what makes one run's telemetry
    coherent end to end.
    """

    def __init__(
        self,
        enabled: bool = True,
        profile: bool = False,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
    ):
        self.tracer = Tracer(enabled=enabled)
        self.metrics = MetricsRegistry()
        self.profiler: Optional[Profiler] = (
            Profiler(sample_every=sample_every) if profile else None
        )
        self.drift_monitor: Optional[DriftMonitor] = None

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    def enable_profiling(
        self, sample_every: int = DEFAULT_SAMPLE_EVERY
    ) -> Profiler:
        """Attach (or replace) the profiler; returns it."""
        self.profiler = Profiler(sample_every=sample_every)
        return self.profiler

    def disable_profiling(self) -> None:
        self.profiler = None

    def attach_drift_monitor(self, every: int = 5, **kwargs) -> DriftMonitor:
        """Attach (or replace) a :class:`DriftMonitor`; returns it.

        A monitor needs observed costs/selectivities to compare, so a
        profiler is attached too if one isn't already running.
        """
        if self.profiler is None:
            self.enable_profiling()
        self.drift_monitor = DriftMonitor(every=every, **kwargs)
        return self.drift_monitor

    def export_json_lines(self) -> str:
        """Spans then metrics, one JSON object per line.

        Span lines carry ``"kind": "span"``, metric lines ``"kind":
        "metric"`` — a consumer can split the stream back apart.
        """
        import json

        lines = []
        for record in self.tracer.log:
            lines.append(
                json.dumps(
                    {"kind": "span", **record.as_dict()},
                    sort_keys=True,
                    default=str,
                )
            )
        for name, data in self.metrics.snapshot().items():
            lines.append(
                json.dumps({"kind": "metric", "name": name, **data}, sort_keys=True)
            )
        return "\n".join(lines)

    def flush_json_lines(
        self,
        path,
        max_bytes: Optional[int] = None,
        backups: int = 3,
    ) -> int:
        """Write :meth:`export_json_lines` to ``path``; returns line count.

        The service layer's graceful shutdown calls this per session so a
        stopped server leaves its telemetry on disk next to the
        checkpoints.  Parent directories are created; an empty export
        still produces the file (a truthful "nothing was recorded").

        With ``max_bytes`` set, an existing file that would exceed the
        cap is first rotated through ``path.1`` ... ``path.{backups}``
        (see :func:`~repro.observability.export.rotate_file`) so a
        long-lived session can't grow one unbounded sink file.
        """
        from pathlib import Path

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = self.export_json_lines()
        if payload:
            payload += "\n"
        if max_bytes is not None:
            rotate_file(
                path, max_bytes, backups=backups,
                incoming_bytes=len(payload.encode("utf-8")),
            )
        path.write_text(payload, encoding="utf-8")
        return 0 if not payload else payload.count("\n")

    def __repr__(self) -> str:
        profiling = (
            f"profiling 1/{self.profiler.sample_every}"
            if self.profiler
            else "no profiler"
        )
        return (
            f"Observability({'enabled' if self.enabled else 'disabled'}, "
            f"{len(self.tracer.log)} spans, {len(self.metrics)} metrics, "
            f"{profiling})"
        )


def maybe_span(observability: Optional[Observability], name: str, **attrs):
    """``observability.tracer.span(...)`` or a no-op context manager.

    The one-liner every integration point uses so the ``None`` (fully
    disabled) case stays branch-free at the call site.
    """
    if observability is None or not observability.tracer.enabled:
        return nullcontext()
    return observability.tracer.span(name, **attrs)
