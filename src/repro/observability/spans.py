"""Structured tracing: lightweight nested spans.

A :class:`Tracer` records *spans* — named, timed, attributed intervals —
into a :class:`SpanLog`.  Spans nest through an explicit stack kept by the
tracer, so ``span("match") > span("rule:r3") > span("feature:jaccard")``
falls out of ordinary ``with`` nesting.

The log is deliberately dumb: plain records with integer ids, no live
references, so it exports as JSON lines without custom hooks.

Disabled tracing costs one attribute check per ``span()`` call and
allocates nothing.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class SpanRecord:
    """One completed (or still-open) span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    #: seconds since the owning log's epoch.
    start: float
    #: seconds; -1.0 while the span is still open.
    duration: float = -1.0
    attrs: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record


class SpanLog:
    """An append-only list of span records with tree helpers.

    Records are kept in *start order*, which is also a valid topological
    order (a child starts after its parent) — rendering and JSON export
    need no sorting.
    """

    def __init__(self):
        self.records: List[SpanRecord] = []
        self._next_id = 0

    # ------------------------------------------------------------- record

    def new_span(
        self,
        name: str,
        parent_id: Optional[int],
        start: float,
        attrs: Optional[Dict[str, object]] = None,
    ) -> SpanRecord:
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=parent_id,
            name=name,
            start=start,
            attrs=dict(attrs or {}),
        )
        self._next_id += 1
        self.records.append(record)
        return record

    # ------------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(self.records)

    def roots(self) -> List[SpanRecord]:
        return [record for record in self.records if record.parent_id is None]

    def children(self, span_id: int) -> List[SpanRecord]:
        return [record for record in self.records if record.parent_id == span_id]

    def find(self, name: str) -> Optional[SpanRecord]:
        """First span with the given name, in start order."""
        for record in self.records:
            if record.name == name:
                return record
        return None

    def for_request(self, request_id: str) -> List[SpanRecord]:
        """Spans stamped with ``attrs["request_id"] == request_id``.

        The returned list is a consistent sub-forest: every span created
        while that request's trace context was active, in start order —
        renderable as its own tree.
        """
        return [
            record
            for record in self.records
            if record.attrs.get("request_id") == request_id
        ]

    def request_ids(self) -> List[str]:
        """Distinct request ids present in the log, in first-seen order."""
        seen: Dict[str, None] = {}
        for record in self.records:
            rid = record.attrs.get("request_id")
            if isinstance(rid, str) and rid not in seen:
                seen[rid] = None
        return list(seen)

    # ------------------------------------------------------------- export

    def to_json_lines(self) -> str:
        """One JSON object per span, in start order."""
        return "\n".join(
            json.dumps(record.as_dict(), sort_keys=True, default=str)
            for record in self.records
        )

    def render(self, unit_ms: bool = True) -> str:
        """ASCII tree of the span forest with durations."""
        by_parent: Dict[Optional[int], List[SpanRecord]] = {}
        for record in self.records:
            by_parent.setdefault(record.parent_id, []).append(record)

        lines: List[str] = []

        def walk(record: SpanRecord, depth: int) -> None:
            if record.duration >= 0.0:
                took = (
                    f"{record.duration * 1000:.2f}ms"
                    if unit_ms
                    else f"{record.duration:.6f}s"
                )
            else:
                took = "open"
            attrs = (
                " " + " ".join(f"{k}={v}" for k, v in record.attrs.items())
                if record.attrs
                else ""
            )
            lines.append(f"{'  ' * depth}{record.name}  [{took}]{attrs}")
            for child in by_parent.get(record.span_id, []):
                walk(child, depth + 1)

        for root in by_parent.get(None, []):
            walk(root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"SpanLog({len(self.records)} spans, {len(self.roots())} roots)"


class Tracer:
    """Records nested spans into a :class:`SpanLog`.

    ``enabled=False`` makes :meth:`span` a no-op context manager yielding
    ``None`` — callers never need to branch on the flag themselves.
    """

    def __init__(self, enabled: bool = True, log: Optional[SpanLog] = None):
        self.enabled = enabled
        self.log = log if log is not None else SpanLog()
        self._stack: List[int] = []
        self._epoch = time.perf_counter()
        # Request correlation is thread-local: the service runs each
        # request's engine work on one executor thread, so spans opened
        # on that thread belong to the request whose context is active
        # there.
        self._context = threading.local()

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    # ------------------------------------------------------ request context

    @property
    def active_request_id(self) -> Optional[str]:
        """Request id of the trace context active on this thread, if any."""
        return getattr(self._context, "request_id", None)

    @contextmanager
    def request_context(self, request_id: Optional[str]):
        """Stamp every span opened inside with ``request_id``.

        Contexts nest: the innermost non-``None`` id wins, and the prior
        id is restored on exit.  A ``None`` id makes this a no-op wrapper
        so callers need not branch.
        """
        if request_id is None:
            yield
            return
        previous = getattr(self._context, "request_id", None)
        self._context.request_id = request_id
        try:
            yield
        finally:
            self._context.request_id = previous

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a span named ``name``; attributes become span attrs."""
        if not self.enabled:
            yield None
            return
        parent_id = self._stack[-1] if self._stack else None
        record = self.log.new_span(name, parent_id, self._now(), attrs)
        request_id = self.active_request_id
        if request_id is not None:
            record.attrs.setdefault("request_id", request_id)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record.duration = self._now() - record.start

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, {len(self.log)} spans)"
