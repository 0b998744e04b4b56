"""The matching service: an asyncio HTTP/JSON server over the registry.

Stdlib only.  A hand-rolled (deliberately minimal) HTTP/1.1 layer on
:func:`asyncio.start_server` parses requests, routes them onto
:class:`~repro.service.handlers.ServiceHandlers`, and writes JSON
envelopes back.  Matching work is CPU-bound synchronous Python, so every
handler call is dispatched to a thread pool via ``run_in_executor`` —
the event loop itself only parses, routes, and serializes, which is what
lets one server interleave requests against many sessions while each
session's reader/writer lock enforces its own consistency.

Request flow, per connection::

    read request -> route -> acquire session slot (backpressure)
        -> run handler in executor (under the session's RW lock)
        -> asyncio.wait_for(per-request timeout)
        -> JSON envelope (ok or error) -> keep-alive or close

Graceful shutdown (:meth:`MatchingService.stop`): stop accepting, wait
for in-flight requests to drain (bounded), checkpoint every dirty
session, and flush each session's observability export as JSON lines
next to its checkpoint.

Routes
------
::

    GET  /health                          liveness + sessions + SLO status
    GET  /metrics                         Prometheus text exposition
    GET  /sessions                        list sessions
    POST /sessions                        create session
    GET  /sessions/{name}                 session info
    DELETE /sessions/{name}               close (checkpoint first)
    POST /sessions/{name}/ingest          apply a delta batch
    POST /sessions/{name}/edit            apply a rule edit
    POST /sessions/{name}/explain         full trace of one pair
    POST /sessions/{name}/refine          automated refinement search
    GET  /sessions/{name}/matches         labels (+ confusion if gold)
    GET  /sessions/{name}/stats           run/batch MatchStats
    GET  /sessions/{name}/metrics         metrics snapshot + diff
    GET  /sessions/{name}/trace           span log (?request_id= filters)
    GET  /sessions/{name}/observability   spans+metrics+profile+drift
    POST /sessions/{name}/checkpoint      durably save now
    POST /shutdown                        graceful stop (drain + save)

Request-scoped tracing: clients may send an ``X-Repro-Request-Id``
header (``[A-Za-z0-9_-]{1,64}``); the server adopts it as the envelope
``request_id`` and, for write actions on sessions with tracing enabled,
activates a trace context on the executor thread so every span the
operation opens is stamped with that id.
``GET /sessions/{name}/trace?request_id=...`` then returns exactly that
request's span tree.

Rolling telemetry: unless constructed with ``telemetry=False``, every
response is recorded into a :class:`RequestTelemetry` (sliding-window
request counts, error rates, latency histograms per endpoint and per
session), scraped by ``GET /metrics`` and evaluated against the SLO
policy surfaced in ``GET /health``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence, Tuple
from urllib.parse import parse_qs

from ..errors import ReproError
from ..observability.export import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from ..observability.rolling import RequestTelemetry
from ..observability.slo import SLO, SLOPolicy
from .handlers import ServiceHandlers
from .protocol import (
    ServiceError,
    envelope_error,
    envelope_ok,
    new_request_id,
    valid_request_id,
)
from .registry import SessionRegistry

#: ceiling on request bodies (16 MiB) — tables ride in JSON.
MAX_BODY_BYTES = 16 * 1024 * 1024
DEFAULT_REQUEST_TIMEOUT = 60.0
DEFAULT_DRAIN_TIMEOUT = 30.0

#: writes take the session's exclusive lock; everything else is a read.
_WRITE_ACTIONS = {"ingest", "edit", "explain", "refine"}

#: default cap before the per-session observability.jsonl sink rotates.
DEFAULT_FLUSH_MAX_BYTES = 8 * 1024 * 1024


class _RawText(str):
    """A route result to be written verbatim as a text body (no JSON
    envelope) — the Prometheus scrape path."""

    content_type = PROMETHEUS_CONTENT_TYPE


class _UnreadableBody(Exception):
    """The declared Content-Length is not a length or exceeds the cap; the
    body was never read, so after answering with an error the connection
    must close."""


class MatchingService:
    """Async multi-session matching server.  See module docstring."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_root=None,
        executor_workers: int = 8,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        max_pending: Optional[int] = None,
        resolver=None,
        telemetry: bool = True,
        slos: Optional[Sequence[SLO]] = None,
        telemetry_window_seconds: float = 60.0,
        flush_max_bytes: Optional[int] = DEFAULT_FLUSH_MAX_BYTES,
        flush_backups: int = 3,
    ):
        self.host = host
        self.port = port
        registry_kwargs = {}
        if max_pending is not None:
            registry_kwargs["max_pending"] = max_pending
        self.registry = SessionRegistry(
            checkpoint_root=checkpoint_root, **registry_kwargs
        )
        self.telemetry: Optional[RequestTelemetry] = (
            RequestTelemetry(window_seconds=telemetry_window_seconds)
            if telemetry
            else None
        )
        self.slo_policy: Optional[SLOPolicy] = (
            SLOPolicy(slos) if telemetry else None
        )
        self.handlers = ServiceHandlers(
            self.registry,
            resolver=resolver,
            telemetry=self.telemetry,
            slo_policy=self.slo_policy,
        )
        self.flush_max_bytes = flush_max_bytes
        self.flush_backups = flush_backups
        self.request_timeout = request_timeout
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="repro-svc"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._in_flight = 0
        self._drained = asyncio.Event()
        self._shutting_down = False
        self.started_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; restores checkpointed sessions first."""
        self._loop = asyncio.get_running_loop()
        restored = self.registry.restore_all(resolver=self.handlers.resolver)
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        address = self._server.sockets[0].getsockname()
        self.host, self.port = address[0], address[1]
        self.started_at = time.time()
        self.restored_sessions = restored
        self.restore_failures = self.registry.restore_failures
        return self.host, self.port

    async def stop(
        self, graceful: bool = True, drain_timeout: float = DEFAULT_DRAIN_TIMEOUT
    ) -> dict:
        """Stop serving; with ``graceful`` drain, checkpoint, and flush."""
        self._shutting_down = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        report = {"drained": True, "checkpointed": [], "flushed": []}
        if graceful:
            if self._in_flight > 0:
                self._drained.clear()
                try:
                    await asyncio.wait_for(
                        self._drained.wait(), timeout=drain_timeout
                    )
                except asyncio.TimeoutError:
                    report["drained"] = False
            report["checkpointed"] = await self._loop.run_in_executor(
                self._executor, self.registry.checkpoint_all
            )
            report["flushed"] = await self._loop.run_in_executor(
                self._executor, self._flush_observability
            )
        # Never wait=True here: stop() runs on the event-loop thread, and
        # a timed-out handler still running in the pool would block the
        # whole loop.  The drain wait above already bounded in-flight
        # work; leftover threads finish on their own and are ignored.
        self._executor.shutdown(wait=False)
        return report

    def _flush_observability(self):
        """Write each session's telemetry as JSON lines beside its
        checkpoint (``<root>/<name>/observability.jsonl``)."""
        root = self.registry.checkpoint_root
        if root is None:
            return []
        flushed = []
        for name in self.registry.names():
            try:
                managed = self.registry.get(name)
            except ServiceError:
                continue
            observability = managed.streaming.observability
            if observability is None:
                continue
            observability.flush_json_lines(
                root / name / "observability.jsonl",
                max_bytes=self.flush_max_bytes,
                backups=self.flush_backups,
            )
            flushed.append(name)
        return flushed

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _serve_connection(self, reader, writer):
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _UnreadableBody as unreadable:
                    # Answer with a parseable error envelope instead of
                    # silently closing; the body is unread, so the
                    # connection cannot be kept alive.
                    error = ServiceError("bad_request", str(unreadable))
                    await self._write_response(
                        writer,
                        error.status,
                        envelope_error(
                            error, new_request_id(), time.perf_counter()
                        ),
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "keep-alive") != "close"
                status, payload = await self._dispatch(
                    method, path, body, headers
                )
                await self._write_response(writer, status, payload, keep_alive)
                if not keep_alive or self._shutting_down:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader):
        try:
            header_blob = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
        head, *header_lines = header_blob.decode("latin-1").split("\r\n")
        parts = head.split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        headers = {}
        for line in header_lines:
            if ":" in line:
                key, value = line.split(":", 1)
                headers[key.strip().lower()] = value.strip()
        declared = headers.get("content-length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise _UnreadableBody(
                f"Content-Length must be a non-negative integer, got {declared!r}"
            )
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _UnreadableBody(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _write_response(self, writer, status, payload, keep_alive):
        if isinstance(payload, _RawText):
            body = str(payload).encode("utf-8")
            content_type = payload.content_type
        else:
            body = json.dumps(payload, default=str).encode("utf-8")
            content_type = "application/json"
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 409: "Conflict",
                  429: "Too Many Requests", 500: "Internal Server Error",
                  503: "Service Unavailable", 504: "Gateway Timeout"}.get(
            status, "OK"
        )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing and dispatch
    # ------------------------------------------------------------------

    @staticmethod
    def _endpoint_key(method, segments):
        """Templated endpoint label + session name for telemetry.

        Session names are folded into ``{name}`` so label cardinality is
        bounded by the route table, with the per-session dimension kept
        separately (and capped) by :class:`RequestTelemetry`.
        """
        if not segments:
            return f"{method} /", None
        if segments[0] == "sessions":
            if len(segments) == 1:
                return f"{method} /sessions", None
            name = segments[1]
            if len(segments) == 2:
                return f"{method} /sessions/{{name}}", name
            return f"{method} /sessions/{{name}}/{segments[2]}", name
        return f"{method} /{segments[0]}", None

    async def _dispatch(self, method, path, body, headers=None):
        client_id = (headers or {}).get("x-repro-request-id")
        if client_id is not None and valid_request_id(client_id):
            request_id = client_id
        else:
            request_id = new_request_id()
        started = time.perf_counter()
        path, _, query_string = path.partition("?")
        path = path.rstrip("/") or "/"
        query = parse_qs(query_string) if query_string else {}
        segments = [s for s in path.split("/") if s]
        endpoint, session_name = self._endpoint_key(method, segments)
        status = 500
        try:
            if self._shutting_down:
                error = ServiceError("shutting_down", "server is shutting down")
                status = error.status
                return status, envelope_error(error, request_id, started)
            try:
                payload = json.loads(body.decode("utf-8")) if body else None
            except (ValueError, UnicodeDecodeError) as exc:
                error = ServiceError("bad_request", f"invalid JSON body: {exc}")
                status = error.status
                return status, envelope_error(error, request_id, started)

            self._in_flight += 1
            try:
                result = await self._route(
                    method, path, payload, query, request_id
                )
                status = 200
                if isinstance(result, _RawText):
                    return status, result
                return status, envelope_ok(result, request_id, started)
            except ServiceError as error:
                status = error.status
                return status, envelope_error(error, request_id, started)
            except asyncio.TimeoutError:
                error = ServiceError(
                    "timeout",
                    f"request exceeded {self.request_timeout:g}s; the session "
                    f"operation keeps running but this response is abandoned",
                )
                status = error.status
                return status, envelope_error(error, request_id, started)
            except ReproError as exc:
                # Engine validation errors are the caller's fault.
                error = ServiceError("bad_request", str(exc))
                status = error.status
                return status, envelope_error(error, request_id, started)
            except Exception as exc:  # noqa: BLE001 — last-resort envelope
                error = ServiceError("internal", f"{type(exc).__name__}: {exc}")
                status = error.status
                return status, envelope_error(error, request_id, started)
            finally:
                self._in_flight -= 1
                if self._in_flight == 0:
                    self._drained.set()
        finally:
            if self.telemetry is not None:
                self.telemetry.record_request(
                    endpoint,
                    session_name,
                    time.perf_counter() - started,
                    error=status >= 400,
                )

    async def _route(self, method, path, payload, query=None, request_id=None):
        query = query or {}
        segments = [s for s in path.split("/") if s]
        if path == "/health" and method == "GET":
            return await self._call(self.handlers.health)
        if path == "/metrics" and method == "GET":
            return _RawText(await self._call(self.handlers.scrape))
        if path == "/shutdown" and method == "POST":
            # Schedule the stop after this response flushes.
            asyncio.get_running_loop().create_task(self._stop_later())
            return {"stopping": True}
        if path == "/sessions" and method == "GET":
            return await self._call(self.handlers.list_sessions)
        if path == "/sessions" and method == "POST":
            return await self._call(self.handlers.create_session, payload)
        if len(segments) >= 2 and segments[0] == "sessions":
            name = segments[1]
            action = segments[2] if len(segments) > 2 else None
            return await self._session_route(
                method, name, action, payload, query, request_id
            )
        raise ServiceError("not_found", f"no route {method} {path}")

    @staticmethod
    def _query_value(query, key):
        values = query.get(key)
        return values[0] if values else None

    def _traced(self, name, request_id, operation):
        """Wrap a write operation so its spans carry ``request_id``.

        The executor runs the operation on one thread; the tracer's
        request context is thread-local, so concurrent requests against
        other sessions can't cross-stamp.
        """

        def run():
            try:
                observability = self.registry.get(name).streaming.observability
            except ServiceError:
                observability = None
            if observability is None or not observability.tracer.enabled:
                return operation()
            with observability.tracer.request_context(request_id):
                return operation()

        return run

    async def _session_route(
        self, method, name, action, payload, query=None, request_id=None
    ):
        handlers = self.handlers
        query = query or {}
        if action is None:
            if method == "GET":
                return await self._call(handlers.session_info, name)
            if method == "DELETE":
                return await self._call(handlers.close_session, name, payload)
        trace_request_id = self._query_value(query, "request_id")
        trace_limit = self._query_value(query, "limit")
        if trace_limit is not None:
            try:
                trace_limit = int(trace_limit)
            except ValueError:
                raise ServiceError(
                    "bad_request", f"'limit' must be an integer, got {trace_limit!r}"
                )
        table = {
            ("POST", "ingest"): lambda: handlers.ingest(name, payload),
            ("POST", "edit"): lambda: handlers.edit_rule(name, payload),
            ("POST", "explain"): lambda: handlers.explain(name, payload),
            ("POST", "refine"): lambda: handlers.refine(name, payload),
            ("POST", "checkpoint"): lambda: handlers.checkpoint_session(name),
            ("GET", "matches"): lambda: handlers.matches(name),
            ("GET", "stats"): lambda: handlers.stats(name),
            ("GET", "metrics"): lambda: handlers.metrics(name),
            ("GET", "trace"): lambda: handlers.trace(
                name, request_id=trace_request_id, limit=trace_limit
            ),
            ("GET", "observability"): lambda: handlers.observability_snapshot(
                name
            ),
        }
        operation = table.get((method, action))
        if operation is None:
            raise ServiceError(
                "not_found", f"no route {method} /sessions/{name}/{action or ''}"
            )
        if action in _WRITE_ACTIONS and request_id is not None:
            operation = self._traced(name, request_id, operation)
        # Backpressure: claim the session's slot before queueing executor
        # work, release once the handler finishes (even on timeout the
        # slot is held until the work actually completes — the session is
        # still busy even if the response was abandoned).
        needs_slot = action in _WRITE_ACTIONS or (method, action) in (
            ("GET", "matches"),
            ("GET", "stats"),
            ("GET", "metrics"),
            ("GET", "trace"),
            ("GET", "observability"),
        )
        if needs_slot:
            managed = self.registry.get(name)
            managed.acquire_slot()

            def _guarded():
                try:
                    return operation()
                finally:
                    managed.release_slot()

            return await self._call(_guarded)
        return await self._call(operation)

    async def _call(self, fn, *args):
        future = self._loop.run_in_executor(self._executor, fn, *args)
        return await asyncio.wait_for(future, timeout=self.request_timeout)

    async def _stop_later(self):
        await asyncio.sleep(0.05)
        await self.stop(graceful=True)
        loop = asyncio.get_running_loop()
        stopper = getattr(loop, "_repro_service_stopper", None)
        if stopper is not None:
            stopper()


class ServiceThread:
    """Run a :class:`MatchingService` on a background event-loop thread.

    The workbench's ``serve`` command and the tests use this: ``start()``
    blocks until the port is bound and returns ``(host, port)``;
    ``stop()`` performs the graceful shutdown from the caller's thread.
    """

    def __init__(self, **service_kwargs):
        self.service = MatchingService(**service_kwargs)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._stopped = threading.Event()
        self.address: Optional[Tuple[str, int]] = None

    def start(self, timeout: float = 30.0) -> Tuple[str, int]:
        if self._thread is not None:
            raise RuntimeError("service thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("service failed to start within timeout")
        if self.address is None:
            raise RuntimeError("service failed to bind")
        return self.address

    def _run(self):
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        stop_signal = asyncio.Event()
        loop._repro_service_stopper = lambda: stop_signal.set()

        async def _main():
            try:
                self.address = await self.service.start()
            finally:
                self._started.set()
            await stop_signal.wait()

        try:
            loop.run_until_complete(_main())
        finally:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()
            self._stopped.set()

    def stop(self, graceful: bool = True, timeout: float = 60.0) -> dict:
        """Gracefully stop from outside the loop thread; returns the
        shutdown report (drained / checkpointed / flushed)."""
        if self._loop is None or not self._thread:
            return {"drained": True, "checkpointed": [], "flushed": []}
        if self._stopped.is_set():
            return {"drained": True, "checkpointed": [], "flushed": []}
        future = asyncio.run_coroutine_threadsafe(
            self.service.stop(graceful=graceful), self._loop
        )
        report = future.result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop._repro_service_stopper)
        self._thread.join(timeout=timeout)
        return report

    @property
    def running(self) -> bool:
        return (
            self._thread is not None
            and self._thread.is_alive()
            and not self._stopped.is_set()
        )
