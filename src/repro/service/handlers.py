"""Request handlers: one method per logical API operation.

Handlers are transport-free — they take parsed JSON payloads, run the
engine under the right :class:`~repro.service.registry.ManagedSession`
lock, and return JSON-able dicts.  :mod:`repro.service.app` maps HTTP
routes onto these methods; the tests can also call them directly, which
keeps the concurrency tests independent of socket plumbing.

Locking discipline
------------------
*Reads* (matches, metrics, stats, trace, observability, checkpoints) run
under the shared lock — arbitrarily many at once per session.  *Writes*
(ingest, rule edits) take the exclusive lock.  ``explain`` also takes the
exclusive lock even though it looks like a read: explanation back-fills
the memo for predicates matching never evaluated, which is a state
mutation.
"""

from __future__ import annotations

from typing import Optional

from ..core.analysis import describe_function
from ..core.ordering import ORDERING_STRATEGIES
from ..core.parser import format_function
from ..core.persistence import stats_to_dict
from ..observability import Observability, detect_drift
from ..observability.export import (
    Exposition,
    add_registry_snapshot,
    add_request_telemetry,
)
from ..streaming.session import StreamingSession
from .protocol import (
    ServiceError,
    batch_result_to_payload,
    build_blocker,
    change_from_payload,
    confusion_to_payload,
    default_blocker_spec,
    deltas_from_payload,
    explanation_to_payload,
    number_field,
    pairs_to_payload,
    positive_field,
    refine_config_from_payload,
    refinement_to_payload,
    string_field,
    table_from_payload,
)
from .registry import SessionRegistry, validate_session_name


def _object(payload, what: str = "body") -> dict:
    if not isinstance(payload, dict):
        raise ServiceError("bad_request", f"{what} must be a JSON object")
    return payload


def _gold_pairs(gold) -> set:
    """``[[a_id, b_id], ...]`` → a set of pair ids."""
    if not isinstance(gold, list) or not all(
        isinstance(pair, list)
        and len(pair) == 2
        and all(isinstance(record_id, str) for record_id in pair)
        for pair in gold
    ):
        raise ServiceError(
            "bad_request", "'gold' must be a list of [a_id, b_id] string pairs"
        )
    return {tuple(pair) for pair in gold}


class ServiceHandlers:
    """The service's operation surface over one :class:`SessionRegistry`."""

    def __init__(
        self,
        registry: SessionRegistry,
        resolver=None,
        telemetry=None,
        slo_policy=None,
    ):
        self.registry = registry
        self.resolver = resolver
        #: optional RequestTelemetry the app records every response into.
        self.telemetry = telemetry
        #: optional SLOPolicy evaluated on health/scrape reads.
        self.slo_policy = slo_policy

    # ------------------------------------------------------------------
    # Service-level
    # ------------------------------------------------------------------

    def health(self) -> dict:
        out = {
            "status": "ok",
            "sessions": len(self.registry),
            "durable": self.registry.checkpoint_root is not None,
            "restore_failures": self.registry.restore_failures,
            "restore_fallbacks": self.registry.restore_fallbacks,
            "sessions_state": self.registry.sessions_state(),
        }
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry.snapshot()
            if self.slo_policy is not None:
                slo = self.slo_policy.payload(self.telemetry)
                out["slo"] = slo
                if slo["breached"]:
                    out["status"] = "degraded"
        return out

    def scrape(self) -> str:
        """Prometheus text exposition for ``GET /metrics``.

        Three layers in one page: service HTTP telemetry (rolling
        windows), registry gauges (session count, restore failures and
        fallbacks, per-session dirty/pending/seq — the same numbers
        ``/health`` reports), and every observable session's engine
        metrics snapshot labeled ``{session="name"}`` with values
        identical to its JSON ``GET /sessions/{name}/metrics`` snapshot.
        """
        exposition = Exposition()
        if self.telemetry is not None:
            add_request_telemetry(exposition, self.telemetry)
        exposition.add(
            "repro_sessions", len(self.registry), type="gauge"
        )
        exposition.add(
            "repro_registry_restore_failures",
            len(self.registry.restore_failures),
            type="gauge",
        )
        exposition.add(
            "repro_registry_restore_fallbacks",
            len(self.registry.restore_fallbacks),
            type="gauge",
        )
        for state in self.registry.sessions_state():
            labels = {"session": state["name"]}
            exposition.add(
                "repro_session_dirty", 1.0 if state["dirty"] else 0.0,
                labels, type="gauge",
            )
            exposition.add(
                "repro_session_pending", state["pending"], labels, type="gauge"
            )
            exposition.add(
                "repro_session_seq", state["seq"], labels, type="gauge"
            )
        if self.slo_policy is not None and self.telemetry is not None:
            statuses = self.slo_policy.evaluate(self.telemetry)
            for status in statuses:
                labels = {"slo": status.slo.name}
                value = -1.0 if status.ok is None else (1.0 if status.ok else 0.0)
                exposition.add("repro_slo_ok", value, labels, type="gauge")
                if status.observed is not None:
                    exposition.add(
                        "repro_slo_observed", status.observed, labels,
                        type="gauge",
                    )
            exposition.add(
                "repro_slo_alerts_total",
                self.slo_policy.alerts.total_fired,
                type="counter",
            )
        for name in self.registry.names():
            try:
                managed = self.registry.get(name)
            except ServiceError:
                continue  # closed concurrently
            if managed.streaming.observability is None:
                continue
            snapshot = managed.read(
                lambda streaming: streaming.observability.metrics.snapshot()
            )
            add_registry_snapshot(
                exposition, snapshot, labels={"session": name}
            )
        return exposition.render()

    def list_sessions(self) -> dict:
        return {"sessions": self.registry.list_sessions()}

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def create_session(self, payload: dict) -> dict:
        """Create, initial-match, and register a named session.

        Two construction modes:

        * ``{"name", "dataset": {"name", "seed"?, "scale"?, ...}}`` —
          build the paper workload for a synthetic dataset (rules learned
          via the random-forest extractor);
        * ``{"name", "table_a", "table_b", "rules": <DSL text>,
          "blocker": <spec>, "gold"?: [[a, b], ...]}`` — explicit tables
          and a hand-written matching function.

        Common options: ``observability`` (bool), ``profile`` (bool),
        ``use_kernels``, ``use_bounds``, ``ordering``, ``memo_backend``,
        and ``drift_every`` (int N: re-run drift detection every N ingests
        and derive refinement warm-start hints; implies ``profile``).
        """
        _object(payload)
        name = validate_session_name(
            string_field(payload.get("name"), "a session 'name'")
        )
        session_kwargs = {}
        for key in ("use_kernels", "use_bounds"):
            if key in payload:
                if not isinstance(payload[key], bool):
                    raise ServiceError(
                        "bad_request", f"{key!r} must be a boolean"
                    )
                session_kwargs[key] = payload[key]
        if "ordering" in payload:
            ordering = payload["ordering"]
            if not isinstance(ordering, str) or ordering not in ORDERING_STRATEGIES:
                raise ServiceError(
                    "bad_request",
                    f"'ordering' must be one of {sorted(ORDERING_STRATEGIES)}, "
                    f"got {ordering!r}",
                )
            session_kwargs["ordering"] = ordering
        if "memo_backend" in payload:
            session_kwargs["memo_backend"] = payload["memo_backend"]
        drift_every = payload.get("drift_every")
        if drift_every is not None:
            drift_every = positive_field(drift_every, "'drift_every'", int)
        if payload.get("observability", True):
            observability = Observability(
                enabled=True,
                profile=bool(payload.get("profile", bool(drift_every))),
            )
            if drift_every:
                observability.attach_drift_monitor(every=drift_every)
            session_kwargs["observability"] = observability
        elif drift_every:
            raise ServiceError(
                "bad_request",
                "'drift_every' requires observability to be enabled",
            )

        space = dataset = None
        if "dataset" in payload:
            streaming, blocker_spec, space, dataset = self._from_dataset(
                payload["dataset"], session_kwargs
            )
        elif "table_a" in payload and "table_b" in payload:
            streaming, blocker_spec = self._from_tables(payload, session_kwargs)
        else:
            raise ServiceError(
                "bad_request",
                "provide either 'dataset' or 'table_a'+'table_b'+'rules'",
            )

        result = streaming.run()
        managed = self.registry.add(
            name, streaming, blocker_spec=blocker_spec, space=space,
            dataset=dataset,
        )
        return {
            "session": managed.describe(),
            "initial_run": {
                "stats": stats_to_dict(result.stats),
                "match_count": sum(1 for label in result.labels if label),
            },
        }

    def _from_dataset(self, spec, session_kwargs):
        from ..learning.workload import build_workload

        _object(spec, "the dataset spec")
        dataset = {
            "name": string_field(spec.get("name"), "the dataset 'name'"),
            "seed": number_field(spec.get("seed", 7), "'seed'", int),
            "scale": positive_field(spec.get("scale", 1.0), "'scale'"),
        }
        max_rules = positive_field(spec.get("max_rules", 255), "'max_rules'", int)
        blocker_spec = spec.get("blocker") or default_blocker_spec(
            dataset["name"]
        )
        blocker = build_blocker(blocker_spec)
        workload = build_workload(
            dataset_name=dataset["name"],
            seed=dataset["seed"],
            scale=dataset["scale"],
            blocker=blocker,
            max_rules=max_rules,
        )
        streaming = StreamingSession(
            workload.dataset.table_a,
            workload.dataset.table_b,
            blocker,
            workload.function,
            gold=workload.gold,
            **session_kwargs,
        )
        return streaming, blocker_spec, workload.space, dataset

    def _from_tables(self, payload, session_kwargs):
        from ..core.parser import parse_function

        rules = string_field(
            payload.get("rules"), "'rules' (matching-function DSL)"
        )
        blocker_spec = payload.get("blocker")
        blocker = build_blocker(blocker_spec)
        table_a = table_from_payload(payload["table_a"], "A")
        table_b = table_from_payload(payload["table_b"], "B")
        gold = None
        if payload.get("gold") is not None:
            gold = _gold_pairs(payload["gold"])
        function = parse_function(rules, self.resolver)
        streaming = StreamingSession(
            table_a,
            table_b,
            blocker,
            function,
            gold=gold,
            **session_kwargs,
        )
        return streaming, blocker_spec

    def session_info(self, name: str) -> dict:
        managed = self.registry.get(name)

        def _info(streaming: StreamingSession) -> dict:
            info = managed.describe()
            info["function"] = format_function(streaming.function)
            info["has_gold"] = streaming.session.gold is not None
            info["edits_applied"] = len(streaming.session.history)
            info["structure"] = describe_function(streaming.function)
            return info

        return managed.read(_info)

    def close_session(self, name: str, payload: Optional[dict] = None) -> dict:
        payload = _object(payload if payload is not None else {})
        return self.registry.close(
            name,
            checkpoint=bool(payload.get("checkpoint", True)),
            drop_checkpoint=bool(payload.get("drop_checkpoint", False)),
        )

    def checkpoint_session(self, name: str) -> dict:
        directory = self.registry.checkpoint(name)
        if directory is None:
            raise ServiceError(
                "conflict", "server was started without a checkpoint directory"
            )
        return {"checkpointed": name, "directory": directory}

    # ------------------------------------------------------------------
    # Writes: data deltas and rule edits
    # ------------------------------------------------------------------

    def ingest(self, name: str, payload: dict) -> dict:
        if not isinstance(payload, dict) or "deltas" not in payload:
            raise ServiceError("bad_request", "body must be {'deltas': [...]}")
        batch = deltas_from_payload(payload["deltas"])
        managed = self.registry.get(name)

        def _ingest(streaming: StreamingSession):
            # ingest() validates the whole batch before mutating anything.
            return streaming.ingest(batch)

        result = managed.write(_ingest)
        return {
            "session": name,
            "seq": managed.seq,
            "batch": batch_result_to_payload(result),
        }

    def edit_rule(self, name: str, payload: dict) -> dict:
        managed = self.registry.get(name)
        change = change_from_payload(payload, managed.resolver(self.resolver))

        def _apply(streaming: StreamingSession):
            return streaming.apply(change)

        result = managed.write(_apply)
        return {
            "session": name,
            "seq": managed.seq,
            "change": change.describe(),
            "stats": stats_to_dict(result.stats),
            "affected_pairs": result.affected_pairs,
            "newly_matched": result.newly_matched,
            "newly_unmatched": result.newly_unmatched,
        }

    def refine(self, name: str, payload: Optional[dict] = None) -> dict:
        """Run the automated refinement search on a session (write lock:
        the search borrows the live state, and candidate scoring mutates
        and restores it in place; an optional ``apply`` then edits it for
        real).

        Options (all optional): any :class:`repro.refine.RefineConfig`
        field (``budget``, ``beam_width``, ``max_depth``, ``seed``,
        ``focus_rules``, ...) plus ``apply`` — ``"best"`` or a frontier
        index — to apply that frontier entry's edit sequence before
        returning, ``warm_start`` (bool) — adopt the session drift
        monitor's current refine hints (e.g. ``focus_rules``) for any
        field the payload didn't set explicitly — and ``feature_space``
        (bool) — widen the search with the features of the session's
        generated dataset (sessions created from tables have none).
        """
        payload = _object(payload if payload is not None else {})
        config = refine_config_from_payload(payload)
        apply_choice = payload.get("apply", None)
        if apply_choice not in (None, False, "best") and (
            isinstance(apply_choice, bool) or not isinstance(apply_choice, int)
        ):
            raise ServiceError(
                "bad_request", "'apply' must be \"best\" or a frontier index"
            )
        managed = self.registry.get(name)
        space = None
        if payload.get("feature_space"):
            space = managed.space
            if space is None:
                raise ServiceError(
                    "bad_request",
                    f"session {name!r} has no feature space (it was created "
                    f"from tables, not a dataset)",
                )
        warm_hints = {}
        if payload.get("warm_start"):
            observability = managed.streaming.observability
            monitor = (
                observability.drift_monitor if observability is not None else None
            )
            if monitor is not None:
                warm_hints = {
                    key: value
                    for key, value in monitor.refine_hints().items()
                    if key not in payload
                }
            if warm_hints:
                from dataclasses import replace as dataclass_replace

                config = dataclass_replace(config, **warm_hints)

        def _refine(streaming: StreamingSession):
            report = streaming.refine(config=config, feature_space=space)
            applied_payload = None
            if apply_choice is not None and apply_choice is not False:
                if apply_choice == "best":
                    chosen = report.best
                else:
                    if not 0 <= apply_choice < len(report.frontier):
                        raise ServiceError(
                            "bad_request",
                            f"'apply' index {apply_choice} out of range for a "
                            f"frontier of {len(report.frontier)} points",
                        )
                    chosen = report.frontier[apply_choice]
                for change in chosen.edits:
                    streaming.apply(change)
                applied_payload = {
                    "edits": [change.describe() for change in chosen.edits],
                    "confusion": (
                        confusion_to_payload(streaming.metrics())
                        if streaming.session.gold is not None
                        else None
                    ),
                }
            return report, applied_payload

        report, applied_payload = managed.write(_refine)
        return {
            "session": name,
            "seq": managed.seq,
            "report": refinement_to_payload(report),
            "applied": applied_payload,
            "warm_start": (
                {key: list(value) for key, value in warm_hints.items()}
                if warm_hints
                else None
            ),
        }

    def explain(self, name: str, payload: dict) -> dict:
        # Exclusive lock: explanation back-fills the memo (see module doc).
        _object(payload)
        a_id = string_field(payload.get("a_id"), "'a_id'")
        b_id = string_field(payload.get("b_id"), "'b_id'")
        managed = self.registry.get(name)

        def _explain(streaming: StreamingSession):
            if (a_id, b_id) not in streaming.candidates:
                raise ServiceError(
                    "not_found", f"({a_id}, {b_id}) is not a candidate pair"
                )
            return streaming.explain(a_id, b_id)

        return explanation_to_payload(managed.write(_explain))

    # ------------------------------------------------------------------
    # Reads: match state and observability
    # ------------------------------------------------------------------

    def matches(self, name: str) -> dict:
        managed = self.registry.get(name)

        def _matches(streaming: StreamingSession) -> dict:
            matched = streaming.session.matched_ids()
            out = {
                "session": name,
                "seq": managed.seq,
                "match_count": len(matched),
                "matches": pairs_to_payload(matched),
            }
            if streaming.session.gold is not None:
                out["confusion"] = confusion_to_payload(
                    streaming.session.metrics()
                )
            return out

        return managed.read(_matches)

    def stats(self, name: str) -> dict:
        managed = self.registry.get(name)

        def _stats(streaming: StreamingSession) -> dict:
            run_stats = streaming.run_stats()
            return {
                "session": name,
                "seq": managed.seq,
                "run_stats": stats_to_dict(run_stats) if run_stats else None,
                "batch_stats": stats_to_dict(streaming.total_batch_stats()),
                "batches_ingested": streaming.batches_ingested,
                "edits_applied": len(streaming.session.history),
                "memory": streaming.session.memory_report(),
            }

        return managed.read(_stats)

    def metrics(self, name: str) -> dict:
        """Metrics snapshot plus the diff since the previous call.

        The last snapshot is remembered per session, so polling clients
        get "what changed since I last asked" without holding state.
        """
        managed = self.registry.get(name)

        def _metrics(streaming: StreamingSession) -> dict:
            observability = streaming.observability
            if observability is None:
                raise ServiceError(
                    "conflict",
                    f"session {name!r} was created without observability",
                )
            snapshot = observability.metrics.snapshot()
            previous = managed.last_metrics_snapshot
            diff = (
                observability.metrics.diff(previous)
                if previous is not None
                else None
            )
            managed.last_metrics_snapshot = snapshot
            return {
                "session": name,
                "seq": managed.seq,
                "snapshot": snapshot,
                "diff_since_last": diff,
            }

        return managed.read(_metrics)

    def trace(
        self,
        name: str,
        limit: Optional[int] = None,
        request_id: Optional[str] = None,
    ) -> dict:
        """Span log; ``request_id`` narrows to one request's span tree and
        ``limit`` (a positive integer) keeps only the latest spans."""
        if limit is not None:
            limit = positive_field(limit, "'limit'", int)
        managed = self.registry.get(name)

        def _trace(streaming: StreamingSession) -> dict:
            observability = streaming.observability
            if observability is None:
                raise ServiceError(
                    "conflict",
                    f"session {name!r} was created without observability",
                )
            log = observability.tracer.log
            if request_id is not None:
                records = log.for_request(request_id)
            else:
                records = list(log)
            spans = [record.as_dict() for record in records]
            if limit is not None:
                spans = spans[-limit:]
            out = {
                "session": name,
                "seq": managed.seq,
                "span_count": len(records),
                "spans": spans,
            }
            if request_id is not None:
                out["request_id"] = request_id
            return out

        return managed.read(_trace)

    def observability_snapshot(self, name: str) -> dict:
        """Everything at once: spans, metrics, profile, drift."""
        managed = self.registry.get(name)

        def _snapshot(streaming: StreamingSession) -> dict:
            observability = streaming.observability
            if observability is None:
                raise ServiceError(
                    "conflict",
                    f"session {name!r} was created without observability",
                )
            out = {
                "session": name,
                "seq": managed.seq,
                "spans": [r.as_dict() for r in observability.tracer.log],
                "metrics": observability.metrics.snapshot(),
                "profile": (
                    observability.profiler.snapshot()
                    if observability.profiler
                    else None
                ),
                "drift": None,
                "drift_monitor": (
                    observability.drift_monitor.describe()
                    if observability.drift_monitor is not None
                    else None
                ),
            }
            session = streaming.session
            if observability.profiler and session.estimates is not None:
                report = detect_drift(
                    session.function,
                    session.estimates,
                    observability.profiler,
                    ordering_strategy=session.ordering_strategy,
                )
                out["drift"] = {
                    "order_changed": report.order_changed,
                    "features": [
                        {
                            "name": drift.name,
                            "estimated_cost": drift.estimated_cost,
                            "observed_cost": drift.observed_cost,
                            "samples": drift.samples,
                            "drifted": drift.drifted,
                        }
                        for drift in report.features
                    ],
                    "predicates": [
                        {
                            "pid": drift.pid,
                            "estimated_selectivity": drift.estimated_selectivity,
                            "observed_selectivity": drift.observed_selectivity,
                            "evaluations": drift.evaluations,
                            "drifted": drift.drifted,
                        }
                        for drift in report.predicates
                    ],
                }
            return out

        return managed.read(_snapshot)
