"""Service-grade telemetry: rolling windows, exporters, SLOs, drift→refine.

Covers the observability additions end to end:

* quantile estimation from cumulative buckets (``Histogram.quantile``),
* sliding time-window aggregation with an injected fake clock,
* Prometheus text exposition + parser round trips,
* size-based rotation of the JSON-lines telemetry sink,
* request-scoped tracing (``Tracer.request_context`` / ``SpanLog.for_request``),
* SLO evaluation with cooldown-throttled alerts,
* the :class:`DriftMonitor` → ``RefineConfig.focus_rules`` warm-start loop,
* and the live-service acceptance path: one HTTP request's span tree is
  retrievable by its request id, and ``GET /metrics`` agrees with the
  JSON metrics snapshot.

Hypothesis properties pin the diff conservation laws of
``MetricsRegistry`` histograms that the exporters rely on.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import Observability
from repro.observability.drift import DriftMonitor, focus_rules_for_report
from repro.observability.export import (
    Exposition,
    add_registry_snapshot,
    add_request_telemetry,
    histogram_quantile,
    parse_prometheus,
    rotate_file,
    sanitize_metric_name,
)
from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    bucket_quantile,
)
from repro.observability.rolling import (
    RequestTelemetry,
    RollingCounter,
    RollingHistogram,
)
from repro.observability.slo import (
    SLO,
    AlertLog,
    SLOPolicy,
    default_slos,
    slos_from_payload,
)
from repro.observability.spans import Tracer


class FakeClock:
    """Injectable monotonic clock."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Quantiles from cumulative buckets
# ---------------------------------------------------------------------------


class TestBucketQuantile:
    def test_empty_is_zero(self):
        histogram = Histogram("h")
        assert histogram.quantile(0.5) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bucket_quantile((1.0, float("inf")), [1, 0], 1, 1.5)
        with pytest.raises(ValueError):
            bucket_quantile((1.0, float("inf")), [1, 0], 1, -0.1)

    def test_clamped_to_observed_extremes(self):
        histogram = Histogram("h", bounds=(1.0, 10.0, float("inf")))
        for value in (0.4, 0.5, 7.0):
            histogram.observe(value)
        assert histogram.quantile(0.0) == pytest.approx(0.4)
        assert histogram.quantile(1.0) == pytest.approx(7.0)

    def test_interpolates_within_bucket(self):
        # 10 observations uniformly in (1, 2]: the median should land
        # mid-bucket, not on a bucket edge.
        histogram = Histogram("h", bounds=(1.0, 2.0, float("inf")))
        for i in range(10):
            histogram.observe(1.05 + i * 0.09)
        median = histogram.quantile(0.5)
        assert 1.0 < median < 2.0

    def test_monotone_in_q(self):
        histogram = Histogram("h")
        for value in (1e-5, 1e-3, 0.02, 0.5, 2.0, 2.0, 9.0):
            histogram.observe(value)
        quantiles = [histogram.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert quantiles == sorted(quantiles)


# ---------------------------------------------------------------------------
# Rolling windows (fake clock throughout)
# ---------------------------------------------------------------------------


class TestRollingCounter:
    def test_counts_within_window(self):
        clock = FakeClock()
        counter = RollingCounter(window_seconds=10.0, slices=5, clock=clock)
        counter.inc(3)
        clock.tick(9.0)
        counter.inc(2)
        assert counter.total() == 5.0
        assert counter.rate() == pytest.approx(0.5)

    def test_old_slices_expire(self):
        clock = FakeClock()
        counter = RollingCounter(window_seconds=10.0, slices=5, clock=clock)
        counter.inc(3)
        clock.tick(11.0)  # past the first slice's expiry
        assert counter.total() == 0.0
        counter.inc(1)
        assert counter.total() == 1.0

    def test_long_idle_gap_clears_everything(self):
        clock = FakeClock()
        counter = RollingCounter(window_seconds=10.0, slices=5, clock=clock)
        for _ in range(5):
            counter.inc()
            clock.tick(2.0)
        clock.tick(1000.0)
        assert counter.total() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RollingCounter(window_seconds=0.0)


class TestRollingHistogram:
    def test_quantile_and_mean_over_window(self):
        clock = FakeClock()
        histogram = RollingHistogram(
            window_seconds=60.0, slices=6, clock=clock
        )
        for value in (0.01, 0.02, 0.03, 0.2):
            histogram.observe(value)
        assert histogram.count() == 4
        assert histogram.mean() == pytest.approx(0.065)
        assert histogram.quantile(0.0) == pytest.approx(0.01)
        assert histogram.quantile(1.0) == pytest.approx(0.2)

    def test_observations_expire(self):
        clock = FakeClock()
        histogram = RollingHistogram(
            window_seconds=10.0, slices=5, clock=clock
        )
        histogram.observe(5.0)
        clock.tick(4.0)
        histogram.observe(0.001)
        clock.tick(7.0)  # first observation now out of window
        assert histogram.count() == 1
        assert histogram.quantile(1.0) == pytest.approx(0.001)

    def test_requires_inf_terminal_bound(self):
        with pytest.raises(ValueError):
            RollingHistogram(bounds=(0.1, 1.0))


class TestRequestTelemetry:
    def test_records_total_endpoint_and_session(self):
        clock = FakeClock()
        telemetry = RequestTelemetry(clock=clock)
        telemetry.record_request("GET /health", None, 0.01)
        telemetry.record_request(
            "POST /sessions/{name}/ingest", "demo", 0.05, error=True
        )
        snap = telemetry.snapshot()
        assert snap["total"]["requests"] == 2.0
        assert snap["total"]["errors"] == 1.0
        assert snap["total"]["error_rate"] == pytest.approx(0.5)
        assert snap["endpoints"]["GET /health"]["requests"] == 1.0
        assert snap["sessions"]["demo"]["errors"] == 1.0
        assert telemetry.endpoint("GET /health") is not None
        assert telemetry.session("nope") is None

    def test_session_cardinality_is_capped(self):
        clock = FakeClock()
        telemetry = RequestTelemetry(clock=clock, max_sessions=2)
        for i in range(5):
            telemetry.record_request("GET /x", f"s{i}", 0.01)
        snap = telemetry.snapshot()
        assert len(snap["sessions"]) == 2
        # Totals still count the dropped sessions' requests.
        assert snap["total"]["requests"] == 5.0

    def test_forget_session(self):
        clock = FakeClock()
        telemetry = RequestTelemetry(clock=clock)
        telemetry.record_request("GET /x", "gone", 0.01)
        telemetry.forget_session("gone")
        assert telemetry.session("gone") is None


# ---------------------------------------------------------------------------
# SLOs and alerts
# ---------------------------------------------------------------------------


class TestSLO:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLO(name="x", kind="nope", threshold=1.0)
        with pytest.raises(ValueError):
            SLO(name="x", kind="latency", threshold=-1.0)
        with pytest.raises(ValueError):
            SLO(name="x", kind="latency", threshold=1.0, quantile=0.0)

    def test_describe_mentions_scope(self):
        slo = SLO(name="x", kind="latency", threshold=0.25,
                  endpoint="GET /health")
        assert "GET /health" in slo.describe()
        assert "250ms" in slo.describe()

    def test_insufficient_data_is_not_a_breach(self):
        clock = FakeClock()
        telemetry = RequestTelemetry(clock=clock)
        policy = SLOPolicy(
            [SLO(name="lat", kind="latency", threshold=0.1, min_requests=5)]
        )
        telemetry.record_request("GET /x", None, 10.0)  # way over, but n=1
        (status,) = policy.evaluate(telemetry)
        assert status.ok is None
        assert policy.alerts.total_fired == 0

    def test_breach_fires_alert_and_degrades_payload(self):
        clock = FakeClock()
        telemetry = RequestTelemetry(clock=clock)
        policy = SLOPolicy(
            [SLO(name="err", kind="error_rate", threshold=0.1,
                 min_requests=2)],
            clock=clock,
        )
        for _ in range(4):
            telemetry.record_request("GET /x", None, 0.01, error=True)
        payload = policy.payload(telemetry)
        assert payload["breached"] == 1
        assert payload["alerts_total"] == 1
        assert "SLO breach" in payload["alerts"][-1]["message"]
        (status,) = policy.evaluate(telemetry)
        assert status.ok is False
        assert status.budget_remaining == -1.0  # clamped

    def test_alert_cooldown(self):
        clock = FakeClock()
        log = AlertLog(cooldown_seconds=30.0, clock=clock)
        slo = SLO(name="x", kind="error_rate", threshold=0.1)
        assert log.fire(slo, 0.5) is True
        clock.tick(10.0)
        assert log.fire(slo, 0.5) is False  # inside cooldown
        clock.tick(25.0)
        assert log.fire(slo, 0.5) is True
        assert log.total_fired == 2
        assert len(log.tail()) == 2

    def test_healthy_budget_fraction(self):
        clock = FakeClock()
        telemetry = RequestTelemetry(clock=clock)
        policy = SLOPolicy(
            [SLO(name="err", kind="error_rate", threshold=0.5,
                 min_requests=1)]
        )
        for i in range(4):
            telemetry.record_request("GET /x", None, 0.01, error=(i == 0))
        (status,) = policy.evaluate(telemetry)
        assert status.ok is True
        assert status.budget_remaining == pytest.approx(0.5)

    def test_slos_from_payload(self):
        slos = slos_from_payload(
            [{"name": "p99", "kind": "latency", "threshold": 0.5,
              "quantile": 0.99, "min_requests": 3}]
        )
        assert slos == (
            SLO(name="p99", kind="latency", threshold=0.5, quantile=0.99,
                min_requests=3),
        )

    def test_default_slos_cover_latency_and_errors(self):
        kinds = {slo.kind for slo in default_slos()}
        assert kinds == {"latency", "error_rate"}


# ---------------------------------------------------------------------------
# Prometheus exposition and parsing
# ---------------------------------------------------------------------------


class TestExposition:
    def test_round_trip_counter_gauge_labels(self):
        exposition = Exposition()
        exposition.add("jobs_total", 3, type="counter")
        exposition.add("queue_depth", 7.5, labels={"shard": "a"})
        exposition.add(
            "queue_depth", 2.0, labels={"shard": 'we"ird\nname\\x'}
        )
        parsed = parse_prometheus(exposition.render())
        assert parsed["types"] == {
            "jobs_total": "counter", "queue_depth": "gauge",
        }
        assert parsed["samples"][("jobs_total", ())] == 3.0
        assert parsed["samples"][
            ("queue_depth", (("shard", "a"),))
        ] == 7.5
        assert parsed["samples"][
            ("queue_depth", (("shard", 'we"ird\nname\\x'),))
        ] == 2.0

    def test_histogram_is_cumulative_with_inf(self):
        exposition = Exposition()
        exposition.add_histogram(
            "lat", bounds=(0.1, 1.0, float("inf")), buckets=(1, 2, 3),
            count=6, total=4.2,
        )
        parsed = parse_prometheus(exposition.render())
        samples = parsed["samples"]
        assert samples[("lat_bucket", (("le", "0.1"),))] == 1.0
        assert samples[("lat_bucket", (("le", "1"),))] == 3.0
        assert samples[("lat_bucket", (("le", "+Inf"),))] == 6.0
        assert samples[("lat_count", ())] == 6.0
        assert samples[("lat_sum", ())] == pytest.approx(4.2)

    def test_type_conflict_raises(self):
        exposition = Exposition()
        exposition.add("x", 1, type="counter")
        with pytest.raises(ValueError):
            exposition.add("x", 1, type="gauge")

    def test_illegal_name_raises(self):
        with pytest.raises(ValueError):
            Exposition().add("has space", 1)

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("stream.batches") == "stream_batches"
        assert sanitize_metric_name("9lives") == "_9lives"

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_prometheus("ok_metric 1\nnot a metric line at all ! 2 3\n")

    def test_registry_snapshot_parity(self):
        registry = MetricsRegistry()
        registry.counter("stream.batches").inc(4)
        registry.gauge("memo.size").set(17)
        histogram = registry.histogram("batch.seconds")
        for value in (0.002, 0.03, 0.5):
            histogram.observe(value)
        exposition = Exposition()
        add_registry_snapshot(
            exposition, registry.snapshot(), labels={"session": "demo"}
        )
        parsed = parse_prometheus(exposition.render())
        samples = parsed["samples"]
        label = (("session", "demo"),)
        assert samples[
            ("repro_engine_stream_batches_total", label)
        ] == 4.0
        assert samples[("repro_engine_memo_size", label)] == 17.0
        assert samples[("repro_engine_batch_seconds_count", label)] == 3.0
        assert samples[
            ("repro_engine_batch_seconds_sum", label)
        ] == pytest.approx(0.532)
        assert parsed["types"]["repro_engine_batch_seconds"] == "histogram"

    def test_request_telemetry_exposition(self):
        clock = FakeClock()
        telemetry = RequestTelemetry(clock=clock)
        for i in range(10):
            telemetry.record_request(
                "GET /health", None, 0.01 * (i + 1), error=(i == 0)
            )
        exposition = Exposition()
        add_request_telemetry(exposition, telemetry)
        parsed = parse_prometheus(exposition.render())
        samples = parsed["samples"]
        assert samples[("repro_http_requests", ())] == 10.0
        assert samples[
            ("repro_http_requests", (("endpoint", "GET /health"),))
        ] == 10.0
        assert samples[("repro_http_errors", ())] == 1.0
        p50 = histogram_quantile(samples, "repro_http_request_seconds", 0.5)
        assert p50 is not None and 0.01 <= p50 <= 0.1

    def test_histogram_quantile_missing_series(self):
        assert histogram_quantile({}, "nope", 0.5) is None


# ---------------------------------------------------------------------------
# File rotation
# ---------------------------------------------------------------------------


class TestRotateFile:
    def test_rotates_generations(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("a" * 100)
        assert rotate_file(path, max_bytes=50, backups=2) is True
        assert not path.exists()
        assert (tmp_path / "log.jsonl.1").read_text() == "a" * 100
        path.write_text("b" * 100)
        assert rotate_file(path, max_bytes=50, backups=2) is True
        assert (tmp_path / "log.jsonl.1").read_text() == "b" * 100
        assert (tmp_path / "log.jsonl.2").read_text() == "a" * 100

    def test_oldest_generation_is_dropped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        for generation in ("a", "b", "c"):
            path.write_text(generation * 100)
            rotate_file(path, max_bytes=50, backups=2)
        assert (tmp_path / "log.jsonl.1").read_text() == "c" * 100
        assert (tmp_path / "log.jsonl.2").read_text() == "b" * 100
        assert not (tmp_path / "log.jsonl.3").exists()

    def test_under_limit_keeps_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("small")
        assert rotate_file(path, max_bytes=1000) is False
        assert path.read_text() == "small"

    def test_incoming_bytes_counts_toward_limit(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("x" * 60)
        assert rotate_file(path, max_bytes=100, incoming_bytes=50) is True

    def test_zero_backups_truncates(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("x" * 100)
        assert rotate_file(path, max_bytes=50, backups=0) is True
        assert not path.exists()
        assert not (tmp_path / "log.jsonl.1").exists()

    def test_missing_file_is_fine(self, tmp_path):
        assert rotate_file(tmp_path / "absent", max_bytes=1) is False

    def test_flush_json_lines_rotates(self, tmp_path):
        observability = Observability(enabled=True)
        with observability.tracer.span("work"):
            pass
        path = tmp_path / "obs.jsonl"
        observability.flush_json_lines(path)
        size = path.stat().st_size
        observability.flush_json_lines(path, max_bytes=size // 2)
        assert path.exists()
        assert (tmp_path / "obs.jsonl.1").exists()


# ---------------------------------------------------------------------------
# Request-scoped tracing
# ---------------------------------------------------------------------------


class TestRequestScopedTracing:
    def test_spans_stamped_inside_context(self):
        tracer = Tracer(enabled=True)
        with tracer.request_context("req-1"):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        with tracer.span("unrelated"):
            pass
        stamped = tracer.log.for_request("req-1")
        assert [record.name for record in stamped] == ["outer", "inner"]
        unrelated = tracer.log.find("unrelated")
        assert "request_id" not in unrelated.attrs

    def test_contexts_nest_and_restore(self):
        tracer = Tracer(enabled=True)
        with tracer.request_context("a"):
            with tracer.request_context("b"):
                with tracer.span("inner-b"):
                    pass
            with tracer.span("back-to-a"):
                pass
        assert tracer.active_request_id is None
        assert tracer.log.find("inner-b").attrs["request_id"] == "b"
        assert tracer.log.find("back-to-a").attrs["request_id"] == "a"

    def test_none_context_is_noop(self):
        tracer = Tracer(enabled=True)
        with tracer.request_context(None):
            with tracer.span("free"):
                pass
        assert "request_id" not in tracer.log.find("free").attrs

    def test_request_ids_first_seen_order(self):
        tracer = Tracer(enabled=True)
        for rid in ("r2", "r1", "r2"):
            with tracer.request_context(rid):
                with tracer.span("op"):
                    pass
        assert tracer.log.request_ids() == ["r2", "r1"]

    def test_no_context_means_pr7_identical_span_dicts(self):
        """Bit-identity guard: without a request context, span dicts have
        exactly the pre-telemetry shape (no request_id key anywhere)."""
        tracer = Tracer(enabled=True)
        with tracer.span("run", workers=2):
            with tracer.span("match"):
                pass
        for record in tracer.log:
            assert "request_id" not in record.attrs
            assert set(record.as_dict()) <= {
                "span_id", "parent_id", "name", "start", "duration", "attrs"
            }


# ---------------------------------------------------------------------------
# Hypothesis: diff conservation laws on histograms
# ---------------------------------------------------------------------------

observations = st.lists(
    st.floats(min_value=1e-7, max_value=50.0,
              allow_nan=False, allow_infinity=False),
    max_size=40,
)


def _observe_all(registry: MetricsRegistry, values) -> None:
    histogram = registry.histogram("h")
    for value in values:
        histogram.observe(value)


@settings(max_examples=40, deadline=None)
@given(observations, observations)
def test_diff_recovers_increment(before, increment):
    registry = MetricsRegistry()
    _observe_all(registry, before)
    earlier = registry.snapshot()
    _observe_all(registry, increment)
    delta = registry.diff(earlier)
    if not increment:
        assert "h" not in delta
        return
    data = delta["h"]
    assert data["count"] == len(increment)
    assert data["total"] == pytest.approx(sum(increment))
    assert sum(data["buckets"]) == len(increment)


@settings(max_examples=40, deadline=None)
@given(observations)
def test_exposition_round_trip_preserves_histogram(values):
    registry = MetricsRegistry()
    _observe_all(registry, values)
    exposition = Exposition()
    add_registry_snapshot(exposition, registry.snapshot())
    parsed = parse_prometheus(exposition.render())
    samples = parsed["samples"]
    if not values:
        assert samples.get(("repro_engine_h_count", ())) in (None, 0.0)
        return
    assert samples[("repro_engine_h_count", ())] == len(values)
    assert samples[
        ("repro_engine_h_sum", ())
    ] == pytest.approx(sum(values))
    # The +Inf bucket is cumulative: it must equal the count.
    assert samples[
        ("repro_engine_h_bucket", (("le", "+Inf"),))
    ] == len(values)


# ---------------------------------------------------------------------------
# Drift monitor → refine warm start
# ---------------------------------------------------------------------------


def _drift_streaming(drift_every=1, **monitor_kwargs):
    """A tiny streaming session with feature-disjoint rules (R1 uses the
    title feature, R2 the author feature) so drift can be attributed to
    exactly one rule."""
    from repro.blocking import OverlapBlocker
    from repro.core import parse_function
    from repro.data import Record, Table
    from repro.streaming import StreamingSession

    rows_a = [
        ("a1", "red apple pie", "kim"),
        ("a2", "blue sky atlas", "lee"),
        ("a3", "green tea house", "kim"),
    ]
    rows_b = [
        ("b1", "red apple pie", "kim"),
        ("b2", "blue sky atlas", "lee"),
        ("b3", "red apple tart", "kim"),
    ]
    table_a = Table("A", ["title", "author"])
    for rid, title, author in rows_a:
        table_a.add(Record(rid, {"title": title, "author": author}))
    table_b = Table("B", ["title", "author"])
    for rid, title, author in rows_b:
        table_b.add(Record(rid, {"title": title, "author": author}))
    observability = Observability(enabled=True, profile=True, sample_every=1)
    monitor = observability.attach_drift_monitor(
        every=drift_every, **monitor_kwargs
    )
    streaming = StreamingSession(
        table_a,
        table_b,
        OverlapBlocker("title", min_overlap=1),
        parse_function(
            "R1: jaccard_ws(title, title) >= 0.6\n"
            "R2: jaro(author, author) >= 0.9"
        ),
        gold={("a1", "b1"), ("a2", "b2"), ("a3", "b3")},
        observability=observability,
    )
    return streaming, monitor


def _ingest_one(streaming, suffix: str):
    from repro.streaming import Delta, DeltaBatch

    return streaming.ingest(DeltaBatch([
        Delta("insert", "a", f"a-{suffix}",
              {"title": f"brand new {suffix}", "author": "new"}),
    ]))


class TestDriftMonitor:
    def test_every_validation(self):
        with pytest.raises(ValueError):
            DriftMonitor(every=0)

    def test_cadence_and_skip_without_profile(self):
        monitor = DriftMonitor(every=2)

        class Hollow:
            session = None
            observability = None

        # First ingest is off-cadence: no check at all.
        assert monitor.after_ingest(Hollow()) is None
        assert monitor.checks_run == monitor.checks_skipped == 0
        # Second is on-cadence but has nothing to compare: counted skip.
        assert monitor.after_ingest(Hollow()) is None
        assert monitor.checks_skipped == 1
        assert monitor.refine_hints() == {}

    def test_streaming_ingest_triggers_checks(self):
        streaming, monitor = _drift_streaming(drift_every=2)
        streaming.run()
        _ingest_one(streaming, "one")
        assert monitor.ingests_seen == 1
        assert monitor.checks_run == 0
        _ingest_one(streaming, "two")
        assert monitor.ingests_seen == 2
        assert monitor.checks_run == 1
        assert monitor.last_report is not None
        metrics = streaming.observability.metrics
        assert metrics.value("drift.checks") == 1

    def test_focus_rules_for_report_maps_drift_to_rules(self):
        streaming, monitor = _drift_streaming()
        streaming.run()
        session = streaming.session
        profiler = streaming.observability.profiler
        title_feature = next(
            feature for feature in session.function.features()
            if "title" in feature.name
        )
        estimated = session.estimates.feature_costs[title_feature.name]
        for _ in range(500):
            profiler.record_feature(title_feature.name, estimated * 1e7)
        report = monitor.check(session, streaming.observability)
        assert report is not None and report.any_drift
        focus = focus_rules_for_report(session.function, report)
        assert "R1" in focus

    def test_describe_is_json_ready(self):
        streaming, monitor = _drift_streaming()
        streaming.run()
        _ingest_one(streaming, "x")
        description = monitor.describe()
        json.dumps(description)  # must not raise
        assert description["ingests_seen"] == 1
        assert description["checks_run"] == monitor.checks_run


class TestDriftWarmStartsRefine:
    """The acceptance loop: drift-inducing ingests → monitor hints →
    ``DebugSession.refine(**hints)`` with a strictly smaller candidate
    pool than a cold start."""

    def test_hints_strictly_shrink_candidate_generation(self):
        # Huge tolerances kill selectivity/cost noise; the injected 1e7x
        # cost inflation on R1's (title) feature is the only drift that
        # can fire, so the focus set is exactly {R1}.
        streaming, monitor = _drift_streaming(
            drift_every=1,
            cost_tolerance=1e6,
            selectivity_tolerance=2.0,
        )
        streaming.run()
        session = streaming.session
        title_feature = next(
            feature for feature in session.function.features()
            if "title" in feature.name
        )
        estimated = session.estimates.feature_costs[title_feature.name]
        for _ in range(500):
            streaming.observability.profiler.record_feature(
                title_feature.name, estimated * 1e7
            )
        # The drift-inducing ingest also plants a false positive that
        # only R1 can produce (title near-duplicate, alien author), so
        # the focused pool has R1-targeting edits to generate.
        from repro.streaming import Delta, DeltaBatch

        streaming.ingest(DeltaBatch([
            Delta("insert", "b", "b5",
                  {"title": "red apple pie deluxe", "author": "zzz"}),
        ]))

        hints = monitor.refine_hints()
        assert hints == {"focus_rules": ("R1",)}

        search_kwargs = dict(
            budget=30, max_depth=1, seed=7,
            max_candidates_per_round=10_000,  # no truncation masking
        )
        cold = streaming.refine(**search_kwargs)
        warm = streaming.refine(**search_kwargs, **hints)
        assert warm.candidates_generated > 0
        assert warm.candidates_generated < cold.candidates_generated

    def test_no_drift_means_cold_start(self):
        streaming, monitor = _drift_streaming(
            drift_every=1,
            cost_tolerance=1e9,
            selectivity_tolerance=2.0,
        )
        streaming.run()
        _ingest_one(streaming, "calm")
        assert monitor.checks_run == 1
        assert monitor.refine_hints() == {}


# ---------------------------------------------------------------------------
# Live service: trace-by-request-id and scrape/JSON parity
# ---------------------------------------------------------------------------


ATTRIBUTES = ["title", "author"]
ROWS_A = [
    ("a1", "red apple pie", "kim"),
    ("a2", "blue sky atlas", "lee"),
    ("a3", "green tea house", "kim"),
]
ROWS_B = [
    ("b1", "red apple pie", "kim"),
    ("b2", "blue sky atlas", "lee"),
    ("b3", "red apple tart", "kim"),
]


def _table_payload(rows):
    return {
        "attributes": ATTRIBUTES,
        "records": [
            {"id": rid, "values": {"title": title, "author": author}}
            for rid, title, author in rows
        ],
    }


def _create_payload(name, **extra):
    payload = {
        "name": name,
        "table_a": _table_payload(ROWS_A),
        "table_b": _table_payload(ROWS_B),
        "rules": (
            "R1: jaccard_ws(title, title) >= 0.6\n"
            "R2: jaro(author, author) >= 0.9 AND "
            "jaccard_ws(title, title) >= 0.3"
        ),
        "blocker": {"kind": "overlap", "attribute": "title",
                    "min_overlap": 1},
        "gold": [["a1", "b1"], ["a2", "b2"], ["a3", "b3"]],
    }
    payload.update(extra)
    return payload


DELTAS_ONE = [
    {"op": "insert", "side": "a", "id": "a4",
     "values": {"title": "red apple cake", "author": "kim"}},
]
DELTAS_TWO = [
    {"op": "insert", "side": "b", "id": "b4",
     "values": {"title": "green tea house", "author": "kim"}},
]


@pytest.fixture()
def live_service(tmp_path):
    from repro.service import ServiceClient, ServiceThread

    thread = ServiceThread(port=0, checkpoint_root=tmp_path / "ckpt")
    host, port = thread.start()
    yield ServiceClient(host, port), thread
    if thread.running:
        thread.stop(graceful=False)


class TestServiceTelemetryEndToEnd:
    def test_trace_by_request_id(self, live_service):
        client, _thread = live_service
        client.create_session(_create_payload("traced"))

        client.ingest("traced", DELTAS_ONE)
        rid_one = client.last_request_id
        client.ingest("traced", DELTAS_TWO)
        rid_two = client.last_request_id
        assert rid_one != rid_two

        trace_one = client.trace("traced", request_id=rid_one)
        assert trace_one["request_id"] == rid_one
        assert trace_one["span_count"] > 0
        names = {span["name"] for span in trace_one["spans"]}
        assert any("ingest" in name for name in names)
        for span in trace_one["spans"]:
            assert span["attrs"]["request_id"] == rid_one

        trace_two = client.trace("traced", request_id=rid_two)
        ids_one = {span["span_id"] for span in trace_one["spans"]}
        ids_two = {span["span_id"] for span in trace_two["spans"]}
        assert ids_one and ids_two and not (ids_one & ids_two)

        # The full log still contains unstamped spans (the initial run
        # predates any per-session request context) — the disabled-path
        # output is untouched by request tracing.
        full = client.trace("traced")
        assert full["span_count"] > len(ids_one) + len(ids_two)
        unstamped = [
            span for span in full["spans"]
            if "request_id" not in span.get("attrs", {})
        ]
        assert unstamped

    def test_explicit_request_id_is_adopted(self, live_service):
        client, _thread = live_service
        client.create_session(_create_payload("adopt"))
        client.ingest("adopt", DELTAS_ONE)
        # Re-use a caller-chosen id via the header path.
        client.request(
            "POST", "/sessions/adopt/ingest", {"deltas": DELTAS_TWO},
            request_id="my-chosen-id-42",
        )
        trace = client.trace("adopt", request_id="my-chosen-id-42")
        assert trace["span_count"] > 0

    def test_scrape_matches_json_snapshot(self, live_service):
        client, _thread = live_service
        client.create_session(_create_payload("parity"))
        client.ingest("parity", DELTAS_ONE)
        client.ingest("parity", DELTAS_TWO)

        snapshot = client.metrics("parity")["snapshot"]
        text = client.scrape_metrics()
        parsed = parse_prometheus(text)  # raises if not valid exposition
        samples = parsed["samples"]
        label = (("session", "parity"),)

        assert samples[
            ("repro_engine_stream_batches_total", label)
        ] == snapshot["stream.batches"]["value"]
        for name, data in snapshot.items():
            flat = "repro_engine_" + sanitize_metric_name(name)
            if data["type"] == "counter":
                assert samples[(flat + "_total", label)] == data["value"]
            elif data["type"] == "gauge":
                assert samples[(flat, label)] == data["value"]
            elif data["type"] == "histogram":
                assert samples[(flat + "_count", label)] == data["count"]
                assert samples[
                    (flat + "_sum", label)
                ] == pytest.approx(data["total"])

        # Registry gauges agree with /health (single source of truth).
        health = client.health()
        assert samples[("repro_sessions", ())] == health["sessions"]
        assert samples[
            ("repro_registry_restore_failures", ())
        ] == len(health["restore_failures"])
        (state,) = health["sessions_state"]
        assert samples[("repro_session_seq", label)] == state["seq"]

        # HTTP rolling telemetry made it onto the page too.
        assert samples[("repro_http_requests", ())] >= 4.0
        assert parsed["types"]["repro_http_request_seconds"] == "histogram"

    def test_health_exposes_telemetry_and_slo(self, live_service):
        client, _thread = live_service
        client.create_session(_create_payload("healthy"))
        for _ in range(6):
            client.health()
        health = client.health()
        assert health["telemetry"]["total"]["requests"] >= 6.0
        slo_names = {obj["name"] for obj in health["slo"]["objectives"]}
        assert {"latency_p95", "error_rate"} <= slo_names
        assert health["status"] in ("ok", "degraded")
        # SLO verdicts also appear on the scrape.
        samples = parse_prometheus(client.scrape_metrics())["samples"]
        assert ("repro_slo_ok", (("slo", "error_rate"),)) in samples

    def test_drift_session_over_http(self, live_service):
        client, _thread = live_service
        client.create_session(_create_payload("drifty", drift_every=1))
        client.ingest("drifty", DELTAS_ONE)
        snapshot = client.observability("drifty")
        monitor = snapshot["drift_monitor"]
        assert monitor is not None
        assert monitor["every"] == 1
        assert monitor["ingests_seen"] == 1
        assert monitor["checks_run"] + monitor["checks_skipped"] == 1
        # refine accepts warm_start whether or not drift was found; when
        # hints were adopted they are echoed back in the response.
        report = client.refine(
            "drifty", budget=5, max_depth=1, warm_start=True
        )
        assert "warm_start" in report
        assert report["report"]["candidates_generated"] >= 0
        if report["warm_start"] is not None:
            assert "focus_rules" in report["warm_start"]

    def test_telemetry_disabled_service_matches_pr7_surface(self, tmp_path):
        from repro.service import ServiceClient, ServiceThread

        thread = ServiceThread(port=0, telemetry=False)
        host, port = thread.start()
        try:
            client = ServiceClient(host, port)
            client.create_session(_create_payload("quiet"))
            health = client.health()
            assert "telemetry" not in health
            assert "slo" not in health
            assert health["status"] == "ok"
            # The scrape still serves registry + engine metrics, with no
            # HTTP-window families at all.
            samples = parse_prometheus(client.scrape_metrics())["samples"]
            assert samples[("repro_sessions", ())] == 1.0
            assert not any(
                name.startswith("repro_http_") for name, _ in samples
            )
            # And the per-request engine path is identical: spans exist,
            # ingest results are the usual envelope.
            result = client.ingest("quiet", DELTAS_ONE)
            assert result["batch"]["match_count"] >= 0
        finally:
            if thread.running:
                thread.stop(graceful=False)
