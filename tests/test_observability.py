"""Tests for the unified observability layer (repro.observability).

Covers the four pillars — spans, metrics, profiler, drift — in isolation,
then the integration invariants that make the layer trustworthy:

* an ``Observability``-carrying session produces byte-identical matcher
  counters to a session built without one (observation never perturbs
  the observed run);
* a streaming ingest produces one span tree + one metrics snapshot
  alongside the run's, exportable together as JSON lines.
"""

import json

import numpy as np
import pytest

from repro.core import CostEstimator, DebugSession, parse_function
from repro.core.stats import MatchStats
from repro.data import CandidateSet, Record, Table
from repro.errors import EstimationError
from repro.observability import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Observability,
    Profiler,
    Tracer,
    detect_drift,
    maybe_span,
    order_signature,
    record_batch_result,
    record_match_stats,
)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------

def _company_tables(n=30):
    names = ["alpha corp", "beta inc", "gamma llc", "delta co", "epsilon gmbh"]
    table_a = Table("A", ("name",))
    table_b = Table("B", ("name",))
    for i in range(n):
        suffix = " x" if i % 3 else ""
        table_a.add(Record(f"a{i}", {"name": names[i % 5] + suffix}))
        table_b.add(Record(f"b{i}", {"name": names[i % 5]}))
    return table_a, table_b


@pytest.fixture()
def company_candidates():
    table_a, table_b = _company_tables()
    return CandidateSet.from_id_pairs(
        table_a,
        table_b,
        [(f"a{i}", f"b{j}") for i in range(30) for j in range(0, 30, 3)],
    )


@pytest.fixture()
def company_function():
    return parse_function(
        "r1: jaccard_ws(name, name) >= 0.6; "
        "r2: levenshtein(name, name) >= 0.8"
    )


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class TestSpans:
    def test_nesting_and_attrs(self):
        tracer = Tracer()
        with tracer.span("outer", workers=2) as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert outer.attrs == {"workers": 2}
        assert 0.0 <= inner.duration <= outer.duration

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("ghost") as record:
            assert record is None
        assert len(tracer.log) == 0

    def test_duration_open_until_exit(self):
        tracer = Tracer()
        with tracer.span("open") as record:
            assert record.duration == -1.0
        assert record.duration >= 0.0

    def test_span_closed_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.log.records[0].duration >= 0.0
        # the stack unwound: a new span is a root again
        with tracer.span("after") as after:
            pass
        assert after.parent_id is None

    def test_json_lines_round_trip(self):
        tracer = Tracer()
        with tracer.span("a", k="v"):
            with tracer.span("b"):
                pass
        lines = tracer.log.to_json_lines().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert [p["name"] for p in parsed] == ["a", "b"]
        assert parsed[0]["attrs"] == {"k": "v"}
        assert parsed[1]["parent_id"] == parsed[0]["span_id"]

    def test_render_tree_indentation(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("leaf"):
                pass
        text = tracer.log.render()
        assert "root" in text and "  leaf" in text

    def test_maybe_span_none_is_noop(self):
        with maybe_span(None, "nothing") as record:
            assert record is None

    def test_maybe_span_disabled_is_noop(self):
        observability = Observability(enabled=False)
        with maybe_span(observability, "nothing") as record:
            assert record is None
        assert len(observability.tracer.log) == 0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

class TestMetrics:
    def test_counter_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(3.0)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_histogram_mean_and_buckets(self):
        histogram = Histogram("h", bounds=(1.0, 10.0, float("inf")))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(55.5 / 3)
        data = histogram.as_dict()
        assert data["buckets"] == [1, 1, 1]

    def test_registry_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_diff_subtracts_counters(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(2)
        earlier = registry.snapshot()
        registry.counter("n").inc(5)
        delta = registry.diff(earlier)
        assert delta["n"]["value"] == 5

    def test_json_lines(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc()
        parsed = [json.loads(line) for line in registry.to_json_lines().splitlines()]
        assert parsed[0]["name"] == "runs"
        assert parsed[0]["type"] == "counter"

    def test_record_match_stats_bridges_counters(self):
        stats = MatchStats(
            feature_computations=10,
            memo_hits=4,
            predicate_evaluations=12,
            rule_evaluations=6,
            pairs_evaluated=5,
            pairs_matched=2,
            elapsed_seconds=0.25,
        )
        stats.computations_by_feature["jaccard_ws(name,name)"] = 10
        registry = MetricsRegistry()
        record_match_stats(registry, stats, prefix="run")
        assert registry.value("run.feature_computations") == 10
        assert registry.value("run.runs") == 1
        assert registry.value("run.computations.jaccard_ws(name,name)") == 10
        assert registry.histogram("run.elapsed_seconds").count == 1


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------

class TestProfiler:
    def test_sampling_is_deterministic_first_always(self):
        profiler = Profiler(sample_every=3)
        decisions = [profiler.sample_feature("f") for _ in range(7)]
        assert decisions == [True, False, False, True, False, False, True]

    def test_sample_every_one_samples_all(self):
        profiler = Profiler(sample_every=1)
        assert all(profiler.sample_feature("f") for _ in range(5))

    def test_observed_costs(self):
        profiler = Profiler()
        assert profiler.observed_feature_cost("f") is None
        profiler.record_feature("f", 2e-6)
        profiler.record_feature("f", 4e-6)
        assert profiler.observed_feature_cost("f") == pytest.approx(3e-6)

    def test_selectivity_counts_outcomes(self):
        profiler = Profiler()
        assert profiler.observed_selectivity("p") is None
        for outcome in (True, True, False, True):
            profiler.record_predicate("p", outcome)
        assert profiler.observed_selectivity("p") == pytest.approx(0.75)

    def test_snapshot_merge_round_trip(self):
        a, b = Profiler(), Profiler()
        a.record_feature("f", 1e-6)
        b.record_feature("f", 3e-6)
        b.record_predicate("p", True)
        a.merge(b.snapshot())
        assert a.observed_feature_cost("f") == pytest.approx(2e-6)
        assert a.observed_selectivity("p") == 1.0
        clone = Profiler.from_snapshot(a.snapshot())
        assert clone.observed_feature_cost("f") == pytest.approx(2e-6)

    def test_snapshot_is_plain_picklable_data(self):
        import pickle

        profiler = Profiler()
        profiler.record_feature("f", 1e-6)
        snapshot = profiler.snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot


# ----------------------------------------------------------------------
# Drift
# ----------------------------------------------------------------------

class TestDrift:
    def _estimates(self, function, candidates):
        return CostEstimator(sample_fraction=0.2, seed=5).estimate(
            function, candidates
        )

    def test_no_drift_when_observed_matches_estimates(
        self, company_function, company_candidates
    ):
        estimates = self._estimates(company_function, company_candidates)
        profiler = Profiler()
        for feature in company_function.features():
            profiler.record_feature(
                feature.name, estimates.feature_costs[feature.name]
            )
        report = detect_drift(company_function, estimates, profiler)
        assert not report.drifted_features()
        assert not report.order_changed
        assert not report.any_drift
        assert "no drift" in report.render()

    def test_cost_drift_flagged(self, company_function, company_candidates):
        estimates = self._estimates(company_function, company_candidates)
        profiler = Profiler()
        name = company_function.features()[0].name
        profiler.record_feature(name, estimates.feature_costs[name] * 10)
        report = detect_drift(
            company_function, estimates, profiler, cost_tolerance=2.0
        )
        drifted = {drift.name for drift in report.drifted_features()}
        assert name in drifted
        assert report.any_drift

    def test_selectivity_drift_flagged(self, company_function, company_candidates):
        estimates = self._estimates(company_function, company_candidates)
        profiler = Profiler()
        predicate = company_function.rules[0].predicates[0]
        estimated = estimates.selectivity(predicate)
        target = 0.0 if estimated > 0.5 else 1.0
        for _ in range(20):
            profiler.record_predicate(predicate.pid, bool(target))
        report = detect_drift(company_function, estimates, profiler)
        drifted = {drift.pid for drift in report.drifted_predicates()}
        assert predicate.pid in drifted

    def test_with_feature_costs_patches_copy(
        self, company_function, company_candidates
    ):
        estimates = self._estimates(company_function, company_candidates)
        name = company_function.features()[0].name
        patched = estimates.with_feature_costs({name: 123.0})
        assert patched.feature_costs[name] == 123.0
        assert estimates.feature_costs[name] != 123.0  # original untouched
        with pytest.raises(EstimationError):
            estimates.with_feature_costs({"no_such_feature": 1.0})

    def test_order_signature_shape(self, company_function):
        signature = order_signature(company_function)
        assert [rule for rule, _ in signature] == [
            rule.name for rule in company_function.rules
        ]

    def test_order_check_skipped_for_unordered_strategies(
        self, company_function, company_candidates
    ):
        estimates = self._estimates(company_function, company_candidates)
        report = detect_drift(
            company_function,
            estimates,
            Profiler(),
            ordering_strategy="original",
        )
        assert not report.order_changed


# ----------------------------------------------------------------------
# Integration: DebugSession
# ----------------------------------------------------------------------

class TestSessionIntegration:
    def test_serial_run_span_tree_and_metrics(
        self, company_candidates, company_function
    ):
        observability = Observability()
        session = DebugSession(
            company_candidates, company_function, observability=observability
        )
        session.run()
        log = observability.tracer.log
        run = log.find("run")
        child_names = {record.name for record in log.children(run.span_id)}
        assert {"estimate", "order", "match"} <= child_names
        assert observability.metrics.value("run.runs") == 1
        assert observability.metrics.value("run.pairs_evaluated") == len(
            company_candidates
        )

    def test_observed_run_counters_identical_to_unobserved(
        self, company_candidates, company_function
    ):
        observed = DebugSession(
            company_candidates,
            company_function,
            observability=Observability(profile=True, sample_every=1),
        ).run()
        plain = DebugSession(company_candidates, company_function).run()
        assert observed.stats.feature_computations == plain.stats.feature_computations
        assert observed.stats.predicate_evaluations == plain.stats.predicate_evaluations
        assert observed.stats.rule_evaluations == plain.stats.rule_evaluations
        assert observed.stats.memo_hits == plain.stats.memo_hits
        assert (
            observed.stats.computations_by_feature
            == plain.stats.computations_by_feature
        )
        assert np.array_equal(observed.labels, plain.labels)

    def test_profiler_collects_on_serial_run(
        self, company_candidates, company_function
    ):
        observability = Observability(profile=True, sample_every=1)
        DebugSession(
            company_candidates, company_function, observability=observability
        ).run()
        profiler = observability.profiler
        assert profiler.observed_feature_cost("jaccard_ws(name,name)") > 0
        render = profiler.render()
        assert "jaccard_ws(name,name)" in render

    def test_export_json_lines_mixes_spans_and_metrics(
        self, company_candidates, company_function
    ):
        observability = Observability()
        DebugSession(
            company_candidates, company_function, observability=observability
        ).run()
        parsed = [
            json.loads(line)
            for line in observability.export_json_lines().splitlines()
        ]
        kinds = {entry["kind"] for entry in parsed}
        assert kinds == {"span", "metric"}

    def test_drift_end_to_end(self, company_candidates, company_function):
        observability = Observability(profile=True, sample_every=1)
        session = DebugSession(
            company_candidates, company_function, observability=observability
        )
        session.run()
        report = detect_drift(
            session.function, session.estimates, observability.profiler
        )
        # both features were computed, so both are comparable
        assert len(report.features) == 2
        assert isinstance(report.render(), str)


# ----------------------------------------------------------------------
# Integration: streaming
# ----------------------------------------------------------------------

class TestStreamingIntegration:
    def _streaming(self, observability):
        from repro.blocking import CartesianBlocker
        from repro.streaming import StreamingSession

        table_a, table_b = _company_tables(12)
        streaming = StreamingSession(
            table_a,
            table_b,
            CartesianBlocker(),
            "r1: jaccard_ws(name, name) >= 0.6",
            observability=observability,
        )
        streaming.run()
        return streaming

    def test_ingest_span_tree_and_metrics(self):
        from repro.streaming import Delta

        observability = Observability()
        streaming = self._streaming(observability)
        streaming.ingest(Delta.insert("a", "a99", name="zeta corp"))
        log = observability.tracer.log
        ingest = log.find("ingest")
        child_names = {record.name for record in log.children(ingest.span_id)}
        assert {
            "validate", "apply_deltas", "remap", "invalidate", "rematch"
        } <= child_names
        assert observability.metrics.value("stream.batches") == 1
        assert observability.metrics.value("stream.deltas_applied") == 1
        # the run's metrics and the stream's coexist in one registry
        assert observability.metrics.value("run.runs") == 1

    def test_streaming_observability_delegates_to_session(self):
        observability = Observability()
        streaming = self._streaming(observability)
        assert streaming.observability is observability
        assert streaming.session.observability is observability

    def test_ingest_unobserved_stays_seed_path(self):
        from repro.streaming import Delta

        streaming = self._streaming(None)
        result = streaming.ingest(Delta.insert("a", "a99", name="zeta corp"))
        assert result.stats.deltas_applied == 1
