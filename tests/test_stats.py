"""Unit tests for MatchStats bookkeeping."""

import pytest

from repro.core import MatchStats


class TestCounters:
    def test_record_computation(self):
        stats = MatchStats()
        stats.record_computation("f1")
        stats.record_computation("f1")
        stats.record_computation("f2")
        assert stats.feature_computations == 3
        assert stats.computations_by_feature["f1"] == 2
        assert stats.computations_by_feature["f2"] == 1

    def test_record_hit(self):
        stats = MatchStats()
        stats.record_hit()
        stats.record_hit()
        assert stats.memo_hits == 2

    def test_feature_accesses(self):
        stats = MatchStats()
        stats.record_computation("f1")
        stats.record_hit()
        assert stats.feature_accesses == 2

    def test_hit_rate(self):
        stats = MatchStats()
        assert stats.hit_rate == 0.0  # no accesses yet
        stats.record_computation("f1")
        stats.record_hit()
        stats.record_hit()
        stats.record_hit()
        assert stats.hit_rate == pytest.approx(0.75)


class TestCostUnits:
    def test_weighted_sum(self):
        stats = MatchStats()
        stats.record_computation("cheap")
        stats.record_computation("dear")
        stats.record_computation("dear")
        stats.record_hit()
        cost = stats.cost_units({"cheap": 1.0, "dear": 10.0}, lookup_cost=0.5)
        assert cost == pytest.approx(1.0 + 20.0 + 0.5)

    def test_unknown_feature_contributes_zero(self):
        stats = MatchStats()
        stats.record_computation("mystery")
        assert stats.cost_units({}, lookup_cost=0.0) == 0.0


class TestMergeAndSummary:
    def test_merged_with_sums_everything(self):
        first = MatchStats()
        first.record_computation("f1")
        first.predicate_evaluations = 5
        first.pairs_matched = 2
        first.elapsed_seconds = 0.5
        second = MatchStats()
        second.record_computation("f1")
        second.record_computation("f2")
        second.record_hit()
        second.predicate_evaluations = 3
        second.elapsed_seconds = 0.25
        merged = first.merged_with(second)
        assert merged.feature_computations == 3
        assert merged.memo_hits == 1
        assert merged.predicate_evaluations == 8
        assert merged.pairs_matched == 2
        assert merged.elapsed_seconds == pytest.approx(0.75)
        assert merged.computations_by_feature["f1"] == 2
        # merge does not mutate inputs
        assert first.feature_computations == 1

    def test_summary_contains_counters(self):
        stats = MatchStats()
        stats.pairs_evaluated = 10
        stats.pairs_matched = 3
        text = stats.summary()
        assert "pairs=10" in text
        assert "matched=3" in text
