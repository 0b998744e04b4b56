"""Durable session checkpoints and full-fidelity stats round-trips.

Covers the service layer's durability contract: ``MatchStats`` survives
save/load with every field intact (the seed's ``save_state`` dropped
``bound_skips`` — regression-locked here), and a full :func:`repro.core.persistence.save_session` /
``load_session`` cycle restores a streaming session whose labels,
attribution, memo, and accounting equal the original entry for entry —
and which keeps ingesting correctly afterwards, from cold token caches.
"""

from __future__ import annotations

import json

import pytest

from repro.blocking import OverlapBlocker
from repro.core import parse_function
from repro.core.persistence import (
    load_session,
    load_state,
    load_stats,
    open_checkpoint,
    save_session,
    save_state,
    stats_from_dict,
    stats_to_dict,
)
from repro.core.stats import MatchStats
from repro.data import Record, Table
from repro.errors import StateError
from repro.streaming import Delta, DeltaBatch, StreamingSession


def _full_stats() -> MatchStats:
    """A MatchStats with every field (incl. nested structures) non-trivial."""
    stats = MatchStats(
        feature_computations=41,
        memo_hits=17,
        predicate_evaluations=88,
        bound_skips=9,
        rule_evaluations=23,
        pairs_evaluated=30,
        pairs_matched=7,
        elapsed_seconds=0.125,
        deltas_applied=3,
        pairs_gained=5,
        pairs_lost=2,
        pairs_invalidated=4,
    )
    stats.computations_by_feature["jaccard_ws(title,title)"] = 21
    stats.computations_by_feature["jaro(author,author)"] = 20
    return stats


def _tables():
    table_a = Table("A", ("title", "author"))
    table_a.add(Record("a1", {"title": "red apple pie", "author": "kim"}))
    table_a.add(Record("a2", {"title": "blue sky atlas", "author": "lee"}))
    table_a.add(Record("a3", {"title": "green tea house", "author": "kim"}))
    table_b = Table("B", ("title", "author"))
    table_b.add(Record("b1", {"title": "red apple pie", "author": "kim"}))
    table_b.add(Record("b2", {"title": "blue sky atlas", "author": "lee"}))
    table_b.add(Record("b3", {"title": "red apple tart", "author": "kim"}))
    return table_a, table_b


RULES = (
    "R1: jaccard_ws(title, title) >= 0.6\n"
    "R2: jaro(author, author) >= 0.9 AND jaccard_ws(title, title) >= 0.3"
)

BLOCKER_SPEC = {"kind": "overlap", "attribute": "title", "min_overlap": 1}


def _build_streaming(**kwargs) -> StreamingSession:
    table_a, table_b = _tables()
    streaming = StreamingSession(
        table_a,
        table_b,
        OverlapBlocker("title", min_overlap=1),
        parse_function(RULES),
        gold={("a1", "b1"), ("a2", "b2")},
        **kwargs,
    )
    streaming.run()
    return streaming


def _state_snapshot(streaming):
    """Order-sensitive state fingerprint (checkpoints keep pair order)."""
    state = streaming.state
    pairs = streaming.candidates.id_pairs()
    return {
        "pairs": pairs,
        "labels": [bool(label) for label in state.labels],
        "attribution": [int(value) for value in state.attribution],
        "memo": sorted(
            (index, feature, value)
            for index, feature, value in state.memo.items()
        ),
        "function": [rule.name for rule in state.function.rules],
    }


class TestStatsRoundTrip:
    def test_every_field_survives_dict_round_trip(self):
        stats = _full_stats()
        restored = stats_from_dict(stats_to_dict(stats))
        assert restored == stats
        # the regression field specifically (previously dropped):
        assert restored.bound_skips == stats.bound_skips
        assert restored.computations_by_feature == stats.computations_by_feature

    def test_round_trip_is_jsonable(self):
        payload = json.dumps(stats_to_dict(_full_stats()))
        assert stats_from_dict(json.loads(payload)) == _full_stats()

    def test_save_state_persists_stats_on_disk(self, tmp_path):
        streaming = _build_streaming()
        stats = _full_stats()
        save_state(streaming.state, tmp_path / "state", stats=stats)
        assert (open_checkpoint(tmp_path / "state").path / "stats.json").exists()
        assert load_stats(tmp_path / "state") == stats

    def test_save_state_without_stats_loads_none(self, tmp_path):
        streaming = _build_streaming()
        save_state(streaming.state, tmp_path / "state")
        assert not (open_checkpoint(tmp_path / "state").path / "stats.json").exists()
        assert load_stats(tmp_path / "state") is None

    def test_state_round_trip_unaffected_by_stats(self, tmp_path):
        streaming = _build_streaming()
        save_state(streaming.state, tmp_path / "state", stats=_full_stats())
        state = load_state(tmp_path / "state", streaming.candidates)
        assert [bool(x) for x in state.labels] == [
            bool(x) for x in streaming.state.labels
        ]


class TestSessionCheckpoint:
    def _ingest_and_edit(self, streaming):
        streaming.ingest(DeltaBatch([
            Delta.insert("a", "a4", title="red apple cake", author="kim"),
            Delta.update("b", "b3", title="red apple pie deluxe"),
        ]))
        streaming.ingest(Delta.delete("a", "a2"))

    def test_checkpoint_requires_a_run(self, tmp_path):
        table_a, table_b = _tables()
        streaming = StreamingSession(
            table_a, table_b, OverlapBlocker("title", min_overlap=1),
            parse_function(RULES),
        )
        with pytest.raises(StateError, match="has not run"):
            save_session(streaming, tmp_path / "ckpt")

    def test_round_trip_restores_state_exactly(self, tmp_path):
        streaming = _build_streaming()
        self._ingest_and_edit(streaming)
        save_session(streaming, tmp_path / "ckpt", blocker_spec=BLOCKER_SPEC)

        restored = load_session(
            tmp_path / "ckpt", OverlapBlocker("title", min_overlap=1)
        )
        assert _state_snapshot(restored) == _state_snapshot(streaming)
        restored.state.check_soundness()

    def test_round_trip_restores_accounting(self, tmp_path):
        streaming = _build_streaming()
        self._ingest_and_edit(streaming)
        save_session(streaming, tmp_path / "ckpt", blocker_spec=BLOCKER_SPEC)
        restored = load_session(
            tmp_path / "ckpt", OverlapBlocker("title", min_overlap=1)
        )
        assert restored.run_stats() == streaming.run_stats()
        assert restored.total_batch_stats() == streaming.total_batch_stats()
        assert restored.batches_ingested == streaming.batches_ingested == 2
        assert restored.session.gold == streaming.session.gold
        assert restored.session.metrics() == streaming.session.metrics()

    def test_restored_kernels_start_cold(self, tmp_path):
        streaming = _build_streaming()
        self._ingest_and_edit(streaming)
        save_session(streaming, tmp_path / "ckpt", blocker_spec=BLOCKER_SPEC)
        restored = load_session(
            tmp_path / "ckpt", OverlapBlocker("title", min_overlap=1)
        )
        # Token caches are not checkpointed: the restored kernels are cold.
        assert streaming.session.kernels.cache._buckets
        assert not restored.session.kernels.cache._buckets
        assert restored.session.kernels.cache.total_misses == 0

        follow_up = Delta.update("b", "b2", title="blue sky atlas deluxe")
        result_original = streaming.ingest(follow_up)
        result_restored = restored.ingest(follow_up)
        assert _state_snapshot(restored) == _state_snapshot(streaming)
        assert result_restored.affected_indices == result_original.affected_indices
        assert result_restored.match_count == result_original.match_count
        assert restored.session.kernels.cache._buckets

    def test_restored_session_continues_ingesting_identically(self, tmp_path):
        streaming = _build_streaming()
        self._ingest_and_edit(streaming)
        save_session(streaming, tmp_path / "ckpt", blocker_spec=BLOCKER_SPEC)
        restored = load_session(
            tmp_path / "ckpt", OverlapBlocker("title", min_overlap=1)
        )

        follow_up = DeltaBatch([
            Delta.insert("b", "b9", title="green tea house", author="kim"),
            Delta.delete("a", "a1"),
        ])
        result_original = streaming.ingest(follow_up)
        result_restored = restored.ingest(follow_up)

        assert _state_snapshot(restored) == _state_snapshot(streaming)
        assert result_restored.match_count == result_original.match_count
        assert set(result_restored.gained) == set(result_original.gained)
        assert set(result_restored.lost) == set(result_original.lost)
        assert restored.batches_ingested == streaming.batches_ingested == 3

    def test_restore_rejects_mismatched_blocker(self, tmp_path):
        from repro.errors import StreamingError

        streaming = _build_streaming()
        save_session(streaming, tmp_path / "ckpt", blocker_spec=BLOCKER_SPEC)
        with pytest.raises(StreamingError, match="does not reproduce"):
            load_session(
                tmp_path / "ckpt", OverlapBlocker("author", min_overlap=1)
            )

    def test_restore_rejects_missing_or_foreign_directory(self, tmp_path):
        with pytest.raises(StateError, match="saved session"):
            load_session(tmp_path, OverlapBlocker("title"))

    def test_restore_rejects_future_format_version(self, tmp_path, reseal):
        streaming = _build_streaming()
        save_session(streaming, tmp_path / "ckpt", blocker_spec=BLOCKER_SPEC)
        generation = open_checkpoint(tmp_path / "ckpt").path
        meta_path = generation / "session.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 999
        meta_path.write_text(json.dumps(meta))
        reseal(generation)
        with pytest.raises(StateError, match="version 999"):
            load_session(
                tmp_path / "ckpt", OverlapBlocker("title", min_overlap=1)
            )

    def test_checkpoint_stores_blocker_spec_and_meta(self, tmp_path):
        streaming = _build_streaming()
        save_session(
            streaming,
            tmp_path / "ckpt",
            blocker_spec=BLOCKER_SPEC,
            extra_meta={"observability": True},
        )
        generation = open_checkpoint(tmp_path / "ckpt").path
        meta = json.loads((generation / "session.json").read_text())
        assert meta["blocker_spec"] == BLOCKER_SPEC
        assert meta["extra"] == {"observability": True}
        assert meta["use_kernels"] is True

    def test_round_trip_without_kernels(self, tmp_path):
        streaming = _build_streaming(use_kernels=False)
        self._ingest_and_edit(streaming)
        save_session(streaming, tmp_path / "ckpt", blocker_spec=BLOCKER_SPEC)
        restored = load_session(
            tmp_path / "ckpt", OverlapBlocker("title", min_overlap=1)
        )
        assert restored.session.kernels is None
        assert _state_snapshot(restored) == _state_snapshot(streaming)
