"""Checkpoint durability: atomic generations, verified restore, formats.

A save publishes a whole generation or nothing; restore verifies it
against its manifest and falls back to the previous generation when it
does not verify.  These tests fail the save's write helper at every file
boundary (plainly, and as a partial write hitting ENOSPC), flip bytes in
every file of a published generation, restore a committed version-1
checkpoint and one that still carries settings of the retired process
pool, check that thresholds restore exactly, and check that no version-2
load unpickles.  They also pin
the streaming session's running batch totals to the re-merge fold they
replace, and the index-only re-block to the full one.
"""

from __future__ import annotations

import errno
import functools
import io
import json
import shutil
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import OverlapBlocker
from repro.core import TightenPredicate, persistence
from repro.core.persistence import (
    load_session,
    load_state,
    open_checkpoint,
    save_session,
    save_state,
)
from repro.core.stats import MatchStats
from repro.data import CandidateSet
from repro.errors import BlockingError, StateError
from repro.observability.export import parse_prometheus
from repro.service import SessionRegistry
from repro.service.handlers import ServiceHandlers
from repro.streaming import Delta, DeltaBatch

from .test_service_persistence import BLOCKER_SPEC, _build_streaming

V1_FIXTURE = Path(__file__).parent / "fixtures" / "checkpoint_v1"


def _blocker():
    return OverlapBlocker("title", min_overlap=1)


def _image(streaming) -> dict:
    """Everything a checkpoint must restore bit for bit, in row order."""
    state = streaming.state
    return {
        "candidates": streaming.candidates.id_pairs(),
        "labels": state.labels.tobytes(),
        "attribution": state.attribution.tobytes(),
        "memo": sorted(state.memo.items()),
        "rule_bitmaps": {
            name: bitmap.tobytes() for name, bitmap in state._rule_matched.items()
        },
        "slot_bitmaps": {
            key: bitmap.tobytes() for key, bitmap in state._predicate_false.items()
        },
    }


def _advance(streaming) -> None:
    streaming.ingest(DeltaBatch([
        Delta.insert("a", "a4", title="red apple cake", author="kim"),
        Delta.update("b", "b3", title="red apple pie deluxe"),
    ]))
    streaming.ingest(Delta.delete("a", "a2"))


def _writes_per_save(tmp_path, monkeypatch) -> int:
    """How many times one save calls the write helper."""
    calls = []
    real = persistence._write_file

    def counting(path, data):
        calls.append(path.name)
        real(path, data)

    with monkeypatch.context() as patch:
        patch.setattr(persistence, "_write_file", counting)
        save_session(_build_streaming(), tmp_path / "count")
    assert calls[-2:] == ["manifest.json", "CURRENT.tmp"]
    return len(calls)


class TestFaultInjection:
    @pytest.mark.parametrize("mode", ["raise", "enospc"])
    def test_a_failed_save_leaves_the_old_state(self, tmp_path, monkeypatch, mode):
        streaming = _build_streaming()
        old = _image(streaming)
        saved = _build_streaming()
        _advance(saved)
        new = _image(saved)
        assert old != new
        real = persistence._write_file

        for boundary in range(_writes_per_save(tmp_path, monkeypatch)):
            directory = tmp_path / f"{mode}-{boundary}"
            save_session(streaming, directory, blocker_spec=BLOCKER_SPEC)
            calls = []

            def failing(path, data):
                if len(calls) == boundary:
                    if mode == "raise":
                        raise RuntimeError(f"killed before {path.name}")
                    real(path, data[: len(data) // 2])
                    raise OSError(errno.ENOSPC, "No space left on device")
                calls.append(path.name)
                real(path, data)

            monkeypatch.setattr(persistence, "_write_file", failing)
            with pytest.raises((RuntimeError, OSError)):
                save_session(saved, directory, blocker_spec=BLOCKER_SPEC)
            monkeypatch.setattr(persistence, "_write_file", real)

            # The pointer never moved: the old state, whole, and whatever
            # the failed save left behind is ignored.
            checkpoint = open_checkpoint(directory)
            assert checkpoint.generation == 1 and checkpoint.fallback is None
            assert _image(load_session(checkpoint, _blocker())) == old, boundary

            # The next save publishes the new state and removes the debris.
            save_session(saved, directory, blocker_spec=BLOCKER_SPEC)
            assert _image(load_session(directory, _blocker())) == new, boundary
            entries = sorted(entry.name for entry in directory.iterdir())
            current = open_checkpoint(directory).path.name
            assert entries == sorted(["CURRENT", "gen-1", current]), entries

    def test_only_the_current_and_previous_generations_are_kept(self, tmp_path):
        streaming = _build_streaming()
        for _ in range(4):
            save_session(streaming, tmp_path / "ckpt")
        assert sorted(entry.name for entry in (tmp_path / "ckpt").iterdir()) == [
            "CURRENT", "gen-3", "gen-4",
        ]
        assert open_checkpoint(tmp_path / "ckpt").generation == 4

    def test_equal_states_write_equal_bytes(self, tmp_path):
        streaming = _build_streaming()
        save_session(streaming, tmp_path / "one")
        save_session(streaming, tmp_path / "two")
        one, two = (open_checkpoint(tmp_path / name).path for name in ("one", "two"))
        assert (one / "state.npz").read_bytes() == (two / "state.npz").read_bytes()


class TestConcurrentCheckpoints:
    def test_concurrent_checkpoints_of_one_session_serialize(self, tmp_path):
        """Each checkpoint publishes the next generation of one directory;
        racing saves must not share a temp directory or a generation."""
        registry = SessionRegistry(checkpoint_root=tmp_path)
        managed = registry.add("busy", _build_streaming(), blocker_spec=BLOCKER_SPEC)
        errors = []

        def checkpoint_repeatedly():
            try:
                for _ in range(5):
                    registry.checkpoint("busy")
            except Exception as error:  # noqa: BLE001 — reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=checkpoint_repeatedly) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert open_checkpoint(tmp_path / "busy").generation == 30
        assert sorted(entry.name for entry in (tmp_path / "busy").iterdir()) == [
            "CURRENT", "gen-29", "gen-30",
        ]
        assert _image(load_session(tmp_path / "busy", _blocker())) == _image(
            managed.streaming
        )


class TestCorruptionFallback:
    def _two_generations(self, directory):
        streaming = _build_streaming()
        save_session(streaming, directory, blocker_spec=BLOCKER_SPEC)
        old = _image(streaming)
        _advance(streaming)
        save_session(streaming, directory, blocker_spec=BLOCKER_SPEC)
        return old, _image(streaming)

    def test_a_flipped_byte_in_any_file_falls_back(self, tmp_path):
        pristine = tmp_path / "pristine"
        old, new = self._two_generations(pristine)
        assert _image(load_session(pristine, _blocker())) == new
        names = sorted(path.name for path in (pristine / "gen-2").iterdir())
        assert "manifest.json" in names and "state.npz" in names
        for name in names:
            directory = tmp_path / name
            shutil.copytree(pristine, directory)
            target = directory / "gen-2" / name
            data = bytearray(target.read_bytes())
            data[len(data) // 2] ^= 0xFF
            target.write_bytes(bytes(data))

            checkpoint = open_checkpoint(directory)
            assert checkpoint.generation == 1, name
            assert "gen-2" in checkpoint.fallback and "restored gen-1" in checkpoint.fallback
            assert _image(load_session(checkpoint, _blocker())) == old, name

    def test_a_missing_file_falls_back(self, tmp_path):
        old, _new = self._two_generations(tmp_path / "ckpt")
        (tmp_path / "ckpt" / "gen-2" / "tables.json").unlink()
        restored = load_session(tmp_path / "ckpt", _blocker())
        assert _image(restored) == old

    def test_no_verifying_generation_raises(self, tmp_path):
        self._two_generations(tmp_path / "ckpt")
        for generation in ("gen-1", "gen-2"):
            (tmp_path / "ckpt" / generation / "meta.json").write_text("{}")
        with pytest.raises(StateError, match="no generation verifies"):
            load_session(tmp_path / "ckpt", _blocker())

    def test_registry_reports_the_fallback(self, tmp_path):
        registry = SessionRegistry(checkpoint_root=tmp_path)
        managed = registry.add("flaky", _build_streaming(), blocker_spec=BLOCKER_SPEC)
        registry.checkpoint("flaky")
        old = _image(managed.streaming)
        managed.write(_advance)
        registry.checkpoint("flaky")
        (tmp_path / "flaky" / "gen-2" / "state.npz").write_bytes(b"torn")

        fresh = SessionRegistry(checkpoint_root=tmp_path)
        assert fresh.restore_all() == ["flaky"]
        assert fresh.restore_failures == []
        [fallback] = fresh.restore_fallbacks
        assert fallback["name"] == "flaky" and fallback["generation"] == 1
        assert "state.npz" in fallback["error"]
        assert _image(fresh.get("flaky").streaming) == old

        handlers = ServiceHandlers(fresh)
        assert handlers.health()["restore_fallbacks"] == fresh.restore_fallbacks
        samples = parse_prometheus(handlers.scrape())["samples"]
        assert samples[("repro_registry_restore_fallbacks", ())] == 1


class TestFormatCompatibility:
    def test_v1_checkpoint_restores_with_equal_labels(self, tmp_path):
        restored = load_session(V1_FIXTURE, _blocker())
        live = _build_streaming()
        # Rule order comes from wall-clock cost estimates, so compare the
        # labels by pair, not the function.
        assert set(restored.session.matched_ids()) == set(live.session.matched_ids())
        assert restored.session.metrics() == live.session.metrics()
        restored.state.check_soundness()
        assert open_checkpoint(V1_FIXTURE).format == 1

        # It upgrades on its next save, and keeps ingesting like a live session.
        save_session(restored, tmp_path / "upgraded", blocker_spec=BLOCKER_SPEC)
        upgraded = load_session(tmp_path / "upgraded", _blocker())
        assert open_checkpoint(tmp_path / "upgraded").format == 2
        assert _image(upgraded) == _image(restored)
        delta = Delta.update("b", "b2", title="blue sky atlas deluxe")
        assert upgraded.ingest(delta).match_count == live.ingest(delta).match_count
        assert set(upgraded.session.matched_ids()) == set(live.session.matched_ids())

    def test_keys_of_the_retired_process_pool_are_ignored(self, tmp_path, reseal):
        streaming = _build_streaming()
        _advance(streaming)
        save_session(streaming, tmp_path / "ckpt", blocker_spec=BLOCKER_SPEC)
        generation = open_checkpoint(tmp_path / "ckpt").path
        settings = {
            "workers": 2,
            "parallel_threshold_pairs": 2000,
            "parallel_threshold_seconds": 0.05,
        }
        timings = {
            "phase_seconds": {"execute": 0.2},
            "worker_timings": [{
                "chunk_id": 0, "worker_pid": 4242, "pairs": 3,
                "elapsed_seconds": 0.01, "attempts": 2, "fallback": True,
            }],
        }
        for name, extra in (
            ("meta.json", settings),
            ("session.json", settings),
            ("stats.json", timings),
        ):
            data = json.loads((generation / name).read_text())
            data.update(extra)
            if name == "session.json":
                data["batch_stats"].update(timings)
            (generation / name).write_text(json.dumps(data))
        reseal(generation)

        restored = load_session(tmp_path / "ckpt", _blocker())
        assert _image(restored) == _image(streaming)
        assert restored.run_stats() == streaming.run_stats()
        assert restored.total_batch_stats() == streaming.total_batch_stats()
        assert restored.batches_ingested == streaming.batches_ingested

    def test_thresholds_round_trip_exactly(self, tmp_path):
        streaming = _build_streaming()
        rules = {rule.name: rule for rule in streaming.function.rules}
        jaro = next(p for p in rules["R2"].predicates if p.feature.sim.name == "jaro")
        # Both have more significant digits than the DSL's %g form keeps.
        streaming.apply(
            TightenPredicate("R1", rules["R1"].predicates[0].slot, 0.6170001234567)
        )
        streaming.apply(TightenPredicate("R2", jaro.slot, 14 / 15))

        def thresholds(function):
            return sorted(
                (rule.name, predicate.slot, predicate.threshold)
                for rule in function.rules
                for predicate in rule.predicates
            )

        saved = thresholds(streaming.function)
        assert ("R1", rules["R1"].predicates[0].slot, 0.6170001234567) in saved
        save_state(streaming.state, tmp_path / "state")
        state = load_state(tmp_path / "state", streaming.candidates)
        assert thresholds(state.function) == saved
        save_session(streaming, tmp_path / "session", blocker_spec=BLOCKER_SPEC)
        restored = load_session(tmp_path / "session", _blocker())
        assert thresholds(restored.function) == saved

    def test_v1_state_directory_loads(self):
        restored = load_session(V1_FIXTURE, _blocker())
        state = load_state(V1_FIXTURE / "state", restored.candidates)
        assert np.array_equal(state.labels, restored.state.labels)
        assert sorted(state.memo.items()) == sorted(restored.state.memo.items())

    def test_v2_rejects_object_arrays(self, tmp_path, reseal):
        save_session(_build_streaming(), tmp_path / "ckpt")
        generation = open_checkpoint(tmp_path / "ckpt").path
        with np.load(generation / "state.npz") as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["labels"] = np.array([object()] * len(arrays["labels"]), dtype=object)
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        (generation / "state.npz").write_bytes(buffer.getvalue())
        reseal(generation)
        with pytest.raises(StateError, match="state.npz"):
            load_session(tmp_path / "ckpt", _blocker())

    def test_hash_memo_round_trips_through_the_column_arrays(self, tmp_path):
        streaming = _build_streaming(memo_backend="hash")
        _advance(streaming)
        save_state(streaming.state, tmp_path / "state")
        restored = load_state(tmp_path / "state", streaming.candidates)
        assert type(restored.memo).__name__ == "HashMemo"
        assert sorted(restored.memo.items()) == sorted(streaming.state.memo.items())

    def test_state_checkpoint_is_not_a_session(self, tmp_path):
        save_state(_build_streaming().state, tmp_path / "state")
        with pytest.raises(StateError, match="not a saved session"):
            load_session(tmp_path / "state", _blocker())


TITLES = ("red apple pie", "blue sky atlas", "green tea", "red tart", "sky pie")


@st.composite
def delta_scripts(draw):
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["a1", "a2", "a3"]),
                st.sampled_from(["b1", "b2", "b3"]),
                st.sampled_from(TITLES),
            ),
            min_size=1,
            max_size=5,
        )
    )


class TestRunningBatchTotals:
    @settings(max_examples=15, deadline=None)
    @given(script=delta_scripts(), restored=st.booleans(), seconds=st.floats(0, 1))
    def test_running_total_equals_the_re_merge_fold(self, script, restored, seconds):
        streaming = _build_streaming()
        base = MatchStats()
        if restored:
            base = MatchStats(deltas_applied=7, elapsed_seconds=seconds, memo_hits=3)
            base.computations_by_feature["jaro(author,author)"] = 2
            streaming.seed_restored(batch_stats=base, batches=4)
        for a_id, b_id, title in script:
            streaming.ingest(DeltaBatch([
                Delta.update("a", a_id, title=title),
                Delta.update("b", b_id, title=title[::-1]),
            ]))
            streaming.ingest(DeltaBatch([]))
        fold = functools.reduce(
            lambda total, result: total.merged_with(result.stats),
            streaming.batch_history,
            base,
        )
        total = streaming.total_batch_stats()
        assert total == fold
        assert total.elapsed_seconds.hex() == fold.elapsed_seconds.hex()
        # A copy: callers cannot corrupt the running total.
        total.deltas_applied += 100
        total.computations_by_feature["jaro(author,author)"] = -1
        assert streaming.total_batch_stats() == fold


class TestIndexOnlyReblock:
    def test_index_pairs_is_block_without_the_candidate_set(self):
        streaming = _build_streaming()
        blocker = _blocker()
        pairs = blocker.index_pairs(streaming.table_a, streaming.table_b)
        reference = _blocker()
        assert pairs == reference.block(streaming.table_a, streaming.table_b).id_pairs()
        assert blocker.current_pairs() == reference.current_pairs()

    def test_from_positions_rejects_duplicates_and_bad_positions(self):
        streaming = _build_streaming()
        table_a, table_b = streaming.table_a, streaming.table_b
        candidates = CandidateSet.from_positions(
            table_a, table_b, np.array([0, 1], np.int32), np.array([2, 0], np.int32)
        )
        assert candidates.id_pairs() == [("a1", "b3"), ("a2", "b1")]
        with pytest.raises(BlockingError, match="duplicate"):
            CandidateSet.from_positions(
                table_a, table_b, np.array([0, 0], np.int32), np.array([1, 1], np.int32)
            )
        with pytest.raises(BlockingError, match="out of range"):
            CandidateSet.from_positions(
                table_a, table_b, np.array([5], np.int32), np.array([0], np.int32)
            )
