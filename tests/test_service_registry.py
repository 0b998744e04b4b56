"""Reader/writer locking, registry lifecycle, backpressure, conservation.

The concurrency contract of the service layer, tested without any HTTP:
the :class:`~repro.service.locks.ReadWriteLock` provides exclusive
writers / concurrent readers with writer preference, the registry
checkpoints and restores through real session state, and — the paper's
correctness bar — a session hammered by interleaved ingests, rule edits,
and snapshot reads ends in *exactly* the state serial application of the
same writes produces (locking conservation).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.blocking import OverlapBlocker
from repro.core import parse_function
from repro.data import Record, Table
from repro.service import ReadWriteLock, ServiceError, SessionRegistry
from repro.service.registry import validate_session_name
from repro.streaming import Delta, StreamingSession


def _tables():
    table_a = Table("A", ("title", "author"))
    table_a.add(Record("a1", {"title": "red apple pie", "author": "kim"}))
    table_a.add(Record("a2", {"title": "blue sky atlas", "author": "lee"}))
    table_b = Table("B", ("title", "author"))
    table_b.add(Record("b1", {"title": "red apple pie", "author": "kim"}))
    table_b.add(Record("b2", {"title": "blue sky atlas", "author": "lee"}))
    return table_a, table_b


RULES = "R1: jaccard_ws(title, title) >= 0.6"


def _build_streaming() -> StreamingSession:
    table_a, table_b = _tables()
    streaming = StreamingSession(
        table_a,
        table_b,
        OverlapBlocker("title", min_overlap=1),
        parse_function(RULES),
    )
    streaming.run()
    return streaming


# ----------------------------------------------------------------------
# ReadWriteLock
# ----------------------------------------------------------------------


class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        entered = []
        barrier = threading.Barrier(3, timeout=5)

        def reader():
            with lock.read_locked():
                entered.append(1)
                barrier.wait()  # all three hold the lock at once

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert len(entered) == 3

    def test_writer_excludes_everyone(self):
        lock = ReadWriteLock()
        active = []
        violations = []

        def writer(tag):
            with lock.write_locked():
                active.append(tag)
                if len(active) > 1:
                    violations.append(tuple(active))
                time.sleep(0.005)
                active.remove(tag)

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert violations == []

    def test_writer_blocks_readers(self):
        lock = ReadWriteLock()
        lock.acquire_write()
        assert lock.acquire_read(timeout=0.05) is False
        lock.release_write()
        assert lock.acquire_read(timeout=0.05) is True
        lock.release_read()

    def test_waiting_writer_blocks_new_readers(self):
        """Writer preference: a queued writer starves no longer than the
        readers already inside."""
        lock = ReadWriteLock()
        lock.acquire_read()
        writer_acquired = threading.Event()

        def writer():
            lock.acquire_write()
            writer_acquired.set()
            lock.release_write()

        thread = threading.Thread(target=writer)
        thread.start()
        time.sleep(0.02)  # let the writer queue up
        # a *new* reader must now wait behind the writer:
        assert lock.acquire_read(timeout=0.05) is False
        lock.release_read()  # last reader leaves -> writer proceeds
        assert writer_acquired.wait(timeout=5)
        thread.join(timeout=5)
        assert lock.acquire_read(timeout=0.5) is True
        lock.release_read()

    def test_timeout_raises_in_context_manager(self):
        lock = ReadWriteLock()
        lock.acquire_write()
        with pytest.raises(TimeoutError):
            with lock.read_locked(timeout=0.02):
                pass
        with pytest.raises(TimeoutError):
            with lock.write_locked(timeout=0.02):
                pass
        lock.release_write()


# ----------------------------------------------------------------------
# Registry lifecycle + durability
# ----------------------------------------------------------------------


class TestRegistry:
    def test_add_get_list_close(self):
        registry = SessionRegistry()
        registry.add("one", _build_streaming())
        registry.add("two", _build_streaming())
        assert registry.names() == ["one", "two"]
        assert len(registry) == 2
        assert "one" in registry
        info = registry.list_sessions()[0]
        assert info["name"] == "one"
        assert info["candidates"] > 0
        registry.close("one", checkpoint=False)
        assert registry.names() == ["two"]

    def test_duplicate_name_conflicts(self):
        registry = SessionRegistry()
        registry.add("dup", _build_streaming())
        with pytest.raises(ServiceError) as excinfo:
            registry.add("dup", _build_streaming())
        assert excinfo.value.code == "conflict"

    def test_unknown_name_not_found(self):
        registry = SessionRegistry()
        with pytest.raises(ServiceError) as excinfo:
            registry.get("ghost")
        assert excinfo.value.code == "not_found"

    @pytest.mark.parametrize(
        "bad",
        ["", "a" * 65, "sp ace", "sl/ash", "../x", ".", "..", "..."],
    )
    def test_invalid_names_rejected(self, bad):
        with pytest.raises(ServiceError):
            validate_session_name(bad)

    @pytest.mark.parametrize("escape", [".", ".."])
    def test_dot_names_never_reach_the_filesystem(self, tmp_path, escape):
        # '..' would checkpoint outside the root and, on close with
        # drop_checkpoint, rmtree the root's *parent*; '.' the root
        # itself.  Both must bounce before any path is built.
        registry = SessionRegistry(checkpoint_root=tmp_path)
        with pytest.raises(ServiceError) as excinfo:
            registry.add(escape, _build_streaming())
        assert excinfo.value.code == "bad_request"
        with pytest.raises(ServiceError) as excinfo:
            registry.session_dir(escape)
        assert excinfo.value.code == "bad_request"

    def test_checkpoint_restore_cycle(self, tmp_path):
        spec = {"kind": "overlap", "attribute": "title", "min_overlap": 1}
        registry = SessionRegistry(checkpoint_root=tmp_path)
        managed = registry.add("durable", _build_streaming(), blocker_spec=spec)
        assert managed.dirty
        saved = registry.checkpoint("durable")
        assert saved is not None and not managed.dirty

        fresh = SessionRegistry(checkpoint_root=tmp_path)
        restored = fresh.restore_all()
        assert restored == ["durable"]
        assert not fresh.get("durable").dirty
        assert (
            fresh.get("durable").streaming.candidates.id_pairs()
            == managed.streaming.candidates.id_pairs()
        )

    def test_checkpoint_all_skips_clean_sessions(self, tmp_path):
        spec = {"kind": "overlap", "attribute": "title", "min_overlap": 1}
        registry = SessionRegistry(checkpoint_root=tmp_path)
        registry.add("a", _build_streaming(), blocker_spec=spec)
        registry.add("b", _build_streaming(), blocker_spec=spec)
        assert sorted(registry.checkpoint_all()) == ["a", "b"]
        # nothing changed since -> nothing to save
        assert registry.checkpoint_all() == []
        registry.get("a").write(lambda s: s.ingest(Delta.delete("a", "a2")))
        assert registry.checkpoint_all() == ["a"]

    def test_close_drop_checkpoint_removes_directory(self, tmp_path):
        spec = {"kind": "overlap", "attribute": "title", "min_overlap": 1}
        registry = SessionRegistry(checkpoint_root=tmp_path)
        registry.add("gone", _build_streaming(), blocker_spec=spec)
        registry.checkpoint("gone")
        assert (tmp_path / "gone").exists()
        registry.close("gone", drop_checkpoint=True)
        assert not (tmp_path / "gone").exists()
        assert SessionRegistry(checkpoint_root=tmp_path).restore_all() == []

    def test_write_racing_a_checkpoint_keeps_the_session_dirty(
        self, tmp_path, monkeypatch
    ):
        """A write that lands while a checkpoint is saving must leave the
        session dirty, or checkpoint_all(dirty_only=True) at shutdown
        would skip it and silently lose the write on restart."""
        import repro.service.registry as registry_mod

        spec = {"kind": "overlap", "attribute": "title", "min_overlap": 1}
        registry = SessionRegistry(checkpoint_root=tmp_path)
        managed = registry.add("racy", _build_streaming(), blocker_spec=spec)

        real_save = registry_mod.save_session
        saving = threading.Event()
        release = threading.Event()

        def slow_save(*args, **kwargs):
            result = real_save(*args, **kwargs)
            saving.set()
            release.wait(10)  # hold the read lock with the save "done"
            return result

        monkeypatch.setattr(registry_mod, "save_session", slow_save)
        checkpointer = threading.Thread(
            target=registry.checkpoint, args=("racy",)
        )
        checkpointer.start()
        assert saving.wait(10)
        writer = threading.Thread(
            target=lambda: managed.write(
                lambda s: s.ingest(Delta.delete("a", "a2"))
            )
        )
        writer.start()
        time.sleep(0.05)  # let the writer block on the session lock
        release.set()
        checkpointer.join(10)
        writer.join(10)
        assert managed.dirty, "racing write's dirt was wiped by checkpoint"
        monkeypatch.setattr(registry_mod, "save_session", real_save)
        assert registry.checkpoint_all() == ["racy"]

    def test_restore_all_skips_corrupt_checkpoints(self, tmp_path):
        spec = {"kind": "overlap", "attribute": "title", "min_overlap": 1}
        registry = SessionRegistry(checkpoint_root=tmp_path)
        registry.add("good", _build_streaming(), blocker_spec=spec)
        registry.checkpoint("good")
        bad = tmp_path / "broken"
        bad.mkdir()
        (bad / "session.json").write_text("{this is not json", "utf-8")

        fresh = SessionRegistry(checkpoint_root=tmp_path)
        assert fresh.restore_all() == ["good"]
        assert "broken" not in fresh
        assert [f["name"] for f in fresh.restore_failures] == ["broken"]
        # the corrupt checkpoint stays on disk for inspection:
        assert (bad / "session.json").exists()

    def test_non_durable_registry_checkpoints_nothing(self):
        registry = SessionRegistry()
        registry.add("volatile", _build_streaming())
        assert registry.checkpoint("volatile") is None
        assert registry.checkpoint_all() == []
        assert registry.restore_all() == []


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------


class TestBackpressure:
    def test_slots_are_bounded(self):
        registry = SessionRegistry(max_pending=2)
        managed = registry.add("busy", _build_streaming())
        managed.acquire_slot()
        managed.acquire_slot()
        with pytest.raises(ServiceError) as excinfo:
            managed.acquire_slot()
        assert excinfo.value.code == "busy"
        managed.release_slot()
        managed.acquire_slot()  # freed slot is reusable
        assert managed.pending == 2

    def test_release_never_goes_negative(self):
        registry = SessionRegistry()
        managed = registry.add("s", _build_streaming())
        managed.release_slot()
        assert managed.pending == 0


# ----------------------------------------------------------------------
# Locking conservation: concurrent == serial
# ----------------------------------------------------------------------


class TestLockingConservation:
    """Interleaved writes + reads must equal serial application."""

    WRITES = [
        Delta.insert("a", "a3", title="red apple tart", author="kim"),
        Delta.update("b", "b2", title="blue sky atlas volume two"),
        Delta.insert("b", "b3", title="red apple pie", author="kim"),
        Delta.delete("a", "a2"),
        Delta.insert("a", "a4", title="blue sky atlas volume two", author="lee"),
        Delta.update("b", "b3", title="red apple tart"),
    ]

    def _edit(self):
        from repro.core.changes import RelaxPredicate

        return RelaxPredicate("R1", "jaccard_ws(title,title)#lb", 0.5)

    def _serial_reference(self):
        streaming = _build_streaming()
        for delta in self.WRITES[:3]:
            streaming.ingest(delta)
        streaming.apply(self._edit())
        for delta in self.WRITES[3:]:
            streaming.ingest(delta)
        return streaming

    def test_concurrent_equals_serial(self):
        registry = SessionRegistry()
        managed = registry.add("shared", _build_streaming())
        errors = []
        snapshots = []
        stop_reading = threading.Event()

        def writer():
            try:
                for delta in self.WRITES[:3]:
                    managed.write(lambda s, d=delta: s.ingest(d))
                managed.write(lambda s: s.apply(self._edit()))
                for delta in self.WRITES[3:]:
                    managed.write(lambda s, d=delta: s.ingest(d))
            except Exception as error:  # pragma: no cover - fail loudly
                errors.append(error)

        def reader():
            try:
                while not stop_reading.is_set():
                    count = managed.read(
                        lambda s: s.state.match_count()
                    )
                    snapshots.append(count)
            except Exception as error:  # pragma: no cover - fail loudly
                errors.append(error)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        writer_thread = threading.Thread(target=writer)
        for thread in readers:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=30)
        stop_reading.set()
        for thread in readers:
            thread.join(timeout=30)

        assert errors == []
        assert snapshots, "readers never got through"
        assert managed.seq == len(self.WRITES) + 1

        reference = self._serial_reference()
        got = dict(
            zip(
                managed.streaming.candidates.id_pairs(),
                [bool(x) for x in managed.streaming.state.labels],
            )
        )
        want = dict(
            zip(
                reference.candidates.id_pairs(),
                [bool(x) for x in reference.state.labels],
            )
        )
        assert got == want

        def _counters(stats):
            from repro.core.persistence import stats_to_dict

            data = stats_to_dict(stats)
            # wall-clock measurements legitimately differ under load
            for key in ("elapsed_seconds",):
                data.pop(key, None)
            return data

        assert _counters(managed.streaming.total_batch_stats()) == _counters(
            reference.total_batch_stats()
        )
        # every observed snapshot must be a state some serial prefix
        # produces — readers can never see a torn intermediate.
        valid_counts = {0}
        probe = _build_streaming()
        valid_counts.add(probe.state.match_count())
        for delta in self.WRITES[:3]:
            probe.ingest(delta)
            valid_counts.add(probe.state.match_count())
        probe.apply(self._edit())
        valid_counts.add(probe.state.match_count())
        for delta in self.WRITES[3:]:
            probe.ingest(delta)
            valid_counts.add(probe.state.match_count())
        assert set(snapshots) <= valid_counts
