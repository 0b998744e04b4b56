"""Session registry: named sessions, per-session locking, durability.

The service hosts many debugging sessions at once.  Each lives in a
:class:`ManagedSession` — the :class:`~repro.streaming.session.
StreamingSession` plus the concurrency state that makes it safe to share:

* a writer-preferring :class:`~repro.service.locks.ReadWriteLock`, so any
  number of snapshot reads (matches, metrics, trace, explain) run
  concurrently while ingests and rule edits serialize, and a waiting
  write is never starved by a stream of reads;
* a bounded pending counter (*backpressure*): once ``max_pending``
  requests are queued against one session, further requests fail fast
  with a ``busy`` error instead of piling onto the executor;
* a monotonically increasing ``seq`` and a ``dirty`` flag that tell the
  checkpointer which sessions changed since their last save.

The :class:`SessionRegistry` owns the name → session map (guarded by its
own mutex — registry operations never hold any session's lock) and one
checkpoint directory per session::

    <checkpoint_root>/<session_name>/   one repro.core.persistence
                                        session checkpoint (its generations
                                        and CURRENT pointer) per session

Only :mod:`repro.core.persistence` knows what is inside.  ``restore_all``
walks the root at startup, opens each session's verified generation,
and rebuilds its blocker from the spec stored there — this is how a
restarted server resumes exactly where it stopped.  A session built from
a generated dataset also records the dataset spec; its restore rebuilds
the dataset's :class:`~repro.learning.FeatureSpace` (no forest is
trained), so the DSL resolves to the same corpus-bound features the
session was created with.
"""

from __future__ import annotations

import logging
import shutil
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..core.persistence import (
    has_checkpoint,
    load_session,
    open_checkpoint,
    save_session,
)
from ..errors import StateError
from ..streaming.session import StreamingSession
from .locks import ReadWriteLock
from .protocol import ServiceError, build_blocker

logger = logging.getLogger(__name__)

#: default per-session queue depth before requests bounce with ``busy``.
DEFAULT_MAX_PENDING = 32

_VALID_NAME = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_."


def validate_session_name(name: str) -> str:
    """Session names become directory names; keep them filesystem-safe."""
    if not name or len(name) > 64:
        raise ServiceError(
            "bad_request", "session name must be 1-64 characters"
        )
    if any(ch not in _VALID_NAME for ch in name):
        raise ServiceError(
            "bad_request",
            f"session name {name!r} may only contain letters, digits, "
            f"'-', '_', and '.'",
        )
    if set(name) <= {"."}:
        # '.' and '..' are directory escapes, not names: '..' would
        # checkpoint outside the root and rmtree the root's parent.
        raise ServiceError(
            "bad_request",
            "session name must contain a character other than '.'",
        )
    return name


class ManagedSession:
    """One hosted session: engine object + lock + backpressure + dirt."""

    def __init__(
        self,
        name: str,
        streaming: StreamingSession,
        blocker_spec: Optional[dict] = None,
        max_pending: int = DEFAULT_MAX_PENDING,
        space=None,
        dataset: Optional[dict] = None,
    ):
        self.name = name
        self.streaming = streaming
        self.blocker_spec = blocker_spec
        #: the generated dataset's FeatureSpace and its spec (name, seed,
        #: scale); None for a session created from explicit tables.
        self.space = space
        self.dataset = dataset
        self.lock = ReadWriteLock()
        self.max_pending = max_pending
        self.created_at = time.time()
        #: bumped on every successful write; lets clients (and the
        #: checkpointer) detect "has anything changed since I looked?".
        self.seq = 0
        #: True when state changed after the last checkpoint.
        self.dirty = True
        #: previous metrics snapshot (the /metrics diff-since-last basis).
        self.last_metrics_snapshot = None
        #: serializes checkpoints of this session (each one publishes the
        #: next generation of the same directory).
        self.save_mutex = threading.Lock()
        self._pending = 0
        self._pending_mutex = threading.Lock()

    # -- backpressure --------------------------------------------------

    def acquire_slot(self) -> None:
        """Claim a pending-request slot or fail fast with ``busy``."""
        with self._pending_mutex:
            if self._pending >= self.max_pending:
                raise ServiceError(
                    "busy",
                    f"session {self.name!r} has {self._pending} requests "
                    f"pending (limit {self.max_pending}); retry later",
                )
            self._pending += 1

    def release_slot(self) -> None:
        with self._pending_mutex:
            self._pending = max(0, self._pending - 1)

    @property
    def pending(self) -> int:
        with self._pending_mutex:
            return self._pending

    def resolver(self, default=None):
        """The feature resolver for this session's rule DSL: its feature
        space's (corpus-bound instances) if it has one, else ``default``."""
        return self.space.resolver() if self.space is not None else default

    # -- guarded access ------------------------------------------------

    def read(self, fn: Callable[[StreamingSession], object], timeout=None):
        """Run ``fn`` under the shared (reader) lock."""
        with self.lock.read_locked(timeout=timeout):
            return fn(self.streaming)

    def write(self, fn: Callable[[StreamingSession], object], timeout=None):
        """Run ``fn`` under the exclusive (writer) lock; marks dirty."""
        with self.lock.write_locked(timeout=timeout):
            result = fn(self.streaming)
            self.seq += 1
            self.dirty = True
            return result

    def describe(self) -> dict:
        """Unlocked summary for listings (point-in-time, may be stale)."""
        streaming = self.streaming
        return {
            "name": self.name,
            "seq": self.seq,
            "dirty": self.dirty,
            "pending": self.pending,
            "created_at": self.created_at,
            "candidates": len(streaming.candidates),
            "batches_ingested": streaming.batches_ingested,
            "rules": [rule.name for rule in streaming.function.rules],
            "blocker_spec": self.blocker_spec,
            "dataset": self.dataset,
        }


class SessionRegistry:
    """Thread-safe name → :class:`ManagedSession` map with durability.

    The registry mutex only guards the map itself; request work runs
    under the individual session's reader/writer lock, so operations on
    different sessions never contend.
    """

    def __init__(
        self,
        checkpoint_root: Optional[str | Path] = None,
        max_pending: int = DEFAULT_MAX_PENDING,
    ):
        self.checkpoint_root = (
            Path(checkpoint_root) if checkpoint_root is not None else None
        )
        self.max_pending = max_pending
        #: checkpoints restore_all() could not rehydrate (skipped, kept
        #: on disk): ``[{"name", "error"}, ...]``.
        self.restore_failures: List[dict] = []
        #: sessions restore_all() restored from their previous generation
        #: because the current one failed verification:
        #: ``[{"name", "generation", "error"}, ...]``.
        self.restore_fallbacks: List[dict] = []
        self._sessions: Dict[str, ManagedSession] = {}
        self._mutex = threading.Lock()

    # -- lifecycle -----------------------------------------------------

    def add(
        self,
        name: str,
        streaming: StreamingSession,
        blocker_spec: Optional[dict] = None,
        space=None,
        dataset: Optional[dict] = None,
    ) -> ManagedSession:
        validate_session_name(name)
        managed = ManagedSession(
            name, streaming, blocker_spec=blocker_spec,
            max_pending=self.max_pending, space=space, dataset=dataset,
        )
        with self._mutex:
            if name in self._sessions:
                raise ServiceError(
                    "conflict", f"session {name!r} already exists"
                )
            self._sessions[name] = managed
        return managed

    def get(self, name: str) -> ManagedSession:
        with self._mutex:
            managed = self._sessions.get(name)
        if managed is None:
            raise ServiceError("not_found", f"no session named {name!r}")
        return managed

    def names(self) -> List[str]:
        with self._mutex:
            return sorted(self._sessions)

    def list_sessions(self) -> List[dict]:
        with self._mutex:
            sessions = list(self._sessions.values())
        return [managed.describe() for managed in sorted(
            sessions, key=lambda m: m.name
        )]

    def sessions_state(self) -> List[dict]:
        """Cheap per-session liveness state, name-sorted.

        The single source both ``GET /health`` and the ``GET /metrics``
        gauges read, so the two views can never disagree about
        dirty/pending/seq.
        """
        with self._mutex:
            sessions = list(self._sessions.values())
        return [
            {
                "name": managed.name,
                "seq": managed.seq,
                "dirty": managed.dirty,
                "pending": managed.pending,
            }
            for managed in sorted(sessions, key=lambda m: m.name)
        ]

    def close(self, name: str, checkpoint: bool = True, drop_checkpoint: bool = False) -> dict:
        """Remove a session, checkpointing it first by default.

        ``drop_checkpoint`` deletes its on-disk checkpoint instead, so a
        closed-for-good session does not resurrect on restart.
        """
        managed = self.get(name)
        saved = None
        if checkpoint and not drop_checkpoint:
            saved = self.checkpoint(name)
        with self._mutex:
            self._sessions.pop(name, None)
        if drop_checkpoint and self.checkpoint_root is not None:
            shutil.rmtree(self.session_dir(name), ignore_errors=True)
        return {"closed": name, "checkpoint": saved}

    def __len__(self) -> int:
        with self._mutex:
            return len(self._sessions)

    def __contains__(self, name: str) -> bool:
        with self._mutex:
            return name in self._sessions

    # -- durability ----------------------------------------------------

    def session_dir(self, name: str) -> Path:
        if self.checkpoint_root is None:
            raise ServiceError(
                "conflict",
                "this registry has no checkpoint directory configured",
            )
        validate_session_name(name)
        directory = self.checkpoint_root / name
        # Belt and braces on top of name validation: never hand out a
        # path that escapes the checkpoint root.
        root = self.checkpoint_root.resolve()
        if root not in directory.resolve().parents:
            raise ServiceError(
                "bad_request",
                f"session name {name!r} escapes the checkpoint root",
            )
        return directory

    def checkpoint(
        self, name: str, directory: Optional[str | Path] = None
    ) -> Optional[str]:
        """Durably save one session (under its reader lock).

        A reader lock suffices: checkpointing only reads state, and the
        writer-preference of the lock keeps a pending ingest from being
        starved by it.  ``directory`` defaults to the session's own
        directory under the checkpoint root; only a save there clears the
        session's dirty flag.  Returns the directory written, or ``None``
        when no ``directory`` is given and the registry is not durable.
        """
        if directory is None and self.checkpoint_root is None:
            return None
        managed = self.get(name)
        own = directory is None
        target = self.session_dir(name) if own else Path(directory)

        def _save(streaming: StreamingSession):
            observability = streaming.observability
            saved = save_session(
                streaming,
                target,
                blocker_spec=managed.blocker_spec,
                # Observability objects are not serialized (telemetry is
                # flushed separately as JSON lines); record only the
                # configuration so a restore re-attaches a fresh one.
                extra_meta={
                    "observability": observability is not None,
                    "profile": bool(
                        observability is not None and observability.profiler
                    ),
                    "drift_every": (
                        observability.drift_monitor.every
                        if observability is not None
                        and getattr(observability, "drift_monitor", None)
                        is not None
                        else None
                    ),
                    # the spec the restore rebuilds the feature space from
                    "dataset": managed.dataset,
                },
            )
            # Clear the dirty flag while the read lock is still held:
            # readers exclude writers, so no write can slip in between
            # the save and the clear and have its dirt wiped (which
            # would make checkpoint_all(dirty_only=True) skip it and
            # lose the write on restart).
            if own:
                managed.dirty = False
            return saved

        with managed.save_mutex:
            saved = managed.read(_save)
        return str(saved)

    def checkpoint_all(self, dirty_only: bool = True) -> List[str]:
        """Checkpoint every (dirty) session; returns the names saved."""
        if self.checkpoint_root is None:
            return []
        saved = []
        for name in self.names():
            try:
                managed = self.get(name)
            except ServiceError:
                continue  # closed concurrently
            if dirty_only and not managed.dirty:
                continue
            self.checkpoint(name)
            saved.append(name)
        return saved

    def restore_all(self, resolver=None) -> List[str]:
        """Re-hydrate every checkpointed session found on disk.

        Each entry goes through :meth:`restore` under its directory name.
        Restored sessions start clean (not dirty) — nothing changed since
        their checkpoint was written.

        A corrupt or version-mismatched checkpoint must not keep the
        whole server (and every healthy session) from starting: failed
        entries are skipped, logged, and reported in
        :attr:`restore_failures` (``[{"name", "error"}, ...]``) — their
        on-disk state is left untouched for inspection.  A session whose
        current generation failed verification but whose previous one
        restored is reported in :attr:`restore_fallbacks`.
        """
        self.restore_failures = []
        self.restore_fallbacks = []
        if self.checkpoint_root is None or not self.checkpoint_root.exists():
            return []
        restored = []
        for entry in sorted(self.checkpoint_root.iterdir()):
            if not has_checkpoint(entry):
                continue
            try:
                restored.append(self.restore(entry, entry.name, resolver).name)
            except Exception as error:  # noqa: BLE001 — isolate bad entries
                logger.warning(
                    "skipping unrestorable checkpoint %s: %s", entry, error
                )
                self.restore_failures.append(
                    {"name": entry.name, "error": f"{type(error).__name__}: {error}"}
                )
        return restored

    def restore(
        self, directory: str | Path, name: str, resolver=None
    ) -> ManagedSession:
        """Restore one session checkpoint and host it under ``name``.

        The blocker is rebuilt from the spec stored in the checkpoint
        (:func:`~repro.service.protocol.build_blocker`), and so is the
        feature space of a session created from a generated dataset;
        DSL of any other session resolves through ``resolver``.
        """
        from ..data.datasets import load_dataset
        from ..learning.feature_space import FeatureSpace

        checkpoint = open_checkpoint(directory)
        meta = checkpoint.session
        if meta is None:
            raise StateError(f"{directory} holds a saved state, not a session")
        blocker = build_blocker(meta.get("blocker_spec"))
        extra = meta.get("extra") or {}
        dataset = extra.get("dataset")
        space = None
        if dataset is not None:
            space = FeatureSpace.build(load_dataset(**dataset))
            resolver = space.resolver()
        streaming = load_session(checkpoint, blocker, resolver=resolver)
        if extra.get("observability"):
            from ..observability import Observability

            observability = Observability(
                enabled=True, profile=bool(extra.get("profile"))
            )
            if extra.get("drift_every"):
                observability.attach_drift_monitor(
                    every=int(extra["drift_every"])
                )
            streaming.session.observability = observability
        managed = self.add(
            name, streaming, blocker_spec=meta.get("blocker_spec"),
            space=space, dataset=dataset,
        )
        managed.dirty = False
        if checkpoint.fallback is not None:
            self.restore_fallbacks.append(
                {
                    "name": name,
                    "generation": checkpoint.generation,
                    "error": checkpoint.fallback,
                }
            )
        return managed
