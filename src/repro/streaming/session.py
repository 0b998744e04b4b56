"""Streaming session: live matching state under record-level data deltas.

The paper's debugging loop (§2, Figure 1) holds the *data* fixed and
iterates on the *rules*; :class:`StreamingSession` lifts that restriction.
It wraps a :class:`~repro.core.session.DebugSession` and keeps its
materialized :class:`~repro.core.state.MatchState` — memo, bitmaps,
labels, attribution — equivalent to a from-scratch block+match of the
current tables while records stream in, change, and disappear.

Applying a :class:`~repro.streaming.deltas.DeltaBatch` does, per batch,
work that follows the delta rather than the candidate set:

1. apply each delta to the live tables and ask the blocker for the exact
   candidate-pair delta (:meth:`~repro.blocking.base.Blocker.pairs_for_delta`),
   folding each into the batch's net gained/lost pairs;
2. derive the new candidate set and state copy-on-write
   (:meth:`~repro.data.pairs.CandidateSet.with_delta`, then
   :meth:`~repro.core.state.MatchState.with_rows`): lost pairs are
   swap-removed — the tail's rows fill their holes — and net-new pairs are
   appended, every surviving fact following its row;
3. forget all facts about surviving pairs incident to touched records
   (:meth:`~repro.core.state.MatchState.forget_pairs` — their feature
   values are stale);
4. re-match only the *affected* pairs — net-new plus invalidated — with
   the same DM+EE kernel a full run uses, recording into the state.

The new candidates and state replace the session's only after step 4, so
the pre-batch objects are never mutated.  If any step raises, the tables
are restored, the blocker is rebuilt by re-blocking them, and the touched
records leave the token caches; only that failure path costs O(pairs).

Soundness of the rule-editing algorithms (7–10) is preserved because the
state transformation only ever *removes* facts (forget) or *moves* them
(the row delta), never asserts one — and the re-match records facts
through the identical observation path as the initial run.  A rule edit applied after
any number of batches therefore sees a state indistinguishable from one
built by blocking and matching the current tables from scratch.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..blocking.base import Blocker
from ..core.matchers import MatchResult
from ..core.session import DebugSession
from ..core.stats import MatchStats
from ..data.pairs import CandidateSet, PairId
from ..data.table import Table
from ..errors import StreamingError
from ..observability import maybe_span, record_batch_result
from .deltas import Delta, DeltaBatch, apply_delta, validate_batch


@dataclass
class BatchResult:
    """Outcome of one :meth:`StreamingSession.ingest` call."""

    #: per-batch counters (deltas_applied, pairs_gained/lost/invalidated,
    #: pairs_evaluated, feature computations/hits, elapsed_seconds;
    #: ``pairs_matched`` counts affected pairs labeled as matches by
    #: *this* batch, so summing batches never double-counts).
    stats: MatchStats
    #: net-new candidate pairs (present after, absent before the batch).
    gained: Tuple[PairId, ...]
    #: net-lost candidate pairs (present before, absent after the batch).
    lost: Tuple[PairId, ...]
    #: indices (post-batch) of the pairs that were re-matched.
    affected_indices: Tuple[int, ...]
    #: total matches in the state after this batch (a snapshot, not a
    #: counter — kept out of :attr:`stats` so batch sums stay additive).
    match_count: int = 0

    @property
    def affected(self) -> int:
        return len(self.affected_indices)

    def summary(self) -> str:
        return self.stats.delta_summary()


class StreamingSession:
    """A debugging session whose underlying tables accept deltas.

    Owns the live tables, the (delta-capable) blocker, and a wrapped
    :class:`~repro.core.session.DebugSession`.  Rule edits go through
    :meth:`apply` exactly as on a plain session; data edits go through
    :meth:`ingest`.  The two interleave freely.
    """

    def __init__(
        self,
        table_a: Table,
        table_b: Table,
        blocker: Blocker,
        function,
        gold: Optional[Set[PairId]] = None,
        **session_kwargs,
    ):
        self.table_a = table_a
        self.table_b = table_b
        self.blocker = blocker
        candidates = blocker.block(table_a, table_b)
        self.session = DebugSession(candidates, function, gold=gold, **session_kwargs)
        self.batch_history: List[BatchResult] = []
        self._restored_run_stats: Optional[MatchStats] = None
        self._restored_batches = 0
        # total_batch_stats(), folded at each ingest: saves must not pay
        # for the whole batch history.
        self._batch_total = MatchStats()

    @classmethod
    def adopt(
        cls,
        session: DebugSession,
        table_a: Table,
        table_b: Table,
        blocker: Blocker,
    ) -> "StreamingSession":
        """Wrap an existing (already run) session without re-matching.

        Re-blocks once to warm the blocker's delta index and verifies the
        blocker reproduces the session's candidate set pair for pair —
        adopting a session under a *different* blocker would silently
        desynchronize state from blocking, so that raises
        :class:`~repro.errors.StreamingError`.
        """
        produced = set(blocker.index_pairs(table_a, table_b))
        candidates = session.candidates
        # Equal sizes and produced <= candidates: equal sets (a candidate
        # set holds no duplicates).
        if len(produced) != len(candidates) or not all(
            map(candidates.__contains__, produced)
        ):
            differ = len(produced ^ set(candidates.id_pairs()))
            raise StreamingError(
                f"blocker {blocker.name!r} does not reproduce the session's "
                f"candidate set ({differ} pairs differ); "
                f"adopt with the blocker that built the session"
            )
        streaming = cls.__new__(cls)
        streaming.table_a = table_a
        streaming.table_b = table_b
        streaming.blocker = blocker
        streaming.session = session
        streaming.batch_history = []
        streaming._restored_run_stats = None
        streaming._restored_batches = 0
        streaming._batch_total = MatchStats()
        return streaming

    # ------------------------------------------------------------------
    # Delegation to the wrapped session (rule-side operations)
    # ------------------------------------------------------------------

    def run(self) -> MatchResult:
        return self.session.run()

    def apply(self, change):
        """Apply one rule edit incrementally (Algorithms 7-10)."""
        return self.session.apply(change)

    def metrics(self):
        return self.session.metrics()

    def explain(self, a_id: str, b_id: str):
        return self.session.explain(a_id, b_id)

    def refine(self, config=None, **refine_kwargs):
        """Run the automated refinement search (see
        :meth:`repro.core.session.DebugSession.refine`)."""
        return self.session.refine(config=config, **refine_kwargs)

    @property
    def candidates(self) -> CandidateSet:
        return self.session.candidates

    @property
    def state(self):
        return self.session.state

    @property
    def function(self):
        return self.session.function

    @property
    def observability(self):
        """The wrapped session's Observability (None = not collecting)."""
        return self.session.observability

    # ------------------------------------------------------------------
    # Streaming ingestion
    # ------------------------------------------------------------------

    def ingest(
        self, batch: Union[DeltaBatch, Sequence[Delta], Delta]
    ) -> BatchResult:
        """Apply a delta batch atomically, re-matching only affected pairs.

        The whole batch is validated against the live tables before
        anything mutates (:func:`~repro.streaming.deltas.validate_batch`),
        so a batch that cannot apply in full raises
        :class:`~repro.errors.StreamingError` with tables, blocker index,
        and matching state all unchanged.  Should any later step still
        fail (a blocker bug, a raising feature in the re-match), the
        tables are restored and the blocker re-blocked before the
        exception propagates; candidates and state were never replaced —
        observers never see half a batch.
        """
        if isinstance(batch, Delta):
            batch = DeltaBatch([batch])
        elif not isinstance(batch, DeltaBatch):
            batch = DeltaBatch(batch)
        state = self.session._require_state()
        observability = self.observability
        stats = MatchStats()
        started = time.perf_counter()

        if len(batch) == 0:
            stats.elapsed_seconds = time.perf_counter() - started
            result = BatchResult(
                stats, (), (), (), match_count=state.match_count()
            )
            self._record(result)
            if observability is not None:
                record_batch_result(observability.metrics, result)
            return result

        with maybe_span(observability, "ingest", deltas=len(batch)):
            with maybe_span(observability, "validate"):
                validate_batch(self.table_a, self.table_b, batch)
            touched_a, touched_b = batch.touched_records()
            saved_a = self.table_a.snapshot()
            saved_b = self.table_b.snapshot()
            try:
                # 1. Apply deltas to the tables, folding each pair delta into
                #    the batch's net change (lost then regained nets to nothing).
                gained: Set[PairId] = set()
                lost: Set[PairId] = set()
                with maybe_span(observability, "apply_deltas"):
                    for delta in batch:
                        applied = apply_delta(self.table_a, self.table_b, delta)
                        pair_delta = self.blocker.pairs_for_delta(
                            self.table_a, self.table_b, applied
                        )
                        for pair_id in pair_delta.lost:
                            if pair_id in gained:
                                gained.discard(pair_id)
                            else:
                                lost.add(pair_id)
                        for pair_id in pair_delta.gained:
                            if pair_id in lost:
                                lost.discard(pair_id)
                            else:
                                gained.add(pair_id)
                        stats.deltas_applied += 1
                        stats.pairs_gained += len(pair_delta.gained)
                        stats.pairs_lost += len(pair_delta.lost)

                # 2. Copy-on-write candidates and state: swap-remove the lost
                #    rows, append the gained ones; surviving facts follow.
                net_new = sorted(gained)
                with maybe_span(observability, "remap"):
                    new_candidates, rows = state.candidates.with_delta(
                        lost, net_new, refresh_a=touched_a, refresh_b=touched_b
                    )
                    new_state = state.with_rows(new_candidates, rows)

                # 3. Invalidate surviving pairs whose records the batch touched.
                with maybe_span(observability, "invalidate"):
                    stale: Set[int] = set()
                    for side, record_ids in (("a", touched_a), ("b", touched_b)):
                        for record_id in record_ids:
                            stale.update(
                                new_candidates.indices_for_record(side, record_id)
                            )
                    invalidated = sorted(
                        index for index in stale if index < rows.kept
                    )
                    new_state.forget_pairs(invalidated)
                    stats.pairs_invalidated = len(invalidated)
                    # Token caches key on record ids, so edited records must
                    # be evicted too — the re-match would otherwise score
                    # against pre-delta token sets.
                    kernels = self.session.kernels
                    if kernels is not None:
                        kernels.invalidate_records("a", touched_a)
                        kernels.invalidate_records("b", touched_b)

                # 4. Re-match exactly the affected pairs (net-new + invalidated).
                affected = invalidated + list(range(rows.kept, rows.size))
                with maybe_span(observability, "rematch", affected=len(affected)):
                    self._rematch(new_state, affected, stats)
            except BaseException:
                self._roll_back(saved_a, saved_b, touched_a, touched_b)
                raise

            self.session.candidates = new_candidates
            self.session.state = new_state
            if affected:
                stats.pairs_matched = int(
                    new_state.labels[np.asarray(affected, dtype=np.int64)].sum()
                )
            stats.elapsed_seconds = time.perf_counter() - started
            result = BatchResult(
                stats=stats,
                gained=tuple(net_new),
                lost=tuple(sorted(lost)),
                affected_indices=tuple(affected),
                match_count=new_state.match_count(),
            )
            self._record(result)
            if observability is not None:
                record_batch_result(observability.metrics, result)
                monitor = getattr(observability, "drift_monitor", None)
                if monitor is not None:
                    monitor.after_ingest(self)
            return result

    def _roll_back(self, saved_a, saved_b, touched_a, touched_b) -> None:
        """Undo a failed batch: restore the tables, re-block them to rebuild
        the blocker's index, and evict the touched records' token sets,
        which a partial re-match may have cached from post-delta values."""
        self.table_a.restore(saved_a)
        self.table_b.restore(saved_b)
        self.blocker.index_pairs(self.table_a, self.table_b)
        kernels = self.session.kernels
        if kernels is not None:
            kernels.invalidate_records("a", touched_a)
            kernels.invalidate_records("b", touched_b)

    def _rematch(self, state, affected: Sequence[int], stats: MatchStats) -> None:
        """Re-match the affected pairs in process, through the session's
        engine (a columnar one runs under the plan the state carried
        across the ingest), recording into the state exactly as a full
        run would."""
        observability = self.observability
        evaluator = state.evaluator(
            stats,
            self.session._engine_for(state),
            profiler=observability.profiler if observability is not None else None,
        )
        rows = np.asarray(affected, dtype=np.int64)
        state.labels[rows] = evaluator.match_rows(rows)
        if observability is not None:
            evaluator.report_metrics(observability.metrics)
        stats.pairs_evaluated += len(affected)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def seed_restored(
        self,
        run_stats: Optional[MatchStats] = None,
        batch_stats: Optional[MatchStats] = None,
        batches: int = 0,
    ) -> None:
        """Attach accounting restored from a checkpoint.

        A restored process has no :class:`~repro.core.matchers.MatchResult`
        objects to point at, but the *numbers* survive: the initial run's
        stats come back through :meth:`run_stats`, and pre-restart batch
        totals fold into :meth:`total_batch_stats` /
        :attr:`batches_ingested` so accounting is continuous across
        restarts.  Called by :func:`repro.core.persistence.load_session`.
        """
        self._restored_run_stats = run_stats
        self._restored_batches = batches
        self._batch_total = batch_stats or MatchStats()
        for result in self.batch_history:
            self._batch_total = self._batch_total.merged_with(result.stats)

    def _record(self, result: BatchResult) -> None:
        self.batch_history.append(result)
        self._batch_total = self._batch_total.merged_with(result.stats)

    def run_stats(self) -> Optional[MatchStats]:
        """Stats of the initial full run, surviving checkpoint restores."""
        if self.session.last_run is not None:
            return self.session.last_run.stats
        return self._restored_run_stats

    @property
    def batches_ingested(self) -> int:
        """Batches applied over the session's whole life, restarts included."""
        return self._restored_batches + len(self.batch_history)

    def total_batch_stats(self) -> MatchStats:
        """Sum of every ingested batch's counters (sequential semantics),
        including batches ingested before a checkpoint restore.

        A copy of the running total each ingest folds its batch into (in
        history order, so the floats equal a re-merge of the history).
        """
        return copy.deepcopy(self._batch_total)

    def __repr__(self) -> str:
        return (
            f"StreamingSession({len(self.table_a)}x{len(self.table_b)} "
            f"records, {len(self.session.candidates)} pairs, "
            f"{len(self.batch_history)} batches ingested)"
        )
