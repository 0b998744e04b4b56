"""Tests for the streaming subsystem (repro.streaming).

The load-bearing property: after any sequence of ``ingest`` calls, the
wrapped session's labels, attribution, and memo contents are identical —
at the pair-id level — to blocking and matching the post-delta tables
from scratch.  That equivalence is checked across every dataset
generator, across every registry blocker, and across a rule edit applied
after a batch.
"""

import numpy as np
import pytest

from repro import DebugSession, TightenPredicate
from repro.blocking import BLOCKER_REGISTRY, CartesianBlocker
from repro.data import CandidatePair, Record, Table
from repro.data.datasets import dataset_names, load_dataset
from repro.errors import StreamingError
from repro.learning.workload import (
    BLOCKING_ATTRIBUTES,
    build_workload,
    default_blocker,
)
from repro.similarity.tokenizers import Tokenizer
from repro.streaming import (
    BatchResult,
    Delta,
    DeltaBatch,
    StreamingSession,
    apply_delta,
    validate_batch,
)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def _snapshot(candidates, state):
    """State contents keyed by pair id (order-independent comparison)."""
    pairs = candidates.id_pairs()
    labels = {pid: bool(state.labels[i]) for i, pid in enumerate(pairs)}
    attribution = {}
    for i, pid in enumerate(pairs):
        rule_index = int(state.attribution[i])
        attribution[pid] = (
            None if rule_index < 0 else state.function.rules[rule_index].name
        )
    memo = {
        (pairs[pair_index], feature): value
        for pair_index, feature, value in state.memo.items()
    }
    return labels, attribution, memo


def _assert_equivalent(streaming, blocker_factory):
    """streaming's state == from-scratch block+match of its live tables."""
    reference_candidates = blocker_factory().block(
        streaming.table_a, streaming.table_b
    )
    # ``ordering="original"``: the streaming session's function is already
    # ordered; re-estimating would legitimately reorder rules and change
    # attribution without changing semantics.
    reference = DebugSession(
        reference_candidates, streaming.function, ordering="original"
    )
    reference.run()
    got = _snapshot(streaming.candidates, streaming.state)
    want = _snapshot(reference.candidates, reference.state)
    assert got[0] == want[0], "labels differ from from-scratch match"
    assert got[1] == want[1], "attribution differs from from-scratch match"
    assert got[2] == want[2], "memo contents differ from from-scratch match"
    streaming.state.check_soundness()


def _tiny_tables():
    table_a = Table("A", ("title", "author"))
    table_a.add(Record("a1", {"title": "red apple pie", "author": "kim"}))
    table_a.add(Record("a2", {"title": "blue sky atlas", "author": "lee"}))
    table_b = Table("B", ("title", "author"))
    table_b.add(Record("b1", {"title": "red apple pie", "author": "kim"}))
    return table_a, table_b


# ----------------------------------------------------------------------
# Delta model
# ----------------------------------------------------------------------

class TestDeltaValidation:
    def test_bad_op(self):
        with pytest.raises(StreamingError, match="op must be one of"):
            Delta("upsert", "a", "x1", {"title": "t"})

    def test_bad_side(self):
        with pytest.raises(StreamingError, match="side must be"):
            Delta("insert", "left", "x1", {"title": "t"})

    def test_empty_record_id(self):
        with pytest.raises(StreamingError, match="record_id"):
            Delta("delete", "a", "")

    def test_delete_with_values_rejected(self):
        with pytest.raises(StreamingError, match="must not carry values"):
            Delta("delete", "a", "x1", {"title": "t"})

    def test_insert_without_values_rejected(self):
        with pytest.raises(StreamingError, match="needs an attribute mapping"):
            Delta("insert", "a", "x1")

    def test_update_without_values_rejected(self):
        with pytest.raises(StreamingError, match="at least one attribute"):
            Delta("update", "a", "x1", {})

    def test_convenience_constructors(self):
        insert = Delta.insert("a", "x1", title="t")
        update = Delta.update("b", "x2", title="u")
        delete = Delta.delete("a", "x3")
        assert (insert.op, update.op, delete.op) == (
            "insert", "update", "delete",
        )
        assert insert.values == {"title": "t"}
        assert delete.values is None

    def test_batch_rejects_non_deltas(self):
        with pytest.raises(StreamingError, match="takes Delta objects"):
            DeltaBatch(["not a delta"])

    def test_batch_touched_records(self):
        batch = DeltaBatch([
            Delta.update("a", "a1", title="x"),
            Delta.delete("b", "b1"),
            Delta.insert("a", "a9", title="y"),
        ])
        assert batch.touched_records() == ({"a1", "a9"}, {"b1"})
        assert len(batch) == 3


class TestValidateBatch:
    def test_valid_sequence_is_accepted_without_mutation(self):
        table_a, table_b = _tiny_tables()
        validate_batch(table_a, table_b, DeltaBatch([
            Delta.insert("a", "a9", title="brand new"),
            Delta.update("a", "a9", author="zed"),
            Delta.delete("a", "a9"),
            Delta.delete("b", "b1"),
        ]))
        assert "a9" not in table_a
        assert "b1" in table_b

    def test_delete_then_reinsert_tracks_liveness(self):
        table_a, table_b = _tiny_tables()
        validate_batch(table_a, table_b, DeltaBatch([
            Delta.delete("b", "b1"),
            Delta.insert("b", "b1", title="back again"),
            Delta.update("b", "b1", author="new"),
        ]))
        with pytest.raises(StreamingError, match="no such record"):
            validate_batch(table_a, table_b, DeltaBatch([
                Delta.delete("b", "b1"),
                Delta.insert("b", "b1", title="back again"),
                Delta.delete("b", "b1"),
                Delta.update("b", "b1", author="gone"),
            ]))
        assert table_b.get("b1").get("title") == "red apple pie"

    def test_duplicate_insert_within_batch_rejected(self):
        table_a, table_b = _tiny_tables()
        with pytest.raises(StreamingError, match="already in table"):
            validate_batch(table_a, table_b, DeltaBatch([
                Delta.insert("b", "b9", title="first"),
                Delta.insert("b", "b9", title="second"),
            ]))

    def test_update_after_delete_rejected(self):
        table_a, table_b = _tiny_tables()
        with pytest.raises(StreamingError, match="no such record"):
            validate_batch(table_a, table_b, DeltaBatch([
                Delta.delete("a", "a1"),
                Delta.update("a", "a1", title="ghost"),
            ]))
        assert "a1" in table_a  # untouched despite the valid first delta

    def test_schema_violation_rejected(self):
        table_a, table_b = _tiny_tables()
        with pytest.raises(StreamingError, match="outside the schema"):
            validate_batch(table_a, table_b, DeltaBatch([
                Delta.insert("a", "a9", title="ok", price=3),
            ]))
        with pytest.raises(StreamingError, match="outside the schema"):
            validate_batch(table_a, table_b, DeltaBatch([
                Delta.update("a", "a1", bogus="nope"),
            ]))

    def test_error_names_batch_position(self):
        table_a, table_b = _tiny_tables()
        with pytest.raises(StreamingError, match=r"delta 2/3"):
            validate_batch(table_a, table_b, DeltaBatch([
                Delta.update("a", "a1", title="fine"),
                Delta.delete("b", "no-such"),
                Delta.update("a", "a2", title="never reached"),
            ]))


class TestApplyDelta:
    def test_insert_adds_record(self):
        table_a, table_b = _tiny_tables()
        applied = apply_delta(
            table_a, table_b, Delta.insert("b", "b2", title="new book")
        )
        assert "b2" in table_b
        assert applied.record.get("title") == "new book"
        assert applied.previous is None

    def test_insert_duplicate_rejected(self):
        table_a, table_b = _tiny_tables()
        with pytest.raises(StreamingError, match="already in table"):
            apply_delta(table_a, table_b, Delta.insert("a", "a1", title="t"))
        assert table_a.get("a1").get("title") == "red apple pie"

    def test_update_merges_partial_values(self):
        table_a, table_b = _tiny_tables()
        applied = apply_delta(
            table_a, table_b, Delta.update("a", "a1", author="po")
        )
        merged = table_a.get("a1")
        assert merged.get("author") == "po"
        assert merged.get("title") == "red apple pie"  # untouched attr kept
        assert applied.previous.get("author") == "kim"

    def test_update_missing_rejected(self):
        table_a, table_b = _tiny_tables()
        with pytest.raises(StreamingError, match="no such record"):
            apply_delta(table_a, table_b, Delta.update("b", "zz", title="t"))

    def test_delete_removes_and_returns_previous(self):
        table_a, table_b = _tiny_tables()
        applied = apply_delta(table_a, table_b, Delta.delete("a", "a2"))
        assert "a2" not in table_a
        assert applied.previous.get("title") == "blue sky atlas"
        assert applied.record is None

    def test_delete_missing_rejected(self):
        table_a, table_b = _tiny_tables()
        with pytest.raises(StreamingError, match="no such record"):
            apply_delta(table_a, table_b, Delta.delete("a", "zz"))


# ----------------------------------------------------------------------
# StreamingSession end-to-end
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def books_function():
    """One learned function reused across tests (forest training is the
    expensive part; the function applies to any candidate set)."""
    return build_workload("books", seed=7, scale=0.2, max_rules=10).function


def _books_streaming(books_function, **kwargs):
    dataset = load_dataset("books", seed=7, scale=0.2)
    streaming = StreamingSession(
        dataset.table_a,
        dataset.table_b,
        default_blocker("books"),
        books_function,
        gold=dataset.gold,
        **kwargs,
    )
    streaming.run()
    return streaming


@pytest.fixture()
def streaming(books_function):
    return _books_streaming(books_function)


class TestStreamingEquivalence:
    def test_update_blocking_attribute(self, streaming):
        record_id = streaming.table_a[0].record_id
        result = streaming.ingest(
            Delta.update("a", record_id, title="completely different words")
        )
        assert result.stats.deltas_applied == 1
        _assert_equivalent(streaming, lambda: default_blocker("books"))

    def test_update_non_blocking_attribute(self, streaming):
        """Pairs survive but their feature values are stale."""
        record_id = streaming.table_a[0].record_id
        result = streaming.ingest(
            Delta.update("a", record_id, author="someone else entirely")
        )
        assert result.stats.pairs_gained == 0
        assert result.stats.pairs_lost == 0
        assert result.stats.pairs_invalidated > 0
        _assert_equivalent(streaming, lambda: default_blocker("books"))

    def test_insert(self, streaming):
        clone = streaming.table_b[0].as_dict()
        result = streaming.ingest(Delta.insert("b", "fresh99", **clone))
        assert result.stats.pairs_gained > 0
        _assert_equivalent(streaming, lambda: default_blocker("books"))

    def test_delete(self, streaming):
        record_id = streaming.table_b[0].record_id
        incident = streaming.candidates.indices_for_record("b", record_id)
        result = streaming.ingest(Delta.delete("b", record_id))
        assert len(result.lost) == len(incident)
        _assert_equivalent(streaming, lambda: default_blocker("books"))

    def test_mixed_batch(self, streaming):
        clone = streaming.table_a[1].as_dict()
        batch = DeltaBatch([
            Delta.update(
                "a", streaming.table_a[0].record_id, title="shuffled tokens"
            ),
            Delta.insert("a", "fresh42", **clone),
            Delta.delete("b", streaming.table_b[2].record_id),
        ])
        result = streaming.ingest(batch)
        assert result.stats.deltas_applied == 3
        _assert_equivalent(streaming, lambda: default_blocker("books"))

    def test_chained_batches(self, streaming):
        streaming.ingest(
            Delta.update("a", streaming.table_a[0].record_id, title="first")
        )
        streaming.ingest(Delta.delete("b", streaming.table_b[0].record_id))
        clone = streaming.table_b[1].as_dict()
        streaming.ingest(Delta.insert("b", "late1", **clone))
        assert len(streaming.batch_history) == 3
        _assert_equivalent(streaming, lambda: default_blocker("books"))

    def test_rule_edit_after_batch_stays_sound(self, streaming):
        """Algorithms 7-10 applied post-delta behave as on a fresh run."""
        streaming.ingest(
            Delta.update(
                "a", streaming.table_a[0].record_id, author="renamed"
            )
        )
        # Rule order depends on measured feature costs, so pick any
        # predicate that *can* tighten rather than trusting rules[0]
        # (a threshold-1.0 predicate would reject the change).
        rule, predicate = next(
            (r, p)
            for r in streaming.function.rules
            for p in r.predicates
            if p.threshold + 0.05 <= 1.0
        )
        change = TightenPredicate(
            rule.name, predicate.slot, predicate.threshold + 0.05
        )
        streaming.apply(change)
        streaming.state.check_soundness()
        # Reference: from-scratch match of the post-delta tables, then the
        # same edit — labels must agree.
        reference = DebugSession(
            default_blocker("books").block(
                streaming.table_a, streaming.table_b
            ),
            streaming.function.copy() if hasattr(streaming.function, "copy")
            else streaming.function,
            ordering="original",
        )
        reference.run()
        got = _snapshot(streaming.candidates, streaming.state)
        want = _snapshot(reference.candidates, reference.state)
        assert got[0] == want[0]

    def test_empty_batch_is_noop(self, streaming):
        before = _snapshot(streaming.candidates, streaming.state)
        result = streaming.ingest(DeltaBatch())
        assert result.stats.deltas_applied == 0
        assert result.affected == 0
        assert not result.gained and not result.lost
        assert _snapshot(streaming.candidates, streaming.state) == before

    def test_failed_delta_leaves_tables_untouched(self, streaming):
        n_before = len(streaming.table_a)
        with pytest.raises(StreamingError):
            streaming.ingest(Delta.update("a", "no-such-id", title="x"))
        assert len(streaming.table_a) == n_before


class TestBatchAtomicity:
    """A batch that cannot apply in full must apply not at all."""

    def test_invalid_tail_rejects_whole_batch(self, streaming):
        before = _snapshot(streaming.candidates, streaming.state)
        record_id = streaming.table_a[0].record_id
        old_title = streaming.table_a.get(record_id).get("title")
        with pytest.raises(StreamingError, match="no deltas were applied"):
            streaming.ingest(DeltaBatch([
                Delta.update("a", record_id, title="poisoned batch"),
                Delta.delete("b", "no-such-id"),
            ]))
        # The valid head of the batch must not have leaked through.
        assert streaming.table_a.get(record_id).get("title") == old_title
        assert _snapshot(streaming.candidates, streaming.state) == before
        assert not streaming.batch_history
        # The session remains live and exact after the rejection.
        streaming.ingest(Delta.update("a", record_id, title="clean update"))
        _assert_equivalent(streaming, lambda: default_blocker("books"))

    def test_midbatch_failure_rolls_back_tables_and_blocker(self, streaming):
        before = _snapshot(streaming.candidates, streaming.state)
        a_id = streaming.table_a[0].record_id
        b_id = streaming.table_b[0].record_id
        old_title = streaming.table_a.get(a_id).get("title")
        calls = {"n": 0}

        def flaky(table_a, table_b, applied):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("blocker exploded mid-chain")
            return type(streaming.blocker).pairs_for_delta(
                streaming.blocker, table_a, table_b, applied
            )

        streaming.blocker.pairs_for_delta = flaky
        try:
            with pytest.raises(RuntimeError, match="mid-chain"):
                streaming.ingest(DeltaBatch([
                    Delta.update("a", a_id, title="first applies"),
                    Delta.update("b", b_id, title="second explodes"),
                ]))
        finally:
            del streaming.blocker.pairs_for_delta
        assert calls["n"] == 2
        assert streaming.table_a.get(a_id).get("title") == old_title
        assert _snapshot(streaming.candidates, streaming.state) == before
        # The blocker's delta index was restored too: a later ingest still
        # matches a from-scratch block+match of the live tables.
        streaming.ingest(Delta.update("a", a_id, title="after rollback"))
        _assert_equivalent(streaming, lambda: default_blocker("books"))

    def test_rematch_failure_rolls_back_whole_batch(self, streaming):
        """A failure after the blocker advanced (here: the re-match) must
        roll back tables, blocker, and token caches, not just the deltas."""
        before = _snapshot(streaming.candidates, streaming.state)
        tables_before = (
            streaming.table_a.snapshot(), streaming.table_b.snapshot()
        )
        a_id = streaming.table_a[0].record_id
        old_title = streaming.table_a.get(a_id).get("title")
        rematch = streaming._rematch

        def exploding(state, affected, stats):
            # Do the work first, so the token cache holds post-delta sets.
            rematch(state, affected, stats)
            raise RuntimeError("re-match exploded")

        streaming._rematch = exploding
        try:
            with pytest.raises(RuntimeError, match="re-match exploded"):
                streaming.ingest(DeltaBatch([
                    # keeps a_id's pairs, so the re-match caches new values
                    Delta.update(
                        "a", a_id, title=f"{old_title} zebra",
                        author="nobody", year="1800", pages="3",
                    ),
                    Delta.delete("b", streaming.table_b[1].record_id),
                ]))
        finally:
            del streaming._rematch
        assert (
            streaming.table_a.snapshot(), streaming.table_b.snapshot()
        ) == tables_before
        assert _snapshot(streaming.candidates, streaming.state) == before
        assert not streaming.batch_history
        assert streaming.blocker.current_pairs() == set(
            streaming.candidates.id_pairs()
        )
        # A B-side copy of a_id pairs with it without touching it: the
        # re-match must see a_id's restored values, not the ones cached
        # by the failed batch, and the rebuilt blocker must find the pair.
        values = streaming.table_a.get(a_id).as_dict()
        result = streaming.ingest(Delta.insert("b", "after-rollback", **values))
        assert "after-rollback" in {b_id for _, b_id in result.gained}
        _assert_equivalent(streaming, lambda: default_blocker("books"))


class TestBatchResult:
    def test_counters_and_summary(self, streaming):
        record_id = streaming.table_b[0].record_id
        result = streaming.ingest(Delta.delete("b", record_id))
        assert isinstance(result, BatchResult)
        assert result.stats.deltas_applied == 1
        assert result.stats.pairs_lost == len(result.lost)
        assert result.affected == len(result.affected_indices)
        assert "deltas=1" in result.summary()

    def test_pairs_matched_counts_only_this_batch(self, streaming):
        total_before = streaming.state.match_count()
        clone = streaming.table_b[0].as_dict()
        result = streaming.ingest(Delta.insert("b", "clone77", **clone))
        # A pure insert invalidates nothing, so the change in the global
        # match count is exactly the matches labeled among the new pairs.
        assert result.stats.pairs_invalidated == 0
        assert result.stats.pairs_matched <= result.affected
        assert result.stats.pairs_matched == result.match_count - total_before
        assert result.match_count == streaming.state.match_count()

    def test_delete_only_batch_reports_no_new_matches(self, streaming):
        record_id = streaming.table_b[0].record_id
        result = streaming.ingest(Delta.delete("b", record_id))
        # Nothing was re-matched, so the per-batch counter stays zero even
        # though the state still holds matches (the old bug reported the
        # full match count here, inflating total_batch_stats sums).
        assert result.affected == 0
        assert result.stats.pairs_matched == 0
        assert result.match_count == streaming.state.match_count()
        total = streaming.total_batch_stats()
        assert total.pairs_matched == 0

    def test_total_batch_stats_accumulates(self, streaming):
        streaming.ingest(
            Delta.update("a", streaming.table_a[0].record_id, author="x")
        )
        streaming.ingest(
            Delta.update("a", streaming.table_a[1].record_id, author="y")
        )
        total = streaming.total_batch_stats()
        assert total.deltas_applied == 2
        assert total.pairs_invalidated >= 2


class TestAdopt:
    def test_adopt_wraps_existing_session(self, books_function):
        dataset = load_dataset("books", seed=7, scale=0.2)
        blocker = default_blocker("books")
        session = DebugSession(
            blocker.block(dataset.table_a, dataset.table_b), books_function
        )
        session.run()
        streaming = StreamingSession.adopt(
            session, dataset.table_a, dataset.table_b, blocker
        )
        streaming.ingest(
            Delta.update("a", dataset.table_a[0].record_id, author="adopted")
        )
        _assert_equivalent(streaming, lambda: default_blocker("books"))

    def test_adopt_rejects_mismatched_blocker(self, books_function):
        dataset = load_dataset("books", seed=7, scale=0.2)
        blocker = default_blocker("books")
        session = DebugSession(
            blocker.block(dataset.table_a, dataset.table_b), books_function
        )
        session.run()
        with pytest.raises(StreamingError, match="does not reproduce"):
            StreamingSession.adopt(
                session,
                dataset.table_a,
                dataset.table_b,
                CartesianBlocker(),
            )


# ----------------------------------------------------------------------
# State surgery primitives
# ----------------------------------------------------------------------

class TestForgetPairs:
    def test_forget_resets_every_fact(self, streaming):
        state = streaming.state
        matched = state.matched_indices()
        assert matched, "fixture needs at least one matched pair"
        target = matched[0]
        state.forget_pairs([target])
        assert not state.labels[target]
        assert state.attribution[target] == -1
        assert all(
            pair_index != target for pair_index, _, _ in state.memo.items()
        )
        state.check_soundness()


# ----------------------------------------------------------------------
# Work per delta follows the delta, not the candidate set
# ----------------------------------------------------------------------

def test_single_delta_work_follows_the_delta(monkeypatch):
    """One plain update builds CandidatePair objects and tokenizes records
    in proportion to its incident pairs and records, never |C|.

    Counts work instead of timing it, so the check is deterministic.  A
    design that rebuilds the candidate set or re-blocks per delta
    constructs every pair (~7,000 here) and re-tokenizes every record
    (~890) on each ingest.
    """
    workload = build_workload("restaurants", seed=7, scale=0.3)
    dataset = workload.dataset
    streaming = StreamingSession(
        dataset.table_a,
        dataset.table_b,
        default_blocker("restaurants"),
        workload.function,
        gold=dataset.gold,
    )
    streaming.run()
    n_pairs = len(streaming.candidates)

    counts = {"pairs": 0, "tokenize": 0}
    init = CandidatePair.__init__
    tokenize_set = Tokenizer.tokenize_set

    def counting_init(self, *args):
        counts["pairs"] += 1
        init(self, *args)

    def counting_tokenize_set(self, value):
        counts["tokenize"] += 1
        return tokenize_set(self, value)

    monkeypatch.setattr(CandidatePair, "__init__", counting_init)
    monkeypatch.setattr(Tokenizer, "tokenize_set", counting_tokenize_set)
    for side, table in (("a", dataset.table_a), ("b", dataset.table_b)):
        record_id = max(
            (record.record_id for record in table),
            key=lambda rid: len(streaming.candidates.indices_for_record(side, rid)),
        )
        incident = len(streaming.candidates.indices_for_record(side, record_id))
        assert incident > 0
        counts.update(pairs=0, tokenize=0)
        result = streaming.ingest(Delta.update(side, record_id, phone="555-0199"))
        assert result.affected == incident
        assert counts["pairs"] <= 2 * incident, (side, counts, incident)
        assert counts["tokenize"] <= 2 * (incident + 1), (side, counts, incident)
        assert counts["pairs"] + counts["tokenize"] < n_pairs / 10
    _assert_equivalent(streaming, lambda: default_blocker("restaurants"))


# ----------------------------------------------------------------------
# Every dataset generator, every blocker
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(dataset_names()))
def test_every_dataset_generator_equivalence(name):
    workload = build_workload(name, seed=7, scale=0.08, max_rules=8)
    dataset = load_dataset(name, seed=7, scale=0.08)
    streaming = StreamingSession(
        dataset.table_a,
        dataset.table_b,
        default_blocker(name),
        workload.function,
        gold=dataset.gold,
    )
    streaming.run()
    attribute = BLOCKING_ATTRIBUTES[name]
    clone = dataset.table_a[0].as_dict()
    batch = DeltaBatch([
        Delta.update(
            "a",
            dataset.table_a[0].record_id,
            **{attribute: "totally different tokens"},
        ),
        Delta.insert("a", "streamed0", **clone),
        Delta.delete("b", dataset.table_b[-1].record_id),
    ])
    streaming.ingest(batch)
    _assert_equivalent(streaming, lambda: default_blocker(name))


@pytest.mark.parametrize("blocker_name", sorted(BLOCKER_REGISTRY))
def test_every_registry_blocker_equivalence(blocker_name, books_function):
    dataset = load_dataset("books", seed=7, scale=0.1)
    factory = BLOCKER_REGISTRY[blocker_name]
    streaming = StreamingSession(
        dataset.table_a,
        dataset.table_b,
        factory("title"),
        books_function,
    )
    streaming.run()
    clone = dataset.table_b[0].as_dict()
    batch = DeltaBatch([
        Delta.update(
            "a", dataset.table_a[0].record_id, title="rearranged title words"
        ),
        Delta.insert("b", "streamed0", **clone),
        Delta.delete("a", dataset.table_a[-1].record_id),
    ])
    streaming.ingest(batch)
    _assert_equivalent(streaming, lambda: factory("title"))
