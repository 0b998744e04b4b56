"""Property-based tests for delta-aware blocking.

The delta protocol has one exact specification: for any blocker and any
record-level delta, ``pairs_for_delta`` must return precisely the
symmetric difference between a full ``block()`` of the pre-delta tables
and a full ``block()`` of the post-delta tables.  Both the inverted-index
fast paths and the re-block fallback claim this, so we check every
blocker in the registry against random tables and random delta chains,
and the stop-token overlap blocker against chains built to flip its stop
set both ways.  The copy-on-write row delta streaming ingest applies to
candidates and state has its own property at the end.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import BLOCKER_REGISTRY
from repro.core.memo import ArrayMemo, HashMemo
from repro.core.parser import parse_function, registry_resolver
from repro.core.state import MatchState
from repro.data import CandidateSet, Record, Table
from repro.errors import BlockingError
from repro.learning.workload import default_blocker

token_strategy = st.sampled_from(["red", "blue", "apple", "pear", "x1", "x2"])
value_strategy = st.one_of(
    st.none(),
    st.lists(token_strategy, min_size=0, max_size=4).map(" ".join),
)


@st.composite
def tables_strategy(draw):
    table_a = Table("A", ("text",))
    table_b = Table("B", ("text",))
    for index in range(draw(st.integers(min_value=1, max_value=6))):
        table_a.add(Record(f"a{index}", {"text": draw(value_strategy)}))
    for index in range(draw(st.integers(min_value=1, max_value=6))):
        table_b.add(Record(f"b{index}", {"text": draw(value_strategy)}))
    return table_a, table_b


class _Delta:
    """Minimal delta-shaped object (op/side/record_id/record)."""

    def __init__(self, op, side, record_id, record=None):
        self.op = op
        self.side = side
        self.record_id = record_id
        self.record = record


@st.composite
def delta_strategy(draw, table_a, table_b):
    """One applicable random delta, given the current tables."""
    side = draw(st.sampled_from(["a", "b"]))
    table = table_a if side == "a" else table_b
    choices = ["insert"]
    if len(table) > 1:  # keep tables non-empty for the next chained delta
        choices += ["update", "delete"]
    elif len(table) == 1:
        choices += ["update"]
    op = draw(st.sampled_from(choices))
    if op == "insert":
        existing = {record.record_id for record in table}
        record_id = next(
            candidate
            for candidate in (f"{side}new{n}" for n in range(100))
            if candidate not in existing
        )
        record = Record(record_id, {"text": draw(value_strategy)})
    else:
        record_id = draw(
            st.sampled_from([record.record_id for record in table])
        )
        record = (
            None
            if op == "delete"
            else Record(record_id, {"text": draw(value_strategy)})
        )
    return _Delta(op, side, record_id, record)


def _apply_to_table(table, delta):
    if delta.op == "insert":
        table.add(delta.record)
    elif delta.op == "update":
        table.replace(delta.record)
    else:
        table.remove(delta.record_id)


@pytest.mark.parametrize("blocker_name", sorted(BLOCKER_REGISTRY))
@given(tables=tables_strategy(), data=st.data())
@settings(max_examples=50, deadline=None)
def test_delta_equals_symmetric_difference_of_full_blocks(
    blocker_name, tables, data
):
    """pairs_for_delta == block(post) Δ block(pre), chained over 3 deltas."""
    table_a, table_b = tables
    factory = BLOCKER_REGISTRY[blocker_name]
    blocker = factory("text")
    current = set(blocker.block(table_a, table_b).id_pairs())
    assert current == set(factory("text").block(table_a, table_b).id_pairs())
    for _ in range(3):
        delta = data.draw(delta_strategy(table_a, table_b))
        _apply_to_table(
            table_a if delta.side == "a" else table_b, delta
        )
        pair_delta = blocker.pairs_for_delta(table_a, table_b, delta)
        reference = set(factory("text").block(table_a, table_b).id_pairs())
        gained, lost = set(pair_delta.gained), set(pair_delta.lost)
        assert gained == reference - current, (
            f"{blocker_name}: wrong gained set after {delta.op} "
            f"{delta.side}:{delta.record_id}"
        )
        assert lost == current - reference, (
            f"{blocker_name}: wrong lost set after {delta.op} "
            f"{delta.side}:{delta.record_id}"
        )
        assert not (gained & lost)
        current = reference
        assert blocker.current_pairs() == current


@pytest.mark.parametrize("blocker_name", sorted(BLOCKER_REGISTRY))
def test_pairs_for_delta_requires_block_first(blocker_name):
    blocker = BLOCKER_REGISTRY[blocker_name]("text")
    table_a = Table("A", ("text",), [Record("a0", {"text": "red"})])
    table_b = Table("B", ("text",), [Record("b0", {"text": "red"})])
    delta = _Delta("insert", "a", "a1", Record("a1", {"text": "blue"}))
    with pytest.raises(BlockingError):
        blocker.pairs_for_delta(table_a, table_b, delta)


# ----------------------------------------------------------------------
# Stop-token overlap: flips of the stop set, in both directions
# ----------------------------------------------------------------------

STOP_FACTORY = BLOCKER_REGISTRY["overlap_stop_default"]
STOP_FRACTION = STOP_FACTORY("text").stop_fraction


def _stop_tokens(blocker, table_b):
    """The stop set of a from-scratch block: B tokens with df > cutoff."""
    frequency = Counter(
        token
        for record in table_b
        for token in blocker.tokenizer.tokenize_set(record.get("text"))
    )
    cutoff = STOP_FRACTION * len(table_b)
    return {token for token, count in frequency.items() if count > cutoff}


def test_registry_covers_the_default_stop_filter():
    assert STOP_FRACTION == default_blocker("restaurants").stop_fraction


@st.composite
def cutoff_tables_strategy(draw):
    """Tables where one B insert moves the cutoff ``0.15·|B|`` past an
    integer ``k`` while the token ``hot`` sits in exactly ``k`` B records —
    a stop token at ``|B|``, not at ``|B| + 1``.  ``a0`` blocks on ``hot``
    alone, so its pairs appear and vanish with the flips."""
    n_b = draw(st.sampled_from([6, 13]))  # 0.15·n_b: 0.9 / 1.95
    k = math.floor(STOP_FRACTION * (n_b + 1))  # 1.05 / 2.1 -> 1 / 2
    hot_rows = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_b - 1),
            min_size=k, max_size=k, unique=True,
        )
    )
    tokens = st.lists(token_strategy, min_size=0, max_size=3)
    table_b = Table("B", ("text",))
    for index in range(n_b):
        words = draw(tokens) + (["hot"] if index in hot_rows else [])
        table_b.add(Record(f"b{index}", {"text": " ".join(words)}))
    table_a = Table("A", ("text",))
    table_a.add(Record("a0", {"text": "hot"}))
    for index in range(1, draw(st.integers(min_value=1, max_value=5))):
        words = draw(tokens) + draw(st.sampled_from([[], ["hot"]]))
        table_a.add(Record(f"a{index}", {"text": " ".join(words)}))
    return table_a, table_b


@given(tables=cutoff_tables_strategy(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_stop_flips_match_full_blocks(tables, data):
    """The default stop filter under chained deltas that flip ``hot`` both
    ways — by the cutoff moving (B insert/delete) and by its df crossing
    the cutoff (B updates) — then a random tail; every step must equal
    block(post) Δ block(pre)."""
    table_a, table_b = tables
    blocker = STOP_FACTORY("text")
    current = set(blocker.block(table_a, table_b).id_pairs())
    cold = [
        record.record_id for record in table_b
        if "hot" not in blocker.tokenizer.tokenize_set(record.get("text"))
    ]
    spare = data.draw(st.sampled_from(cold))
    spare_text = table_b.get(spare).get("text")
    fresh = Record("bfresh", {"text": data.draw(value_strategy)})
    forced = [
        # (delta, hot is a stop token after it, the cutoff moved)
        (_Delta("insert", "b", "bfresh", fresh), False, True),
        (_Delta("update", "b", spare,
                Record(spare, {"text": f"{spare_text or ''} hot"})), True, False),
        (_Delta("update", "b", spare,
                Record(spare, {"text": spare_text})), False, False),
        (_Delta("delete", "b", "bfresh"), True, True),
    ]
    tail = [None] * data.draw(st.integers(min_value=0, max_value=4))
    for step in forced + tail:
        if step is None:
            delta = data.draw(delta_strategy(table_a, table_b))
        else:
            delta = step[0]
        stop_before = _stop_tokens(blocker, table_b)
        n_before = len(table_b)
        _apply_to_table(table_a if delta.side == "a" else table_b, delta)
        pair_delta = blocker.pairs_for_delta(table_a, table_b, delta)
        reference = set(STOP_FACTORY("text").block(table_a, table_b).id_pairs())
        assert set(pair_delta.gained) == reference - current, delta.op
        assert set(pair_delta.lost) == current - reference, delta.op
        if step is not None:
            _, hot_is_stop, cutoff_moved = step
            stop_after = _stop_tokens(blocker, table_b)
            assert ("hot" in stop_before) != hot_is_stop
            assert ("hot" in stop_after) == hot_is_stop
            assert (len(table_b) != n_before) == cutoff_moved
            # a0 shares only "hot": its pairs follow the flip although the
            # delta never touched a0.
            moved = pair_delta.lost if hot_is_stop else pair_delta.gained
            assert any(a_id == "a0" for a_id, _ in moved)
        current = reference
        assert blocker.current_pairs() == current


# ----------------------------------------------------------------------
# The copy-on-write row delta (CandidateSet.with_delta + with_rows)
# ----------------------------------------------------------------------

ROW_FUNCTION = "R1: jaccard_ws(text, text) >= 0.3; R2: jaro(text, text) >= 0.8"


@given(data=st.data(), backend=st.sampled_from(["array", "hash"]))
@settings(max_examples=60, deadline=None)
def test_row_delta_keeps_facts_with_their_pairs(data, backend):
    """A random (lost, gained, touched-records) delta: the new candidate
    set's lookups agree with each other, every surviving pair keeps its
    facts under its new row, gained pairs start empty, and the pre-batch
    candidate set and state are unchanged."""
    table_a = Table("A", ("text",))
    table_b = Table("B", ("text",))
    for index in range(data.draw(st.integers(min_value=1, max_value=5))):
        table_a.add(Record(f"a{index}", {"text": data.draw(value_strategy)}))
    for index in range(data.draw(st.integers(min_value=1, max_value=5))):
        table_b.add(Record(f"b{index}", {"text": data.draw(value_strategy)}))
    cross = [(a.record_id, b.record_id) for a in table_a for b in table_b]
    old_ids = data.draw(st.permutations(cross))
    old_ids = old_ids[: data.draw(st.integers(min_value=0, max_value=len(cross)))]
    candidates = CandidateSet.from_id_pairs(table_a, table_b, old_ids)

    function = parse_function(ROW_FUNCTION, registry_resolver())
    names = [feature.name for feature in function.features()]
    n = len(old_ids)
    memo = ArrayMemo(n, names) if backend == "array" else HashMemo(n, names)
    state = MatchState(function, candidates, memo)
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    state.labels = np.array(data.draw(flags), dtype=bool)
    state.attribution = np.where(state.labels, 0, -1).astype(np.int32)
    state._rule_matched["R1"] = state.labels.copy()
    for rule in function.rules:
        for predicate in rule.predicates:
            key = (rule.name, predicate.slot)
            state._predicate_false[key] = np.array(data.draw(flags), dtype=bool)
    for row in range(n):
        for name in names:
            if data.draw(st.booleans()):
                memo.put(row, name, float(row) + len(name) / 100.0)

    def facts(candidate_set, match_state):
        """Per pair id: (label, attribution, rule bits, predicate bits), and
        the memo keyed by (pair id, feature)."""
        pairs = [pair.pair_id for pair in candidate_set]
        rule_bits = [b for _, b in sorted(match_state._rule_matched.items())]
        slot_bits = [b for _, b in sorted(match_state._predicate_false.items())]
        rows = {
            pair_id: (
                bool(match_state.labels[i]),
                int(match_state.attribution[i]),
                tuple(bool(bits[i]) for bits in rule_bits),
                tuple(bool(bits[i]) for bits in slot_bits),
            )
            for i, pair_id in enumerate(pairs)
        }
        memo = {(pairs[i], name): v for i, name, v in match_state.memo.items()}
        return rows, memo

    before_pairs = list(candidates)
    before_ids = candidates.id_pairs()
    before_facts = facts(candidates, state)
    before_records = [(p.index, p.record_a, p.record_b) for p in before_pairs]

    lost = (
        set(data.draw(st.lists(st.sampled_from(old_ids), unique=True)))
        if old_ids else set()
    )
    fresh = sorted(set(cross) - set(old_ids))
    gained = data.draw(st.lists(st.sampled_from(fresh), unique=True)) if fresh else []
    touched = {}
    for side, table in (("a", table_a), ("b", table_b)):
        ids = [record.record_id for record in table]
        touched[side] = set(data.draw(st.lists(st.sampled_from(ids))))
        for record_id in touched[side]:
            table.replace(Record(record_id, {"text": data.draw(value_strategy)}))

    new, rows = candidates.with_delta(lost, gained, touched["a"], touched["b"])
    new_state = state.with_rows(new, rows)

    # -- the new candidate set is self-consistent
    expected_ids = (set(old_ids) - lost) | set(gained)
    assert len(new) == rows.size == len(expected_ids)
    assert set(new.id_pairs()) == expected_ids
    assert len(new.id_pairs()) == len(expected_ids)
    for index, pair in enumerate(new):
        assert new[index] is pair and pair.index == index
        assert new.index_of(*pair.pair_id) == index
        assert pair.record_a is table_a.get(pair.pair_id[0])
        assert pair.record_b is table_b.get(pair.pair_id[1])
    for side, table in (("a", table_a), ("b", table_b)):
        position = 0 if side == "a" else 1
        for record in table:
            assert sorted(new.indices_for_record(side, record.record_id)) == [
                index for index, pair in enumerate(new)
                if pair.pair_id[position] == record.record_id
            ]
    assert [pair.pair_id for pair in new][rows.kept:] == list(gained)

    # -- every row carries its pair's old facts; gained rows carry none
    old_rows, old_memo = before_facts
    new_rows, new_memo = facts(new, new_state)
    no_facts = (False, -1) + tuple(
        (False,) * len(bitmaps)
        for bitmaps in (state._rule_matched, state._predicate_false)
    )
    for pair_id, row_facts in new_rows.items():
        assert row_facts == old_rows.get(pair_id, no_facts)
    assert new_memo == {
        key: value for key, value in old_memo.items() if key[0] not in lost
    }
    assert len(new_state.memo) == len(new_memo)

    # -- the pre-batch objects are unchanged
    assert candidates.id_pairs() == before_ids
    assert [(p.index, p.record_a, p.record_b) for p in candidates] == before_records
    assert all(a is b for a, b in zip(candidates, before_pairs))
    assert facts(candidates, state) == before_facts
    assert len(state.memo) == len(old_memo)
