"""Deterministic regression tests for incremental-matching edge cases.

These pin down specific interactions that uniform random testing found or
that the paper's pseudocode leaves under-specified.
"""

import pytest

from repro.core import (
    AddRule,
    DynamicMemoMatcher,
    MatchState,
    RelaxPredicate,
    RemovePredicate,
    RemoveRule,
    TightenPredicate,
    apply_change,
    parse_function,
    parse_rule,
)
from repro.data import CandidateSet, Record, Table
from repro.errors import StateError


def single_pair_candidates(values_a, values_b):
    table_a = Table("A", ("name", "code"))
    table_b = Table("B", ("name", "code"))
    table_a.add(Record("a0", values_a))
    table_b.add(Record("b0", values_b))
    return CandidateSet.from_id_pairs(table_a, table_b, [("a0", "b0")])


def assert_consistent(state):
    scratch = DynamicMemoMatcher().run(state.function, state.candidates)
    state.validate_against(scratch.labels)
    state.check_soundness()


class TestRelaxThenTightenInteraction:
    """The paper's Algorithm 8, taken literally, re-checks only unmatched
    pairs; relaxing an *earlier* rule then tightening the pair's current
    rule would wrongly unmatch the pair.  Our re-attribution extension
    must keep it matched."""

    def make_state(self):
        candidates = single_pair_candidates(
            {"name": "xx", "code": "yy"}, {"name": "xx", "code": "zz"}
        )
        function = parse_function(
            """
            Q: exact_match(code, code) >= 1
            R: exact_match(name, name) >= 1
            """
        )
        return MatchState.from_initial_run(function, candidates)[0]

    def test_initial_attribution_is_later_rule(self):
        state = self.make_state()
        assert state.labels[0]
        assert state.attribution[0] == 1  # matched by R; Q is false

    def test_relax_reattributes_to_earlier_rule(self):
        state = self.make_state()
        slot = state.function.rule("Q").predicates[0].slot
        apply_change(state, RelaxPredicate("Q", slot, -0.5))
        assert state.labels[0]
        assert state.attribution[0] == 0  # now attributed to Q
        assert_consistent(state)

    def test_tighten_after_relax_keeps_match(self):
        state = self.make_state()
        slot_q = state.function.rule("Q").predicates[0].slot
        apply_change(state, RelaxPredicate("Q", slot_q, -0.5))
        slot_r = state.function.rule("R").predicates[0].slot
        apply_change(state, TightenPredicate("R", slot_r, 1.5))
        assert state.labels[0]  # Q still matches the pair
        assert_consistent(state)

    def test_remove_rule_after_relax_keeps_match(self):
        state = self.make_state()
        slot_q = state.function.rule("Q").predicates[0].slot
        apply_change(state, RelaxPredicate("Q", slot_q, -0.5))
        apply_change(state, RemoveRule("R"))
        assert state.labels[0]
        assert_consistent(state)


class TestSoundnessCheck:
    """``check_soundness`` must see rule bits that disagree with the
    attribution even where both rules are true for the pair, so the
    truth checks alone pass."""

    def relaxed_state(self):
        state = TestRelaxThenTightenInteraction().make_state()
        slot = state.function.rule("Q").predicates[0].slot
        apply_change(state, RelaxPredicate("Q", slot, -0.5))
        state.check_soundness()
        return state

    def test_stale_bit_of_the_old_rule_is_caught(self):
        # What an Algorithm 8 re-attribution that skipped clearing the old
        # rule's bit would leave: M(R) still marks the pair, now attributed
        # to Q.
        state = self.relaxed_state()
        state.record_rule_match(0, "R")
        state.attribution[0] = 0
        with pytest.raises(StateError, match="stale rule bitmap: R"):
            state.check_soundness()

    def test_attributed_pair_without_its_bit_is_caught(self):
        state = self.relaxed_state()
        state.clear_rule_match_rows([0], "Q")
        state.attribution[0] = 0
        with pytest.raises(StateError, match="attributed to Q but"):
            state.check_soundness()


class TestPredicateBitmapStaleness:
    def test_relax_resets_unverified_false_bits(self):
        """After a relax, old false-bits must not survive unverified: a
        matched pair skipped by Algorithm 8 may no longer fail the
        predicate under the looser threshold."""
        candidates = single_pair_candidates(
            {"name": "xx", "code": "ab"}, {"name": "xx", "code": "ac"}
        )
        function = parse_function(
            """
            Q: levenshtein(code, code) >= 0.9
            R: exact_match(name, name) >= 1
            """
        )
        state, _ = MatchState.from_initial_run(function, candidates)
        slot = function.rule("Q").predicates[0].slot
        assert state.failed_predicate("Q", slot) == [0]
        # levenshtein("ab","ac") = 0.5; relax below it.
        apply_change(state, RelaxPredicate("Q", slot, 0.4))
        assert_consistent(state)
        # The bit must be gone (predicate now true for the pair).
        assert state.failed_predicate("Q", slot) == []

    def test_tighten_keeps_false_bits(self):
        """Tightening can only make false predicates 'more false'; bits
        survive and later relaxes re-use them."""
        candidates = single_pair_candidates(
            {"name": "pq", "code": "ab"}, {"name": "xy", "code": "ac"}
        )
        function = parse_function(
            """
            Q: levenshtein(code, code) >= 0.9 AND exact_match(name, name) >= 1
            R: exact_match(code, code) >= 1
            """
        )
        state, _ = MatchState.from_initial_run(function, candidates)
        slot = function.rule("Q").predicates[0].slot
        assert state.failed_predicate("Q", slot) == [0]
        apply_change(state, TightenPredicate("Q", slot, 0.95))
        assert state.failed_predicate("Q", slot) == [0]
        assert_consistent(state)


class TestStructuralEdits:
    def test_remove_rule_shifts_attributions(self):
        table_a = Table("A", ("name", "code"))
        table_b = Table("B", ("name", "code"))
        table_a.add(Record("a0", {"name": "mm", "code": "k1"}))
        table_a.add(Record("a1", {"name": "nn", "code": "k2"}))
        table_b.add(Record("b0", {"name": "mm", "code": "zz"}))
        table_b.add(Record("b1", {"name": "xx", "code": "k2"}))
        candidates = CandidateSet.from_id_pairs(
            table_a, table_b, [("a0", "b0"), ("a1", "b1")]
        )
        function = parse_function(
            """
            first: exact_match(name, name) >= 1
            second: exact_match(code, code) >= 1
            """
        )
        state, _ = MatchState.from_initial_run(function, candidates)
        assert state.attribution.tolist() == [0, 1]
        apply_change(state, RemoveRule("first"))
        # a1b1 was attributed to rule index 1; after removal it must be 0.
        assert state.attribution.tolist()[1] == 0
        assert state.labels.tolist() == [False, True]
        assert_consistent(state)

    def test_add_rule_matches_previously_unmatched(self):
        candidates = single_pair_candidates(
            {"name": "ab", "code": "k1"}, {"name": "cd", "code": "k1"}
        )
        function = parse_function("R: exact_match(name, name) >= 1")
        state, _ = MatchState.from_initial_run(function, candidates)
        assert not state.labels[0]
        apply_change(
            state, AddRule(parse_rule("S: exact_match(code, code) >= 1"))
        )
        assert state.labels[0]
        assert state.attribution[0] == 1
        assert_consistent(state)

    def test_remove_predicate_turns_rule_true(self):
        candidates = single_pair_candidates(
            {"name": "ab", "code": "k1"}, {"name": "cd", "code": "k1"}
        )
        function = parse_function(
            "R: exact_match(code, code) >= 1 AND exact_match(name, name) >= 1"
        )
        state, _ = MatchState.from_initial_run(function, candidates)
        assert not state.labels[0]
        slot = function.rule("R").predicates[1].slot
        apply_change(state, RemovePredicate("R", slot))
        assert state.labels[0]
        assert_consistent(state)

    def test_memo_survives_structural_edits(self):
        """The whole point of the session memo: edits never clear it."""
        candidates = single_pair_candidates(
            {"name": "ab", "code": "k1"}, {"name": "cd", "code": "k1"}
        )
        function = parse_function(
            "R: exact_match(code, code) >= 1 AND levenshtein(name, name) >= 0.9"
        )
        state, _ = MatchState.from_initial_run(function, candidates)
        entries_before = len(state.memo)
        apply_change(state, AddRule(parse_rule("S: exact_match(name, name) >= 1")))
        apply_change(state, RemoveRule("S"))
        assert len(state.memo) >= entries_before
