"""Tests for the automated rule-refinement search (``repro.refine``).

Covers the core rollback API (checkpoint/restore with and without memo
snapshots), the shared candidate-edit vocabulary, Pareto-frontier
algebra, the beam search itself (improves F1, deterministic under a
fixed seed, zero from-scratch re-matches, leaves the borrowed state
untouched), and the session / service / workbench surfaces layered on
top of it.
"""

from __future__ import annotations

import pytest

from repro.core import (
    AddRule,
    CostEstimator,
    DebugSession,
    DynamicMemoMatcher,
    Feature,
    MatchingFunction,
    MatchState,
    Predicate,
    RemoveRule,
    Rule,
    TightenPredicate,
    per_pair_cost,
)
from repro.data import CandidateSet, Record, Table
from repro.errors import RefinementError, StateError
from repro.observability import Observability
from repro.refine import (
    CandidateEdit,
    RefineConfig,
    RefinementSearch,
    change_key,
    dedupe_edits,
    dominates,
    error_profile,
    feature_value,
    generate_candidates,
    pareto_frontier,
    refine,
    tighten_edits,
)
from repro.similarity import ExactMatch, Levenshtein, MongeElkan


def build_numeric_task():
    """Four pairs over a ``code`` attribute; gold = {(a0, b0)} but a
    too-loose rule also matches (a1, b1) — the classic fixable FP."""
    table_a = Table("A", ("code",))
    table_b = Table("B", ("code",))
    rows = [
        ("a0", "b0", "alpha", "alpha"),     # identical: the true match
        ("a1", "b1", "alpha", "alphq"),     # near miss: false positive
        ("a2", "b2", "gamma", "delta"),     # far apart
        ("a3", "b3", "omega", "zzzzz"),     # far apart
    ]
    for a_id, b_id, a_code, b_code in rows:
        table_a.add(Record(a_id, {"code": a_code}))
        table_b.add(Record(b_id, {"code": b_code}))
    candidates = CandidateSet.from_id_pairs(
        table_a, table_b, [(f"a{i}", f"b{i}") for i in range(4)]
    )
    feature = Feature(Levenshtein(), "code", "code")
    function = MatchingFunction(
        [Rule("loose", [Predicate(feature, ">=", 0.4)])]
    )
    gold = {("a0", "b0")}
    return candidates, function, gold


def build_recall_task():
    """Gold has two pairs but the seeded rule only finds one; a second
    feature (exact match on ``name``) separates the missed pair from the
    true negatives, so add-rule / relax edits can recover it."""
    table_a = Table("A", ("name", "code"))
    table_b = Table("B", ("name", "code"))
    rows = [
        ("a0", "b0", "ada", "ada", "k1", "k1"),
        ("a1", "b1", "bob", "bob", "k2", "x9"),   # name agrees, code doesn't
        ("a2", "b2", "cyd", "eve", "k3", "z7"),
        ("a3", "b3", "dan", "ned", "k4", "q2"),
    ]
    for a_id, b_id, a_name, b_name, a_code, b_code in rows:
        table_a.add(Record(a_id, {"name": a_name, "code": a_code}))
        table_b.add(Record(b_id, {"name": b_name, "code": b_code}))
    candidates = CandidateSet.from_id_pairs(
        table_a, table_b, [(f"a{i}", f"b{i}") for i in range(4)]
    )
    code_feature = Feature(Levenshtein(), "code", "code")
    name_feature = Feature(ExactMatch(), "name", "name")
    function = MatchingFunction(
        [Rule("codes", [Predicate(code_feature, ">=", 0.9)])]
    )
    gold = {("a0", "b0"), ("a1", "b1")}
    return candidates, function, gold, name_feature


def build_token_task():
    """A recall task whose fix needs a token-level feature: the missed
    gold pair's names agree token by token, up to typos, and no other
    pair's do.  The seeded rule reads only ``code``, so every
    Monge-Elkan value the search reads is a memo miss."""
    table_a = Table("A", ("name", "code"))
    table_b = Table("B", ("name", "code"))
    rows = [
        ("a0", "b0", "ada lovelace", "ada lovelace", "k1", "k1"),
        ("a1", "b1", "jon smith", "john smyth", "k2", "x9"),
        ("a2", "b2", "cyd charisse", "eve arden", "k3", "z7"),
        ("a3", "b3", "dan brown", "ned kelly", "k4", "q2"),
        ("a4", "b4", "jon smith", "ned kelly", "k5", "w4"),
    ]
    for a_id, b_id, a_name, b_name, a_code, b_code in rows:
        table_a.add(Record(a_id, {"name": a_name, "code": a_code}))
        table_b.add(Record(b_id, {"name": b_name, "code": b_code}))
    candidates = CandidateSet.from_id_pairs(
        table_a, table_b, [(f"a{i}", f"b{i}") for i in range(len(rows))]
    )
    code_feature = Feature(Levenshtein(), "code", "code")
    name_feature = Feature(MongeElkan(), "name", "name")
    function = MatchingFunction(
        [Rule("codes", [Predicate(code_feature, ">=", 0.9)])]
    )
    gold = {("a0", "b0"), ("a1", "b1")}
    return candidates, function, gold, name_feature


# ----------------------------------------------------------------------
# Checkpoint / restore (the core rollback API the search is built on)
# ----------------------------------------------------------------------


class TestCheckpointRestore:
    def test_restore_round_trips_labels_and_attribution(self):
        candidates, function, _gold = build_numeric_task()
        state, _ = MatchState.from_initial_run(function, candidates)
        checkpoint = state.checkpoint()
        before = state.labels.copy()
        rule = state.function.rules[0]
        from repro.core import apply_change

        apply_change(
            state, TightenPredicate(rule.name, rule.predicates[0].slot, 0.95)
        )
        assert not (state.labels == before).all()
        state.restore(checkpoint)
        assert (state.labels == before).all()
        assert state.function is checkpoint.function
        state.check_soundness()

    def test_checkpoint_is_isolated_from_later_edits(self):
        candidates, function, _gold = build_numeric_task()
        state, _ = MatchState.from_initial_run(function, candidates)
        checkpoint = state.checkpoint()
        snapshot = checkpoint.labels.copy()
        from repro.core import apply_change

        rule = state.function.rules[0]
        apply_change(
            state, TightenPredicate(rule.name, rule.predicates[0].slot, 0.95)
        )
        assert (checkpoint.labels == snapshot).all()

    def test_memo_snapshot_round_trips(self):
        candidates, function, _gold = build_numeric_task()
        state, _ = MatchState.from_initial_run(function, candidates)
        checkpoint = state.checkpoint(include_memo=True)
        assert checkpoint.memo_snapshot is not None
        feature = function.rules[0].predicates[0].feature
        baseline = [
            state.memo.get(i, feature.name) for i in range(len(candidates))
        ]
        state.restore(checkpoint)
        after = [
            state.memo.get(i, feature.name) for i in range(len(candidates))
        ]
        assert after == baseline

    def test_restore_rejects_mismatched_candidate_count(self):
        candidates, function, _gold = build_numeric_task()
        state, _ = MatchState.from_initial_run(function, candidates)
        checkpoint = state.checkpoint()
        smaller = CandidateSet.from_id_pairs(
            candidates.table_a, candidates.table_b, [("a0", "b0")]
        )
        other, _ = MatchState.from_initial_run(function, smaller)
        with pytest.raises(StateError):
            other.restore(checkpoint)

    def test_checkpoint_reports_footprint(self):
        candidates, function, _gold = build_numeric_task()
        state, _ = MatchState.from_initial_run(function, candidates)
        assert state.checkpoint().nbytes() > 0


# ----------------------------------------------------------------------
# Pareto algebra
# ----------------------------------------------------------------------


class TestPareto:
    def test_dominates_requires_strict_improvement(self):
        assert dominates((0.9, 0.9, 1.0), (0.8, 0.9, 1.0))
        assert dominates((0.9, 0.9, 0.5), (0.9, 0.9, 1.0))
        assert not dominates((0.9, 0.9, 1.0), (0.9, 0.9, 1.0))
        assert not dominates((0.9, 0.5, 1.0), (0.5, 0.9, 1.0))

    def test_frontier_drops_dominated_and_duplicate_points(self):
        items = [
            ("worse", (0.5, 0.5, 2.0)),
            ("best", (0.9, 0.9, 1.0)),
            ("copy", (0.9, 0.9, 1.0)),
            ("cheap", (0.6, 0.6, 0.1)),
        ]
        frontier = pareto_frontier(items, objective=lambda item: item[1])
        names = [name for name, _ in frontier]
        assert "worse" not in names
        assert "best" in names and "cheap" in names
        assert names.count("best") + names.count("copy") == 1

    def test_frontier_is_mutually_non_dominated(self):
        items = [
            (i, (p / 10, r / 10, c / 2.0))
            for i, (p, r, c) in enumerate(
                [(9, 1, 1), (5, 5, 2), (1, 9, 1), (9, 9, 4), (3, 3, 0)]
            )
        ]
        frontier = pareto_frontier(items, objective=lambda item: item[1])
        for _, a in frontier:
            for _, b in frontier:
                if a is not b:
                    assert not dominates(a, b)


# ----------------------------------------------------------------------
# Candidate-edit generation (shared vocabulary)
# ----------------------------------------------------------------------


class TestGenerators:
    def test_tighten_edit_fixes_the_false_positive(self):
        candidates, function, gold = build_numeric_task()
        state, _ = MatchState.from_initial_run(function, candidates)
        edits = tighten_edits(state, gold)
        assert edits, "expected at least one tightening"
        best = max(edits, key=lambda edit: edit.score)
        assert best.predicted_gain == 1 and best.predicted_cost == 0

    def test_error_profile_buckets_pairs(self):
        candidates, function, gold = build_numeric_task()
        state, _ = MatchState.from_initial_run(function, candidates)
        profile = error_profile(state, gold)
        assert profile.true_positives_by_rule["loose"] == [0]
        assert profile.false_positives_by_rule["loose"] == [1]
        assert profile.false_negatives == []
        assert set(profile.unmatched_non_gold) == {2, 3}

    def test_generate_candidates_covers_multiple_families(self):
        candidates, function, gold, name_feature = build_recall_task()
        state, _ = MatchState.from_initial_run(function, candidates)
        edits = generate_candidates(
            state, gold, feature_universe=[name_feature]
        )
        kinds = {type(edit.change).__name__ for edit in edits}
        assert "AddRule" in kinds  # FN-profile seeded rule over name
        origins = {edit.origin for edit in edits}
        assert any(origin.startswith("add-rule") for origin in origins)

    def test_add_rule_edit_recovers_the_false_negative(self):
        candidates, function, gold, name_feature = build_recall_task()
        state, _ = MatchState.from_initial_run(function, candidates)
        edits = generate_candidates(
            state, gold, feature_universe=[name_feature]
        )
        add_rules = [
            edit for edit in edits if isinstance(edit.change, AddRule)
        ]
        assert any(edit.predicted_gain >= 1 for edit in add_rules)

    def test_feature_value_computes_a_miss_through_the_kernels(self):
        candidates, function, gold, name_feature = build_token_task()
        session = DebugSession(candidates, function, gold=gold)
        session.run()
        state = session.state
        memo = session.kernels.token_pairs
        assert memo.total_hits + memo.total_misses == 0
        pair = candidates[1]
        value = feature_value(state, 1, name_feature)
        assert value == name_feature.compute(pair.record_a, pair.record_b)
        assert state.memo.get(1, name_feature.name) == value
        lookups = memo.total_hits + memo.total_misses
        assert lookups > 0
        # memoized now: the next read touches neither the kernels nor the
        # token-pair memo
        assert feature_value(state, 1, name_feature) == value
        assert memo.total_hits + memo.total_misses == lookups

    def test_dedupe_edits_collapses_identical_changes(self):
        candidates, function, gold = build_numeric_task()
        state, _ = MatchState.from_initial_run(function, candidates)
        edits = tighten_edits(state, gold)
        doubled = list(edits) + [
            CandidateEdit(edit.change, edit.predicted_gain, edit.predicted_cost)
            for edit in edits
        ]
        assert len(dedupe_edits(doubled)) == len(dedupe_edits(edits))

    def test_change_key_is_structural(self):
        key_a = change_key(TightenPredicate("r", "lev(code,code)#lb", 0.7))
        key_b = change_key(TightenPredicate("r", "lev(code,code)#lb", 0.7))
        key_c = change_key(TightenPredicate("r", "lev(code,code)#lb", 0.8))
        assert key_a == key_b
        assert key_a != key_c
        assert key_a != change_key(RemoveRule("r"))

    def test_max_candidates_truncates(self):
        candidates, function, gold, name_feature = build_recall_task()
        state, _ = MatchState.from_initial_run(function, candidates)
        edits = generate_candidates(
            state, gold, feature_universe=[name_feature], max_candidates=2
        )
        assert len(edits) == 2


# ----------------------------------------------------------------------
# The search
# ----------------------------------------------------------------------


class TestRefinementSearch:
    def test_search_improves_f1_and_restores_state(self):
        candidates, function, gold = build_numeric_task()
        state, _ = MatchState.from_initial_run(function, candidates)
        before = state.labels.copy()
        report = refine(state, gold)
        assert report.improves_f1()
        assert report.best.f1 == 1.0
        assert (state.labels == before).all()
        assert state.function is function
        state.check_soundness()

    def test_search_never_runs_a_full_rematch(self):
        candidates, function, gold = build_numeric_task()
        state, _ = MatchState.from_initial_run(function, candidates)
        report = refine(state, gold)
        assert report.full_rematches == 0
        assert report.incremental_evals > 0
        assert report.candidates_scored > 0

    def test_search_is_deterministic_under_fixed_seed(self):
        def run_once():
            candidates, function, gold = build_numeric_task()
            state, _ = MatchState.from_initial_run(function, candidates)
            report = refine(state, gold, config=RefineConfig(seed=3))
            return [
                (entry.describe(), entry.objective)
                for entry in report.frontier
            ]

        assert run_once() == run_once()

    def test_budget_caps_scored_candidates(self):
        candidates, function, gold = build_numeric_task()
        state, _ = MatchState.from_initial_run(function, candidates)
        report = refine(state, gold, config=RefineConfig(budget=1))
        assert report.candidates_scored <= 1

    def test_multi_edit_sequences_reach_depth_two(self):
        candidates, function, gold, name_feature = build_recall_task()
        state, _ = MatchState.from_initial_run(function, candidates)
        report = refine(
            state,
            gold,
            config=RefineConfig(max_depth=2),
            feature_universe=[name_feature],
        )
        assert report.best.f1 == 1.0
        assert report.rounds >= 1

    def test_empty_gold_is_rejected(self):
        candidates, function, _gold = build_numeric_task()
        state, _ = MatchState.from_initial_run(function, candidates)
        with pytest.raises(RefinementError):
            RefinementSearch(state, set())

    def test_config_validation(self):
        with pytest.raises(RefinementError):
            RefineConfig(budget=0)
        with pytest.raises(RefinementError):
            RefineConfig(beam_width=0)
        with pytest.raises(RefinementError):
            RefineConfig(max_depth=0)

    def test_observability_counters_and_spans(self):
        candidates, function, gold = build_numeric_task()
        state, _ = MatchState.from_initial_run(function, candidates)
        observability = Observability()
        report = RefinementSearch(
            state, gold, observability=observability
        ).run()
        snapshot = observability.metrics.snapshot()
        assert snapshot["refine.candidates"]["value"] == \
            report.candidates_generated
        assert snapshot["refine.incremental_evals"]["value"] == \
            report.incremental_evals
        assert snapshot.get(
            "refine.full_rematches", {"value": 0}
        )["value"] == 0
        span_names = {record.name for record in observability.tracer.log}
        assert {"refine.search", "refine.generate", "refine.score"} <= span_names

    def test_frontier_reports_per_edit_attribution(self):
        candidates, function, gold = build_numeric_task()
        state, _ = MatchState.from_initial_run(function, candidates)
        report = refine(state, gold)
        improving = [
            entry for entry in report.frontier if entry.edits
        ]
        assert improving
        for entry in improving:
            assert len(entry.outcomes) == len(entry.edits)
            for outcome in entry.outcomes:
                assert outcome.fixed >= 0 and outcome.broken >= 0

    def test_every_expected_cost_is_the_whole_function_price(self, small_workload):
        """The cost objective resumes each parent's per-rule state, and
        still prices every scored candidate exactly (float ==) as
        ``per_pair_cost`` prices its whole edited function."""
        session = DebugSession(
            small_workload.candidates,
            small_workload.function,
            gold=small_workload.gold,
            ordering="original",
            estimator=CostEstimator(seed=3, mode="calibrated"),
            engine="columnar",
        )
        session.run()
        scored = []

        class Recording(RefinementSearch):
            def _score_edit(self, node, edit):
                candidate = super()._score_edit(node, edit)
                if candidate is not None:
                    scored.append(candidate)
                return candidate

        search = Recording(
            session.state,
            small_workload.gold,
            config=RefineConfig(budget=80, beam_width=2, max_depth=2),
            kernels=session.kernels,
            engine="columnar",
        )
        search.run()
        assert {len(candidate.edits) for candidate in scored} == {1, 2}
        assert len({type(c.edits[-1]) for c in scored}) >= 3
        base = session.state.function
        for candidate in scored:
            function = base
            for change in candidate.edits:
                function = change.apply_to(function)
            assert candidate.expected_cost == per_pair_cost(
                function, search.estimates, search.config.cost_strategy
            )

    def test_expected_cost_populated_on_frontier(self):
        candidates, function, gold = build_numeric_task()
        state, _ = MatchState.from_initial_run(function, candidates)
        report = refine(state, gold)
        assert all(entry.expected_cost >= 0.0 for entry in report.frontier)
        assert report.baseline.expected_cost > 0.0


# ----------------------------------------------------------------------
# Session surface
# ----------------------------------------------------------------------


class TestSessionRefine:
    def test_debug_session_refine_and_apply_best(self):
        candidates, function, gold = build_numeric_task()
        session = DebugSession(candidates, function, gold=gold)
        session.run()
        report = session.refine()
        assert report.improves_f1()
        session.apply_many(list(report.best.edits))
        metrics = session.metrics()
        assert metrics.precision == 1.0 and metrics.recall == 1.0

    def test_kernel_session_refine_equals_the_memo_free_report(self):
        """Memo misses read through the kernels change no value, so the
        search proposes, scores and reports exactly what it does on a
        session without kernels."""

        def summary(use_kernels):
            candidates, function, gold, name_feature = build_token_task()
            session = DebugSession(
                candidates, function, gold=gold, use_kernels=use_kernels
            )
            session.run()
            report = session.refine(feature_universe=[name_feature])
            if use_kernels:
                memo = session.kernels.token_pairs
                assert memo.total_hits + memo.total_misses > 0
            else:
                assert session.kernels is None
            frontier = [
                (
                    entry.describe(),
                    entry.objective,
                    [
                        (
                            outcome.fixed,
                            outcome.broken,
                            outcome.fixed_examples,
                            outcome.broken_examples,
                        )
                        for outcome in entry.outcomes
                    ],
                )
                for entry in report.frontier
            ]
            return (
                frontier,
                report.candidates_scored,
                report.candidates_generated,
                report.best.f1,
            )

        with_kernels = summary(True)
        assert with_kernels == summary(False)
        assert with_kernels[3] == 1.0

    def test_session_refine_without_gold_is_rejected(self):
        candidates, function, _gold = build_numeric_task()
        session = DebugSession(candidates, function)
        session.run()
        with pytest.raises(RefinementError):
            session.refine()

    def test_session_refine_accepts_config_overrides(self):
        candidates, function, gold = build_numeric_task()
        session = DebugSession(candidates, function, gold=gold)
        session.run()
        report = session.refine(budget=5, max_depth=1)
        assert report.candidates_scored <= 5

    def test_scratch_rematch_confirms_best_sequence(self):
        candidates, function, gold = build_numeric_task()
        session = DebugSession(candidates, function, gold=gold)
        session.run()
        report = session.refine()
        edited = function
        for change in report.best.edits:
            edited = change.apply_to(edited)
        scratch = DynamicMemoMatcher().run(edited, candidates)
        from repro.evaluation.metrics import confusion

        assert confusion(scratch.labels, candidates, gold) == report.best.confusion


# ----------------------------------------------------------------------
# Service protocol helpers (wire format; the live-server path is in
# test_service_server.py)
# ----------------------------------------------------------------------


class TestServiceProtocol:
    def test_config_from_payload_coerces_and_validates(self):
        from repro.service import ServiceError
        from repro.service.protocol import refine_config_from_payload

        config = refine_config_from_payload(
            {"budget": 7, "admit_fractions": [0.5, 1.0], "apply": "best"}
        )
        assert config.budget == 7
        assert config.admit_fractions == (0.5, 1.0)
        with pytest.raises(ServiceError):
            refine_config_from_payload({"budget": "lots"})
        with pytest.raises(ServiceError):
            refine_config_from_payload({"admit_fractions": "half"})

    def test_refinement_payload_shape(self):
        from repro.service.protocol import refinement_to_payload

        candidates, function, gold = build_numeric_task()
        state, _ = MatchState.from_initial_run(function, candidates)
        payload = refinement_to_payload(refine(state, gold))
        assert payload["improves_f1"] is True
        assert payload["full_rematches"] == 0
        assert payload["frontier"]
        best = payload["frontier"][payload["best_index"]]
        assert best["f1"] == 1.0
        assert {"edits", "precision", "recall", "expected_cost", "confusion"} \
            <= set(best)


# ----------------------------------------------------------------------
# Workbench surface
# ----------------------------------------------------------------------


class TestWorkbenchRefine:
    @pytest.fixture(scope="class")
    def bench(self):
        from repro.workbench import Workbench

        bench = Workbench()
        bench.execute("load products --scale 0.15 --rules 12 --seed 13")
        bench.execute("run")
        return bench

    def test_refine_renders_frontier(self, bench):
        output = bench.execute("refine --budget 40 --depth 1")
        assert "baseline" in output
        assert "0 full re-matches" in output
        assert bench.refinement is not None

    def test_refine_apply_requires_prior_search(self):
        from repro.workbench import Workbench, WorkbenchError

        bench = Workbench()
        bench.execute("load products --scale 0.15 --rules 12 --seed 13")
        bench.execute("run")
        with pytest.raises(WorkbenchError, match="refine"):
            bench.execute("refine apply 1")

    def test_refine_apply_out_of_range(self, bench):
        from repro.workbench import WorkbenchError

        bench.execute("refine --budget 20 --depth 1")
        size = len(bench.refinement["frontier"])
        with pytest.raises(WorkbenchError):
            bench.execute(f"refine apply {size + 5}")

    def test_help_mentions_refine(self):
        from repro.workbench import Workbench

        assert "refine" in Workbench().execute("help")
