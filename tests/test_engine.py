"""Unit tests for the columnar plan/executor engine (:mod:`repro.engine`)
and its integration points: session dispatch, streaming re-match,
refinement scoring, metrics, and the workbench ``plan`` command.

Bit-identity of the engine itself is hammered property-style in
:mod:`tests.test_columnar_properties`; this module pins down the concrete
API surface — plan structure, engine resolution rules, counter
plumbing — with small deterministic inputs.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.blocking import CartesianBlocker
from repro.core import (
    AddPredicate,
    AddRule,
    CostEstimator,
    DebugSession,
    DynamicMemoMatcher,
    MatchStats,
    RelaxPredicate,
    RemovePredicate,
    RemoveRule,
    Rule,
    TightenPredicate,
    apply_change,
    parse_function,
)
from repro.core.state import MatchState
from repro.data import CandidateSet, Table
from repro.engine import ColumnarMatcher, MatchPlan, plan_function
from repro.engine import executor as executor_module
from repro.engine import plan as plan_module
from repro.errors import MatchingError, RefinementError
from repro.kernels import FeatureKernels
from repro.observability import Observability
from repro.refine import RefineConfig, RefinementSearch
from repro.streaming import Delta, StreamingSession
from repro.workbench import Workbench, WorkbenchError

#: every feature kernel-supported (token measures) — auto picks columnar.
SUPPORTED_DSL = """
R1: jaccard_ws(name, name) >= 0.3 AND trigram(zip, zip) >= 0.6
R2: trigram(name, name) >= 0.8
"""

#: needleman_wunsch has no kernel family — its steps take the per-step
#: scalar fallback.  The cost model still picks columnar for this plan (the
#: supported jaccard step carries enough of the expected work); an
#: all-unsupported plan is what resolves scalar (see SCALAR_ONLY_DSL).
MIXED_DSL = """
R1: jaccard_ws(name, name) >= 0.3
R2: needleman_wunsch(name, name) >= 0.9
"""

#: every step unsupported — columnar would be pure fallback overhead, so
#: the cost model resolves scalar.
SCALAR_ONLY_DSL = """
R1: needleman_wunsch(name, name) >= 0.9
"""


@pytest.fixture()
def supported_function():
    return parse_function(SUPPORTED_DSL)


@pytest.fixture()
def mixed_function():
    return parse_function(MIXED_DSL)


@pytest.fixture()
def all_columnar(monkeypatch):
    """Pin ``PAIR_ROWS`` to 0: these fixtures sit below the per-pair
    crossover, and the tests using this assert on columnar counters."""
    monkeypatch.setattr(executor_module, "PAIR_ROWS", 0)


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------


class TestPlanner:
    def test_plan_mirrors_function_order(self, supported_function):
        plan = plan_function(supported_function)
        assert isinstance(plan, MatchPlan)
        assert [rs.rule.name for rs in plan.rule_steps] == ["R1", "R2"]
        for rule_step, rule in zip(plan.rule_steps, supported_function.rules):
            assert [s.predicate.pid for s in rule_step.steps] == [
                p.pid for p in rule.predicates
            ]

    def test_kernel_support_flags(self, mixed_function):
        kernels = FeatureKernels(use_bounds=True)
        plan = plan_function(mixed_function, kernels=kernels)
        (jaccard_step,) = plan.rule_steps[0].steps
        (me_step,) = plan.rule_steps[1].steps
        assert jaccard_step.kernel_supported
        assert jaccard_step.bound_eligible
        assert jaccard_step.unsupported_reason is None
        assert not me_step.kernel_supported
        assert not me_step.bound_eligible
        assert "kernel family" in me_step.unsupported_reason
        assert not plan.fully_kernel_supported
        assert plan.rule_steps[0].fully_kernel_supported
        assert not plan.rule_steps[1].fully_kernel_supported

    def test_unsupported_reason_without_kernels(self, mixed_function):
        plan = plan_function(mixed_function)
        for rule_step in plan.rule_steps:
            for step in rule_step.steps:
                assert step.unsupported_reason == (
                    "no kernel layer bound (scalar session)"
                )

    def test_no_kernels_means_all_scalar(self, supported_function):
        plan = plan_function(supported_function)
        assert not plan.use_bounds
        for rule_step in plan.rule_steps:
            for step in rule_step.steps:
                assert not step.kernel_supported
                assert not step.bound_eligible

    def test_bounds_follow_kernel_flag(self, supported_function):
        plan = plan_function(
            supported_function, kernels=FeatureKernels(use_bounds=False)
        )
        assert not plan.use_bounds
        assert all(
            not step.bound_eligible
            for rule_step in plan.rule_steps
            for step in rule_step.steps
        )

    def test_annotations_from_estimates(
        self, supported_function, people_candidates
    ):
        estimator = CostEstimator(
            sample_fraction=1.0, min_sample=1, mode="calibrated"
        )
        estimates = estimator.estimate(supported_function, people_candidates)
        plan = plan_function(supported_function, estimates=estimates)
        for rule_step in plan.rule_steps:
            for step in rule_step.steps:
                assert step.est_cost is not None and step.est_cost > 0
                assert step.est_selectivity is not None
        # without estimates the same plan compiles with unknown costs
        bare = plan_function(supported_function)
        assert all(
            step.est_cost is None and step.est_selectivity is None
            for rule_step in bare.rule_steps
            for step in rule_step.steps
        )

    def test_describe_lists_steps_and_tags(self, mixed_function):
        text = plan_function(
            mixed_function, kernels=FeatureKernels(use_bounds=True)
        ).describe()
        assert "MatchPlan: 2 rules" in text
        assert "partial scalar fallback" in text
        assert "rule R1 [kernel]" in text
        assert "rule R2 [mixed]" in text
        assert "[kernel,bound]" in text
        assert "[scalar]" in text
        # the *why* travels with the step, and the decision with the plan
        assert "kernel family" in text
        assert "engine: columnar (mixed)" in text
        assert "us/pair" in text


# ----------------------------------------------------------------------
# Executor / matcher
# ----------------------------------------------------------------------


class TestColumnarMatcher:
    def test_strategy_name(self):
        assert ColumnarMatcher().strategy_name == "columnar"

    @pytest.mark.usefixtures("all_columnar")
    def test_supported_plan_takes_no_fallbacks(
        self, supported_function, people_candidates
    ):
        matcher = ColumnarMatcher(kernels=FeatureKernels(use_bounds=True))
        result = matcher.run(supported_function, people_candidates)
        executor = matcher.last_executor
        assert executor.scalar_fallbacks == 0
        assert executor.mask_evals > 0
        scalar = DynamicMemoMatcher(
            kernels=FeatureKernels(use_bounds=True)
        ).run(supported_function, people_candidates)
        assert np.array_equal(result.labels, scalar.labels)

    @pytest.mark.usefixtures("all_columnar")
    def test_mixed_plan_falls_back_per_step(
        self, mixed_function, people_candidates
    ):
        matcher = ColumnarMatcher(kernels=FeatureKernels(use_bounds=True))
        result = matcher.run(mixed_function, people_candidates)
        assert matcher.last_executor.scalar_fallbacks > 0
        assert matcher.last_executor.mask_evals > 0
        scalar = DynamicMemoMatcher(
            kernels=FeatureKernels(use_bounds=True)
        ).run(mixed_function, people_candidates)
        assert np.array_equal(result.labels, scalar.labels)

    @pytest.mark.usefixtures("all_columnar")
    def test_report_metrics_folds_counters(
        self, mixed_function, people_candidates
    ):
        matcher = ColumnarMatcher(kernels=FeatureKernels())
        matcher.run(mixed_function, people_candidates)
        observability = Observability()
        matcher.last_executor.report_metrics(observability.metrics)
        assert (
            observability.metrics.value("engine.mask_evals")
            == matcher.last_executor.mask_evals
        )
        assert (
            observability.metrics.value("engine.scalar_fallbacks")
            == matcher.last_executor.scalar_fallbacks
        )


# ----------------------------------------------------------------------
# Session dispatch
# ----------------------------------------------------------------------


class TestSessionEngine:
    def test_invalid_engine_rejected(self, people_candidates, b1_function):
        with pytest.raises(MatchingError, match="engine must be"):
            DebugSession(people_candidates, b1_function, engine="vectorised")

    def test_auto_resolution(self, people_candidates):
        supported = parse_function(SUPPORTED_DSL)
        mixed = parse_function(MIXED_DSL)
        scalar_only = parse_function(SCALAR_ONLY_DSL)
        session = DebugSession(people_candidates, supported)
        assert session.engine == "auto"
        assert session.compile_plan(supported).decision.engine == "columnar"
        # mixed plans resolve by cost: the supported jaccard step carries
        # enough expected work that columnar wins despite one fallback...
        assert session.compile_plan(mixed).decision.engine == "columnar"
        # ...whereas an all-fallback plan is pure overhead — scalar.
        assert session.compile_plan(scalar_only).decision.engine == "scalar"
        no_kernels = DebugSession(
            people_candidates, supported, use_kernels=False
        )
        assert no_kernels.compile_plan(supported).decision.engine == "scalar"
        forced = DebugSession(
            people_candidates, scalar_only, engine="columnar"
        )
        forced.run()
        assert forced._engine_for(forced.state) == "columnar"

    def test_decision_matches_resolution(self, people_candidates):
        session = DebugSession(people_candidates, parse_function(MIXED_DSL))
        plan = session.compile_plan()
        decision = plan.decision
        assert decision is not None
        assert decision.engine == session.compile_plan(
            session.initial_function
        ).decision.engine
        assert decision.mode == "mixed"
        assert decision.supported_steps == 1 and decision.total_steps == 2
        assert decision.columnar_cost < decision.scalar_cost

    def test_run_and_apply_columnar_match_scalar(self, people_candidates):
        sessions = []
        for engine in ("scalar", "columnar"):
            session = DebugSession(
                people_candidates,
                parse_function(SUPPORTED_DSL),
                ordering="original",
                engine=engine,
                paranoid=True,  # re-validates state after every change
            )
            session.run()
            rule = session.state.function.rules[0]
            session.apply(
                TightenPredicate(rule.name, rule.predicates[0].slot, 0.9)
            )
            sessions.append(session)
        scalar, columnar = sessions
        assert np.array_equal(scalar.state.labels, columnar.state.labels)
        assert np.array_equal(
            scalar.state.attribution, columnar.state.attribution
        )
        assert sorted(scalar.state.memo.items()) == sorted(
            columnar.state.memo.items()
        )

    def test_rerun_and_reorder_under_columnar(self, people_candidates):
        session = DebugSession(
            people_candidates,
            parse_function(SUPPORTED_DSL),
            ordering="original",
            engine="columnar",
        )
        first = session.run()
        rerun = session.rerun_full()
        assert np.array_equal(first.labels, rerun.labels)
        reordered = session.reorder("original")
        assert np.array_equal(first.labels, reordered.labels)

    def test_compile_plan_uses_current_function(self, people_candidates):
        session = DebugSession(
            people_candidates, parse_function(SUPPORTED_DSL)
        )
        plan = session.compile_plan()  # before any run: initial function
        assert isinstance(plan, MatchPlan)
        assert plan.check_cache_first == session.check_cache_first
        assert plan.fully_kernel_supported

    @pytest.mark.usefixtures("all_columnar")
    def test_run_reports_engine_metrics(self, people_candidates):
        observability = Observability()
        session = DebugSession(
            people_candidates,
            parse_function(SUPPORTED_DSL),
            engine="columnar",
            observability=observability,
        )
        session.run()
        assert observability.metrics.value("engine.mask_evals") > 0


# ----------------------------------------------------------------------
# Incremental
# ----------------------------------------------------------------------


class TestIncrementalColumnar:
    def test_apply_change_columnar_stays_sound(
        self, people_candidates, supported_function
    ):
        state, _ = MatchState.from_initial_run(
            supported_function,
            people_candidates,
            kernels=FeatureKernels(use_bounds=True),
            engine="columnar",
        )
        rule = state.function.rules[0]
        change = TightenPredicate(rule.name, rule.predicates[0].slot, 0.95)
        observability = Observability()
        result = apply_change(
            state, change, "columnar", metrics=observability.metrics
        )
        assert result.change is change
        state.check_soundness()

    def test_unknown_engine_is_rejected_before_the_edit(
        self, people_candidates, supported_function
    ):
        state, _ = MatchState.from_initial_run(supported_function, people_candidates)
        before = state.checkpoint()
        rule = state.function.rules[0]
        change = TightenPredicate(rule.name, rule.predicates[0].slot, 0.95)
        with pytest.raises(MatchingError, match="vectorized"):
            apply_change(state, change, "vectorized")
        assert state.function is before.function
        assert np.array_equal(state.attribution, before.attribution)
        with pytest.raises(MatchingError, match="auto"):
            state.evaluator(MatchStats(), "auto")
        with pytest.raises(MatchingError, match="vectorized"):
            MatchState.from_initial_run(
                supported_function, people_candidates, engine="vectorized"
            )


# ----------------------------------------------------------------------
# Plan lifetime: one plan per function version, patched per edit
# ----------------------------------------------------------------------

#: token, edit-distance and needleman_wunsch (fallback) features over three
#: rules, so every edit kind has a target and plans are mixed.
LIFETIME_DSL = """
R1: jaccard_ws(name, name) >= 0.3 AND trigram(zip, zip) >= 0.6
R2: trigram(name, name) >= 0.8
R3: needleman_wunsch(name, name) >= 0.9 AND levenshtein(street, street) >= 0.5
"""


def _predicate(rule, feature_name):
    return next(p for p in rule.predicates if p.feature.name == feature_name)


def _lifetime_edits(function):
    """``(kind, change, inverse, edited rule name)`` for all six edit kinds,
    by rule name (the session orders rules by estimated cost)."""
    r1, r2, r3 = (function.rule(name) for name in ("R1", "R2", "R3"))
    jaccard = _predicate(r1, "jaccard_ws(name,name)")
    trigram_zip = _predicate(r1, "trigram(zip,zip)")
    levenshtein = _predicate(r3, "levenshtein(street,street)")
    new_rule = Rule("R4", [jaccard.with_threshold(0.7)])
    return [
        ("tighten", TightenPredicate("R1", jaccard.slot, 0.6),
         RelaxPredicate("R1", jaccard.slot, 0.3), "R1"),
        ("relax", RelaxPredicate("R3", levenshtein.slot, 0.2),
         TightenPredicate("R3", levenshtein.slot, 0.5), "R3"),
        ("add_predicate", AddPredicate("R2", jaccard),
         RemovePredicate("R2", jaccard.slot), "R2"),
        ("remove_predicate", RemovePredicate("R1", trigram_zip.slot),
         AddPredicate("R1", trigram_zip), "R1"),
        ("add_rule", AddRule(new_rule), RemoveRule("R4"), "R4"),
        ("remove_rule", RemoveRule("R2"), AddRule(r2), None),
    ]


def _ordered_session(candidates, engine="auto"):
    """A run session over :data:`LIFETIME_DSL` in written rule order: R1
    matches the one matching pair of the people candidates first, so no
    pair is attributed to R2 or R3."""
    session = DebugSession(
        candidates, parse_function(LIFETIME_DSL), ordering="original",
        engine=engine,
    )
    session.run()
    return session


def _zero_row_edits(function):
    """Edits of R2 and R3 of an :func:`_ordered_session`, none of which
    has rows to evaluate (the added predicate is never evaluated, so
    removing it examines no false bit either).  The
    :func:`_lifetime_edits` built after them all still apply."""
    jaccard = _predicate(function.rule("R1"), "jaccard_ws(name,name)")
    trigram = _predicate(function.rule("R2"), "trigram(name,name)")
    levenshtein = _predicate(function.rule("R3"), "levenshtein(street,street)")
    return [
        TightenPredicate("R3", levenshtein.slot, 0.55),
        AddPredicate("R3", jaccard),
        TightenPredicate("R2", trigram.slot, 0.9),
        RemovePredicate("R3", jaccard.slot),
    ]


def _count_plan_work(monkeypatch):
    """Record every plan patch (its target function) and every engine
    decision (its plan)."""
    patched, decided = [], []
    for_function = MatchPlan.for_function
    choose_engine = plan_module.choose_engine

    def counting_patch(plan, function):
        patched.append(function)
        return for_function(plan, function)

    def counting_decision(plan):
        decided.append(plan)
        return choose_engine(plan)

    monkeypatch.setattr(MatchPlan, "for_function", counting_patch)
    monkeypatch.setattr(plan_module, "choose_engine", counting_decision)
    return patched, decided


def _fresh_plan(session):
    """A from-scratch compile with the session's kernels and estimates."""
    return plan_function(
        session.state.function,
        kernels=session.kernels,
        estimates=session.estimates,
        check_cache_first=session.check_cache_first,
    )


def _assert_plan_current(session):
    plan = session.state.plan
    assert plan.function is session.state.function
    assert len(plan.rule_steps) == len(plan.function.rules)
    assert all(
        step.rule is rule
        for step, rule in zip(plan.rule_steps, plan.function.rules)
    )
    assert plan.decision == _fresh_plan(session).decision


class TestPlanLifetime:
    @pytest.mark.parametrize("engine", ["auto", "columnar", "scalar"])
    @pytest.mark.parametrize(
        "kind",
        ["tighten", "relax", "add_predicate", "remove_predicate",
         "add_rule", "remove_rule"],
    )
    def test_edit_replans_only_the_edited_rule(
        self, people_candidates, engine, kind
    ):
        session = DebugSession(
            people_candidates, parse_function(LIFETIME_DSL), engine=engine
        )
        session.run()
        edits = {row[0]: row for row in _lifetime_edits(session.function)}
        _, change, _, edited = edits[kind]
        before = session.state.plan
        held = {step.rule.name: step for step in before.rule_steps}
        session.apply(change)
        after = session.state.plan
        replanned = [
            step.rule.name
            for step in after.rule_steps
            if not any(step is old for old in before.rule_steps)
        ]
        assert replanned == ([] if edited is None else [edited])
        for step in after.rule_steps:
            if step.rule.name != edited:
                assert step is held[step.rule.name]
        _assert_plan_current(session)

    @pytest.mark.parametrize("engine", ["auto", "columnar", "scalar"])
    def test_restore_brings_back_the_checkpointed_plan(
        self, people_candidates, engine
    ):
        session = DebugSession(
            people_candidates, parse_function(LIFETIME_DSL), engine=engine
        )
        session.run()
        state = session.state
        checkpoint = state.checkpoint()
        for _, change, _, _ in _lifetime_edits(state.function)[:3]:
            session.apply(change)
        assert state.plan is not checkpoint.plan
        state.restore(checkpoint)
        assert state.plan is checkpoint.plan
        _assert_plan_current(session)

    def test_reorder_compiles_against_the_new_estimates(self, people_candidates):
        session = DebugSession(people_candidates, parse_function(LIFETIME_DSL))
        session.run()
        session.apply(_lifetime_edits(session.function)[4][1])
        estimates = session.estimates
        session.reorder()
        assert session.estimates is not estimates
        assert session.state.plan.estimates is session.estimates
        _assert_plan_current(session)

    def test_ingest_carries_the_plan_unchanged(self):
        table_a = Table("A", ["name", "zip", "street"])
        table_a.add_row("a1", name="john doe", zip="53703", street="main st")
        table_a.add_row("a2", name="alice roe", zip="53706", street="oak ave")
        table_b = Table("B", ["name", "zip", "street"])
        table_b.add_row("b1", name="jon doe", zip="53703", street="main st")
        table_b.add_row("b2", name="bob poe", zip="10001", street="elm rd")
        stream = StreamingSession(
            table_a, table_b, CartesianBlocker(), parse_function(LIFETIME_DSL)
        )
        stream.run()
        stream.apply(_lifetime_edits(stream.function)[0][1])
        plan = stream.state.plan
        stream.ingest(Delta("update", "b", "b2", {"name": "john doe"}))
        assert stream.state.plan is plan
        _assert_plan_current(stream.session)
        stream.ingest(Delta("insert", "a", "a3", {"name": "jon doe"}))
        assert stream.state.plan is plan
        _assert_plan_current(stream.session)

    def test_scalar_edits_leave_the_plan_unread(self, people_candidates, monkeypatch):
        session = DebugSession(
            people_candidates, parse_function(LIFETIME_DSL), engine="scalar"
        )
        session.run()
        patched = []
        for_function = MatchPlan.for_function

        def counting(plan, function):
            patched.append(function)
            return for_function(plan, function)

        monkeypatch.setattr(MatchPlan, "for_function", counting)
        for index in range(6):
            _, change, inverse, _ = _lifetime_edits(session.function)[index]
            session.apply(change)
            session.apply(inverse)
        assert patched == []
        # the first read patches once, across all twelve edits
        _assert_plan_current(session)
        assert patched == [session.state.function]

    @pytest.mark.parametrize("engine", ["auto", "columnar"])
    def test_zero_row_edits_leave_the_plan_unread(
        self, people_candidates, monkeypatch, engine
    ):
        session = _ordered_session(people_candidates, engine)
        patched, decided = _count_plan_work(monkeypatch)
        for change in _zero_row_edits(session.function):
            assert session.apply(change).affected_pairs == 0
        assert patched == [] and decided == []
        # the first read patches once, across all four edits
        plan = session.state.plan
        assert patched == [session.state.function]
        assert decided == []
        # and an edit with rows decides the engine only under "auto"
        jaccard = _predicate(session.function.rule("R1"), "jaccard_ws(name,name)")
        assert session.apply(
            TightenPredicate("R1", jaccard.slot, 0.6)
        ).affected_pairs > 0
        assert len(patched) == 2
        assert decided == ([session.state.plan] if engine == "auto" else [])
        assert plan is not session.state.plan
        _assert_plan_current(session)

    @pytest.mark.parametrize(
        "kind",
        ["tighten", "relax", "add_predicate", "remove_predicate",
         "add_rule", "remove_rule"],
    )
    def test_decision_after_zero_row_edits_equals_a_fresh_compile(
        self, people_candidates, kind
    ):
        # "auto": one patch spans the zero-row edits and the edit with rows
        session = _ordered_session(people_candidates)
        for change in _zero_row_edits(session.function):
            assert session.apply(change).affected_pairs == 0
        edits = {row[0]: row for row in _lifetime_edits(session.function)}
        session.apply(edits[kind][1])
        _assert_plan_current(session)

    @pytest.mark.parametrize("engine", ["auto", "columnar"])
    def test_a_patched_plan_keeps_no_predecessor_alive(
        self, people_candidates, engine
    ):
        session = DebugSession(
            people_candidates, parse_function(LIFETIME_DSL), engine=engine
        )
        session.run()
        state = session.state
        state.plan.decision
        _, change, inverse, _ = _lifetime_edits(session.function)[0]
        before = weakref.ref(state.plan)
        session.apply(change)
        state.plan  # a zero-row edit patches on the next read
        gc.collect()
        assert before() is None
        checkpoint = state.checkpoint()
        held = weakref.ref(state.plan)
        session.apply(inverse)
        state.plan.decision
        gc.collect()
        assert held() is checkpoint.plan
        del checkpoint
        gc.collect()
        assert held() is None

    @pytest.mark.parametrize("engine", ["auto", "scalar"])
    def test_plan_size_stays_bounded_by_the_rules(self, people_candidates, engine):
        session = DebugSession(
            people_candidates, parse_function(LIFETIME_DSL), engine=engine
        )
        session.run()
        labels = session.labels().copy()
        for index in range(200):
            edits = _lifetime_edits(session.function)
            _, change, inverse, _ = edits[index % len(edits)]
            session.apply(change)
            session.apply(inverse)
            assert np.array_equal(session.labels(), labels)
        plan = session.state.plan
        assert len(plan.rule_steps) == len(session.function.rules)
        _assert_plan_current(session)


# ----------------------------------------------------------------------
# Streaming
# ----------------------------------------------------------------------


class TestStreamingColumnar:
    def _tables(self):
        table_a = Table("A", ["name", "zip"])
        table_a.add_row("a1", name="john doe", zip="53703")
        table_a.add_row("a2", name="alice roe", zip="53706")
        table_b = Table("B", ["name", "zip"])
        table_b.add_row("b1", name="jon doe", zip="53703")
        table_b.add_row("b2", name="bob poe", zip="10001")
        return table_a, table_b

    def test_ingest_rematches_through_executor(self):
        table_a, table_b = self._tables()
        stream = StreamingSession(
            table_a,
            table_b,
            CartesianBlocker(),
            parse_function(SUPPORTED_DSL),
            ordering="original",
            engine="columnar",
        )
        stream.run()
        result = stream.ingest(
            Delta("update", "b", "b2", {"name": "john doe"})
        )
        assert result.affected > 0
        stream.session.state.check_soundness()
        # fresh scalar run over the post-delta tables agrees
        fresh = DebugSession(
            CartesianBlocker().block(table_a, table_b),
            parse_function(SUPPORTED_DSL),
            ordering="original",
            engine="scalar",
        )
        fresh_result = fresh.run()
        live = {
            pair.pair_id
            for pair, label in zip(
                stream.session.candidates, stream.session.state.labels
            )
            if label
        }
        fresh_matches = {
            pair.pair_id
            for pair, label in zip(fresh.candidates, fresh_result.labels)
            if label
        }
        assert live == fresh_matches


# ----------------------------------------------------------------------
# Refinement
# ----------------------------------------------------------------------


class TestRefineColumnar:
    def test_invalid_engine_rejected(self, people_candidates):
        function = parse_function(SUPPORTED_DSL)
        kernels = FeatureKernels(use_bounds=True)
        state, _ = MatchState.from_initial_run(
            function, people_candidates, kernels=kernels, engine="columnar"
        )
        with pytest.raises(RefinementError, match="engine must be"):
            RefinementSearch(
                state, {("a1", "b1")}, kernels=kernels, engine="auto"
            )

    def test_columnar_search_avoids_full_rematches(self, people_candidates):
        function = parse_function(SUPPORTED_DSL)
        kernels = FeatureKernels(use_bounds=True)
        state, _ = MatchState.from_initial_run(
            function, people_candidates, kernels=kernels, engine="columnar"
        )
        gold = {("a1", "b1"), ("a1", "b2")}
        report = RefinementSearch(
            state,
            gold,
            config=RefineConfig(budget=12, beam_width=1, max_depth=1),
            kernels=kernels,
            engine="columnar",
        ).run()
        assert report.full_rematches == 0
        assert report.candidates_scored > 0
        assert report.incremental_evals > 0


# ----------------------------------------------------------------------
# Workbench
# ----------------------------------------------------------------------


class TestWorkbenchPlan:
    @pytest.fixture()
    def bench(self, people_tables, tmp_path):
        from repro.data import save_table

        for table, path in zip(people_tables, ("a.csv", "b.csv")):
            save_table(table, tmp_path / path)
        bench = Workbench()
        bench.execute(
            f"load-csv {tmp_path / 'a.csv'} {tmp_path / 'b.csv'} "
            f"--block name --rules '{SUPPORTED_DSL}'"
        )
        return bench

    def test_plan_requires_session(self):
        with pytest.raises(WorkbenchError, match="load a dataset"):
            Workbench().execute("plan")

    def test_plan_rejects_arguments(self, bench):
        with pytest.raises(WorkbenchError, match="usage: plan"):
            bench.execute("plan --verbose")

    def test_plan_renders_plan_and_resolution(self, bench):
        output = bench.execute("plan")
        assert "MatchPlan:" in output
        assert "engine: auto -> columnar" in output
        assert "jaccard_ws(name,name)>=0.3" in output

    def test_help_mentions_plan(self):
        assert "plan" in Workbench().execute("help")
