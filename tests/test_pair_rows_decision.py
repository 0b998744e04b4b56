"""The decision pass of ``PairRows.match_rows`` is unobservable.

Over an :class:`~repro.core.memo.ArrayMemo`, ``PairRows.match_rows``
decides from the rows' memoized values every rule the walk would settle
without a computation, and walks ``PairEvaluator.first_matching_rule``
only from each row's first undecided rule.  The oracle here is the walk
alone: ``first_matching_rule`` per row, on an identical copy of the
state.  Both must leave the same mask, labels, attribution, bitmaps,
memo, counters, bound skips and profiler counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Feature, MatchingFunction, MatchStats, Predicate, Rule
from repro.core import matchers as matchers_module
from repro.core.matchers import PairEvaluator, PairRows
from repro.core.memo import ArrayMemo, HashMemo
from repro.core.state import MatchState
from repro.data import Record, Table
from repro.kernels import FeatureKernels
from repro.observability import Profiler
from repro.similarity import ExactMatch, Jaccard, Levenshtein

from .test_columnar_properties import (
    ATTRIBUTES,
    KERNEL_FLAGS,
    cross_product,
    function_strategy,
    profiler_counts,
    state_facts,
    stats_counters,
    tables_strategy,
)


def build_state(
    function,
    candidates,
    check_cache_first,
    memo_backend,
    use_kernels,
    use_bounds,
    preallocate,
    forget,
):
    """A warm state after a cold run, with the pairs ``forget`` picks
    evicted from the memo.  Without ``preallocate`` an array memo gets a
    column only when a feature is first computed, so features no pair
    reached have none."""
    names = [feature.name for feature in function.features()] if preallocate else []
    memo = (
        ArrayMemo(len(candidates), names)
        if memo_backend == "array"
        else HashMemo(len(candidates), names)
    )
    kernels = FeatureKernels(use_bounds=use_bounds) if use_kernels else None
    profiler = Profiler(sample_every=3)
    state, _ = MatchState.from_initial_run(
        function,
        candidates,
        memo=memo,
        check_cache_first=check_cache_first,
        profiler=profiler,
        kernels=kernels,
    )
    state.memo.invalidate_pairs(
        [pick % len(candidates) for pick in forget if len(candidates)]
    )
    return state, profiler


def evaluator_for(state, profiler):
    stats = MatchStats()
    return stats, PairEvaluator(
        stats,
        memo=state.memo,
        recorder=state,
        check_cache_first=state.check_cache_first,
        profiler=profiler,
        kernels=state.kernels,
    )


def facts(state, stats, profiler, mask):
    bound_skips = dict(state.kernels.bound_skips) if state.kernels else None
    return (
        mask.tolist(),
        state_facts(state),
        stats_counters(stats),
        profiler_counts(profiler),
        bound_skips,
    )


def pass_and_walk(state_args, rows, start_rule):
    """(``PairRows.match_rows``, the per-row walk) facts on two identical
    states."""
    state, profiler = build_state(*state_args)
    stats, evaluator = evaluator_for(state, profiler)
    rules = state.function.rules
    mask = PairRows(evaluator, state.candidates, rules).match_rows(rows, start_rule)
    tried = facts(state, stats, profiler, mask)

    state, profiler = build_state(*state_args)
    stats, evaluator = evaluator_for(state, profiler)
    mask = np.array(
        [
            evaluator.first_matching_rule(state.candidates[row], rules[start_rule:])
            is not None
            for row in rows.tolist()
        ],
        dtype=bool,
    )
    return tried, facts(state, stats, profiler, mask)


#: a feature no generated function uses: rules over it meet a memo with
#: no column for it.
UNUSED = Feature(Levenshtein(), "name", "code")


@pytest.mark.parametrize("decide_row_rules", [0, matchers_module.DECIDE_ROW_RULES])
@pytest.mark.parametrize("use_kernels,use_bounds", KERNEL_FLAGS)
@given(
    tables=tables_strategy(),
    function=function_strategy(),
    extra=st.booleans(),
    check_cache_first=st.booleans(),
    memo_backend=st.sampled_from(["array", "hash"]),
    preallocate=st.booleans(),
    forget=st.lists(st.integers(min_value=0, max_value=99), max_size=6),
    picks=st.lists(st.integers(min_value=0, max_value=99), max_size=25),
    start_rule=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=60, deadline=None)
def test_pass_leaves_what_the_walk_leaves(
    decide_row_rules,
    use_kernels,
    use_bounds,
    tables,
    function,
    extra,
    check_cache_first,
    memo_backend,
    preallocate,
    forget,
    picks,
    start_rule,
):
    """On a partly cold memo (evicted pairs; without preallocation, and
    with an ``extra`` rule over an unused feature, features with no
    column), ``match_rows`` on random distinct rows from a random rule
    equals the walk: mask, state, counters, bound skips, profiler
    counts.  ``DECIDE_ROW_RULES`` at 0 sends every call through the pass;
    at its shipped value the generated calls are mostly below it."""
    if extra:
        function = MatchingFunction(
            [*function.rules, Rule("extra", [Predicate(UNUSED, "<=", 0.5)])]
        )
    candidates = cross_product(*tables)
    rows = np.array(
        list(dict.fromkeys(pick % len(candidates) for pick in picks)), dtype=np.int64
    )
    state_args = (
        function,
        candidates,
        check_cache_first,
        memo_backend,
        use_kernels,
        use_bounds,
        preallocate,
        forget,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matchers_module, "DECIDE_ROW_RULES", decide_row_rules)
        tried, oracle = pass_and_walk(
            state_args, rows, start_rule % len(function.rules)
        )
    assert tried == oracle


# ---------------------------------------------------------------------------
# Unit cases
# ---------------------------------------------------------------------------


def small_tables():
    table_a = Table("A", ATTRIBUTES)
    table_b = Table("B", ATTRIBUTES)
    for index, (name, code) in enumerate(
        [("apple pie", "x1"), ("pear tart", "y2"), ("plum cake", "z3")]
    ):
        table_a.add(Record(f"a{index}", {"name": name, "code": code}))
        table_b.add(Record(f"b{index}", {"name": name, "code": code}))
    return table_a, table_b


JACCARD = Feature(Jaccard(), "name", "name")
EXACT = Feature(ExactMatch(), "code", "code")


def warm_state(function, check_cache_first=True):
    candidates = cross_product(*small_tables())
    state, _ = MatchState.from_initial_run(
        function, candidates, check_cache_first=check_cache_first
    )
    return state


@pytest.fixture
def pass_always(monkeypatch):
    """The pass on every call: these cases are far below
    ``DECIDE_ROW_RULES``."""
    monkeypatch.setattr(matchers_module, "DECIDE_ROW_RULES", 0)


def count_walks(monkeypatch):
    """Record the rules every ``first_matching_rule`` call starts at."""
    starts = []
    walk = PairEvaluator.first_matching_rule

    def spy(self, pair, rules):
        rules = tuple(rules)
        starts.append((pair.index, rules[0].name if rules else None))
        return walk(self, pair, rules)

    monkeypatch.setattr(PairEvaluator, "first_matching_rule", spy)
    return starts


def test_decided_rows_never_walk(monkeypatch, pass_always):
    """Every rule of these rows is decided from the memo: rows a
    decided-true rule matches, like the unmatched ones, never reach
    ``first_matching_rule``."""
    function = MatchingFunction(
        [
            Rule("r0", [Predicate(JACCARD, ">=", 0.9), Predicate(EXACT, ">=", 1.0)]),
            Rule("r1", [Predicate(JACCARD, ">=", 0.95)]),
        ]
    )
    state = warm_state(function, check_cache_first=False)
    labels = state.labels.copy()
    assert labels.any() and not labels.all()
    starts = count_walks(monkeypatch)
    stats = MatchStats()
    rows = np.arange(len(state.candidates), dtype=np.int64)
    mask = state.evaluator(stats, "scalar").match_rows(rows)
    assert starts == []
    assert mask.tolist() == labels.tolist()
    assert stats.feature_computations == 0
    assert stats.rule_evaluations == 2 * rows.size - int(labels.sum())


def test_walk_starts_at_the_first_undecided_rule(monkeypatch, pass_always):
    """A rule over a feature no pair has computed needs a computation:
    rows decided false through the rules before it walk from it."""
    never = Rule("r2", [Predicate(Feature(Levenshtein(), "name", "code"), ">=", 0.0)])
    rules = [Rule(f"r{index}", [Predicate(JACCARD, ">=", 2.0)]) for index in (0, 1, 3)]
    state = warm_state(MatchingFunction(rules))
    assert not state.labels.any()
    state.function = MatchingFunction([rules[0], rules[1], never, rules[2]])
    stats, evaluator = evaluator_for(state, None)
    starts = count_walks(monkeypatch)
    rows = np.array([0, 4, 8], dtype=np.int64)
    mask = PairRows(evaluator, state.candidates, state.function.rules).match_rows(rows)
    assert sorted(starts) == [(0, "r2"), (4, "r2"), (8, "r2")]
    assert mask.all()
    assert stats.rule_evaluations == 3 * 3


@pytest.mark.parametrize("check_cache_first", [True, False])
def test_a_memoized_false_predicate_after_an_unmemoized_one(
    monkeypatch, pass_always, check_cache_first
):
    """``r1``'s second predicate is memoized and false, its first is not
    memoized.  With check-cache-first the walk would evaluate the
    memoized one first, so the pass decides ``r1`` false with no walk;
    without, the walk computes the first predicate, so it walks."""
    function = MatchingFunction(
        [
            Rule("r0", [Predicate(JACCARD, ">=", 0.9)]),
            Rule("r1", [Predicate(EXACT, ">=", 0.5), Predicate(JACCARD, "<=", 0.1)]),
        ]
    )
    state = warm_state(function, check_cache_first=check_cache_first)
    rows = np.flatnonzero(state.labels)  # matched by r0: EXACT never computed
    assert rows.size == 3
    starts = count_walks(monkeypatch)
    stats = MatchStats()
    mask = state.evaluator(stats, "scalar").match_rows(rows, 1)
    assert not mask.any()
    if check_cache_first:
        assert starts == [] and stats.feature_computations == 0
    else:
        assert sorted(starts) == [(row, "r1") for row in rows.tolist()]
        assert stats.feature_computations == rows.size


def test_cold_rows_make_no_array_pass(monkeypatch, pass_always):
    """Rows with no memoized value walk from the start rule and never
    gather from the memo."""
    function = MatchingFunction([Rule("r0", [Predicate(JACCARD, ">=", 0.5)])])
    state = warm_state(function)
    rows = np.array([1, 2], dtype=np.int64)
    state.memo.invalidate_pairs(rows.tolist())
    gathers = []
    monkeypatch.setattr(
        ArrayMemo, "gather", lambda self, *args: gathers.append(args)
    )
    starts = count_walks(monkeypatch)
    state.evaluator(MatchStats(), "scalar").match_rows(rows)
    assert gathers == []
    assert sorted(starts) == [(1, "r0"), (2, "r0")]


def test_hash_memo_walks_every_row(monkeypatch, pass_always):
    """A :class:`HashMemo` state walks as before: every row from the
    start rule."""
    function = MatchingFunction(
        [
            Rule("r0", [Predicate(JACCARD, ">=", 2.0)]),
            Rule("r1", [Predicate(JACCARD, ">=", 0.9)]),
        ]
    )
    candidates = cross_product(*small_tables())
    state, _ = MatchState.from_initial_run(
        function, candidates, memo_backend="hash", check_cache_first=True
    )
    starts = count_walks(monkeypatch)
    rows = np.arange(len(candidates), dtype=np.int64)
    mask = state.evaluator(MatchStats(), "scalar").match_rows(rows)
    assert sorted(starts) == [(row, "r0") for row in range(len(candidates))]
    assert mask.tolist() == state.labels.tolist()


def test_small_calls_and_long_rules_walk(monkeypatch):
    """Below ``DECIDE_ROW_RULES`` rows x rules, and over a rule of more
    than 8 predicates, every row walks from the start rule."""
    function = MatchingFunction([Rule("r0", [Predicate(JACCARD, ">=", 2.0)])])
    state = warm_state(function)
    rows = np.arange(len(state.candidates), dtype=np.int64)
    starts = count_walks(monkeypatch)
    state.evaluator(MatchStats(), "scalar").match_rows(rows)
    assert len(starts) == rows.size  # 9 rows x 1 rule < DECIDE_ROW_RULES

    monkeypatch.setattr(matchers_module, "DECIDE_ROW_RULES", 0)
    features = [Feature(Jaccard(), "name", "name", name=f"j{i}") for i in range(9)]
    long_rule = Rule("long", [Predicate(feature, ">=", 0.0) for feature in features])
    state = warm_state(MatchingFunction([long_rule]))
    starts.clear()
    mask = state.evaluator(MatchStats(), "scalar").match_rows(rows)
    assert starts == [(row, "long") for row in rows.tolist()]
    assert mask.all()


@pytest.mark.parametrize(
    "op,threshold",
    [
        (op, threshold)
        for op in (">=", ">", "<=", "<", "==")
        for threshold in (0.0, -0.0, 0.5, 1.0, np.inf, -np.inf, np.nan, 5e-324)
    ],
)
def test_compiled_comparison_equals_the_predicate(op, threshold):
    """``value * sign >= bound`` (``==`` kept) is the predicate's own
    comparison on every edge value, infinities and NaN included."""
    values = np.array(
        [0.0, -0.0, 0.5, 1.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.0 - 1e-16]
    )
    predicate = Predicate(JACCARD, op, threshold)
    sign, bound = matchers_module._compiled_bound(op, predicate.threshold)
    compiled = values == bound if op == "==" else values * sign >= bound
    assert compiled.tolist() == [predicate.evaluate(float(v)) for v in values]
