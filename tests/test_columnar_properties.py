"""Property-based tests: the columnar engine is a pure performance
transformation of the scalar evaluator.

The PR's conservation property, hammered from every side: on randomly
generated tables and rule sets — mixing kernel-supported features with
ones the executor must evaluate through its per-step scalar fallback —
the plan/executor split produces **bit-identical** labels, stats
counters, memo contents, and trace facts, for every combination of
check-cache-first, kernels, and bounds.  A deterministic dataset x
blocker matrix covers the same invariant on realistic records.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import AttributeEquivalenceBlocker, CartesianBlocker, OverlapBlocker
from repro.core import (
    AddPredicate,
    AddRule,
    DynamicMemoMatcher,
    Feature,
    MatchingFunction,
    MatchStats,
    Predicate,
    RelaxPredicate,
    RemovePredicate,
    RemoveRule,
    Rule,
    TightenPredicate,
    apply_change,
    parse_function,
)
from repro.core.matchers import TraceLog
from repro.core.state import MatchState
from repro.data import CandidateSet, Record, Table, load_dataset
from repro.engine import ColumnarExecutor, ColumnarMatcher, plan_function
from repro.engine import executor as executor_module
from repro.engine.executor import validity_groups
from repro.errors import ChangeError
from repro.kernels import FeatureKernels
from repro.observability import Observability, Profiler
from repro.streaming import Delta, StreamingSession
from repro.similarity import (
    AbsoluteDifference,
    ExactMatch,
    Jaccard,
    JaroWinkler,
    Levenshtein,
    MongeElkan,
    NeedlemanWunsch,
    Trigram,
)

ATTRIBUTES = ("name", "code")

#: every kernel family (token, exact, edit-distance, numeric, Monge-Elkan)
#: deliberately mixed with needleman_wunsch — which has no kernel family —
#: so random functions routinely produce partial-fallback plans.  The
#: numeric feature runs over mostly unparsable text, exercising the
#: parse-failure (None -> 0.0) convention in both engines.
FEATURE_POOL = [
    Feature(Jaccard(), "name", "name"),
    Feature(ExactMatch(), "name", "name"),
    Feature(JaroWinkler(), "name", "name"),
    Feature(MongeElkan(), "name", "name"),
    Feature(NeedlemanWunsch(), "name", "name"),
    Feature(Trigram(), "code", "code"),
    Feature(ExactMatch(), "code", "code"),
    Feature(Levenshtein(), "code", "code"),
    Feature(AbsoluteDifference(scale=5.0), "code", "code"),
]

#: all-supported subset spanning the kernel families (with and without
#: bounds): plans over these are fully kernel-backed.
SUPPORTED_POOL = [
    Feature(Jaccard(), "name", "name"),
    Feature(ExactMatch(), "name", "name"),
    Feature(JaroWinkler(), "name", "name"),
    Feature(MongeElkan(), "name", "name"),
    Feature(Trigram(), "code", "code"),
    Feature(Levenshtein(), "code", "code"),
    Feature(AbsoluteDifference(scale=5.0), "code", "code"),
]

value_strategy = st.text(alphabet="abcd 12", min_size=0, max_size=8)
maybe_value = st.one_of(st.none(), value_strategy)

#: the engine-flag matrix every parity property sweeps.
FLAG_MATRIX = [
    (check_cache_first, use_kernels, use_bounds)
    for check_cache_first in (False, True)
    for use_kernels, use_bounds in ((False, False), (True, False), (True, True))
]


@st.composite
def tables_strategy(draw):
    size_a = draw(st.integers(min_value=1, max_value=5))
    size_b = draw(st.integers(min_value=1, max_value=5))
    table_a = Table("A", ATTRIBUTES)
    table_b = Table("B", ATTRIBUTES)
    for index in range(size_a):
        table_a.add(
            Record(
                f"a{index}",
                {"name": draw(maybe_value), "code": draw(maybe_value)},
            )
        )
    for index in range(size_b):
        table_b.add(
            Record(
                f"b{index}",
                {"name": draw(maybe_value), "code": draw(maybe_value)},
            )
        )
    return table_a, table_b


@st.composite
def function_strategy(draw, pool=FEATURE_POOL):
    n_rules = draw(st.integers(min_value=1, max_value=4))
    rules = []
    for rule_index in range(n_rules):
        slots = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=len(pool) - 1),
                    st.sampled_from([">=", ">", "<=", "<"]),
                ),
                min_size=1,
                max_size=4,
                unique_by=lambda item: (item[0], item[1] in (">=", ">")),
            )
        )
        predicates = [
            Predicate(
                pool[feature_index],
                op,
                draw(
                    st.floats(
                        min_value=0.0, max_value=1.0, allow_nan=False, width=16
                    )
                ),
            )
            for feature_index, op in slots
        ]
        rules.append(Rule(f"r{rule_index}", predicates))
    return MatchingFunction(rules)


#: ``PAIR_ROWS`` values every parity property runs under: 0 sends every
#: call through the columnar passes; the shipped value sends the few-row
#: ``match_rows`` calls per pair, which on the generated tables (at most
#: 5 x 5 pairs) is every one of them.
PAIR_ROWS_SETTINGS = (0, executor_module.PAIR_ROWS)


@contextlib.contextmanager
def pair_rows_pinned(pair_rows):
    """``PAIR_ROWS`` set to ``pair_rows`` for the block (Hypothesis tests
    cannot take the function-scoped ``monkeypatch`` fixture)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor_module, "PAIR_ROWS", pair_rows)
        yield


def cross_product(table_a: Table, table_b: Table) -> CandidateSet:
    return CandidateSet.from_id_pairs(
        table_a,
        table_b,
        [(a.record_id, b.record_id) for a in table_a for b in table_b],
    )


def run_both(function, candidates, check_cache_first, use_kernels, use_bounds):
    """One scalar and one columnar run under identical flags."""
    results = []
    for matcher_class in (DynamicMemoMatcher, ColumnarMatcher):
        kernels = (
            FeatureKernels(use_bounds=use_bounds) if use_kernels else None
        )
        trace = TraceLog()
        matcher = matcher_class(
            check_cache_first=check_cache_first,
            recorder=trace,
            kernels=kernels,
        )
        result = matcher.run(function, candidates)
        results.append((result, matcher.last_memo, trace, kernels))
    return results


def assert_parity(scalar, columnar):
    result_s, memo_s, trace_s, kernels_s = scalar
    result_c, memo_c, trace_c, kernels_c = columnar
    assert (result_s.labels == result_c.labels).all()
    for counter in (
        "feature_computations",
        "predicate_evaluations",
        "rule_evaluations",
        "memo_hits",
        "bound_skips",
        "pairs_evaluated",
        "pairs_matched",
    ):
        assert getattr(result_s.stats, counter) == getattr(
            result_c.stats, counter
        ), counter
    assert dict(result_s.stats.computations_by_feature) == dict(
        result_c.stats.computations_by_feature
    )
    assert sorted(memo_s.items()) == sorted(memo_c.items())
    assert sorted(trace_s.rule_matches) == sorted(trace_c.rule_matches)
    assert sorted(trace_s.predicate_falses) == sorted(trace_c.predicate_falses)
    if kernels_s is not None:
        assert kernels_s.bound_skips == kernels_c.bound_skips


@given(tables=tables_strategy(), function=function_strategy())
@settings(max_examples=40, deadline=None)
def test_columnar_matches_scalar(tables, function):
    """Bit-identity across the full flag matrix, partial fallback included."""
    candidates = cross_product(*tables)
    for pair_rows in PAIR_ROWS_SETTINGS:
        with pair_rows_pinned(pair_rows):
            for check_cache_first, use_kernels, use_bounds in FLAG_MATRIX:
                scalar, columnar = run_both(
                    function, candidates, check_cache_first, use_kernels, use_bounds
                )
                assert_parity(scalar, columnar)


@given(tables=tables_strategy(), function=function_strategy())
@settings(max_examples=40, deadline=None)
def test_cost_decision_is_consistent(tables, function):
    """Every compiled plan carries a coherent cost-model decision, and the
    engine it picks reproduces the scalar run bit-for-bit."""
    kernels = FeatureKernels(use_bounds=True)
    plan = plan_function(function, kernels=kernels)
    decision = plan.decision
    assert decision is not None
    assert decision.engine in ("columnar", "scalar")
    assert decision.total_steps == sum(
        len(rule_step.steps) for rule_step in plan.rule_steps
    )
    assert decision.supported_steps == sum(
        step.kernel_supported
        for rule_step in plan.rule_steps
        for step in rule_step.steps
    )
    # overheads are strict: all-supported -> columnar, none -> scalar
    if plan.fully_kernel_supported:
        assert decision.engine == "columnar" and decision.mode == "columnar"
    if decision.supported_steps == 0:
        assert decision.engine == "scalar"
    # whichever engine the model picked, conservation holds
    candidates = cross_product(*tables)
    for pair_rows in PAIR_ROWS_SETTINGS:
        with pair_rows_pinned(pair_rows):
            scalar, columnar = run_both(function, candidates, True, True, True)
        assert_parity(scalar, columnar)


@given(tables=tables_strategy(), function=function_strategy(pool=SUPPORTED_POOL))
@settings(max_examples=25, deadline=None)
def test_fully_supported_plans_never_fall_back(tables, function):
    """An all-kernel function compiles to a fully supported plan and the
    executor takes zero scalar fallbacks on it.  ``PAIR_ROWS`` is pinned
    to 0: the tables are below the per-pair crossover, and the mask
    counter asserted here is the columnar passes'."""
    candidates = cross_product(*tables)
    kernels = FeatureKernels(use_bounds=True)
    plan = plan_function(function, kernels=kernels)
    assert plan.fully_kernel_supported
    matcher = ColumnarMatcher(kernels=kernels)
    with pair_rows_pinned(0):
        result = matcher.run(function, candidates)
    assert matcher.last_executor.scalar_fallbacks == 0
    # a mask is evaluated exactly when some row reaches a feature fetch
    # (the bound pre-filter can decide every row of a tiny example)
    assert (matcher.last_executor.mask_evals > 0) == (
        result.stats.predicate_evaluations > 0
    )
    with pair_rows_pinned(0):
        scalar, columnar = run_both(function, candidates, False, True, True)
    assert_parity(scalar, columnar)


@st.composite
def validity_strategy(draw):
    """0-200 rows x 1-70 feature columns (crossing one 63-bit word), drawn
    from a few row patterns so that groups repeat."""
    n_rows = draw(st.integers(min_value=0, max_value=200))
    n_features = draw(st.integers(min_value=1, max_value=70))
    row = st.lists(st.booleans(), min_size=n_features, max_size=n_features)
    patterns = draw(st.lists(row, min_size=1, max_size=6))
    picks = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(patterns) - 1),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    matrix = np.array([patterns[pick] for pick in picks], dtype=bool).reshape(
        n_rows, n_features
    )
    return [matrix[:, column].copy() for column in range(n_features)]


@given(columns=validity_strategy())
@settings(max_examples=200, deadline=None)
def test_packed_partition_matches_unique(columns):
    """The executor's packed check-cache-first partition groups rows exactly
    as ``np.unique(validity, axis=0)`` does: same groups, same group order,
    same row assignment."""
    validity = np.column_stack(columns)
    groups, inverse = np.unique(validity, axis=0, return_inverse=True)
    flags, packed_inverse = validity_groups(columns)
    assert flags.dtype == bool
    assert np.array_equal(flags, groups)
    assert np.array_equal(packed_inverse, np.asarray(inverse).reshape(-1))


# ---------------------------------------------------------------------------
# Deterministic dataset x blocker matrix
# ---------------------------------------------------------------------------

DATASET_FUNCTIONS = {
    "products": """
        R1: jaccard_ws(title, title) >= 0.45 AND trigram(modelno, modelno) >= 0.6
        R2: jaro_winkler(title, title) >= 0.92
        R3: exact_match(modelno, modelno) >= 1 AND jaccard_ws(title, title) >= 0.2
        R4: monge_elkan(title, title) >= 0.95
    """,
    "restaurants": """
        R1: jaccard_ws(name, name) >= 0.5 AND trigram(phone, phone) >= 0.7
        R2: levenshtein(name, name) >= 0.85 AND jaccard_ws(addr, addr) >= 0.3
        R3: soundex(name, name) >= 0.6 AND tfidf_ws(name, name) >= 0.4
    """,
}

BLOCKERS = {
    "products": [
        OverlapBlocker("title", min_overlap=2, stop_fraction=0.25),
        AttributeEquivalenceBlocker("brand"),
    ],
    "restaurants": [
        OverlapBlocker("name", min_overlap=1),
        AttributeEquivalenceBlocker("city"),
    ],
}


@pytest.mark.parametrize("dataset_name", sorted(DATASET_FUNCTIONS))
@pytest.mark.parametrize("blocker_index", [0, 1])
@pytest.mark.parametrize(
    "use_kernels,use_bounds", [(False, False), (True, False), (True, True)]
)
def test_dataset_blocker_matrix(dataset_name, blocker_index, use_kernels, use_bounds):
    dataset = load_dataset(
        dataset_name, shared=40, a_only=10, b_only=60, seed=5
    )
    blocker = BLOCKERS[dataset_name][blocker_index]
    candidates = blocker.block(dataset.table_a, dataset.table_b)
    if len(candidates) == 0:
        pytest.skip("blocker produced no candidates at this scale")
    function = parse_function(DATASET_FUNCTIONS[dataset_name])
    for pair_rows in PAIR_ROWS_SETTINGS:
        for check_cache_first in (False, True):
            with pair_rows_pinned(pair_rows):
                scalar, columnar = run_both(
                    function, candidates, check_cache_first, use_kernels, use_bounds
                )
            assert_parity(scalar, columnar)


# ---------------------------------------------------------------------------
# Mixed evaluation: few-row calls run per pair
# ---------------------------------------------------------------------------

#: above every fixture size in this module: every call runs per pair.
ALL_PAIRS = 10_000

#: the engine flags the mixed-evaluation properties sweep.
KERNEL_FLAGS = [(False, False), (True, False), (True, True)]

EDIT_KINDS = (
    "tighten",
    "relax",
    "add_predicate",
    "remove_predicate",
    "add_rule",
    "remove_rule",
)

edit_strategy = st.tuples(
    st.sampled_from(EDIT_KINDS),
    st.integers(min_value=0, max_value=99),  # rule pick
    st.integers(min_value=0, max_value=99),  # predicate / feature pick
    st.sampled_from([0.05, 0.2, 0.4]),  # threshold step
)


def resolve_edit(function, intent, step):
    """An abstract edit made concrete against ``function`` (None if the
    draw does not apply to it)."""
    kind, rule_pick, pick, delta = intent
    rule = function.rules[rule_pick % len(function.rules)]
    predicate = rule.predicates[pick % len(rule.predicates)]
    feature = FEATURE_POOL[pick % len(FEATURE_POOL)]
    if kind in ("tighten", "relax"):
        upward = (kind == "tighten") == (predicate.op in (">=", ">"))
        threshold = predicate.threshold + (delta if upward else -delta)
        change_class = TightenPredicate if kind == "tighten" else RelaxPredicate
        change = change_class(rule.name, predicate.slot, threshold)
    elif kind == "remove_predicate":
        change = RemovePredicate(rule.name, predicate.slot)
    elif kind == "add_predicate":
        change = AddPredicate(rule.name, Predicate(feature, ">=", 0.1 + delta))
    elif kind == "add_rule":
        change = AddRule(Rule(f"added{step}", [Predicate(feature, ">=", 0.1 + delta)]))
    else:
        change = RemoveRule(rule.name)
    try:
        change.validate(function)
    except ChangeError:
        return None
    return change


def stats_counters(stats):
    """Every :class:`MatchStats` counter (the wall-clock fields dropped)."""
    return {
        field.name: getattr(stats, field.name)
        for field in dataclasses.fields(stats)
        if field.name not in ("elapsed_seconds", "phase_seconds", "worker_timings")
    }


def profiler_counts(profiler):
    """The profiler's counts: everything but the observed durations."""
    return (
        profiler.feature_counts,
        profiler.rule_counts,
        profiler.predicate_evals,
        profiler.predicate_trues,
        profiler.bound_skips,
        {name: histogram.count for name, histogram in profiler.feature_costs.items()},
        {name: histogram.count for name, histogram in profiler.rule_costs.items()},
    )


def state_facts(state):
    """Labels, attribution, both bitmap families, and the memo."""
    return (
        state.labels.tolist(),
        state.attribution.tolist(),
        {name: bitmap.tolist() for name, bitmap in state._rule_matched.items()},
        {key: bitmap.tolist() for key, bitmap in state._predicate_false.items()},
        sorted(state.memo.items()),
    )


@given(
    tables=tables_strategy(),
    function=function_strategy(),
    edits=st.lists(edit_strategy, min_size=1, max_size=3),
    check_cache_first=st.booleans(),
    memo_backend=st.sampled_from(["array", "hash"]),
    kernel_flags=st.sampled_from(KERNEL_FLAGS),
)
@settings(max_examples=30, deadline=None)
def test_incremental_mirrors_match_scalar(
    tables, function, edits, check_cache_first, memo_backend, kernel_flags
):
    """``apply_change`` under ``engine="scalar"`` vs ``"columnar"``: edits
    of every kind leave equal state, counters, and result fields on
    identically materialized states; both states agree with a
    from-scratch run and pass the soundness check; and a warm re-match
    through each engine's ``MatchState.evaluator`` leaves equal facts."""
    for pair_rows in PAIR_ROWS_SETTINGS:
        with pair_rows_pinned(pair_rows):
            incremental_mirrors_match_scalar(
                cross_product(*tables),
                function,
                edits,
                check_cache_first,
                memo_backend,
                *kernel_flags,
            )


def incremental_mirrors_match_scalar(
    candidates,
    function,
    edits,
    check_cache_first,
    memo_backend,
    use_kernels,
    use_bounds,
):
    states = {}
    for engine in ("scalar", "columnar"):
        kernels = FeatureKernels(use_bounds=use_bounds) if use_kernels else None
        states[engine], _ = MatchState.from_initial_run(
            function,
            candidates,
            memo_backend=memo_backend,
            check_cache_first=check_cache_first,
            kernels=kernels,
            engine=engine,
        )
    for step, intent in enumerate(edits):
        change = resolve_edit(states["scalar"].function, intent, step)
        if change is None:
            continue
        scalar = apply_change(states["scalar"], change, "scalar")
        columnar = apply_change(states["columnar"], change, "columnar")
        assert state_facts(states["scalar"]) == state_facts(states["columnar"])
        assert stats_counters(scalar.stats) == stats_counters(columnar.stats)
        for field in ("change", "affected_pairs", "newly_matched", "newly_unmatched"):
            assert getattr(scalar, field) == getattr(columnar, field), field
    scratch = DynamicMemoMatcher().run(states["scalar"].function, candidates)
    for state in states.values():
        state.validate_against(scratch.labels)
        state.check_soundness()
    # A warm re-match of every row, as a streaming ingest runs one: the
    # memo now decides the check-cache-first predicate order.
    rows = np.arange(len(candidates), dtype=np.int64)
    rematches = []
    for engine, state in states.items():
        stats = MatchStats()
        mask = state.evaluator(stats, engine).match_rows(rows)
        rematches.append((mask.tolist(), state_facts(state), stats_counters(stats)))
    assert rematches[0] == rematches[1]


def assert_pair_rows_unobservable(scenario, *args):
    """``scenario(*args)`` returns the same facts with every call columnar,
    at the shipped ``PAIR_ROWS``, and with every call per pair."""
    with pair_rows_pinned(0):
        columnar = scenario(*args)
    for pair_rows in (executor_module.PAIR_ROWS, ALL_PAIRS):
        with pair_rows_pinned(pair_rows):
            assert scenario(*args) == columnar, pair_rows


def edit_and_match_facts(
    candidates,
    function,
    edits,
    picks,
    start_rule,
    check_cache_first,
    memo_backend,
    use_kernels,
    use_bounds,
):
    """A columnar state through edits, then one ``match_rows`` call."""
    profiler = Profiler(sample_every=3)
    kernels = FeatureKernels(use_bounds=use_bounds) if use_kernels else None
    state, result = MatchState.from_initial_run(
        function,
        candidates,
        memo_backend=memo_backend,
        check_cache_first=check_cache_first,
        profiler=profiler,
        kernels=kernels,
        engine="columnar",
    )
    facts = [(state_facts(state), stats_counters(result.stats))]
    for step, intent in enumerate(edits):
        change = resolve_edit(state.function, intent, step)
        if change is None:
            continue
        observability = Observability()
        edit = apply_change(state, change, "columnar", metrics=observability.metrics)
        fallbacks = observability.metrics.snapshot().get(
            "engine.scalar_fallbacks", {"value": 0}
        )["value"]
        facts.append((state_facts(state), stats_counters(edit.stats), fallbacks))
    rows = np.array(
        list(dict.fromkeys(pick % len(candidates) for pick in picks)), dtype=np.int64
    )
    stats = MatchStats()
    executor = ColumnarExecutor(
        state.plan,
        candidates,
        state.memo,
        stats,
        recorder=state,
        profiler=profiler,
        kernels=kernels,
    )
    mask = executor.match_rows(rows, start_rule % len(state.function.rules))
    facts.append(
        (
            mask.tolist(),
            executor.scalar_fallbacks,
            state_facts(state),
            stats_counters(stats),
            profiler_counts(profiler),
        )
    )
    return facts


@pytest.mark.parametrize("use_kernels,use_bounds", KERNEL_FLAGS)
@given(
    tables=tables_strategy(),
    function=function_strategy(),
    edits=st.lists(edit_strategy, min_size=1, max_size=3),
    picks=st.lists(st.integers(min_value=0, max_value=99), max_size=25),
    start_rule=st.integers(min_value=0, max_value=7),
    check_cache_first=st.booleans(),
    memo_backend=st.sampled_from(["array", "hash"]),
)
@settings(max_examples=40, deadline=None)
def test_pair_rows_leave_identical_state(
    use_kernels,
    use_bounds,
    tables,
    function,
    edits,
    picks,
    start_rule,
    check_cache_first,
    memo_backend,
):
    """Per pair vs columnar: a cold run, edits through Algorithms 7-10,
    then ``match_rows`` on a random row subset from a random rule leave
    equal labels, attribution, bitmaps, memo, counters, scalar fallbacks,
    and profiler counts."""
    assert_pair_rows_unobservable(
        edit_and_match_facts,
        cross_product(*tables),
        function,
        edits,
        picks,
        start_rule,
        check_cache_first,
        memo_backend,
        use_kernels,
        use_bounds,
    )


def copy_table(table):
    copy = Table(table.name, ATTRIBUTES)
    copy.restore(table.snapshot())
    return copy


@st.composite
def delta_strategy(draw, table_a, table_b):
    """One applicable :class:`Delta` for the tables."""
    side = draw(st.sampled_from(["a", "b"]))
    table = table_a if side == "a" else table_b
    values = {"name": draw(maybe_value), "code": draw(maybe_value)}
    ops = ["insert", "update", "delete"] if len(table) > 1 else ["insert", "update"]
    op = draw(st.sampled_from(ops))
    if op == "insert":
        return Delta("insert", side, f"{side}new", values)
    record_id = draw(st.sampled_from([record.record_id for record in table]))
    if op == "delete":
        return Delta.delete(side, record_id)
    return Delta("update", side, record_id, values)


@st.composite
def ingest_strategy(draw):
    table_a, table_b = draw(tables_strategy())
    return table_a, table_b, draw(delta_strategy(table_a, table_b))


def ingest_facts(
    tables, function, delta, check_cache_first, memo_backend, use_kernels, use_bounds
):
    """A columnar streaming session after one single-delta ingest."""
    observability = Observability(profile=True, sample_every=3)
    stream = StreamingSession(
        copy_table(tables[0]),
        copy_table(tables[1]),
        CartesianBlocker(),
        function,
        ordering="original",
        engine="columnar",
        memo_backend=memo_backend,
        use_kernels=use_kernels,
        use_bounds=use_bounds,
        check_cache_first=check_cache_first,
        observability=observability,
    )
    stream.run()
    batch = stream.ingest(delta)
    fallbacks = observability.metrics.snapshot().get(
        "engine.scalar_fallbacks", {"value": 0}
    )["value"]
    return (
        state_facts(stream.session.state),
        stats_counters(batch.stats),
        batch.affected_indices,
        fallbacks,
        profiler_counts(observability.profiler),
    )


@pytest.mark.parametrize("use_kernels,use_bounds", KERNEL_FLAGS)
@given(
    scenario=ingest_strategy(),
    function=function_strategy(),
    check_cache_first=st.booleans(),
    memo_backend=st.sampled_from(["array", "hash"]),
)
@settings(max_examples=30, deadline=None)
def test_pair_rows_leave_identical_ingest(
    use_kernels, use_bounds, scenario, function, check_cache_first, memo_backend
):
    """Per pair vs columnar: a cold run and one streaming ingest leave
    equal state, batch counters, scalar fallbacks, and profiler counts."""
    table_a, table_b, delta = scenario
    assert_pair_rows_unobservable(
        ingest_facts,
        (table_a, table_b),
        function,
        delta,
        check_cache_first,
        memo_backend,
        use_kernels,
        use_bounds,
    )
