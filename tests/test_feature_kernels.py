"""Tests for repro.kernels: token caches, batched kernels, cheap bounds.

Three layers of guarantees, in increasing scope:

1. **Unit** — the :class:`TokenCache` counts hits/misses and invalidates
   correctly; tokenizer ``cache_key`` distinguishes exactly the
   configurations that tokenize differently.
2. **Value identity** — ``FeatureKernels.compute`` and ``compute_column``
   return bit-for-bit the values of the uncached per-pair path, including
   the None/empty conventions, and bound decisions always agree with the
   full evaluation they skip.
3. **End to end** — sessions with kernels/bounds on produce the same
   labels as with them off, across datasets and across the full-run and
   streaming execution paths, and drift detection stays quiet under
   caching.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DebugSession
from repro.blocking import BLOCKER_REGISTRY
from repro.core.matchers import DynamicMemoMatcher, PrecomputeMatcher
from repro.core.parser import parse_function
from repro.core.rules import Feature, Predicate
from repro.data import CandidateSet, Record, Table
from repro.kernels import FeatureKernels, TokenCache, TokenPairMemo
from repro.learning import build_workload
from repro.observability import Observability, detect_drift
from repro.similarity import (
    Cosine,
    Dice,
    Jaccard,
    JaroWinkler,
    MongeElkan,
    NeedlemanWunsch,
    OverlapCoefficient,
    SoftTfIdf,
    Trigram,
    Tversky,
)
from repro.similarity.tokenizers import (
    WHITESPACE,
    DelimiterTokenizer,
    QgramTokenizer,
    WhitespaceTokenizer,
)
from repro.streaming import Delta, StreamingSession

# Every TokenSetSimilarity subclass eligible for the kernel path.
ELIGIBLE_SIMS = [
    Jaccard(),
    Dice(),
    OverlapCoefficient(),
    Cosine(),
    Trigram(),
    Tversky(alpha=0.4),
]

#: values chosen to hit every convention branch: plain text, shared and
#: disjoint tokens, empty-after-tokenization, and missing (None).
_VALUES_A = [
    "red apple pie",
    "blue sky atlas",
    "",
    None,
    "x1 x2 x1",
    "pear",
]
_VALUES_B = [
    "red apple tart",
    "",
    None,
    "blue sky atlas",
    "x1",
    "unrelated words entirely",
]


def _one_pair(text_a, text_b):
    """The only candidate pair of two one-record tables."""
    table_a = Table("A", ("text",))
    table_a.add(Record("a0", {"text": text_a}))
    table_b = Table("B", ("text",))
    table_b.add(Record("b0", {"text": text_b}))
    return CandidateSet.from_id_pairs(table_a, table_b, [("a0", "b0")])[0]


def _cross_candidates():
    table_a = Table("A", ("text",))
    for index, value in enumerate(_VALUES_A):
        table_a.add(Record(f"a{index}", {"text": value}))
    table_b = Table("B", ("text",))
    for index, value in enumerate(_VALUES_B):
        table_b.add(Record(f"b{index}", {"text": value}))
    pairs = [
        (a.record_id, b.record_id) for a in table_a for b in table_b
    ]
    return CandidateSet.from_id_pairs(table_a, table_b, pairs)


# ----------------------------------------------------------------------
# Tokenizer cache keys
# ----------------------------------------------------------------------

class TestTokenizerCacheKey:
    def test_equal_configuration_shares_a_key(self):
        assert WhitespaceTokenizer().cache_key() == WHITESPACE.cache_key()
        assert (
            QgramTokenizer(q=3, padded=True).cache_key()
            == QgramTokenizer(q=3, padded=True).cache_key()
        )

    def test_behavioural_differences_split_keys(self):
        assert (
            QgramTokenizer(q=3, padded=True).cache_key()
            != QgramTokenizer(q=3, padded=False).cache_key()
        )
        assert QgramTokenizer(q=2).cache_key() != QgramTokenizer(q=3).cache_key()
        assert (
            DelimiterTokenizer(",").cache_key()
            != DelimiterTokenizer(";").cache_key()
        )
        assert (
            WhitespaceTokenizer(lowercase=True).cache_key()
            != WhitespaceTokenizer(lowercase=False).cache_key()
        )

    def test_different_classes_never_collide(self):
        keys = {
            WhitespaceTokenizer().cache_key(),
            DelimiterTokenizer(" ").cache_key(),
            QgramTokenizer(q=3).cache_key(),
        }
        assert len(keys) == 3


# ----------------------------------------------------------------------
# TokenCache
# ----------------------------------------------------------------------

class TestTokenCache:
    def test_miss_then_hit(self):
        cache = TokenCache()
        record = Record("a1", {"title": "red apple"})
        key = cache.bucket("title", WHITESPACE)
        first = cache.token_set(key, "a", record, "title", WHITESPACE)
        second = cache.token_set(key, "a", record, "title", WHITESPACE)
        assert first == frozenset({"red", "apple"})
        assert first is second  # the cached object, not a re-tokenization
        assert cache.total_misses == 1
        assert cache.total_hits == 1
        assert len(cache) == 1

    def test_measures_with_same_tokenizer_share_a_bucket(self):
        cache = TokenCache()
        key_jaccard = cache.bucket("title", Jaccard().tokenizer)
        key_dice = cache.bucket("title", Dice().tokenizer)
        assert key_jaccard == key_dice
        assert len(cache.stats()) == 1

    def test_sides_are_distinct(self):
        cache = TokenCache()
        key = cache.bucket("text", WHITESPACE)
        record_a = Record("r1", {"text": "red"})
        record_b = Record("r1", {"text": "blue"})  # same id, other table
        set_a = cache.token_set(key, "a", record_a, "text", WHITESPACE)
        set_b = cache.token_set(key, "b", record_b, "text", WHITESPACE)
        assert set_a == frozenset({"red"})
        assert set_b == frozenset({"blue"})

    def test_invalidate_records_evicts_and_refreshes(self):
        cache = TokenCache()
        key = cache.bucket("text", WHITESPACE)
        record = Record("a1", {"text": "old value"})
        cache.token_set(key, "a", record, "text", WHITESPACE)
        assert cache.invalidate_records("a", ["a1", "missing"]) == 1
        assert len(cache) == 0
        replaced = Record("a1", {"text": "new value"})
        tokens = cache.token_set(key, "a", replaced, "text", WHITESPACE)
        assert tokens == frozenset({"new", "value"})

    def test_invalidate_other_side_is_noop(self):
        cache = TokenCache()
        key = cache.bucket("text", WHITESPACE)
        cache.token_set(key, "a", Record("a1", {"text": "red"}), "text", WHITESPACE)
        assert cache.invalidate_records("b", ["a1"]) == 0
        assert len(cache) == 1

    def test_stats_rows(self):
        cache = TokenCache()
        key = cache.bucket("title", WHITESPACE)
        record = Record("a1", {"title": "red"})
        cache.token_set(key, "a", record, "title", WHITESPACE)
        cache.token_set(key, "a", record, "title", WHITESPACE)
        (row,) = cache.stats()
        assert row["label"] == "title:ws"
        assert row["entries"] == 1
        assert row["hits"] == 1
        assert row["misses"] == 1
        assert row["hit_rate"] == 0.5

    def test_clear(self):
        cache = TokenCache()
        key = cache.bucket("text", WHITESPACE)
        cache.token_set(key, "a", Record("a1", {"text": "red"}), "text", WHITESPACE)
        cache.clear()
        assert len(cache) == 0


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------

class TestEligibility:
    @pytest.mark.parametrize(
        "sim", ELIGIBLE_SIMS, ids=lambda sim: sim.name
    )
    def test_token_set_measures_supported(self, sim):
        kernels = FeatureKernels()
        assert kernels.supports(Feature(sim, "text", "text"))

    def test_monge_elkan_supported(self):
        kernels = FeatureKernels()
        assert kernels.supports(Feature(MongeElkan(), "text", "text"))

    def test_needleman_wunsch_not_supported(self):
        kernels = FeatureKernels()
        assert not kernels.supports(Feature(NeedlemanWunsch(), "text", "text"))

    def test_compare_override_disables_the_kernel_path(self):
        class ForkedJaccard(Jaccard):
            def compare(self, x, y):  # pragma: no cover - never scored
                return 0.5

        kernels = FeatureKernels()
        assert not kernels.supports(Feature(ForkedJaccard(), "text", "text"))

    def test_unsupported_feature_falls_back_to_compute(self):
        kernels = FeatureKernels()
        feature = Feature(NeedlemanWunsch(), "text", "text")
        candidates = _cross_candidates()
        for pair in candidates:
            assert kernels.compute(feature, pair) == feature.compute(
                pair.record_a, pair.record_b
            )


# ----------------------------------------------------------------------
# Value identity
# ----------------------------------------------------------------------

class TestValueIdentity:
    @pytest.mark.parametrize("sim", ELIGIBLE_SIMS, ids=lambda sim: sim.name)
    def test_compute_is_bit_identical(self, sim):
        kernels = FeatureKernels()
        feature = Feature(sim, "text", "text")
        candidates = _cross_candidates()
        for pair in candidates:
            expected = feature.compute(pair.record_a, pair.record_b)
            assert kernels.compute(feature, pair) == expected
        # Every pair touched the same record cache; most accesses hit.
        assert kernels.cache.total_hits > kernels.cache.total_misses

    @pytest.mark.parametrize("sim", ELIGIBLE_SIMS, ids=lambda sim: sim.name)
    def test_compute_column_is_bit_identical(self, sim):
        kernels = FeatureKernels()
        feature = Feature(sim, "text", "text")
        candidates = _cross_candidates()
        column = kernels.compute_column(feature, candidates)
        reference = np.array(
            [
                feature.compute(pair.record_a, pair.record_b)
                for pair in candidates
            ],
            dtype=np.float64,
        )
        assert column.dtype == np.float64
        assert column.tobytes() == reference.tobytes()

    def test_precompute_matcher_batched_path_matches_seed(self):
        function = parse_function(
            """
            R1: jaccard_ws(text, text) >= 0.5 AND cosine_ws(text, text) >= 0.4
            R2: dice_ws(text, text) >= 0.9
            """
        )
        candidates = _cross_candidates()
        seed = PrecomputeMatcher().run(function, candidates)
        batched = PrecomputeMatcher(kernels=FeatureKernels()).run(
            function, candidates
        )
        assert np.array_equal(seed.labels, batched.labels)
        assert (
            seed.stats.feature_computations
            == batched.stats.feature_computations
        )
        assert (
            seed.stats.computations_by_feature
            == batched.stats.computations_by_feature
        )
        # The predicate decisions downstream of fill_column consumed the
        # batched columns, so label equality plus the column bit-identity
        # test above pins the memo contents too.
        assert seed.stats.memo_hits == batched.stats.memo_hits


# ----------------------------------------------------------------------
# Token-pair measures: Monge-Elkan and Soft TF-IDF through the memo
# ----------------------------------------------------------------------

#: Monge-Elkan and Soft TF-IDF with default and non-default secondaries,
#: tokenizers and thresholds (0.6 lets near tokens such as x1/x2 count).
TOKEN_PAIR_FEATURES = [
    Feature(MongeElkan(), "text", "text"),
    Feature(
        MongeElkan(JaroWinkler(0.25), QgramTokenizer(q=2)),
        "text",
        "text",
        name="me_qg2_w025",
    ),
    Feature(SoftTfIdf(), "text", "text"),
    Feature(SoftTfIdf(threshold=0.6), "text", "text", name="soft_06"),
]


class TestTokenPairMeasures:
    @pytest.mark.parametrize(
        "feature", TOKEN_PAIR_FEATURES, ids=lambda feature: feature.name
    )
    def test_compute_column_and_rows_are_bit_identical(self, feature):
        kernels = FeatureKernels()
        candidates = _cross_candidates()
        reference = np.array(
            [feature.compute(pair.record_a, pair.record_b) for pair in candidates],
            dtype=np.float64,
        )
        assert kernels.supports(feature)
        computed = np.array(
            [kernels.compute(feature, pair) for pair in candidates],
            dtype=np.float64,
        )
        assert computed.tobytes() == reference.tobytes()
        column = kernels.compute_column(feature, candidates)
        assert column.tobytes() == reference.tobytes()
        rows = np.array([7, 0, 35, 7, 12], dtype=np.int64)
        subset = kernels.compute_rows(feature, candidates, rows)
        assert subset.tobytes() == reference[rows].tobytes()
        assert kernels.token_pairs.total_hits > 0

    def test_monge_elkan_and_soft_tfidf_share_one_bucket(self):
        kernels = FeatureKernels()
        candidates = _cross_candidates()
        kernels.compute_column(Feature(MongeElkan(), "text", "text"), candidates)
        entries = len(kernels.token_pairs)
        kernels.compute_column(Feature(SoftTfIdf(), "text", "text"), candidates)
        assert [row["label"] for row in kernels.token_pairs.stats()] == [
            "pairs:jaro_winkler"
        ]
        # Monge-Elkan compared every token pair already.
        assert len(kernels.token_pairs) == entries

    @pytest.mark.parametrize(
        "secondaries, entries",
        [
            # bit-symmetric: one entry per unordered pair, 2 x 2 tokens
            ((JaroWinkler(0.1), JaroWinkler(0.25)), 4),
            # no symmetry proof: ordered keys, 2 x 2 tokens both directions
            (
                (
                    Jaccard(QgramTokenizer(q=2)),
                    Jaccard(QgramTokenizer(q=2, padded=False)),
                ),
                8,
            ),
        ],
        ids=["jaro_winkler_prefix_weight", "jaccard_qgram_padding"],
    )
    def test_equally_named_secondaries_do_not_share_memo_entries(
        self, secondaries, entries
    ):
        first, second = secondaries
        assert first.name == second.name
        light = Feature(MongeElkan(first), "text", "text", name="me_first")
        heavy = Feature(MongeElkan(second), "text", "text", name="me_second")
        kernels = FeatureKernels()
        pair = _one_pair("jon smith", "john smyth")
        got = [kernels.compute(feature, pair) for feature in (light, heavy)]
        want = [
            feature.compute(pair.record_a, pair.record_b) for feature in (light, heavy)
        ]
        assert want[0] != want[1]
        assert got == want
        stats = kernels.token_pairs.stats()
        assert len(stats) == 2
        assert [row["entries"] for row in stats] == [entries, entries]
        assert len({row["label"] for row in stats}) == 2

    def test_jaro_winkler_bucket_keys_unordered_pairs(self):
        secondary = JaroWinkler()
        memo = TokenPairMemo()
        lookup = memo.lookup(secondary)
        tokens = ["jon", "john", "Jon", "smith", "smyth", "x1", "x2", "marhta"]
        for x in tokens:
            for y in tokens:
                assert lookup(x, y) == secondary.compare(x, y)
                assert lookup(y, x) == secondary.compare(y, x)
        # one entry per unordered pair, the diagonal included
        assert len(memo) == len(tokens) * (len(tokens) + 1) // 2
        (row,) = memo.stats()
        assert row["misses"] == len(memo)
        assert row["hits"] == 2 * len(tokens) ** 2 - len(memo)

    def test_overridden_scoring_keeps_ordered_keys(self):
        class LopsidedJaroWinkler(JaroWinkler):
            """Asymmetric on purpose: halves the score when x sorts last."""

            def score_norms(self, x, y):
                score = super().score_norms(x, y)
                return score / 2.0 if x > y else score

        feature = Feature(MongeElkan(LopsidedJaroWinkler()), "text", "text")
        kernels = FeatureKernels()
        assert kernels.supports(feature)
        candidates = _cross_candidates()
        reference = np.array(
            [feature.compute(pair.record_a, pair.record_b) for pair in candidates],
            dtype=np.float64,
        )
        column = kernels.compute_column(feature, candidates)
        assert column.tobytes() == reference.tobytes()
        # 2 x 2 tokens, each pair under its own order: 8 entries
        pair = _one_pair("jon smith", "john smyth")
        fresh = FeatureKernels()
        assert fresh.compute(feature, pair) == feature.compute(
            pair.record_a, pair.record_b
        )
        assert len(fresh.token_pairs) == 8

    def test_corpus_backed_secondary_bypasses_the_memo(self):
        from repro.similarity import TfIdf

        feature = Feature(MongeElkan(TfIdf()), "text", "text")
        kernels = FeatureKernels()
        candidates = _cross_candidates()
        column = kernels.compute_column(feature, candidates)
        reference = np.array(
            [feature.compute(pair.record_a, pair.record_b) for pair in candidates],
            dtype=np.float64,
        )
        assert column.tobytes() == reference.tobytes()
        assert len(kernels.token_pairs) == 0

    def test_report_metrics_folds_memo_counters(self):
        from repro.observability.metrics import MetricsRegistry

        kernels = FeatureKernels()
        candidates = _cross_candidates()
        kernels.compute_column(Feature(MongeElkan(), "text", "text"), candidates)
        registry = MetricsRegistry()
        kernels.report_metrics(registry)
        assert registry.value("token_memo.miss") == len(kernels.token_pairs)
        assert registry.value("token_memo.hit") == kernels.token_pairs.total_hits > 0
        assert registry.value("cache.entries.pairs:jaro_winkler") == len(
            kernels.token_pairs
        )
        kernels.report_metrics(registry)  # no new work: no double counting
        assert registry.value("token_memo.miss") == len(kernels.token_pairs)


#: near-miss tokens (jon/john, smith/smyth, x1/x2) so the secondary
#: measure's scores, not just exact token equality, decide the values.
memo_token = st.sampled_from(["jon", "john", "smith", "smyth", "x1", "x2", "Jon"])
memo_value = st.one_of(
    st.none(), st.lists(memo_token, min_size=0, max_size=4).map(" ".join)
)


@given(
    values_a=st.lists(memo_value, min_size=1, max_size=4),
    values_b=st.lists(memo_value, min_size=1, max_size=4),
    steps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=len(TOKEN_PAIR_FEATURES) - 1),
            st.sampled_from(["compute", "column", "rows"]),
            st.lists(st.integers(min_value=0, max_value=15), max_size=6),
        ),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=60, deadline=None)
def test_shared_memo_never_changes_a_value(values_a, values_b, steps):
    """Features sharing one kernels object, in any interleaving, read
    exactly what a fresh ``feature.compute`` returns."""
    table_a = Table("A", ("text",))
    for index, value in enumerate(values_a):
        table_a.add(Record(f"a{index}", {"text": value}))
    table_b = Table("B", ("text",))
    for index, value in enumerate(values_b):
        table_b.add(Record(f"b{index}", {"text": value}))
    candidates = CandidateSet.from_id_pairs(
        table_a,
        table_b,
        [(a.record_id, b.record_id) for a in table_a for b in table_b],
    )
    kernels = FeatureKernels()
    for feature_index, kind, raw_rows in steps:
        feature = TOKEN_PAIR_FEATURES[feature_index]
        rows = np.array(
            [row % len(candidates) for row in raw_rows], dtype=np.int64
        )
        if kind == "column":
            rows = np.arange(len(candidates), dtype=np.int64)
            got = kernels.compute_column(feature, candidates)
        elif kind == "rows":
            got = kernels.compute_rows(feature, candidates, rows)
        else:
            got = np.array(
                [kernels.compute(feature, candidates[int(row)]) for row in rows],
                dtype=np.float64,
            )
        want = np.array(
            [
                feature.compute(candidates[int(row)].record_a, candidates[int(row)].record_b)
                for row in rows
            ],
            dtype=np.float64,
        )
        assert got.tobytes() == want.tobytes(), (feature.name, kind)


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------

class TestBounds:
    @pytest.mark.parametrize("sim", ELIGIBLE_SIMS, ids=lambda sim: sim.name)
    @pytest.mark.parametrize("op", [">=", ">", "==", "<=", "<"])
    def test_bound_decisions_match_full_evaluation(self, sim, op):
        kernels = FeatureKernels(use_bounds=True)
        feature = Feature(sim, "text", "text")
        candidates = _cross_candidates()
        decided_some = False
        for threshold in (0.05, 0.25, 0.5, 0.75, 0.95, 1.0):
            predicate = Predicate(feature, op, threshold)
            for pair in candidates:
                decided = kernels.bound_decision(predicate, pair)
                if decided is None:
                    continue
                decided_some = True
                truth = predicate.evaluate(
                    feature.compute(pair.record_a, pair.record_b)
                )
                assert decided == truth, (
                    f"{sim.name} {op} {threshold} on pair "
                    f"{pair.pair_id}: bound said {decided}"
                )
        if sim.name.startswith("overlap"):
            return  # its only upper bound is the trivial 1.0
        assert decided_some, f"{sim.name} {op}: no pair was ever decidable"

    def test_try_bound_counts_per_predicate(self):
        kernels = FeatureKernels(use_bounds=True)
        feature = Feature(Jaccard(), "text", "text")
        predicate = Predicate(feature, ">=", 0.9)
        candidates = _cross_candidates()
        for pair in candidates:
            kernels.try_bound(predicate, pair)
        assert kernels.total_bound_skips > 0
        assert kernels.bound_skips == {predicate.pid: kernels.total_bound_skips}

    def test_bounds_skip_computations_but_keep_labels(self):
        function = parse_function(
            """
            R1: jaccard_ws(text, text) >= 0.8
            R2: cosine_ws(text, text) >= 0.9
            """
        )
        candidates = _cross_candidates()
        seed = DynamicMemoMatcher().run(function, candidates)
        bounded_matcher = DynamicMemoMatcher(
            kernels=FeatureKernels(use_bounds=True)
        )
        bounded = bounded_matcher.run(function, candidates)
        assert np.array_equal(seed.labels, bounded.labels)
        assert bounded.stats.bound_skips > 0
        assert (
            bounded.stats.feature_computations
            < seed.stats.feature_computations
        )
        # Decisions (reached-predicate counts) are preserved; only the
        # *means* differ — that is what keeps selectivities drift-safe.
        assert (
            bounded.stats.predicate_evaluations + bounded.stats.bound_skips
            == seed.stats.predicate_evaluations
        )

    def test_kernels_without_bounds_change_no_counter(self):
        function = parse_function(
            """
            R1: jaccard_ws(text, text) >= 0.8
            R2: cosine_ws(text, text) >= 0.9
            """
        )
        candidates = _cross_candidates()
        seed = DynamicMemoMatcher().run(function, candidates)
        cached_matcher = DynamicMemoMatcher(
            kernels=FeatureKernels(use_bounds=False)
        )
        cached = cached_matcher.run(function, candidates)
        assert np.array_equal(seed.labels, cached.labels)
        assert cached.stats.bound_skips == 0
        assert (
            cached.stats.feature_computations == seed.stats.feature_computations
        )
        assert (
            cached.stats.predicate_evaluations
            == seed.stats.predicate_evaluations
        )
        assert cached.stats.memo_hits == seed.stats.memo_hits


# ----------------------------------------------------------------------
# End to end: sessions across datasets and execution paths
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def workloads():
    """Two small real-dataset workloads (token-heavy rule sets)."""
    return {
        name: build_workload(
            name, seed=13, scale=0.3, n_trees=10, max_depth=4, max_rules=24
        )
        for name in ("products", "restaurants")
    }


class TestSessionEquivalence:
    @pytest.mark.parametrize("dataset", ["products", "restaurants"])
    def test_cached_session_labels_match_the_uncached_session(
        self, workloads, dataset
    ):
        workload = workloads[dataset]
        baseline = DebugSession(
            workload.candidates,
            workload.function,
            ordering="original",
            use_kernels=False,
        )
        reference = baseline.run()

        cached = DebugSession(
            workload.candidates, workload.function, ordering="original"
        )
        assert cached.kernels is not None and cached.kernels.use_bounds
        serial = cached.run()
        assert np.array_equal(serial.labels, reference.labels)
        assert serial.stats.pairs_matched == reference.stats.pairs_matched
        assert cached.kernels.cache.total_hits > 0

    @pytest.mark.parametrize("dataset", ["products", "restaurants"])
    def test_cache_only_session_counters_equal_seed(self, workloads, dataset):
        workload = workloads[dataset]
        baseline = DebugSession(
            workload.candidates,
            workload.function,
            ordering="original",
            use_kernels=False,
        )
        reference = baseline.run()
        cached = DebugSession(
            workload.candidates,
            workload.function,
            ordering="original",
            use_bounds=False,
        )
        result = cached.run()
        assert np.array_equal(result.labels, reference.labels)
        assert (
            result.stats.feature_computations
            == reference.stats.feature_computations
        )
        assert (
            result.stats.predicate_evaluations
            == reference.stats.predicate_evaluations
        )
        assert result.stats.memo_hits == reference.stats.memo_hits
        assert sorted(baseline.state.memo.items()) == sorted(
            cached.state.memo.items()
        )

    def test_bounds_reduce_work_on_a_real_workload(self, workloads):
        workload = workloads["products"]
        baseline = DebugSession(
            workload.candidates,
            workload.function,
            ordering="original",
            use_kernels=False,
        )
        reference = baseline.run()
        bounded = DebugSession(
            workload.candidates, workload.function, ordering="original"
        )
        result = bounded.run()
        assert result.stats.bound_skips > 0
        assert (
            result.stats.feature_computations
            < reference.stats.feature_computations
        )

    def test_incremental_edits_stay_equivalent(self, workloads):
        from repro.core.changes import TightenPredicate

        workload = workloads["restaurants"]
        sessions = []
        for use_kernels in (False, True):
            session = DebugSession(
                workload.candidates,
                workload.function,
                ordering="original",
                use_kernels=use_kernels,
            )
            session.run()
            sessions.append(session)
        baseline, cached = sessions
        rule, predicate = next(
            (rule, predicate)
            for rule in baseline.function.rules
            for predicate in rule.predicates
            if predicate.op in (">=", ">", "<=", "<")
        )
        if predicate.op in (">=", ">"):
            tightened = min(1.0, predicate.threshold + 0.05)
        else:
            tightened = max(0.0, predicate.threshold - 0.05)
        baseline.apply(TightenPredicate(rule.name, predicate.slot, tightened))
        cached.apply(TightenPredicate(rule.name, predicate.slot, tightened))
        assert np.array_equal(baseline.state.labels, cached.state.labels)
        cached.state.check_soundness()

    def test_session_reports_cache_metrics(self, workloads):
        workload = workloads["products"]
        observability = Observability()
        session = DebugSession(
            workload.candidates,
            workload.function,
            ordering="original",
            observability=observability,
        )
        session.run()
        assert observability.metrics.value("cache.hit") > 0
        assert observability.metrics.value("cache.miss") > 0
        assert observability.metrics.value("bound.skip") > 0

    def test_caching_adds_no_spurious_drift(self, workloads):
        """The drift verdicts with caching on equal those with it off.

        Some predicate drift is inherent here (sampled estimates vs
        early-exit-conditioned observations); the guarantee under test is
        that enabling caches/bounds flips no drift verdict.  The observed
        selectivities themselves may shift by a hair: a bound-decided
        feature is never memoized, and ``check_cache_first`` orders a
        rule's predicates by memo membership, so widening bound coverage
        legitimately changes which predicate of a rule is sampled first
        for a handful of pairs.  Labels and verdicts stay identical.
        """
        from repro.core import CostEstimator

        workload = workloads["products"]
        estimator = CostEstimator(
            sample_fraction=0.1, seed=3, mode="calibrated"
        )
        estimates = estimator.estimate(workload.function, workload.candidates)
        # Estimating *with* kernels also samples the skip rates the planner
        # uses to discount bound-covered predicates.
        with_kernels = estimator.estimate(
            workload.function,
            workload.candidates,
            kernels=FeatureKernels(use_bounds=True),
        )
        assert with_kernels.bound_skip_rates

        reports = {}
        for use_kernels in (False, True):
            observability = Observability()
            observability.enable_profiling(sample_every=4)
            session = DebugSession(
                workload.candidates,
                workload.function,
                ordering="original",  # identical order: verdicts comparable
                observability=observability,
                use_kernels=use_kernels,
            )
            session.run()
            if use_kernels:
                assert observability.profiler.bound_skips
            reports[use_kernels] = detect_drift(
                workload.function,
                estimates,
                observability.profiler,
                ordering_strategy="original",
            )

        def selectivity_verdicts(report):
            return {
                (drift.pid, drift.drifted) for drift in report.predicates
            }

        assert selectivity_verdicts(reports[True]) == selectivity_verdicts(
            reports[False]
        )
        observed = {
            drift.pid: drift.observed_selectivity
            for drift in reports[True].predicates
        }
        for drift in reports[False].predicates:
            assert observed[drift.pid] == pytest.approx(
                drift.observed_selectivity, abs=0.05
            )


# ----------------------------------------------------------------------
# Streaming: caches + deltas
# ----------------------------------------------------------------------

STREAM_FUNCTION_TEXT = """
R1: jaccard_ws(text, text) >= 0.5
R2: dice_ws(text, text) >= 0.8 AND cosine_ws(text, text) >= 0.6
"""

token_strategy = st.sampled_from(["red", "blue", "apple", "pear", "x1", "x2"])
value_strategy = st.one_of(
    st.none(),
    st.lists(token_strategy, min_size=0, max_size=4).map(" ".join),
)


@st.composite
def tables_strategy(draw):
    table_a = Table("A", ("text",))
    table_b = Table("B", ("text",))
    for index in range(draw(st.integers(min_value=1, max_value=5))):
        table_a.add(Record(f"a{index}", {"text": draw(value_strategy)}))
    for index in range(draw(st.integers(min_value=1, max_value=5))):
        table_b.add(Record(f"b{index}", {"text": draw(value_strategy)}))
    return table_a, table_b


@st.composite
def delta_strategy(draw, table_a, table_b):
    """One applicable :class:`repro.streaming.Delta` for the live tables."""
    side = draw(st.sampled_from(["a", "b"]))
    table = table_a if side == "a" else table_b
    choices = ["insert"]
    if len(table) > 1:
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
        return Delta("insert", side, record_id, {"text": draw(value_strategy)})
    record_id = draw(st.sampled_from([record.record_id for record in table]))
    if op == "delete":
        return Delta.delete(side, record_id)
    return Delta("update", side, record_id, {"text": draw(value_strategy)})


class TestStreamingWithCaches:
    def test_update_delta_invalidates_the_token_cache(self):
        table_a = Table("A", ("text",))
        table_a.add(Record("a1", {"text": "red apple pie"}))
        table_b = Table("B", ("text",))
        table_b.add(Record("b1", {"text": "red apple pie"}))
        blocker = BLOCKER_REGISTRY["cartesian"]("text")
        streaming = StreamingSession(
            table_a,
            table_b,
            blocker,
            parse_function(STREAM_FUNCTION_TEXT),
            ordering="original",
        )
        streaming.run()
        assert bool(streaming.state.labels[0])
        # Stale cached tokens would keep the pair matched after this edit.
        streaming.ingest(Delta("update", "a", "a1", {"text": "entirely different"}))
        assert not bool(streaming.state.labels[0])

    @pytest.mark.parametrize("blocker_name", sorted(BLOCKER_REGISTRY))
    @given(tables=tables_strategy(), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_ingest_with_caches_equals_cold_full_rematch(
        self, blocker_name, tables, data
    ):
        """Streaming state (warm caches) == cold uncached from-scratch run."""
        table_a, table_b = tables
        factory = BLOCKER_REGISTRY[blocker_name]
        function = parse_function(STREAM_FUNCTION_TEXT)
        streaming = StreamingSession(
            table_a, table_b, factory("text"), function, ordering="original"
        )
        streaming.run()
        assert streaming.session.kernels is not None
        for _ in range(3):
            delta = data.draw(delta_strategy(table_a, table_b))
            streaming.ingest(delta)
            reference = DebugSession(
                factory("text").block(table_a, table_b),
                function,
                ordering="original",
                use_kernels=False,
            )
            reference.run()
            got = {
                pair_id: bool(streaming.state.labels[index])
                for index, pair_id in enumerate(streaming.candidates.id_pairs())
            }
            want = {
                pair_id: bool(reference.state.labels[index])
                for index, pair_id in enumerate(reference.candidates.id_pairs())
            }
            assert got == want, (
                f"{blocker_name}: labels diverge after "
                f"{delta.op} {delta.side}:{delta.record_id}"
            )
            streaming.state.check_soundness()


# ----------------------------------------------------------------------
# Stats / profiler accounting
# ----------------------------------------------------------------------

class TestAccounting:
    def test_match_stats_merge_carries_bound_skips(self):
        from repro.core.stats import MatchStats

        first = MatchStats(bound_skips=3)
        second = MatchStats(bound_skips=4)
        assert first.merged_with(second).bound_skips == 7

    def test_profiler_bound_skips_survive_snapshot_and_merge(self):
        from repro.observability import Profiler

        profiler = Profiler()
        profiler.record_bound_skip("p1")
        profiler.record_bound_skip("p1")
        other = Profiler()
        other.record_bound_skip("p1")
        other.record_bound_skip("p2")
        profiler.merge(other.snapshot())
        assert profiler.bound_skips == {"p1": 3, "p2": 1}
        clone = Profiler.from_snapshot(profiler.snapshot())
        assert clone.bound_skips == {"p1": 3, "p2": 1}
        # Pre-existing snapshots without the key still merge.
        legacy = profiler.snapshot()
        del legacy["bound_skips"]
        assert Profiler.from_snapshot(legacy).bound_skips == {}

    def test_report_metrics_is_delta_based(self):
        from repro.observability.metrics import MetricsRegistry

        kernels = FeatureKernels(use_bounds=True)
        feature = Feature(Jaccard(), "text", "text")
        candidates = _cross_candidates()
        for pair in candidates:
            kernels.compute(feature, pair)
        registry = MetricsRegistry()
        kernels.report_metrics(registry)
        first_hits = registry.value("cache.hit")
        kernels.report_metrics(registry)  # no new work: no double counting
        assert registry.value("cache.hit") == first_hits

    def test_unsupported_metric_counts_each_feature_once(self):
        from repro.observability.metrics import MetricsRegistry

        kernels = FeatureKernels()
        supported = Feature(Jaccard(), "text", "text")
        unsupported = Feature(NeedlemanWunsch(), "text", "text")
        assert kernels.supports(supported)
        assert not kernels.supports(unsupported)
        registry = MetricsRegistry()
        kernels.report_metrics(registry)
        assert registry.value("engine.kernel_unsupported") == 1
        kernels.report_metrics(registry)  # one-time: no re-count
        assert registry.value("engine.kernel_unsupported") == 1
        assert "kernel family" in kernels.support_reason(unsupported)
        assert kernels.support_reason(supported) is None

    def test_drain_unsupported_is_one_shot(self):
        kernels = FeatureKernels()
        unsupported = Feature(NeedlemanWunsch(), "text", "text")
        kernels.supports(unsupported)
        drained = kernels.drain_unsupported()
        assert [name for name, _ in drained] == [unsupported.name]
        assert "kernel family" in drained[0][1]
        assert kernels.drain_unsupported() == []

    def test_session_traces_unsupported_features(self):
        function = parse_function(
            "R1: jaccard_ws(text, text) >= 0.3 AND "
            "needleman_wunsch(text, text) >= 0.9"
        )
        observability = Observability()
        session = DebugSession(
            _cross_candidates(), function, observability=observability
        )
        session.run()
        spans = [
            record
            for record in observability.tracer.log
            if record.name == "kernel.unsupported"
        ]
        assert len(spans) == 1
        assert "needleman_wunsch" in spans[0].attrs["feature"]
        assert "kernel family" in spans[0].attrs["reason"]
        session.run()  # one-shot: a second run adds no new fact
        assert (
            sum(
                1
                for record in observability.tracer.log
                if record.name == "kernel.unsupported"
            )
            == 1
        )
