"""FeatureKernels: cached, batched, bound-aware feature computation.

This is the façade the matchers talk to.  It owns one
:class:`~repro.kernels.cache.TokenCache` (token sets), one
:class:`~repro.kernels.cache.DerivedValueCache` (normalized strings,
parsed numbers, TF-IDF vectors, token lists) and one
:class:`~repro.kernels.cache.TokenPairMemo` (secondary-measure scores of
token pairs), and exposes three operations:

* :meth:`FeatureKernels.compute` — per-pair feature value through the
  caches.  Bit-identical to ``Feature.compute``: raw ``None`` on either
  side scores 0.0 (mirroring ``SimilarityFunction.__call__``), otherwise
  the cached derived forms feed the measure's family scoring hook
  (``score_sets`` / ``score_norms`` / ``score_numbers`` /
  ``score_vectors`` / ``score_tokens``), the exact same code the
  uncached path runs.
* :meth:`FeatureKernels.compute_column` / :meth:`compute_rows` — a whole
  score column in one pass.  Families with a vectorized hook
  (``from_counts``, ``from_numbers``, or the interned hash-compare of the
  exact family) gather inputs in a single Python loop and score on
  float64 ndarrays; the hook replicates the scalar arithmetic
  operation-for-operation, so the column equals the per-pair loop
  bit-for-bit.  Families without one batch the cached per-pair scoring.
* :meth:`FeatureKernels.try_bound` / :meth:`bound_rows` — decide a
  threshold predicate from cheap per-record statistics alone (token-set
  sizes via ``upper_bound``, normalized string lengths via
  ``upper_bound_lengths``).  The bound provably dominates every computed
  score for the observed statistics, so a decision is only returned when
  it is what the full evaluation would produce.

Kernel families
---------------
Eligibility is per *family* base class, provided the subclass keeps the
base's ``compare`` (and family scoring pipeline) intact:

* :class:`~repro.similarity.token_based.TokenSetSimilarity` — token-set
  measures (Jaccard, Dice, cosine, trigram, Soundex, ...).
* :class:`~repro.similarity.base.NormalizedStringSimilarity` — exact and
  character measures (exact match, Levenshtein family, Jaro family,
  prefix/suffix), with the exact subfamily
  (:class:`~repro.similarity.base.ExactStringSimilarity`) additionally
  scored as a vectorized interned-id hash compare.
* :class:`~repro.similarity.numeric.NumericSimilarity` — parsed-number
  measures, scored as direct NumPy columns.
* :class:`~repro.similarity.tfidf.CorpusVectorSimilarity` — TF-IDF
  family, with the per-record weighted vector cached against the bound
  corpus (plans are invalidated when ``bind_corpus`` swaps it).
* :class:`~repro.similarity.token_based.MongeElkan` — per-record token
  lists from the derived-value cache.

Monge-Elkan and Soft TF-IDF score through their secondary measure's
bucket of the token-pair memo: the measure's own scoring code runs with
the memo's lookup in place of ``secondary.compare``, so each token
pair is compared once per kernels object, whichever feature, pair or
run asks (once per unordered pair under a Jaro-family secondary, whose
scores are bit-symmetric).  The memo lives as long as this object (a
session or a streaming session) and is never persisted.

Everything else (Needleman-Wunsch, Smith-Waterman, Editex, Nysiis,
Hamming, bag measures, user measures overriding ``compare``) falls
through to the seed per-pair path untouched; the reason is recorded and
surfaced via :meth:`FeatureKernels.support_reason`, a one-time
``engine.kernel_unsupported`` metric, and :meth:`drain_unsupported`
trace facts, so coverage regressions are observable instead of silent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..similarity.base import (
    ExactStringSimilarity,
    NormalizedStringSimilarity,
    coerce,
)
from ..similarity.numeric import NumericSimilarity, parse_number
from ..similarity.tfidf import CorpusVectorSimilarity, SoftTfIdf
from ..similarity.token_based import MongeElkan, TokenSetSimilarity
from .cache import DerivedValueCache, TokenCache, TokenPairMemo


def _decide(bound: float, op: str, threshold: float) -> Optional[bool]:
    """The predicate outcome a score upper bound proves, else None.

    Sound by construction: ``score <= bound`` for every computed score,
    so ``bound < t`` proves ``score >= t`` is False (and ``bound <= t``
    proves ``score <= t`` is True).
    """
    if op == ">=":
        return False if bound < threshold else None
    if op == ">":
        return False if bound <= threshold else None
    if op == "==":
        return False if bound < threshold else None
    if op == "<=":
        return True if bound <= threshold else None
    if op == "<":
        return True if bound < threshold else None
    return None


class _TokenPlan:
    """Hot-path handles for one token-set feature."""

    __slots__ = (
        "sim",
        "tokenizer",
        "attr_a",
        "attr_b",
        "key_a",
        "key_b",
        "from_counts",
        "has_bound",
    )

    def __init__(self, feature, cache: TokenCache):
        sim = feature.sim
        self.sim = sim
        self.tokenizer = sim.tokenizer
        self.attr_a = feature.attr_a
        self.attr_b = feature.attr_b
        self.key_a = cache.bucket(feature.attr_a, sim.tokenizer)
        self.key_b = cache.bucket(feature.attr_b, sim.tokenizer)
        self.from_counts = sim.from_counts
        self.has_bound = type(sim).upper_bound is not TokenSetSimilarity.upper_bound

    def stale(self) -> bool:
        return False

    def sets(self, cache: TokenCache, pair):
        record_a, record_b = pair.record_a, pair.record_b
        if record_a.get(self.attr_a) is None or record_b.get(self.attr_b) is None:
            return None
        set_a = cache.token_set(
            self.key_a, "a", record_a, self.attr_a, self.tokenizer
        )
        set_b = cache.token_set(
            self.key_b, "b", record_b, self.attr_b, self.tokenizer
        )
        return set_a, set_b

    def score_pair(self, caches, pair) -> float:
        sets = self.sets(caches[0], pair)
        if sets is None:
            return 0.0
        return self.sim.score_sets(*sets)

    def scores(self, caches, pairs, n: int) -> np.ndarray:
        cache = caches[0]
        if self.from_counts is None:
            return np.fromiter(
                (self.score_pair(caches, pair) for pair in pairs),
                dtype=np.float64,
                count=n,
            )
        intersection = np.empty(n, dtype=np.int64)
        size_x = np.ones(n, dtype=np.int64)
        size_y = np.ones(n, dtype=np.int64)
        special = []  # (row, score) for None/empty rows the formula skips
        key_a, key_b = self.key_a, self.key_b
        attr_a, attr_b = self.attr_a, self.attr_b
        tokenizer = self.tokenizer
        for row, pair in enumerate(pairs):
            record_a, record_b = pair.record_a, pair.record_b
            if record_a.get(attr_a) is None or record_b.get(attr_b) is None:
                intersection[row] = 0
                special.append((row, 0.0))
                continue
            set_a = cache.token_set(key_a, "a", record_a, attr_a, tokenizer)
            set_b = cache.token_set(key_b, "b", record_b, attr_b, tokenizer)
            len_a, len_b = len(set_a), len(set_b)
            if len_a == 0 or len_b == 0:
                intersection[row] = 0
                special.append((row, 1.0 if len_a == len_b else 0.0))
                continue
            intersection[row] = len(set_a & set_b)
            size_x[row] = len_a
            size_y[row] = len_b
        column = np.asarray(
            self.from_counts(intersection, size_x, size_y), dtype=np.float64
        )
        for row, score in special:
            column[row] = score
        return column

    def bound_value(self, caches, pair) -> Optional[float]:
        sets = self.sets(caches[0], pair)
        if sets is None:
            return None  # full path is already trivially cheap (0.0)
        set_a, set_b = sets
        if not set_a or not set_b:
            return None
        return self.sim.upper_bound(len(set_a), len(set_b))


class _StringPlan:
    """Hot-path handles for one normalized-string feature.

    The cached derived form is the normalized string (``None`` for a raw
    ``None`` value).  Exact measures score as a vectorized interned-id
    compare; other members batch the cached per-pair ``score_norms``.
    """

    __slots__ = (
        "sim",
        "attr_a",
        "attr_b",
        "key_a",
        "key_b",
        "exact",
        "has_bound",
        "_derive",
    )

    def __init__(self, feature, values: DerivedValueCache):
        sim = feature.sim
        self.sim = sim
        self.attr_a = feature.attr_a
        self.attr_b = feature.attr_b
        kind = ("norm", sim.normalize_key)
        label = f"norm:{sim.normalize_key}"
        self.key_a = values.bucket(feature.attr_a, kind, label)
        self.key_b = values.bucket(feature.attr_b, kind, label)
        self.exact = isinstance(sim, ExactStringSimilarity)
        self.has_bound = (
            type(sim).upper_bound_lengths
            is not NormalizedStringSimilarity.upper_bound_lengths
        )
        normalize = sim.kernel_normalize

        def derive(raw):
            if raw is None:
                return None
            return normalize(coerce(raw))

        self._derive = derive

    def stale(self) -> bool:
        return False

    def norms(self, values: DerivedValueCache, pair):
        norm_a = values.value(
            self.key_a, "a", pair.record_a, self.attr_a, self._derive
        )
        norm_b = values.value(
            self.key_b, "b", pair.record_b, self.attr_b, self._derive
        )
        return norm_a, norm_b

    def score_pair(self, caches, pair) -> float:
        norm_a, norm_b = self.norms(caches[1], pair)
        if norm_a is None or norm_b is None:
            return 0.0
        return self.sim.score_norms(norm_a, norm_b)

    def scores(self, caches, pairs, n: int) -> np.ndarray:
        values = caches[1]
        if not self.exact:
            # Batched column over cached norms: one normalization per
            # record, the exact scalar score_norms per surviving pair.
            return np.fromiter(
                (self.score_pair(caches, pair) for pair in pairs),
                dtype=np.float64,
                count=n,
            )
        # Exact family: intern each distinct normalized value to an int id
        # once, then one vectorized equality compare scores the column.
        # score_norms is equality plus the both-empty convention, so the
        # hash-compare reproduces it exactly (empty interns to one id).
        ids = {}
        ids_a = np.empty(n, dtype=np.int64)
        ids_b = np.empty(n, dtype=np.int64)
        key_a, key_b = self.key_a, self.key_b
        attr_a, attr_b = self.attr_a, self.attr_b
        derive = self._derive
        for row, pair in enumerate(pairs):
            norm_a = values.value(key_a, "a", pair.record_a, attr_a, derive)
            norm_b = values.value(key_b, "b", pair.record_b, attr_b, derive)
            if norm_a is None or norm_b is None:
                ids_a[row] = -1  # None rows score 0.0: -1 never equals -2
                ids_b[row] = -2
                continue
            id_a = ids.get(norm_a)
            if id_a is None:
                id_a = ids[norm_a] = len(ids)
            id_b = ids.get(norm_b)
            if id_b is None:
                id_b = ids[norm_b] = len(ids)
            ids_a[row] = id_a
            ids_b[row] = id_b
        column = np.where(ids_a == ids_b, 1.0, 0.0)
        empty_id = ids.get("")
        if empty_id is not None and self.sim.empty_equal_score != 1.0:
            both_empty = (ids_a == empty_id) & (ids_b == empty_id)
            column[both_empty] = self.sim.empty_equal_score
        return column

    def bound_value(self, caches, pair) -> Optional[float]:
        norm_a, norm_b = self.norms(caches[1], pair)
        if norm_a is None or norm_b is None:
            return None  # full path is already trivially cheap (0.0)
        return self.sim.upper_bound_lengths(len(norm_a), len(norm_b))


class _NumericPlan:
    """Hot-path handles for one parsed-number feature.

    The cached derived form is the parsed float (``None`` for a raw
    ``None`` value *or* a parse failure — both score 0.0).
    """

    __slots__ = (
        "sim",
        "attr_a",
        "attr_b",
        "key_a",
        "key_b",
        "from_numbers",
        "has_bound",
    )

    def __init__(self, feature, values: DerivedValueCache):
        sim = feature.sim
        self.sim = sim
        self.attr_a = feature.attr_a
        self.attr_b = feature.attr_b
        kind = ("number",)
        self.key_a = values.bucket(feature.attr_a, kind, "number")
        self.key_b = values.bucket(feature.attr_b, kind, "number")
        self.from_numbers = sim.from_numbers
        self.has_bound = False

    def stale(self) -> bool:
        return False

    @staticmethod
    def _derive(raw):
        if raw is None:
            return None
        return parse_number(coerce(raw))

    def score_pair(self, caches, pair) -> float:
        values = caches[1]
        nx = values.value(self.key_a, "a", pair.record_a, self.attr_a, self._derive)
        ny = values.value(self.key_b, "b", pair.record_b, self.attr_b, self._derive)
        if nx is None or ny is None:
            return 0.0
        return self.sim.score_numbers(nx, ny)

    def scores(self, caches, pairs, n: int) -> np.ndarray:
        values = caches[1]
        if self.from_numbers is None:
            return np.fromiter(
                (self.score_pair(caches, pair) for pair in pairs),
                dtype=np.float64,
                count=n,
            )
        numbers_x = np.zeros(n, dtype=np.float64)
        numbers_y = np.zeros(n, dtype=np.float64)
        unparsed: List[int] = []  # rows that score 0.0 before the formula
        key_a, key_b = self.key_a, self.key_b
        attr_a, attr_b = self.attr_a, self.attr_b
        derive = self._derive
        for row, pair in enumerate(pairs):
            nx = values.value(key_a, "a", pair.record_a, attr_a, derive)
            ny = values.value(key_b, "b", pair.record_b, attr_b, derive)
            if nx is None or ny is None:
                unparsed.append(row)
                continue
            numbers_x[row] = nx
            numbers_y[row] = ny
        column = np.asarray(
            self.from_numbers(numbers_x, numbers_y), dtype=np.float64
        )
        for row in unparsed:
            column[row] = 0.0
        return column

    def bound_value(self, caches, pair) -> Optional[float]:
        return None


class _VectorPlan:
    """Hot-path handles for one corpus-vector (TF-IDF family) feature.

    The cached derived form is the ``(tokenized_to_nothing, weighted
    vector)`` pair — valid only against the corpus it was weighted by, so
    the bucket kind includes the corpus identity and :meth:`stale`
    invalidates the plan when ``bind_corpus`` swaps the corpus.  The plan
    holds a strong reference to the corpus so the ``id()`` in the bucket
    key cannot be recycled while the plan is alive.  ``lookup`` is the
    token-pair memo of a Soft TF-IDF secondary (``None`` for plain
    TF-IDF); the memo is keyed by tokens alone, so a corpus swap leaves
    it valid.
    """

    __slots__ = (
        "sim",
        "corpus",
        "attr_a",
        "attr_b",
        "key_a",
        "key_b",
        "lookup",
        "has_bound",
    )

    def __init__(self, feature, values: DerivedValueCache, lookup):
        sim = feature.sim
        self.sim = sim
        self.corpus = sim.corpus
        self.attr_a = feature.attr_a
        self.attr_b = feature.attr_b
        kind = ("tfidf", sim.tokenizer.cache_key(), id(sim.corpus))
        label = f"tfidf:{sim.tokenizer.name}"
        self.key_a = values.bucket(feature.attr_a, kind, label)
        self.key_b = values.bucket(feature.attr_b, kind, label)
        self.lookup = lookup
        self.has_bound = False

    def stale(self) -> bool:
        return self.sim.corpus is not self.corpus

    def _derive(self, raw):
        if raw is None:
            return None
        return self.sim.weight_vector(coerce(raw))

    def score_pair(self, caches, pair) -> float:
        values = caches[1]
        weighted_a = values.value(
            self.key_a, "a", pair.record_a, self.attr_a, self._derive
        )
        weighted_b = values.value(
            self.key_b, "b", pair.record_b, self.attr_b, self._derive
        )
        if weighted_a is None or weighted_b is None:
            return 0.0
        empty_a, vector_a = weighted_a
        empty_b, vector_b = weighted_b
        return self.sim.score_vectors(
            empty_a, vector_a, empty_b, vector_b, self.lookup
        )

    def scores(self, caches, pairs, n: int) -> np.ndarray:
        # Scoring is inherently pair-wise Python; the win is the cached
        # per-record weighting (tokenize + idf + normalize once).
        return np.fromiter(
            (self.score_pair(caches, pair) for pair in pairs),
            dtype=np.float64,
            count=n,
        )

    def bound_value(self, caches, pair) -> Optional[float]:
        return None


class _TokenListPlan:
    """Hot-path handles for one Monge-Elkan feature.

    The cached derived form is the value's token list (``None`` for a raw
    ``None`` value); ``lookup`` is the secondary measure's token-pair
    memo, handed to the measure's own ``score_tokens``.
    """

    __slots__ = ("sim", "attr_a", "attr_b", "key_a", "key_b", "lookup", "_derive")

    has_bound = False

    def __init__(self, feature, values: DerivedValueCache, lookup):
        sim = feature.sim
        self.sim = sim
        self.attr_a = feature.attr_a
        self.attr_b = feature.attr_b
        kind = ("tokens", sim.tokenizer.cache_key())
        label = f"tokens:{sim.tokenizer.name}"
        self.key_a = values.bucket(feature.attr_a, kind, label)
        self.key_b = values.bucket(feature.attr_b, kind, label)
        self.lookup = lookup
        tokenize = sim.tokenizer.tokenize

        def derive(raw):
            if raw is None:
                return None
            return tuple(tokenize(coerce(raw)))

        self._derive = derive

    def stale(self) -> bool:
        return False

    def score_pair(self, caches, pair) -> float:
        values = caches[1]
        tokens_a = values.value(
            self.key_a, "a", pair.record_a, self.attr_a, self._derive
        )
        tokens_b = values.value(
            self.key_b, "b", pair.record_b, self.attr_b, self._derive
        )
        if tokens_a is None or tokens_b is None:
            return 0.0
        return self.sim.score_tokens(tokens_a, tokens_b, self.lookup)

    def scores(self, caches, pairs, n: int) -> np.ndarray:
        return np.fromiter(
            (self.score_pair(caches, pair) for pair in pairs),
            dtype=np.float64,
            count=n,
        )

    def bound_value(self, caches, pair) -> Optional[float]:
        return None


class FeatureKernels:
    """Record-cached feature computation with optional bound skipping.

    One instance per matching scope (a :class:`~repro.core.session.DebugSession`
    or a streaming session).  ``use_bounds`` gates
    :meth:`try_bound` only; caching and batched computation are always on
    because they are pure speedups with bit-identical outputs, whereas a
    bound decision changes *which* features get computed and memoized.
    """

    def __init__(self, cache: Optional[TokenCache] = None, use_bounds: bool = False):
        self.cache = cache if cache is not None else TokenCache()
        self.values = DerivedValueCache()
        self.token_pairs = TokenPairMemo()
        self.use_bounds = use_bounds
        #: predicate pid -> number of evaluations decided from bounds alone
        self.bound_skips: Dict[str, int] = {}
        self._plans: Dict[str, object] = {}
        #: feature name -> human-readable reason the kernel path declined it
        self._unsupported: Dict[str, str] = {}
        self._unsupported_counted: set = set()
        self._unsupported_drained: set = set()
        #: counter name -> total already folded into a registry
        self._reported: Dict[str, int] = {}

    @property
    def _caches(self) -> tuple:
        return (self.cache, self.values)

    # ---------------------------------------------------------- eligibility

    def supports(self, feature) -> bool:
        """True when ``feature`` can run through the cached kernel path."""
        return self._plan(feature) is not None

    def has_bound(self, feature) -> bool:
        """True when the feature's measure exposes a cheap upper bound."""
        plan = self._plan(feature)
        return plan is not None and plan.has_bound

    def support_reason(self, feature) -> Optional[str]:
        """Why ``feature`` is not kernel-supported, or None if it is."""
        if self._plan(feature) is not None:
            return None
        return self._unsupported[feature.name]

    def _classify(self, feature) -> Tuple[Optional[object], Optional[str]]:
        """(plan, None) for a supported feature, (None, reason) otherwise."""
        sim = feature.sim
        if isinstance(sim, TokenSetSimilarity):
            # A subclass overriding compare/score_sets has forked the
            # scoring path; routing it through cached sets could change
            # its output.
            if type(sim).compare is not TokenSetSimilarity.compare:
                return None, f"{type(sim).__name__} overrides TokenSetSimilarity.compare"
            if type(sim).score_sets is not TokenSetSimilarity.score_sets:
                return None, f"{type(sim).__name__} overrides TokenSetSimilarity.score_sets"
            return _TokenPlan(feature, self.cache), None
        if isinstance(sim, NormalizedStringSimilarity):
            if type(sim).compare is not NormalizedStringSimilarity.compare:
                return None, (
                    f"{type(sim).__name__} overrides NormalizedStringSimilarity.compare"
                )
            return _StringPlan(feature, self.values), None
        if isinstance(sim, NumericSimilarity):
            if type(sim).compare is not NumericSimilarity.compare:
                return None, f"{type(sim).__name__} overrides NumericSimilarity.compare"
            return _NumericPlan(feature, self.values), None
        if isinstance(sim, CorpusVectorSimilarity):
            if type(sim).compare is not CorpusVectorSimilarity.compare:
                return None, (
                    f"{type(sim).__name__} overrides CorpusVectorSimilarity.compare"
                )
            if type(sim).score_vectors is not CorpusVectorSimilarity.score_vectors:
                return None, (
                    f"{type(sim).__name__} overrides CorpusVectorSimilarity.score_vectors"
                )
            lookup = (
                self._secondary_lookup(sim.secondary)
                if isinstance(sim, SoftTfIdf)
                else None
            )
            return _VectorPlan(feature, self.values, lookup), None
        if isinstance(sim, MongeElkan):
            if type(sim).compare is not MongeElkan.compare:
                return None, f"{type(sim).__name__} overrides MongeElkan.compare"
            if type(sim).score_tokens is not MongeElkan.score_tokens:
                return None, f"{type(sim).__name__} overrides MongeElkan.score_tokens"
            lookup = self._secondary_lookup(sim.secondary)
            return _TokenListPlan(feature, self.values, lookup), None
        return None, f"{type(sim).__name__} has no kernel family (per-pair scalar only)"

    def _secondary_lookup(self, secondary):
        """``secondary.compare`` through the token-pair memo — bare for a
        corpus-backed secondary, whose scores ``bind_corpus`` can change
        under a memo keyed by tokens alone."""
        if secondary.needs_corpus:
            return secondary.compare
        return self.token_pairs.lookup(secondary)

    def _plan(self, feature):
        plan = self._plans.get(feature.name, False)
        if plan is not False and (plan is None or not plan.stale()):
            return plan
        plan, reason = self._classify(feature)
        self._plans[feature.name] = plan
        if reason is not None:
            self._unsupported[feature.name] = reason
        return plan

    def drain_unsupported(self) -> List[Tuple[str, str]]:
        """(feature name, reason) pairs not yet drained — one-shot, for
        trace facts; each unsupported feature is reported exactly once."""
        fresh = [
            (name, reason)
            for name, reason in sorted(self._unsupported.items())
            if name not in self._unsupported_drained
        ]
        self._unsupported_drained.update(name for name, _ in fresh)
        return fresh

    # -------------------------------------------------------------- compute

    def compute(self, feature, pair) -> float:
        """``feature.compute(pair)`` through the record caches."""
        plan = self._plan(feature)
        if plan is None:
            return feature.compute(pair.record_a, pair.record_b)
        return plan.score_pair(self._caches, pair)

    def compute_column(self, feature, candidates) -> np.ndarray:
        """The feature's score for every pair, as one float64 column."""
        n = len(candidates)
        plan = self._plan(feature)
        if plan is None:
            return np.fromiter(
                (
                    feature.compute(pair.record_a, pair.record_b)
                    for pair in candidates
                ),
                dtype=np.float64,
                count=n,
            )
        return plan.scores(self._caches, iter(candidates), n)

    def compute_rows(self, feature, candidates, rows) -> np.ndarray:
        """The feature's score for the given candidate rows, as float64.

        The row-subset counterpart of :meth:`compute_column` — the same
        gathering loop and the same vectorized formula, so values and
        record-cache traffic are identical to calling :meth:`compute` per
        pair.
        """
        n = len(rows)
        plan = self._plan(feature)
        if plan is None:
            return np.fromiter(
                (
                    feature.compute(
                        candidates[int(row)].record_a,
                        candidates[int(row)].record_b,
                    )
                    for row in rows
                ),
                dtype=np.float64,
                count=n,
            )
        return plan.scores(
            self._caches, (candidates[int(row)] for row in rows), n
        )

    # --------------------------------------------------------- invalidation

    def invalidate_records(self, side: str, record_ids) -> int:
        """Evict cached derived values for ``record_ids`` on ``side``.

        Streaming ingest calls this for every record a delta batch touched;
        the next access re-derives the record's current value.  Returns
        the number of evicted entries across both caches.
        """
        ids = list(record_ids)
        return self.cache.invalidate_records(side, ids) + (
            self.values.invalidate_records(side, ids)
        )

    # --------------------------------------------------------------- bounds

    def bound_value(self, feature, pair) -> Optional[float]:
        """An upper bound on ``feature``'s score for ``pair`` from cheap
        statistics, or None.  Pure query — no counters."""
        plan = self._plan(feature)
        if plan is None or not plan.has_bound:
            return None
        return plan.bound_value(self._caches, pair)

    @staticmethod
    def decide(predicate, bound: float) -> Optional[bool]:
        """The outcome of ``predicate`` a score upper bound proves, else
        None (see :func:`_decide` for soundness)."""
        return _decide(bound, predicate.op, predicate.threshold)

    def bound_decision(self, predicate, pair) -> Optional[bool]:
        """The predicate's outcome if cheap statistics decide it, else None.

        Pure query — no counters: :meth:`decide` on :meth:`bound_value`,
        in one call (the walk's bound check, and the one the estimator
        times).
        """
        plan = self._plan(predicate.feature)
        if plan is None or not plan.has_bound:
            return None
        bound = plan.bound_value(self._caches, pair)
        if bound is None:
            return None
        return _decide(bound, predicate.op, predicate.threshold)

    def try_bound(self, predicate, pair) -> Optional[bool]:
        """Like :meth:`bound_decision`, but counts decided skips."""
        decided = self.bound_decision(predicate, pair)
        if decided is not None:
            pid = predicate.pid
            self.bound_skips[pid] = self.bound_skips.get(pid, 0) + 1
        return decided

    def bound_rows(self, predicate, candidates, rows) -> np.ndarray:
        """Per-row bound decisions as int8: 1 true, 0 false, -1 undecided.

        The batched counterpart of :meth:`try_bound` — same per-pair
        decision logic and record-cache traffic, with decided rows counted
        into :attr:`bound_skips` in one addition.
        """
        n = len(rows)
        out = np.full(n, -1, dtype=np.int8)
        plan = self._plan(predicate.feature)
        if plan is None or not plan.has_bound:
            return out
        caches = self._caches
        bound_value = plan.bound_value
        op = predicate.op
        threshold = predicate.threshold
        decided_count = 0
        for position, row in enumerate(rows):
            bound = bound_value(caches, candidates[int(row)])
            if bound is None:
                continue
            decision = _decide(bound, op, threshold)
            if decision is not None:
                out[position] = 1 if decision else 0
                decided_count += 1
        if decided_count:
            pid = predicate.pid
            self.bound_skips[pid] = self.bound_skips.get(pid, 0) + decided_count
        return out

    # -------------------------------------------------------------- metrics

    @property
    def total_bound_skips(self) -> int:
        return sum(self.bound_skips.values())

    def report_metrics(self, registry) -> None:
        """Fold cache/bound/coverage counters into a metrics registry.

        Totals land as counters (``cache.hit``, ``cache.miss``,
        ``bound.skip``) incremented by the delta since the last report —
        token and derived-value caches combined — with the token-pair
        memo's own ``token_memo.hit``/``token_memo.miss`` next to them;
        per-column (and per-secondary-measure) sizes and hit counts land
        as gauges so the workbench can show the breakdown.  Each
        kernel-unsupported feature increments
        ``engine.kernel_unsupported`` exactly once per kernels instance.
        """
        current = {
            "cache.hit": self.cache.total_hits + self.values.total_hits,
            "cache.miss": self.cache.total_misses + self.values.total_misses,
            "bound.skip": self.total_bound_skips,
            "token_memo.hit": self.token_pairs.total_hits,
            "token_memo.miss": self.token_pairs.total_misses,
        }
        for counter, total in current.items():
            fresh = total - self._reported.get(counter, 0)
            if fresh:
                registry.counter(counter).inc(fresh)
        self._reported = current
        fresh_unsupported = set(self._unsupported) - self._unsupported_counted
        if fresh_unsupported:
            registry.counter("engine.kernel_unsupported").inc(
                len(fresh_unsupported)
            )
            self._unsupported_counted |= fresh_unsupported
        for row in self.cache.stats() + self.values.stats() + self.token_pairs.stats():
            label = row["label"]
            registry.gauge(f"cache.entries.{label}").set(row["entries"])
            registry.gauge(f"cache.hits.{label}").set(row["hits"])
            registry.gauge(f"cache.misses.{label}").set(row["misses"])
