"""TF-IDF cosine and Soft TF-IDF similarity.

These are the most expensive measures in the paper's Table 3 (12-66 µs) and
the ones its sample rules lean on for title comparisons.  Both require a
:class:`~repro.similarity.corpus.Corpus`; a measure used before
:meth:`bind_corpus` falls back to a degenerate uniform-IDF corpus so that
exploratory use (and unit tests) need no setup, while dataset pipelines bind
real statistics via :meth:`repro.learning.feature_space.FeatureSpace.bind_corpora`.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Callable, Dict, Optional, Tuple

from .base import SimilarityFunction
from .corpus import Corpus
from .jaro import JaroWinkler
from .tokenizers import Tokenizer, WhitespaceTokenizer


class CorpusVectorSimilarity(SimilarityFunction):
    """Measures defined on the weighted TF-IDF vectors of both inputs.

    Splitting :meth:`compare` into :meth:`weight_vector` (tokenize + weight
    one value against the bound corpus — cacheable per record) and
    :meth:`score_vectors` (combine two precomputed vectors) lets the kernel
    layer cache each record's vector once and reach *identical* scoring
    code for every candidate pair.  Subclasses implement
    :meth:`from_vectors` and must not override :meth:`compare` or
    :meth:`score_vectors` — that would fork the empty-value conventions
    and the cache contract.

    Cached vectors are only valid against the corpus they were weighted
    by, so cache consumers must key on (or invalidate with) the bound
    :attr:`corpus` identity — :meth:`bind_corpus` swaps it wholesale.
    """

    needs_corpus = True

    def __init__(self, tokenizer: Tokenizer | None = None, corpus: Corpus | None = None):
        self.tokenizer = tokenizer or WhitespaceTokenizer()
        self.corpus = corpus or Corpus(self.tokenizer)

    def bind_corpus(self, corpus: Corpus) -> None:
        self.corpus = corpus

    def weight_vector(self, value: str) -> Tuple[bool, Dict[str, float]]:
        """``(tokenized_to_nothing, L2-normalized TF-IDF vector)`` for one
        non-``None`` value under the currently bound corpus."""
        tokens = self.tokenizer.tokenize(value)
        return (not tokens, self.corpus.tfidf_vector(tokens))

    def score_vectors(
        self,
        empty_x: bool,
        vector_x: Dict[str, float],
        empty_y: bool,
        vector_y: Dict[str, float],
        lookup: Optional[Callable[[str, str], float]] = None,
    ) -> float:
        """Score two pre-weighted vectors under the package conventions:
        both values empty -> 1.0, either vector degenerate -> 0.0.

        ``lookup(x, y)`` stands in for the secondary token measure of a
        measure that has one (Soft TF-IDF); ``None`` means the measure's
        own.  The kernel layer passes its token-pair memo here.
        """
        if empty_x and empty_y:
            return 1.0
        if not vector_x or not vector_y:
            return 0.0
        return self.from_vectors(vector_x, vector_y, lookup)

    def compare(self, x: str, y: str) -> float:
        empty_x, vector_x = self.weight_vector(x)
        empty_y, vector_y = self.weight_vector(y)
        return self.score_vectors(empty_x, vector_x, empty_y, vector_y)

    @abstractmethod
    def from_vectors(
        self,
        vector_x: Dict[str, float],
        vector_y: Dict[str, float],
        lookup: Optional[Callable[[str, str], float]] = None,
    ) -> float:
        """Combine two non-degenerate weighted vectors (``lookup`` as in
        :meth:`score_vectors`; measures without a secondary ignore it)."""


class TfIdf(CorpusVectorSimilarity):
    """Cosine similarity between L2-normalized TF-IDF vectors."""

    cost_tier = 8

    def __init__(self, tokenizer: Tokenizer | None = None, corpus: Corpus | None = None):
        super().__init__(tokenizer, corpus)
        self.name = f"tfidf_{self.tokenizer.name}"

    def from_vectors(
        self,
        vector_x: Dict[str, float],
        vector_y: Dict[str, float],
        lookup: Optional[Callable[[str, str], float]] = None,
    ) -> float:
        if len(vector_y) < len(vector_x):
            vector_x, vector_y = vector_y, vector_x
        dot = sum(
            weight * vector_y[token]
            for token, weight in vector_x.items()
            if token in vector_y
        )
        # Guard against floating-point drift just above 1.0 on identical
        # vectors (Σ w² can round to 1 + ε).
        return min(1.0, dot)


class SoftTfIdf(CorpusVectorSimilarity):
    """Soft TF-IDF (Cohen, Ravikumar & Fienberg 2003).

    Like TF-IDF cosine, but a token of one value may match a *similar*
    (not necessarily equal) token of the other: tokens whose secondary
    similarity (Jaro-Winkler by default) reaches ``threshold`` contribute
    ``w_x(t) * w_y(closest) * sim(t, closest)``.

    The textbook formulation is directional; we average both directions to
    honour the package-wide symmetry contract (the difference is small and
    vanishes when the close-token relation is one-to-one).

    This is the most expensive feature in the paper's Table 3 (66 µs on
    title/title) because every token pair pays a Jaro-Winkler comparison —
    reproducing that cost profile matters for the ordering experiments.
    The scalar path (:meth:`compare`) keeps paying it; the kernel layer
    passes its token-pair memo as ``lookup`` to :meth:`from_vectors`, so
    it compares each token pair once.
    """

    cost_tier = 9

    def __init__(
        self,
        tokenizer: Tokenizer | None = None,
        corpus: Corpus | None = None,
        secondary: SimilarityFunction | None = None,
        threshold: float = 0.9,
    ):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        super().__init__(tokenizer, corpus)
        self.secondary = secondary or JaroWinkler()
        self.threshold = threshold
        self.name = f"soft_tfidf_{self.tokenizer.name}"

    def _directed(self, vector_x: dict, vector_y: dict, lookup) -> float:
        total = 0.0
        for token_x, weight_x in vector_x.items():
            best_score = 0.0
            best_weight = 0.0
            exact = vector_y.get(token_x)
            if exact is not None:
                best_score, best_weight = 1.0, exact
            else:
                for token_y, weight_y in vector_y.items():
                    score = lookup(token_x, token_y)
                    if score >= self.threshold and score > best_score:
                        best_score, best_weight = score, weight_y
            if best_score > 0.0:
                total += weight_x * best_weight * best_score
        return total

    def from_vectors(
        self,
        vector_x: Dict[str, float],
        vector_y: Dict[str, float],
        lookup: Optional[Callable[[str, str], float]] = None,
    ) -> float:
        if lookup is None:
            lookup = self.secondary.compare
        forward = self._directed(vector_x, vector_y, lookup)
        backward = self._directed(vector_y, vector_x, lookup)
        # Directed scores are already normalized by the L2 vectors; clip to
        # guard against floating-point drift just above 1.0.
        return min(1.0, (forward + backward) / 2.0)
