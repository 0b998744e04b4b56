"""Set/token-based similarity measures: Jaccard, Dice, overlap, cosine,
trigram.

Each measure is parameterized by a :class:`~repro.similarity.tokenizers.Tokenizer`,
so ``Jaccard(QgramTokenizer(3))`` is the paper's footnote-1 "Jaccard over
3-gram sets" while ``Jaccard(WhitespaceTokenizer())`` is word-level Jaccard
over titles.  Tokenization dominates the cost of these measures, which is
why they land in the 3-11 µs band of the paper's Table 3, well above the
character measures.
"""

from __future__ import annotations

import math

import numpy as np

from .base import SimilarityFunction
from .tokenizers import QgramTokenizer, Tokenizer, WhitespaceTokenizer


class TokenSetSimilarity(SimilarityFunction):
    """Common machinery for measures defined on a pair of token sets.

    Subclasses implement :meth:`from_sets`.  Tokenization happens in
    exactly one place (:meth:`compare` → :meth:`score_sets`), so the
    token-cache layer (:mod:`repro.kernels`) can substitute cached token
    sets and reach *identical* code for the actual scoring.  Edge cases
    are normalized in :meth:`score_sets`: two values that both tokenize to
    the empty set score 1.0 (both empty = indistinguishable), and exactly
    one empty set scores 0.0.  Subclasses must not override
    :meth:`compare` or :meth:`score_sets` — doing so would bypass the
    cache path and fork the empty-set convention.

    Two optional hooks power the kernel layer:

    * :meth:`from_counts` — vectorized scoring from intersection/size
      arrays.  Must replicate :meth:`from_sets` arithmetic bit-for-bit
      (same operations in the same order on the same dtypes).
    * :meth:`upper_bound` — a cheap upper bound on :meth:`from_sets` given
      only the two set sizes, used for threshold short-circuiting.
      Soundness: the bound is the score formula evaluated at the maximum
      possible intersection ``min(|X|, |Y|)`` with the same floating-point
      operation shape, so rounding monotonicity guarantees
      ``from_sets(X, Y) <= upper_bound(|X|, |Y|)``.
    """

    def __init__(self, tokenizer: Tokenizer | None = None, base_name: str = "sim"):
        self.tokenizer = tokenizer or WhitespaceTokenizer()
        self.name = f"{base_name}_{self.tokenizer.name}"

    def cache_key(self) -> tuple:
        return super().cache_key() + (self.tokenizer.cache_key(),)

    def compare(self, x: str, y: str) -> float:
        return self.score_sets(
            self.tokenizer.tokenize_set(x), self.tokenizer.tokenize_set(y)
        )

    def score_sets(self, set_x: frozenset, set_y: frozenset) -> float:
        """Score two pre-tokenized sets under the package conventions."""
        if not set_x and not set_y:
            return 1.0
        if not set_x or not set_y:
            return 0.0
        return self.from_sets(set_x, set_y)

    def from_sets(self, set_x: frozenset, set_y: frozenset) -> float:
        raise NotImplementedError

    #: Vectorized hook: subclasses replace this with a method taking
    #: (intersection, size_x, size_y) int64 ndarrays and returning the
    #: float64 score column.  None = no batched kernel for this measure.
    from_counts = None

    def upper_bound(self, size_x: int, size_y: int) -> float | None:
        """Upper bound on :meth:`from_sets` for non-empty sets, or None."""
        return None


class Jaccard(TokenSetSimilarity):
    """``|X ∩ Y| / |X ∪ Y|`` over token sets."""

    cost_tier = 6

    def __init__(self, tokenizer: Tokenizer | None = None):
        super().__init__(tokenizer, base_name="jaccard")

    def from_sets(self, set_x: frozenset, set_y: frozenset) -> float:
        intersection = len(set_x & set_y)
        if intersection == 0:
            return 0.0
        return intersection / (len(set_x) + len(set_y) - intersection)

    def from_counts(self, intersection, size_x, size_y):
        # intersection == 0 gives 0 / (sx + sy) == 0.0 exactly, matching
        # the scalar early-return.
        return intersection / (size_x + size_y - intersection)

    def upper_bound(self, size_x: int, size_y: int) -> float:
        if size_x <= size_y:
            return size_x / size_y
        return size_y / size_x


class Dice(TokenSetSimilarity):
    """Sørensen-Dice coefficient ``2|X ∩ Y| / (|X| + |Y|)``."""

    cost_tier = 6

    def __init__(self, tokenizer: Tokenizer | None = None):
        super().__init__(tokenizer, base_name="dice")

    def from_sets(self, set_x: frozenset, set_y: frozenset) -> float:
        return 2.0 * len(set_x & set_y) / (len(set_x) + len(set_y))

    def from_counts(self, intersection, size_x, size_y):
        return 2.0 * intersection / (size_x + size_y)

    def upper_bound(self, size_x: int, size_y: int) -> float:
        return 2.0 * min(size_x, size_y) / (size_x + size_y)


class OverlapCoefficient(TokenSetSimilarity):
    """``|X ∩ Y| / min(|X|, |Y|)`` — 1.0 whenever one set contains the other.

    Useful for title-vs-extended-title comparisons where one source appends
    marketing copy to an otherwise identical name.
    """

    cost_tier = 6

    def __init__(self, tokenizer: Tokenizer | None = None):
        super().__init__(tokenizer, base_name="overlap")

    def from_sets(self, set_x: frozenset, set_y: frozenset) -> float:
        return len(set_x & set_y) / min(len(set_x), len(set_y))

    def from_counts(self, intersection, size_x, size_y):
        return intersection / np.minimum(size_x, size_y)

    def upper_bound(self, size_x: int, size_y: int) -> float:
        # Any overlap bound based on sizes alone is the trivial 1.0: the
        # smaller set may always be contained in the larger.
        return 1.0


class Cosine(TokenSetSimilarity):
    """Ochiai / set cosine: ``|X ∩ Y| / sqrt(|X| * |Y|)``.

    This is the unweighted cousin of TF-IDF cosine (see
    :mod:`repro.similarity.tfidf`); the paper's Table 3 lists it at
    3.37 µs, cheaper than Jaccard on the same attributes because the
    normalization avoids materializing the union.
    """

    cost_tier = 5

    def __init__(self, tokenizer: Tokenizer | None = None):
        super().__init__(tokenizer, base_name="cosine")

    def from_sets(self, set_x: frozenset, set_y: frozenset) -> float:
        return len(set_x & set_y) / math.sqrt(len(set_x) * len(set_y))

    def from_counts(self, intersection, size_x, size_y):
        # np.sqrt and math.sqrt are both correctly rounded, so the batched
        # result matches the scalar path bit-for-bit.
        return intersection / np.sqrt(size_x * size_y)

    def upper_bound(self, size_x: int, size_y: int) -> float:
        return min(size_x, size_y) / math.sqrt(size_x * size_y)


class Trigram(Jaccard):
    """Jaccard over padded character trigrams — the paper's "Trigram".

    A fixed-tokenizer convenience subclass so the registry can expose the
    measure under the Table 3 name.
    """

    cost_tier = 6

    def __init__(self):
        super().__init__(QgramTokenizer(q=3))
        self.name = "trigram"


class MongeElkan(SimilarityFunction):
    """Monge-Elkan: average best-match score of ``x``'s tokens against ``y``.

    For each token of the first value, take the maximum secondary
    similarity against any token of the second value, then average.  The
    raw measure is asymmetric; we symmetrize by averaging both directions,
    preserving the package-wide symmetry contract.  The secondary measure
    defaults to Jaro-Winkler, the standard choice.

    The scoring is written once, in :meth:`score_tokens`, over two token
    lists and a ``lookup(x, y)`` standing in for the secondary measure:
    :meth:`compare` passes ``self.secondary.compare``, while the kernel
    layer (:mod:`repro.kernels`) passes cached token lists and its
    token-pair memo, which returns the very floats ``compare`` would.
    Subclasses must not override :meth:`compare` or :meth:`score_tokens`.
    """

    cost_tier = 8

    def __init__(
        self,
        secondary: SimilarityFunction | None = None,
        tokenizer: Tokenizer | None = None,
    ):
        # Imported here to avoid a hard module cycle at import time.
        from .jaro import JaroWinkler

        self.secondary = secondary or JaroWinkler()
        self.tokenizer = tokenizer or WhitespaceTokenizer()
        self.name = f"monge_elkan_{self.secondary.name}"

    def cache_key(self) -> tuple:
        return super().cache_key() + (
            self.tokenizer.cache_key(),
            self.secondary.cache_key(),
        )

    @staticmethod
    def _directed(tokens_x, tokens_y, lookup) -> float:
        total = 0.0
        for tx in tokens_x:
            total += max(lookup(tx, ty) for ty in tokens_y)
        return total / len(tokens_x)

    def score_tokens(self, tokens_x, tokens_y, lookup) -> float:
        """Score two token lists; ``lookup(x, y)`` is the secondary score
        of two tokens.  Both empty scores 1.0, exactly one empty 0.0."""
        if not tokens_x and not tokens_y:
            return 1.0
        if not tokens_x or not tokens_y:
            return 0.0
        forward = self._directed(tokens_x, tokens_y, lookup)
        backward = self._directed(tokens_y, tokens_x, lookup)
        return (forward + backward) / 2.0

    def compare(self, x: str, y: str) -> float:
        return self.score_tokens(
            self.tokenizer.tokenize(x),
            self.tokenizer.tokenize(y),
            self.secondary.compare,
        )
