"""Base class and conventions for similarity functions.

Every measure in :mod:`repro.similarity` is a callable object mapping a pair
of attribute values to a score in ``[0, 1]`` (1 = identical).  The paper's
*features* are exactly such measures bound to an attribute pair; see
:class:`repro.core.rules.Feature`.

Conventions shared by all measures
----------------------------------

* **Missing values.** If either input is ``None`` the score is ``0.0``.
  Rule predicates of the form ``sim < t`` therefore treat missing data as
  maximally dissimilar, which matches how Magellan-extracted rule sets
  behave on records with absent attributes.
* **Non-string input.** Values are coerced with ``str()`` so numeric model
  numbers, prices and years can participate in string measures.
* **Symmetry.** ``sim(x, y) == sim(y, x)`` for every measure (required by
  the paper's commutativity assumption on the matching function, §3).
* **Relative cost.** Each class carries a ``cost_tier`` integer giving its
  rough position in the paper's Table 3 cost ladder (0 = exact match,
  9 = Soft TF-IDF).  The cost model *measures* real costs at runtime; the
  tier exists for documentation, deterministic tests, and the calibrated
  estimation mode.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional


def coerce(value: object) -> Optional[str]:
    """Normalize an attribute value for string comparison.

    Returns ``None`` for missing values and the ``str()`` form otherwise.
    Centralized here so every measure treats ``None``/numeric input the
    same way.
    """
    if value is None:
        return None
    if isinstance(value, str):
        return value
    return str(value)


class SimilarityFunction(ABC):
    """A symmetric similarity measure with scores in ``[0, 1]``.

    Instances are immutable and hashable on their :meth:`cache_key`, which
    makes them usable as dictionary keys in feature registries and memo
    tables.
    """

    #: Registry/display name, e.g. ``"jaro_winkler"``.  Must be unique among
    #: instances that coexist in one :class:`~repro.learning.feature_space.FeatureSpace`.
    name: str = "similarity"

    #: Rough relative cost rank mirroring the paper's Table 3 (0 cheapest).
    cost_tier: int = 5

    #: True for corpus-backed measures (TF-IDF family) that must be bound to
    #: document statistics via :meth:`bind_corpus` before use.
    needs_corpus: bool = False

    def __call__(self, x: object, y: object) -> float:
        """Return the similarity of ``x`` and ``y`` in ``[0, 1]``."""
        sx, sy = coerce(x), coerce(y)
        if sx is None or sy is None:
            return 0.0
        return self.compare(sx, sy)

    @abstractmethod
    def compare(self, x: str, y: str) -> float:
        """Compare two non-``None`` normalized strings."""

    def bind_corpus(self, corpus) -> None:
        """Attach corpus statistics (no-op for corpus-free measures)."""

    def cache_key(self) -> tuple:
        """Hashable identity of this measure's *behaviour*.

        Two measures with the same cache key score every pair
        identically, so cached scores may be shared between them (the
        kernel layer's token-pair memo is keyed on it).  ``name`` alone
        is not enough when configuration that changes the output is not
        part of the name; subclasses append such configuration here.
        """
        return (type(self).__name__, self.name)

    def __hash__(self) -> int:
        return hash(self.cache_key())

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other) and self.cache_key() == other.cache_key()
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class NormalizedStringSimilarity(SimilarityFunction):
    """String measures whose comparison factors through a per-value
    normalization step (case folding, punctuation stripping, ...).

    Splitting :meth:`compare` into :meth:`kernel_normalize` +
    :meth:`score_norms` lets the kernel layer (:mod:`repro.kernels`) cache
    the normalized form once per record and batch the scoring, reaching
    *identical* code for the actual comparison.  Subclasses implement
    :meth:`score_norms` and must not override :meth:`compare` — doing so
    would fork the normalize-then-score contract the cache relies on.

    Two hooks power the kernel layer:

    * :attr:`normalize_key` — a hashable label identifying the
      normalization behaviour, so measures that normalize identically
      (e.g. every plain case-folding measure) share one cached column.
    * :meth:`upper_bound_lengths` — a cheap upper bound on
      :meth:`score_norms` given only the two *normalized* lengths, used
      for threshold short-circuiting.  Soundness contract: the bound is
      the score formula evaluated at its length-constrained maximum with
      the same floating-point operation shape (plus an explicit margin
      where the shape argument alone is not airtight), guaranteeing
      ``score_norms(x, y) <= upper_bound_lengths(len(x), len(y))``.
    """

    #: Label of the normalization behaviour; measures sharing a key share
    #: cached normalized columns in the kernel layer.
    normalize_key: str = "lower"

    def kernel_normalize(self, value: str) -> str:
        """Normalize one non-``None`` value (default: case folding)."""
        return value.lower()

    def compare(self, x: str, y: str) -> float:
        return self.score_norms(self.kernel_normalize(x), self.kernel_normalize(y))

    @abstractmethod
    def score_norms(self, x: str, y: str) -> float:
        """Compare two pre-normalized strings."""

    def upper_bound_lengths(self, len_x: int, len_y: int) -> Optional[float]:
        """Upper bound on :meth:`score_norms` from normalized lengths, or
        ``None`` when no useful bound exists (including degenerate lengths
        where the full comparison is trivially cheap anyway)."""
        return None


class ExactStringSimilarity(NormalizedStringSimilarity):
    """Equality measures: 1.0 iff the normalized forms are equal.

    The kernel layer evaluates these as a vectorized hash-compare column
    (intern each normalized value once, compare integer ids).
    :attr:`empty_equal_score` is the score when *both* normalized forms
    are empty: plain exact match keeps the equality answer (1.0), while
    normalizations that can strip a value to nothing (punctuation-only
    input) may declare the comparison uninformative (0.0).
    """

    empty_equal_score: float = 1.0

    def score_norms(self, x: str, y: str) -> float:
        if not x and not y:
            return self.empty_equal_score
        return 1.0 if x == y else 0.0

    def upper_bound_lengths(self, len_x: int, len_y: int) -> Optional[float]:
        # Equal strings have equal lengths, so unequal lengths bound the
        # score at exactly 0.0 — the one decision this family needs.
        return 1.0 if len_x == len_y else 0.0
