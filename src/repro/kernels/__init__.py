"""Feature-kernel layer: token caches, batched kernels, cheap bounds.

The paper's cost model (Section 5) treats feature computation as the
dominant cost of matching, and the seed implementation made it worse than
it needs to be: :class:`~repro.similarity.token_based.TokenSetSimilarity`
re-tokenized both attribute values on every pair, so a record appearing
in *k* candidate pairs was tokenized *k* times per feature.  This layer
applies the standard set-similarity-join remedies (per-record signatures
and size bounds, as in PPJoin-style filtering) without changing a single
matching decision:

* :class:`TokenCache` — per-(attribute, tokenizer) record token sets,
  computed once per record and reused across every pair, feature and rule
  that touches the same attribute.
* :class:`DerivedValueCache` — the same idea for non-token derived forms:
  normalized strings (exact/edit-distance families), parsed numbers, and
  per-record TF-IDF vectors and token lists.
* :class:`TokenPairMemo` — secondary-measure scores per token pair
  (unordered under the bit-symmetric Jaro family, ordered otherwise),
  shared by Monge-Elkan and Soft TF-IDF, so a cold match compares each
  pair of tokens once instead of once per (pair, feature).
* :class:`FeatureKernels` — the façade the matchers talk to: per-pair
  cached computation (:meth:`FeatureKernels.compute`), whole-column
  batched computation for the precompute strategies
  (:meth:`FeatureKernels.compute_column`), and threshold short-circuiting
  from size bounds (:meth:`FeatureKernels.try_bound`).

Everything here is *bit-identical* to the seed per-pair path: cached
token sets feed the exact same ``score_sets`` code, batched kernels
replicate the scalar arithmetic operation-for-operation, and bounds only
decide a predicate when the decision is provably what the full
computation would return.  See ``docs/performance.md``.
"""

from .cache import DerivedValueCache, TokenCache, TokenPairMemo
from .feature_kernels import FeatureKernels

__all__ = ["TokenCache", "DerivedValueCache", "TokenPairMemo", "FeatureKernels"]
