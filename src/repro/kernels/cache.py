"""Per-record derived-value caches keyed by (attribute, derivation).

A record that survives blocking typically appears in many candidate
pairs, and a matching function typically applies several features to the
same attribute.  The seed path re-derived the comparison form (token set,
normalized string, parsed number, TF-IDF vector) on every (pair, feature)
touch; these caches derive each record's value once per (attribute,
derivation behaviour) and hand out the result.

Keys
----
The outer key is ``(attribute, <behavioural derivation key>)`` — for
:class:`TokenCache` that is ``tokenizer.cache_key()``, so ``Jaccard(ws)``
and ``Dice(ws)`` features over the same attribute share one bucket while
``qg3`` padded and unpadded do not; for :class:`ValueCache` it is the
*kind* tuple the kernel plan supplies (e.g. ``("norm", "lower")`` or
``("number",)``).  The inner key is ``(side, record_id)``: record ids are
unique per table side, and the streaming layer invalidates ids it touches
(a ``Table.replace`` swaps the record object under the same id, so
identity of the id alone is not enough across deltas).

:class:`TokenPairMemo` is the one cache here keyed by values rather than
records: secondary-measure scores of token pairs, for the measures that
compare tokens below the pair memo (Monge-Elkan, Soft TF-IDF).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Tuple

from ..similarity.base import NormalizedStringSimilarity
from ..similarity.jaro import Jaro, JaroWinkler

#: Sentinel distinguishing "not cached" from a cached ``None`` (e.g. a
#: numeric value that failed to parse is cached as ``None``).
_MISS = object()


class TokenCache:
    """Token sets per (attribute, tokenizer) per record, with counters."""

    __slots__ = ("_buckets", "_labels", "hits", "misses")

    def __init__(self):
        #: outer key -> {(side, record_id): frozenset of tokens}
        self._buckets: Dict[tuple, Dict[Tuple[str, str], FrozenSet[str]]] = {}
        #: outer key -> human-readable label, e.g. ``"title:ws"``
        self._labels: Dict[tuple, str] = {}
        self.hits: Dict[tuple, int] = {}
        self.misses: Dict[tuple, int] = {}

    def bucket(self, attribute: str, tokenizer) -> tuple:
        """Return (and create if needed) the bucket key for a column.

        Callers on the hot path keep the returned key and go through
        :meth:`token_set`; creating the bucket eagerly here keeps the
        per-pair path free of label/counter initialization branches.
        """
        key = (attribute, tokenizer.cache_key())
        if key not in self._buckets:
            self._buckets[key] = {}
            self._labels[key] = f"{attribute}:{tokenizer.name}"
            self.hits[key] = 0
            self.misses[key] = 0
        return key

    def token_set(
        self, key: tuple, side: str, record, attribute: str, tokenizer
    ) -> FrozenSet[str]:
        """The token set of ``record.get(attribute)``, cached.

        ``key`` must come from :meth:`bucket` for the same
        (attribute, tokenizer).
        """
        bucket = self._buckets[key]
        entry = (side, record.record_id)
        tokens = bucket.get(entry)
        if tokens is None:
            self.misses[key] += 1
            tokens = tokenizer.tokenize_set(record.get(attribute))
            bucket[entry] = tokens
        else:
            self.hits[key] += 1
        return tokens

    # ------------------------------------------------------- invalidation

    def invalidate_records(self, side: str, record_ids: Iterable[str]) -> int:
        """Drop cached token sets for the given records on one side.

        Called by the streaming layer for every record an ingested delta
        batch touches (insert/update/delete alike — an id may be deleted
        and re-inserted with different values within one batch).  Returns
        the number of evicted entries.
        """
        ids = set(record_ids)
        if not ids:
            return 0
        evicted = 0
        for bucket in self._buckets.values():
            for record_id in ids:
                if bucket.pop((side, record_id), None) is not None:
                    evicted += 1
        return evicted

    def clear(self) -> None:
        for bucket in self._buckets.values():
            bucket.clear()

    # ------------------------------------------------------- introspection

    def stats(self) -> List[dict]:
        """Per-(attribute, tokenizer) sizes and hit/miss counts."""
        rows = []
        for key, bucket in sorted(
            self._buckets.items(), key=lambda item: self._labels[item[0]]
        ):
            hits = self.hits[key]
            misses = self.misses[key]
            total = hits + misses
            rows.append(
                {
                    "label": self._labels[key],
                    "entries": len(bucket),
                    "hits": hits,
                    "misses": misses,
                    "hit_rate": hits / total if total else 0.0,
                }
            )
        return rows

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class DerivedValueCache:
    """Arbitrary derived values per (attribute, kind) per record.

    The non-token counterpart of :class:`TokenCache`: normalized strings
    for the exact/edit-distance kernel families, parsed floats for the
    numeric family, weighted TF-IDF vectors for the corpus family.  (Not
    to be confused with :class:`repro.core.memo.ValueCache`, the
    *pair-level* value store of Algorithm 2 — this cache is per record.)
    The *kind* half of the outer key is any hashable tuple identifying the
    derivation behaviour; callers sharing a kind must derive identically.
    Cached values may legitimately be ``None`` (a raw ``None`` attribute,
    a string no number could be parsed from), which is why lookups use a
    private miss sentinel rather than ``dict.get``'s default.
    """

    __slots__ = ("_buckets", "_labels", "hits", "misses")

    def __init__(self):
        #: (attribute, kind) -> {(side, record_id): derived value}
        self._buckets: Dict[tuple, Dict[Tuple[str, str], object]] = {}
        #: outer key -> human-readable label, e.g. ``"title:lower"``
        self._labels: Dict[tuple, str] = {}
        self.hits: Dict[tuple, int] = {}
        self.misses: Dict[tuple, int] = {}

    def bucket(self, attribute: str, kind: tuple, label: str) -> tuple:
        """Return (and create if needed) the bucket key for a column.

        ``label`` is the human-readable suffix used in stats rows
        (``"{attribute}:{label}"``); it does not participate in identity.
        """
        key = (attribute, kind)
        if key not in self._buckets:
            self._buckets[key] = {}
            self._labels[key] = f"{attribute}:{label}"
            self.hits[key] = 0
            self.misses[key] = 0
        return key

    def value(
        self,
        key: tuple,
        side: str,
        record,
        attribute: str,
        derive: Callable[[object], object],
    ) -> object:
        """The derived form of ``record.get(attribute)``, cached.

        ``key`` must come from :meth:`bucket`; ``derive`` receives the raw
        attribute value (possibly ``None``) on a miss.
        """
        bucket = self._buckets[key]
        entry = (side, record.record_id)
        value = bucket.get(entry, _MISS)
        if value is _MISS:
            self.misses[key] += 1
            value = derive(record.get(attribute))
            bucket[entry] = value
        else:
            self.hits[key] += 1
        return value

    # ------------------------------------------------------- invalidation

    def invalidate_records(self, side: str, record_ids: Iterable[str]) -> int:
        """Drop cached values for the given records on one side."""
        ids = set(record_ids)
        if not ids:
            return 0
        evicted = 0
        for bucket in self._buckets.values():
            for record_id in ids:
                # Cached values may be None; pop against the miss sentinel
                # so those evictions are counted too.
                if bucket.pop((side, record_id), _MISS) is not _MISS:
                    evicted += 1
        return evicted

    def clear(self) -> None:
        for bucket in self._buckets.values():
            bucket.clear()

    # ------------------------------------------------------- introspection

    def stats(self) -> List[dict]:
        """Per-(attribute, kind) sizes and hit/miss counts."""
        rows = []
        for key, bucket in sorted(
            self._buckets.items(), key=lambda item: self._labels[item[0]]
        ):
            hits = self.hits[key]
            misses = self.misses[key]
            total = hits + misses
            rows.append(
                {
                    "label": self._labels[key],
                    "entries": len(bucket),
                    "hits": hits,
                    "misses": misses,
                    "hit_rate": hits / total if total else 0.0,
                }
            )
        return rows

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class _PairBucket:
    """One secondary measure's scores per ordered token pair."""

    __slots__ = ("compare", "scores", "lookups")

    def __init__(self, compare: Callable[[str, str], float]):
        self.compare = compare
        #: (x, y) -> compare(x, y), exactly as computed
        self.scores: Dict[Tuple[str, str], float] = {}
        self.lookups = 0

    def lookup(self, x: str, y: str) -> float:
        self.lookups += 1
        key = (x, y)
        try:
            return self.scores[key]
        except KeyError:
            score = self.scores[key] = self.compare(x, y)
            return score


class _SymmetricPairBucket(_PairBucket):
    """A bit-symmetric secondary's scores per unordered token pair:
    ``(x, y)`` and ``(y, x)`` share the entry of whichever came first."""

    __slots__ = ()

    def lookup(self, x: str, y: str) -> float:
        self.lookups += 1
        key = (x, y) if x <= y else (y, x)
        try:
            return self.scores[key]
        except KeyError:
            score = self.scores[key] = self.compare(x, y)
            return score


def _bit_symmetric(secondary) -> bool:
    """Whether ``secondary.compare(x, y) == secondary.compare(y, x)`` holds
    bit for bit, by the type's scoring code: the Jaro family's, reached
    through the stock normalize-then-score ``compare``.

    For one character, the greedy match over its positions in ``x`` and
    in ``y`` is a two-pointer merge — match the next unmatched ``p`` and
    ``q`` if ``|p - q|`` is within the window, else drop the one further
    left — and both the window and that rule read the same from either
    side, so swapping the arguments matches the same positions and gives
    the same matches and transpositions.  IEEE addition is commutative,
    so ``m/len_x + m/len_y`` rounds the same swapped, and the Winkler
    prefix is symmetric.  Normalization applies to each argument alone,
    so overriding ``kernel_normalize`` keeps this; overriding the scoring
    does not, and such a subclass keeps ordered keys.
    """
    cls = type(secondary)
    return cls.compare is NormalizedStringSimilarity.compare and (
        cls.score_norms is Jaro.score_norms
        or cls.score_norms is JaroWinkler.score_norms
    )


class TokenPairMemo:
    """Secondary-measure scores per token pair, with counters.

    Monge-Elkan and Soft TF-IDF compare tokens of one value with tokens of
    the other through a secondary measure (Jaro-Winkler by default).
    Those comparisons sit below the pair memo, so the same two tokens are
    compared again for every pair and feature they occur in.  This memo
    maps ``(x, y)`` token strings to the exact float
    ``secondary.compare(x, y)`` returned, in one bucket per
    ``secondary.cache_key()``, so every feature whose secondary behaves
    the same (Monge-Elkan and Soft TF-IDF over the same tokens, say)
    shares one bucket.  Keys are ordered, because a measure may round
    differently with its arguments swapped — except for the Jaro family,
    whose scores are bit-symmetric (:func:`_bit_symmetric`): there one
    entry serves both orders, so the backward pass of Monge-Elkan and
    Soft TF-IDF hits the entries of the forward pass.

    Keys are token strings, not records: no record delta or corpus swap
    makes an entry stale, so nothing is ever evicted, and the hit/miss
    split needs no per-miss counter (each miss is one ``compare`` call
    and adds exactly one entry).  The memo lives exactly as long as the
    owning :class:`~repro.kernels.FeatureKernels` and is never persisted.
    """

    __slots__ = ("_buckets", "_labels")

    def __init__(self):
        #: secondary.cache_key() -> bucket
        self._buckets: Dict[tuple, _PairBucket] = {}
        #: bucket key -> human-readable label, e.g. ``"pairs:jaro_winkler"``
        self._labels: Dict[tuple, str] = {}

    def lookup(self, secondary) -> Callable[[str, str], float]:
        """The memoized ``secondary.compare`` for ``secondary``'s bucket."""
        key = secondary.cache_key()
        bucket = self._buckets.get(key)
        if bucket is None:
            kind = _SymmetricPairBucket if _bit_symmetric(secondary) else _PairBucket
            bucket = self._buckets[key] = kind(secondary.compare)
            label = f"pairs:{secondary.name}"
            if label in self._labels.values():  # same name, other behaviour
                label = f"{label}#{len(self._buckets)}"
            self._labels[key] = label
        return bucket.lookup

    # ------------------------------------------------------- introspection

    def stats(self) -> List[dict]:
        """Per-secondary-measure sizes and hit/miss counts."""
        rows = []
        for key, bucket in sorted(
            self._buckets.items(), key=lambda item: self._labels[item[0]]
        ):
            misses = len(bucket.scores)
            hits = bucket.lookups - misses
            rows.append(
                {
                    "label": self._labels[key],
                    "entries": misses,
                    "hits": hits,
                    "misses": misses,
                    "hit_rate": hits / bucket.lookups if bucket.lookups else 0.0,
                }
            )
        return rows

    @property
    def total_hits(self) -> int:
        return sum(bucket.lookups for bucket in self._buckets.values()) - len(self)

    @property
    def total_misses(self) -> int:
        return len(self)

    def __len__(self) -> int:
        return sum(len(bucket.scores) for bucket in self._buckets.values())
