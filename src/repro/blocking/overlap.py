"""Token-overlap blocking — the workhorse for text attributes.

A pair survives if the two values of the blocking attribute share at least
``min_overlap`` tokens.  Implemented with an inverted index over the B
side, so the cost is proportional to the candidate count rather than
|A| x |B|.  An optional stop-token filter drops the most frequent tokens
from the index: without it, vocabulary-level words ("the", a shared brand
in a single-brand catalog) would connect everything to everything, and the
candidate set would degenerate toward the cross product.

Streaming: ``block()`` keeps full-token inverted indexes over *both*
sides, the B-side document frequencies (df: how many B records contain a
token), and the current stop set, so
:meth:`~repro.blocking.base.Blocker.pairs_for_delta` never re-blocks.  A
delta re-derives its own record's pairs from the other side's postings.
With a stop-token filter, a B-side delta can also flip tokens across the
cutoff ``stop_fraction · |B|`` — its df crosses the cutoff, or an insert/
delete moves the cutoff past its df — which changes pairs between
*unrelated* records.  Only pairs sharing a flipped token can change, so
exactly those in ``inverted_a[t] × inverted_b[t]`` are re-checked.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from ..data.pairs import PairId
from ..data.table import Record, Table
from ..errors import BlockingError
from ..similarity.tokenizers import Tokenizer, WhitespaceTokenizer
from .base import Blocker


class OverlapBlocker(Blocker):
    """Candidates share >= ``min_overlap`` tokens of ``attribute``."""

    name = "overlap"
    delta_strategy = "index"

    def __init__(
        self,
        attribute: str,
        min_overlap: int = 1,
        tokenizer: Tokenizer | None = None,
        stop_fraction: float = 0.0,
    ):
        """``stop_fraction`` drops tokens appearing in more than that
        fraction of B-side records from the inverted index (0 disables)."""
        if min_overlap < 1:
            raise BlockingError(f"min_overlap must be >= 1, got {min_overlap}")
        if not 0.0 <= stop_fraction <= 1.0:
            raise BlockingError(
                f"stop_fraction must be in [0, 1], got {stop_fraction}"
            )
        self.attribute = attribute
        self.min_overlap = min_overlap
        self.tokenizer = tokenizer or WhitespaceTokenizer()
        self.stop_fraction = stop_fraction

    def _is_stop(self, frequency: int, n_b: int) -> bool:
        return self.stop_fraction > 0.0 and frequency > self.stop_fraction * n_b

    def _pair_ids(self, table_a: Table, table_b: Table) -> Iterable[Tuple[str, str]]:
        for table in (table_a, table_b):
            if self.attribute not in table.attributes:
                raise BlockingError(
                    f"blocking attribute {self.attribute!r} not in table "
                    f"{table.name!r} (schema: {list(table.attributes)})"
                )
        # Delta-ready state: token sets and full-token inverted indexes on
        # both sides (the A side fills in as rows stream past), B-side
        # document frequencies bucketed by value, and the stop set.
        self._tokens_a: Dict[str, FrozenSet[str]] = {}
        self._tokens_b: Dict[str, FrozenSet[str]] = {}
        self._inverted_a: Dict[str, Set[str]] = {}
        self._inverted_b: Dict[str, Set[str]] = {}
        for record_b in table_b:
            self._index_record("b", record_b)
        self._n_b = len(table_b)
        self._by_df: Dict[int, Set[str]] = defaultdict(set)
        for token, ids in self._inverted_b.items():
            self._by_df[len(ids)].add(token)
        self._stop: Set[str] = {
            token
            for token, ids in self._inverted_b.items()
            if self._is_stop(len(ids), self._n_b)
        }
        for record_a in table_a:
            tokens_a = self._index_record("a", record_a)
            for b_id in self._partners(tokens_a, self._inverted_b):
                yield record_a.record_id, b_id

    def _partners(
        self, tokens: FrozenSet[str], other_inverted: Dict[str, Set[str]]
    ) -> List[str]:
        """Other-side ids sharing >= ``min_overlap`` non-stop ``tokens``, sorted."""
        overlap_counts: Counter = Counter()
        for token in tokens:
            if token not in self._stop:
                overlap_counts.update(other_inverted.get(token, ()))
        return sorted(
            other_id
            for other_id, count in overlap_counts.items()
            if count >= self.min_overlap
        )

    # ------------------------------------------------------------------
    # Delta maintenance
    # ------------------------------------------------------------------

    def _unindex_record(self, side: str, record_id: str) -> FrozenSet[str]:
        tokens_of = self._tokens_a if side == "a" else self._tokens_b
        inverted = self._inverted_a if side == "a" else self._inverted_b
        tokens = tokens_of.pop(record_id, frozenset())
        for token in tokens:
            ids = inverted[token]
            ids.discard(record_id)
            if not ids:
                del inverted[token]
        return tokens

    def _index_record(self, side: str, record: Record) -> FrozenSet[str]:
        tokens = self.tokenizer.tokenize_set(record.get(self.attribute))
        tokens_of = self._tokens_a if side == "a" else self._tokens_b
        inverted = self._inverted_a if side == "a" else self._inverted_b
        tokens_of[record.record_id] = tokens
        for token in tokens:
            inverted.setdefault(token, set()).add(record.record_id)
        return tokens

    def _restop(
        self, changed: Set[str], old_tokens: FrozenSet[str], n_b: int
    ) -> Set[str]:
        """Re-derive stop status after a B-side delta; return the flipped tokens.

        ``changed`` are the tokens whose df the delta moved (by one, up for
        tokens gained by the record and down for those in ``old_tokens``).
        Apart from them, only tokens whose df lies between the old and new
        cutoff can flip, and the df buckets find those directly.
        """
        old_n, self._n_b = self._n_b, n_b
        for token in changed:
            frequency = len(self._inverted_b.get(token, ()))
            before = frequency + 1 if token in old_tokens else frequency - 1
            bucket = self._by_df.get(before)
            if bucket is not None:
                bucket.discard(token)
                if not bucket:
                    del self._by_df[before]
            if frequency:
                self._by_df[frequency].add(token)
        if self.stop_fraction == 0.0:
            return set()
        candidates = set(changed)
        low, high = sorted((self.stop_fraction * old_n, self.stop_fraction * n_b))
        for frequency in range(math.floor(low) + 1, math.floor(high) + 1):
            candidates.update(self._by_df.get(frequency, ()))
        flipped = set()
        for token in candidates:
            now = self._is_stop(len(self._inverted_b.get(token, ())), n_b)
            if now != (token in self._stop):
                flipped.add(token)
                if now:
                    self._stop.add(token)
                else:
                    self._stop.discard(token)
        return flipped

    def _survives(self, a_id: str, b_id: str) -> bool:
        shared = self._tokens_a[a_id] & self._tokens_b[b_id]
        return len(shared - self._stop) >= self.min_overlap

    def _delta_pairs(
        self, table_a: Table, table_b: Table, delta
    ) -> Tuple[Set[PairId], Set[PairId]]:
        side = delta.side
        old_tokens = self._unindex_record(side, delta.record_id)
        tokens = (
            frozenset()
            if delta.op == "delete"
            else self._index_record(side, delta.record)
        )
        flipped: Set[str] = set()
        if side == "b":
            flipped = self._restop(old_tokens ^ tokens, old_tokens, len(table_b))

        def pairs_for_record(record: Record) -> Set[PairId]:
            if side == "a":
                partners = self._partners(tokens, self._inverted_b)
                return {(record.record_id, b_id) for b_id in partners}
            partners = self._partners(tokens, self._inverted_a)
            return {(a_id, record.record_id) for a_id in partners}

        gained, lost = self._local_delta(delta, pairs_for_record)
        # Pairs between other records that share a flipped token (a B-side
        # delta never changes A records, so only the B id needs excluding).
        recheck: Set[PairId] = set()
        for token in flipped:
            b_ids = self._inverted_b.get(token, set()) - {delta.record_id}
            for a_id in self._inverted_a.get(token, ()):
                recheck.update((a_id, b_id) for b_id in b_ids)
        for a_id, b_id in recheck:
            was = b_id in self._pairs_by_a.get(a_id, ())
            if self._survives(a_id, b_id) != was:
                (lost if was else gained).add((a_id, b_id))
        return gained, lost
