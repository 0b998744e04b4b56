"""Attribute-equivalence blocking.

The paper's §3 example: "products from different categories are
non-matches", so only same-category pairs become candidates.  Records with
a missing blocking value are, by default, paired with *every* record on
the other side (``keep_missing=True``) — dropping them would silently
erase true matches whose blocking attribute one source failed to extract,
which is the kind of blocking bug the debugging loop cannot recover from.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Set, Tuple

from ..data.pairs import PairId
from ..data.table import Record, Table
from ..errors import BlockingError
from .base import Blocker


class AttributeEquivalenceBlocker(Blocker):
    """Candidates are pairs whose (normalized) blocking values are equal.

    A pair ``(a, b)`` is a candidate iff ``key(a) == key(b) != None``, or
    — when ``keep_missing`` — either key is ``None``.  Membership is local
    to the two records, so ``block()`` keeps per-side key indexes and
    :meth:`pairs_for_delta` answers from them in O(block size).
    """

    name = "attr_equivalence"
    delta_strategy = "index"

    def __init__(self, attribute: str, keep_missing: bool = True, lowercase: bool = True):
        self.attribute = attribute
        self.keep_missing = keep_missing
        self.lowercase = lowercase

    def _key(self, value: object) -> object:
        if value is None:
            return None
        text = str(value).strip()
        return text.lower() if self.lowercase else text

    def _pair_ids(self, table_a: Table, table_b: Table) -> Iterable[Tuple[str, str]]:
        for table in (table_a, table_b):
            if self.attribute not in table.attributes:
                raise BlockingError(
                    f"blocking attribute {self.attribute!r} not in table "
                    f"{table.name!r} (schema: {list(table.attributes)})"
                )
        # Per-side key indexes; kept on self and maintained by
        # _delta_pairs so deltas never rescan the tables.
        self._by_key_a: Dict[object, Set[str]] = defaultdict(set)
        self._by_key_b: Dict[object, Set[str]] = defaultdict(set)
        self._missing_a: Set[str] = set()
        self._missing_b: Set[str] = set()
        self._key_of_a: Dict[str, object] = {}
        self._key_of_b: Dict[str, object] = {}
        for record_a in table_a:
            self._index_record("a", record_a)

        index_b: Dict[object, List[str]] = defaultdict(list)
        missing_b: List[str] = []
        for record_b in table_b:
            self._index_record("b", record_b)
            key = self._key(record_b.get(self.attribute))
            if key is None:
                missing_b.append(record_b.record_id)
            else:
                index_b[key].append(record_b.record_id)

        for record_a in table_a:
            key = self._key(record_a.get(self.attribute))
            matched: Set[str] = set()
            if key is None:
                if not self.keep_missing:
                    continue
                # Missing on the A side: pair with everything.
                for record_b in table_b:
                    yield record_a.record_id, record_b.record_id
                continue
            for b_id in index_b.get(key, ()):
                matched.add(b_id)
                yield record_a.record_id, b_id
            if self.keep_missing:
                for b_id in missing_b:
                    if b_id not in matched:
                        yield record_a.record_id, b_id

    # ------------------------------------------------------------------
    # Delta maintenance
    # ------------------------------------------------------------------

    def _index_record(self, side: str, record: Record) -> None:
        by_key = self._by_key_a if side == "a" else self._by_key_b
        missing = self._missing_a if side == "a" else self._missing_b
        key_of = self._key_of_a if side == "a" else self._key_of_b
        key = self._key(record.get(self.attribute))
        key_of[record.record_id] = key
        if key is None:
            missing.add(record.record_id)
        else:
            by_key[key].add(record.record_id)

    def _unindex_record(self, side: str, record_id: str) -> None:
        by_key = self._by_key_a if side == "a" else self._by_key_b
        missing = self._missing_a if side == "a" else self._missing_b
        key_of = self._key_of_a if side == "a" else self._key_of_b
        key = key_of.pop(record_id, None)
        if key is None:
            missing.discard(record_id)
        else:
            ids = by_key.get(key)
            if ids is not None:
                ids.discard(record_id)
                if not ids:
                    del by_key[key]

    def _partners(self, side: str, key: object) -> Set[str]:
        """Other-side record ids that pair with a record whose key is ``key``."""
        other_by_key = self._by_key_b if side == "a" else self._by_key_a
        other_missing = self._missing_b if side == "a" else self._missing_a
        other_key_of = self._key_of_b if side == "a" else self._key_of_a
        if key is None:
            # Missing pairs with everything iff keep_missing.
            return set(other_key_of) if self.keep_missing else set()
        partners = set(other_by_key.get(key, ()))
        if self.keep_missing:
            partners |= other_missing
        return partners

    def _delta_pairs(
        self, table_a: Table, table_b: Table, delta
    ) -> Tuple[Set[PairId], Set[PairId]]:
        if not hasattr(self, "_key_of_a"):
            return super()._delta_pairs(table_a, table_b, delta)
        self._unindex_record(delta.side, delta.record_id)
        if delta.op != "delete":
            self._index_record(delta.side, delta.record)

        def pairs_for_record(record: Record) -> Set[PairId]:
            key = self._key_of_a[record.record_id] if delta.side == "a" else (
                self._key_of_b[record.record_id]
            )
            partners = self._partners(delta.side, key)
            if delta.side == "a":
                return {(record.record_id, b_id) for b_id in partners}
            return {(a_id, record.record_id) for a_id in partners}

        return self._local_delta(delta, pairs_for_record)
