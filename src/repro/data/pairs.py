"""Candidate pairs — the unit of work for every matcher.

Blocking (paper §3) turns the ``|A| × |B|`` cross product into a much
smaller *candidate set*; matching then evaluates the Boolean matching
function once per candidate pair.  :class:`CandidateSet` is that set,
with the two properties every downstream component relies on:

* **Stable indexing.** Each pair has a dense integer index (its position),
  which the memo (``|C| × |F|`` array) and the incremental bitmaps key on.
* **Record access.** Iteration yields :class:`CandidatePair` objects that
  carry both records, so matchers never re-resolve ids.

Streaming ingest changes a candidate set by a delta through
:meth:`CandidateSet.with_delta`, a copy-on-write step whose cost follows
the delta, not the set: lost pairs are swap-removed (the tail's rows fill
their holes) and gained pairs are appended.  The :class:`RowDelta` it
returns is the recipe every index-aligned array — memo, labels, bitmaps —
follows to the new layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import BlockingError
from .table import Record, Table

PairId = Tuple[str, str]


@dataclass(frozen=True)
class RowDelta:
    """How :meth:`CandidateSet.with_delta` laid out the new rows.

    Rows ``[0, kept)`` keep their index, except the ``holes`` left by lost
    pairs, which take the surviving tail rows ``movers`` (``movers[i]``
    moves to ``holes[i]``).  Lost rows at or past ``kept`` are dropped and
    rows ``[kept, size)`` are the gained pairs.  ``dropped`` lists every
    old row of a lost pair.  All three index arrays are ascending.
    """

    kept: int
    size: int
    dropped: np.ndarray
    holes: np.ndarray
    movers: np.ndarray

    def take(self, array: np.ndarray, fill) -> np.ndarray:
        """A new array in the new row layout: ``array``'s surviving rows,
        moved, and ``fill`` in the gained rows.  ``array`` is not changed."""
        out = np.empty((self.size,) + array.shape[1:], dtype=array.dtype)
        out[: self.kept] = array[: self.kept]
        out[self.kept :] = fill
        if len(self.holes):
            out[self.holes] = array[self.movers]
        return out

    def take_each(self, arrays: Sequence[np.ndarray], fill) -> List[np.ndarray]:
        """:meth:`take` for many same-dtype 1-D arrays (bitmaps): one block
        allocation for all of them, returned as independent row views."""
        if not arrays:
            return []
        out = np.full((len(arrays), self.size), fill, dtype=arrays[0].dtype)
        for row, array in zip(out, arrays):
            row[: self.kept] = array[: self.kept]
            if len(self.holes):
                row[self.holes] = array[self.movers]
        return list(out)


class CandidatePair:
    """One candidate (a, b) record pair with its dense index."""

    __slots__ = ("index", "record_a", "record_b")

    def __init__(self, index: int, record_a: Record, record_b: Record):
        self.index = index
        self.record_a = record_a
        self.record_b = record_b

    @property
    def pair_id(self) -> PairId:
        return (self.record_a.record_id, self.record_b.record_id)

    def __repr__(self) -> str:
        return f"CandidatePair({self.index}, {self.pair_id})"


class CandidateSet:
    """An ordered, indexable set of candidate record pairs.

    Construct via a blocker (:mod:`repro.blocking`) or directly from id
    pairs with :meth:`from_id_pairs`.  Duplicate id pairs are rejected —
    a duplicate would double-count in every cost model and bitmap.
    """

    def __init__(self, table_a: Table, table_b: Table):
        self.table_a = table_a
        self.table_b = table_b
        self._pairs: List[CandidatePair] = []
        # side -> record id -> {partner id: index}: the pair-id lookup and
        # the record -> incident-pairs map in one two-level index, so a
        # delta copies only the outer dicts and its records' inner ones.
        self._rows: Dict[str, Dict[str, Dict[str, int]]] = {"a": {}, "b": {}}

    @classmethod
    def from_id_pairs(
        cls, table_a: Table, table_b: Table, id_pairs: Sequence[PairId]
    ) -> "CandidateSet":
        candidates = cls(table_a, table_b)
        for a_id, b_id in id_pairs:
            candidates.add(a_id, b_id)
        return candidates

    @classmethod
    def from_positions(
        cls,
        table_a: Table,
        table_b: Table,
        positions_a: np.ndarray,
        positions_b: np.ndarray,
    ) -> "CandidateSet":
        """The pairs ``(table_a[i], table_b[j])`` for each ``i, j`` of the
        two record-position arrays, in that order (a checkpoint's form of
        the candidate order).  Rejects out-of-range positions and
        duplicate pairs, as :meth:`add` does."""
        for positions, table in ((positions_a, table_a), (positions_b, table_b)):
            if len(positions) and not 0 <= positions.min() <= positions.max() < len(table):
                raise BlockingError(f"record position out of range for {table.name!r}")
        records_a, records_b = table_a.snapshot(), table_b.snapshot()
        candidates = cls(table_a, table_b)
        pairs = candidates._pairs
        rows_a, rows_b = candidates._rows["a"], candidates._rows["b"]
        for index, (i, j) in enumerate(zip(positions_a.tolist(), positions_b.tolist())):
            record_a, record_b = records_a[i], records_b[j]
            a_id, b_id = record_a.record_id, record_b.record_id
            partners = rows_a.setdefault(a_id, {})
            if b_id in partners:
                raise BlockingError(f"duplicate candidate pair {(a_id, b_id)}")
            partners[b_id] = index
            rows_b.setdefault(b_id, {})[a_id] = index
            pairs.append(CandidatePair(index, record_a, record_b))
        return candidates

    def add(self, a_id: str, b_id: str) -> CandidatePair:
        """Append the pair ``(a_id, b_id)``; both ids must resolve."""
        if b_id in self._rows["a"].get(a_id, ()):
            raise BlockingError(f"duplicate candidate pair {(a_id, b_id)}")
        record_a = self.table_a.get(a_id)
        record_b = self.table_b.get(b_id)
        pair = CandidatePair(len(self._pairs), record_a, record_b)
        self._pairs.append(pair)
        self._rows["a"].setdefault(a_id, {})[b_id] = pair.index
        self._rows["b"].setdefault(b_id, {})[a_id] = pair.index
        return pair

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[CandidatePair]:
        return iter(self._pairs)

    def __getitem__(self, index: int) -> CandidatePair:
        return self._pairs[index]

    def index_of(self, a_id: str, b_id: str) -> int:
        """Dense index of the pair, or KeyError if not a candidate."""
        try:
            return self._rows["a"][a_id][b_id]
        except KeyError:
            raise KeyError((a_id, b_id)) from None

    def __contains__(self, pair_id: PairId) -> bool:
        a_id, b_id = pair_id
        return b_id in self._rows["a"].get(a_id, ())

    def id_pairs(self) -> List[PairId]:
        """All pair ids in index order."""
        return [pair.pair_id for pair in self._pairs]

    def with_delta(
        self,
        lost: Iterable[PairId],
        gained: Sequence[PairId],
        refresh_a: Iterable[str] = (),
        refresh_b: Iterable[str] = (),
    ) -> Tuple["CandidateSet", RowDelta]:
        """A new candidate set without ``lost`` and with ``gained`` appended.

        Copy-on-write: ``self`` and its :class:`CandidatePair` objects are
        left untouched.  The new set shares every unchanged pair object;
        new ones are built only for moved pairs, gained pairs, and the
        surviving pairs of ``refresh_a``/``refresh_b`` records (updated
        records, whose pairs must carry the tables' current record).
        Apart from C-level copies of the pair list and the per-record
        dicts, the work is proportional to the delta.
        """
        n_old = len(self._pairs)
        dropped = sorted({self.index_of(a_id, b_id) for a_id, b_id in lost})
        kept = n_old - len(dropped)
        dropped_set = set(dropped)
        holes = [row for row in dropped if row < kept]
        movers = [row for row in range(kept, n_old) if row not in dropped_set]
        moved_from = dict(zip(holes, movers))

        # (side, record id) -> {partner id: new row, or None to remove}
        edits: Dict[Tuple[str, str], Dict[str, Optional[int]]] = {}

        def edit(a_id: str, b_id: str, row: Optional[int]) -> None:
            edits.setdefault(("a", a_id), {})[b_id] = row
            edits.setdefault(("b", b_id), {})[a_id] = row

        for row in dropped:
            edit(*self._pairs[row].pair_id, None)
        for hole, mover in moved_from.items():
            edit(*self._pairs[mover].pair_id, hole)
        pairs = self._pairs[:kept]
        for offset, (a_id, b_id) in enumerate(gained):
            # Not a current pair, nor one gained earlier in this call.
            if (a_id, b_id) in self or b_id in edits.get(("a", a_id), ()):
                raise BlockingError(f"duplicate candidate pair {(a_id, b_id)}")
            row = kept + offset
            pairs.append(
                CandidatePair(row, self.table_a.get(a_id), self.table_b.get(b_id))
            )
            edit(a_id, b_id, row)

        rows = {"a": dict(self._rows["a"]), "b": dict(self._rows["b"])}
        for (side, record_id), changes in edits.items():
            partners = dict(rows[side].get(record_id, ()))
            for partner, row in changes.items():
                if row is None:
                    del partners[partner]
                else:
                    partners[partner] = row
            if partners:
                rows[side][record_id] = partners
            else:
                rows[side].pop(record_id, None)

        rebuild = set(holes)
        for side, record_ids in (("a", refresh_a), ("b", refresh_b)):
            for record_id in record_ids:
                rebuild.update(
                    row for row in rows[side].get(record_id, {}).values() if row < kept
                )
        for row in rebuild:
            source = self._pairs[moved_from.get(row, row)]
            pairs[row] = CandidatePair(
                row,
                self.table_a.get(source.record_a.record_id),
                self.table_b.get(source.record_b.record_id),
            )

        result = CandidateSet(self.table_a, self.table_b)
        result._pairs = pairs
        result._rows = rows
        return result, RowDelta(
            kept=kept,
            size=len(pairs),
            dropped=np.asarray(dropped, dtype=np.int64),
            holes=np.asarray(holes, dtype=np.int64),
            movers=np.asarray(movers, dtype=np.int64),
        )

    def subset(self, indices: Sequence[int]) -> "CandidateSet":
        """A new candidate set containing only ``indices`` (re-indexed densely).

        Used to build estimation samples and the pair-count sweeps of
        Figure 5B without re-running blocking.
        """
        result = CandidateSet(self.table_a, self.table_b)
        for index in indices:
            pair = self._pairs[index]
            result.add(pair.record_a.record_id, pair.record_b.record_id)
        return result

    def indices_for_record(self, side: str, record_id: str) -> List[int]:
        """Indices of every pair incident to ``record_id`` on ``side``.

        ``side`` is ``"a"`` or ``"b"``.  This is the record→pair-index
        mapping streaming updates use to evict exactly the memo rows and
        bitmap bits an updated record invalidates.
        """
        rows = self._rows.get(side)
        if rows is None:
            raise BlockingError(f"side must be 'a' or 'b', got {side!r}")
        return list(rows.get(record_id, {}).values())

    def gold_indices(self, gold: Set[PairId]) -> List[int]:
        """Indices of pairs whose ids appear in a gold match set."""
        return [
            pair.index for pair in self._pairs if pair.pair_id in gold
        ]

    def __repr__(self) -> str:
        return (
            f"CandidateSet({len(self)} pairs from "
            f"{self.table_a.name!r} x {self.table_b.name!r})"
        )
