"""Blocker interface.

Blocking (paper §3) runs once, before any matching, and produces the
*candidate set* every matcher then iterates over.  Blockers are
deterministic functions of the two tables: given A and B they return a
:class:`~repro.data.pairs.CandidateSet` whose pair order is deterministic
(sorted by A-side insertion order, then B-side), so that memo indices and
bitmaps are stable across runs.

Streaming extension
-------------------
``block()`` additionally snapshots the produced pair set (and, for
blockers that can, an index over the blocking values), after which
:meth:`Blocker.pairs_for_delta` answers *"which candidate pairs does this
record-level delta gain or lose?"* without consulting a matcher:

* ``"index"`` blockers maintain their index incrementally and answer
  without re-blocking.  For Cartesian, attribute equivalence, and the
  rule-based filters over them, membership is **local** — a pair's
  survival depends only on the two records' own values — so only pairs
  incident to the changed record move, found in O(degree).  Token
  overlap is ``"index"`` too, with or without a stop-token filter; with
  one, a B-side delta can flip tokens in or out of the stop set, and the
  blocker re-checks only the pairs that share a flipped token (see
  :mod:`repro.blocking.overlap`).
* ``"reblock"`` blockers have membership too **global** to index —
  sorted neighborhood (window positions shift), canopy (seeding
  changes), limited Cartesian, and the set combinators.  They re-run
  ``_pair_ids`` on the post-delta tables and diff against the snapshot:
  exactly the full re-block, minus re-building the CandidateSet.

Both strategies return *exactly* the symmetric difference of full
``block()`` runs before/after the delta — a Hypothesis property test
(``tests/test_streaming_properties.py``) enforces the equivalence for
every blocker in :data:`repro.blocking.BLOCKER_REGISTRY`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from ..data.pairs import CandidateSet, PairId
from ..data.table import Table
from ..errors import BlockingError


@dataclass(frozen=True)
class PairDelta:
    """Candidate pairs gained/lost by one record-level delta.

    Both tuples are sorted for determinism; a pair never appears in both.
    """

    gained: Tuple[PairId, ...]
    lost: Tuple[PairId, ...]

    def __bool__(self) -> bool:
        return bool(self.gained or self.lost)

    def __repr__(self) -> str:
        return f"PairDelta(+{len(self.gained)}/-{len(self.lost)})"


class Blocker(ABC):
    """Base class for all blockers."""

    name: str = "blocker"
    #: how :meth:`pairs_for_delta` computes its answer — ``"index"`` when
    #: an incrementally maintained index yields the delta without
    #: re-blocking, ``"reblock"`` when it re-runs ``_pair_ids`` and diffs.
    delta_strategy: str = "reblock"

    def block(self, table_a: Table, table_b: Table) -> CandidateSet:
        """Return the candidate set for ``table_a`` x ``table_b``."""
        return CandidateSet.from_id_pairs(
            table_a, table_b, self.index_pairs(table_a, table_b)
        )

    def index_pairs(self, table_a: Table, table_b: Table) -> List[PairId]:
        """Block without building a candidate set: rebuild the delta index
        over ``table_a`` x ``table_b`` and return the pairs in order.

        Callers that hold their candidates already (a restored session, a
        rolled-back ingest) only need the index.
        """
        id_pairs = list(self._pair_ids(table_a, table_b))
        self._snapshot(id_pairs)
        return id_pairs

    @abstractmethod
    def _pair_ids(
        self, table_a: Table, table_b: Table
    ) -> Iterable[Tuple[str, str]]:
        """Yield surviving (a_id, b_id) pairs in deterministic order."""

    # ------------------------------------------------------------------
    # Delta protocol
    # ------------------------------------------------------------------

    def pairs_for_delta(self, table_a: Table, table_b: Table, delta) -> PairDelta:
        """Candidate pairs gained/lost by ``delta``, versus the last call.

        ``table_a``/``table_b`` are the **post-delta** tables (the delta
        has already been applied to them); ``delta`` is a
        :class:`~repro.streaming.Delta`-shaped object with ``op``
        (``"insert"``/``"update"``/``"delete"``), ``side`` (``"a"``/
        ``"b"``), ``record_id``, and ``record`` attributes.  The result is
        exactly ``block(post) \\ block(pre)`` and ``block(pre) \\
        block(post)``.  The snapshot advances, so consecutive deltas
        chain; requires a prior :meth:`block` on this instance.
        """
        if not getattr(self, "_snapshot_ready", False):
            raise BlockingError(
                f"{type(self).__name__}.pairs_for_delta needs a prior "
                f"block() on this instance"
            )
        gained, lost = self._delta_pairs(table_a, table_b, delta)
        for a_id, b_id in lost:
            self._pairs_by_a.get(a_id, set()).discard(b_id)
            self._pairs_by_b.get(b_id, set()).discard(a_id)
        for a_id, b_id in gained:
            self._pairs_by_a.setdefault(a_id, set()).add(b_id)
            self._pairs_by_b.setdefault(b_id, set()).add(a_id)
        return PairDelta(tuple(sorted(gained)), tuple(sorted(lost)))

    def _delta_pairs(
        self, table_a: Table, table_b: Table, delta
    ) -> Tuple[Set[PairId], Set[PairId]]:
        """Default strategy: re-run ``_pair_ids`` and diff (always exact)."""
        new_pairs = set(self._pair_ids(table_a, table_b))
        old_pairs = self.current_pairs()
        return new_pairs - old_pairs, old_pairs - new_pairs

    def current_pairs(self) -> Set[PairId]:
        """The pair set as of the last block()/pairs_for_delta call."""
        if not getattr(self, "_snapshot_ready", False):
            raise BlockingError(
                f"{type(self).__name__} has no snapshot; call block() first"
            )
        return {
            (a_id, b_id)
            for a_id, b_ids in self._pairs_by_a.items()
            for b_id in b_ids
        }

    def _snapshot(self, id_pairs: Iterable[PairId]) -> None:
        """Record the produced pair set for later delta computation."""
        self._pairs_by_a: Dict[str, Set[str]] = {}
        self._pairs_by_b: Dict[str, Set[str]] = {}
        for a_id, b_id in id_pairs:
            self._pairs_by_a.setdefault(a_id, set()).add(b_id)
            self._pairs_by_b.setdefault(b_id, set()).add(a_id)
        self._snapshot_ready = True

    def _incident_pairs(self, side: str, record_id: str) -> Set[PairId]:
        """Snapshot pairs incident to ``record_id`` on ``side``."""
        if side == "a":
            return {
                (record_id, b_id)
                for b_id in self._pairs_by_a.get(record_id, ())
            }
        return {
            (a_id, record_id) for a_id in self._pairs_by_b.get(record_id, ())
        }

    def _local_delta(
        self, delta, pairs_for_record
    ) -> Tuple[Set[PairId], Set[PairId]]:
        """The changed record's own share of a delta.

        ``pairs_for_record(record)`` returns the full pair set the (post-
        delta) record participates in; the delta is its difference with
        the snapshot's incident pairs.  That is the whole delta only when
        no *other* record's pair membership can change; a blocker whose
        delta can reach other pairs (stop-token overlap) adds those
        itself.  The property test catches misuse.
        """
        old = self._incident_pairs(delta.side, delta.record_id)
        new: Set[PairId] = (
            set() if delta.op == "delete" else pairs_for_record(delta.record)
        )
        return new - old, old - new

    @staticmethod
    def _ordered(
        table_a: Table, pairs_by_a: dict
    ) -> List[Tuple[str, str]]:
        """Flatten {a_id: set(b_ids)} deterministically (table order, then id)."""
        ordered: List[Tuple[str, str]] = []
        for record_a in table_a:
            b_ids = pairs_by_a.get(record_a.record_id)
            if b_ids:
                ordered.extend(
                    (record_a.record_id, b_id) for b_id in sorted(b_ids)
                )
        return ordered

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
