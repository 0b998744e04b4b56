"""Rule-based blocking and blocker combinators.

``RuleBasedBlocker`` filters an upstream blocker's candidates through an
arbitrary pair predicate — e.g. "titles share a token AND prices within
50 %".  The combinators union/intersect candidate sets from independent
blockers, which is how practitioners trade recall against candidate-set
size (union of a loose name blocker and a phone blocker loses far fewer
true matches than either alone).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence, Set, Tuple

from ..data.pairs import PairId
from ..data.table import Record, Table
from ..errors import BlockingError
from .base import Blocker
from .cartesian import CartesianBlocker

PairPredicate = Callable[[Record, Record], bool]


class RuleBasedBlocker(Blocker):
    """Keep an upstream blocker's pairs that satisfy ``predicate``.

    Deltas delegate to the base blocker's ``pairs_for_delta`` and filter
    its gains through the predicate.  An *update* additionally re-tests
    base pairs that persist but involve the changed record — the records
    fed to the predicate changed even though base membership did not.
    """

    name = "rule_based"

    def __init__(self, predicate: PairPredicate, base: Blocker | None = None):
        self.predicate = predicate
        self.base = base or CartesianBlocker()
        self.delta_strategy = self.base.delta_strategy

    def _pair_ids(self, table_a: Table, table_b: Table) -> Iterable[Tuple[str, str]]:
        base_pairs = list(self.base._pair_ids(table_a, table_b))
        # Keep the base delta-ready so _delta_pairs can delegate to it.
        self.base._snapshot(base_pairs)
        for a_id, b_id in base_pairs:
            if self.predicate(table_a.get(a_id), table_b.get(b_id)):
                yield a_id, b_id

    def _delta_pairs(
        self, table_a: Table, table_b: Table, delta
    ) -> Tuple[Set[PairId], Set[PairId]]:
        base_delta = self.base.pairs_for_delta(table_a, table_b, delta)

        def ours(a_id: str, b_id: str) -> bool:
            return b_id in self._pairs_by_a.get(a_id, ())

        gained = {
            (a_id, b_id)
            for a_id, b_id in base_delta.gained
            if self.predicate(table_a.get(a_id), table_b.get(b_id))
        }
        lost = {pair_id for pair_id in base_delta.lost if ours(*pair_id)}
        if delta.op == "update":
            # Base pairs that survived the update but involve the changed
            # record: their predicate inputs changed, so membership may flip.
            persisting = self.base._incident_pairs(delta.side, delta.record_id)
            persisting -= set(base_delta.gained)
            for a_id, b_id in persisting:
                holds = self.predicate(table_a.get(a_id), table_b.get(b_id))
                was_ours = ours(a_id, b_id)
                if holds and not was_ours:
                    gained.add((a_id, b_id))
                elif not holds and was_ours:
                    lost.add((a_id, b_id))
        return gained, lost


class UnionBlocker(Blocker):
    """Union of several blockers' candidates (first-seen order, deduped)."""

    name = "union"

    def __init__(self, blockers: Sequence[Blocker]):
        if not blockers:
            raise BlockingError("UnionBlocker needs at least one blocker")
        self.blockers = list(blockers)

    def _pair_ids(self, table_a: Table, table_b: Table) -> Iterable[Tuple[str, str]]:
        seen = set()
        for blocker in self.blockers:
            for pair_id in blocker._pair_ids(table_a, table_b):
                if pair_id not in seen:
                    seen.add(pair_id)
                    yield pair_id


class IntersectBlocker(Blocker):
    """Intersection of several blockers' candidates (first blocker's order)."""

    name = "intersect"

    def __init__(self, blockers: Sequence[Blocker]):
        if not blockers:
            raise BlockingError("IntersectBlocker needs at least one blocker")
        self.blockers = list(blockers)

    def _pair_ids(self, table_a: Table, table_b: Table) -> Iterable[Tuple[str, str]]:
        first, *rest = self.blockers
        if not rest:
            yield from first._pair_ids(table_a, table_b)
            return
        surviving = set(first._pair_ids(table_a, table_b))
        for blocker in rest:
            surviving &= set(blocker._pair_ids(table_a, table_b))
        # Re-emit in the first blocker's deterministic order.
        for pair_id in first._pair_ids(table_a, table_b):
            if pair_id in surviving:
                yield pair_id


def blocking_recall(candidates, gold) -> float:
    """Fraction of gold matches that survived blocking.

    The one blocking metric that matters: matches lost here are lost
    forever, no matter how good the rules get (paper §3).
    """
    if not gold:
        return 1.0
    survivors = sum(1 for pair_id in gold if pair_id in candidates)
    return survivors / len(gold)
