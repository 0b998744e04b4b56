"""Blocking substrate: reduce |A| x |B| to a tractable candidate set.

Blocking precedes matching (paper Section 3). These blockers produce the
``CandidateSet`` every matcher, memo, and bitmap is indexed by.

:data:`BLOCKER_REGISTRY` maps each blocker name to a factory taking the
blocking attribute; the streaming property suite iterates it to check the
delta protocol (``pairs_for_delta``) against full re-blocking for every
blocker, including the combinators.
"""

from typing import Callable, Dict

from .attr_equivalence import AttributeEquivalenceBlocker
from .base import Blocker, PairDelta
from .canopy import CanopyBlocker
from .cartesian import CartesianBlocker
from .overlap import OverlapBlocker
from .sorted_neighborhood import SortedNeighborhoodBlocker, default_key
from .rule_based import (
    IntersectBlocker,
    RuleBasedBlocker,
    UnionBlocker,
    blocking_recall,
)


def _share_a_token(record_a, record_b, attribute):
    tokens_a = set(str(record_a.get(attribute) or "").lower().split())
    tokens_b = set(str(record_b.get(attribute) or "").lower().split())
    return bool(tokens_a & tokens_b)


#: blocker name -> factory(attribute) -> Blocker, covering every concrete
#: blocker and both combinators with representative configurations.
BLOCKER_REGISTRY: Dict[str, Callable[[str], Blocker]] = {
    "cartesian": lambda attribute: CartesianBlocker(),
    "attr_equivalence": lambda attribute: AttributeEquivalenceBlocker(attribute),
    "overlap": lambda attribute: OverlapBlocker(attribute, min_overlap=1),
    "overlap_stop": lambda attribute: OverlapBlocker(
        attribute, min_overlap=1, stop_fraction=0.5
    ),
    # The stop filter every stock workload blocks with (default_blocker).
    "overlap_stop_default": lambda attribute: OverlapBlocker(
        attribute, min_overlap=1, stop_fraction=0.15
    ),
    "sorted_neighborhood": lambda attribute: SortedNeighborhoodBlocker(
        attribute, window=3
    ),
    "canopy": lambda attribute: CanopyBlocker(attribute, loose=0.3, tight=0.8),
    "rule_based": lambda attribute: RuleBasedBlocker(
        predicate=lambda a, b, _attr=attribute: _share_a_token(a, b, _attr),
        base=OverlapBlocker(attribute, min_overlap=1),
    ),
    "union": lambda attribute: UnionBlocker(
        [
            AttributeEquivalenceBlocker(attribute),
            OverlapBlocker(attribute, min_overlap=2),
        ]
    ),
    "intersect": lambda attribute: IntersectBlocker(
        [
            OverlapBlocker(attribute, min_overlap=1),
            SortedNeighborhoodBlocker(attribute, window=4),
        ]
    ),
}

__all__ = [
    "Blocker",
    "PairDelta",
    "BLOCKER_REGISTRY",
    "CartesianBlocker",
    "CanopyBlocker",
    "AttributeEquivalenceBlocker",
    "OverlapBlocker",
    "SortedNeighborhoodBlocker",
    "default_key",
    "RuleBasedBlocker",
    "UnionBlocker",
    "IntersectBlocker",
    "blocking_recall",
]
