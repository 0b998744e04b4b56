"""Turn candidate pairs into feature vectors for rule learning.

The forest trainer and the rule extractor operate on a dense
``n_pairs × n_features`` matrix of similarity scores.  This is exactly the
"precompute everything" regime the paper argues against for *interactive*
matching — but for *training* on a small labeled sample it is the right
tool, just as the paper's authors used Magellan's batch feature vectors to
learn their 255 rules in the first place.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

import numpy as np

from ..data.pairs import CandidateSet, PairId
from ..errors import ReproError
from ..kernels import FeatureKernels
from .feature_space import FeatureSpace


@dataclass
class LabeledSample:
    """Training material: pair indices, their feature matrix, and labels."""

    indices: List[int]
    matrix: np.ndarray       # (n_pairs, n_features) float64
    labels: np.ndarray       # (n_pairs,) bool
    feature_names: List[str]

    @property
    def positives(self) -> int:
        return int(self.labels.sum())

    @property
    def negatives(self) -> int:
        return len(self.labels) - self.positives

    def __repr__(self) -> str:
        return (
            f"LabeledSample({len(self.indices)} pairs: "
            f"{self.positives} +, {self.negatives} -; "
            f"{self.matrix.shape[1]} features)"
        )


def _hardest_negatives(
    candidates: CandidateSet, pool: Sequence[int], count: int
) -> List[int]:
    """The ``count`` negative pairs with the highest whole-record token
    overlap — cheap to compute and a good proxy for "confusable"."""
    scored: List[Tuple[float, int]] = []
    for index in pool:
        pair = candidates[index]
        tokens_a = set()
        tokens_b = set()
        for attribute in candidates.table_a.attributes:
            value_a = pair.record_a.get(attribute)
            value_b = pair.record_b.get(attribute)
            if value_a is not None:
                tokens_a.update(str(value_a).lower().split())
            if value_b is not None:
                tokens_b.update(str(value_b).lower().split())
        union = len(tokens_a | tokens_b)
        overlap = len(tokens_a & tokens_b) / union if union else 0.0
        scored.append((overlap, index))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [index for _, index in scored[:count]]


def compute_matrix(
    space: FeatureSpace, candidates: CandidateSet, indices: Sequence[int]
) -> np.ndarray:
    """Dense feature matrix for the selected pair indices.

    Columns are computed through one :class:`~repro.kernels.FeatureKernels`,
    so records are tokenized once and token pairs compared once across
    the whole space; every value equals ``feature.compute`` bit for bit.
    """
    kernels = FeatureKernels()
    matrix = np.empty((len(indices), len(space)), dtype=np.float64)
    for column, feature in enumerate(space):
        matrix[:, column] = kernels.compute_rows(feature, candidates, indices)
    return matrix


def build_labeled_sample(
    space: FeatureSpace,
    candidates: CandidateSet,
    gold: Set[PairId],
    negative_ratio: float = 3.0,
    hard_negative_fraction: float = 0.5,
    seed: int = 0,
) -> LabeledSample:
    """Assemble a balanced-ish training sample from the gold labels.

    All gold-positive candidates plus ``negative_ratio`` times as many
    negatives.  ``hard_negative_fraction`` of the negatives are *hard*:
    drawn from the candidates whose records share the most blocking-side
    tokens (near-misses such as sibling products), the rest uniform.
    Training against near-misses is what pushes the learner toward the
    long multi-predicate rules the paper's Figure 4 shows — easy random
    negatives separate on one predicate and teach nothing.  Mirrors how
    the paper's class projects labeled a sample of the candidate pairs.
    """
    if negative_ratio <= 0:
        raise ReproError(f"negative_ratio must be positive, got {negative_ratio}")
    if not 0.0 <= hard_negative_fraction <= 1.0:
        raise ReproError(
            f"hard_negative_fraction must be in [0, 1], got {hard_negative_fraction}"
        )
    positive_indices = candidates.gold_indices(gold)
    if not positive_indices:
        raise ReproError(
            "no gold matches survive blocking; cannot build a training sample"
        )
    positive_set = set(positive_indices)
    negative_pool = [
        index for index in range(len(candidates)) if index not in positive_set
    ]
    rng = random.Random(seed)
    wanted = min(len(negative_pool), round(len(positive_indices) * negative_ratio))
    hard_wanted = round(wanted * hard_negative_fraction)

    hard_indices: List[int] = []
    if hard_wanted > 0:
        hard_indices = _hardest_negatives(candidates, negative_pool, hard_wanted)
    hard_set = set(hard_indices)
    remaining_pool = [index for index in negative_pool if index not in hard_set]
    uniform = rng.sample(remaining_pool, min(wanted - len(hard_indices), len(remaining_pool)))
    negative_indices = sorted(hard_indices + uniform)

    indices = positive_indices + negative_indices
    labels = np.zeros(len(indices), dtype=bool)
    labels[: len(positive_indices)] = True
    matrix = compute_matrix(space, candidates, indices)
    return LabeledSample(
        indices=indices,
        matrix=matrix,
        labels=labels,
        feature_names=space.names(),
    )
