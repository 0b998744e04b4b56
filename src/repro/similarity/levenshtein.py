"""Edit-distance based measures: Levenshtein and Damerau-Levenshtein.

The paper's Table 3 lists Levenshtein on ``modelno`` at 1.22 µs — mid-pack
between the character measures (Jaro family) and the token/corpus measures.
Scores are normalized to ``[0, 1]`` as ``1 - dist / max(len)`` so they can be
thresholded by rule predicates like any other feature.
"""

from __future__ import annotations

from typing import Optional

from .base import NormalizedStringSimilarity


def levenshtein_distance(x: str, y: str) -> int:
    """Edit distance (insert/delete/substitute), bit-parallel.

    Myers' (1999) bit-vector algorithm in Hyyrö's (2003) formulation for
    global distance: one Python int holds a column of the DP matrix's
    vertical deltas over the shorter string, one bit per character, and
    each character of the longer string advances it with a constant
    number of word operations.  Python ints are unbounded, so strings of
    any length use the same code.  Returns exactly the textbook DP's
    distance (the tests keep that DP as the oracle).
    """
    if x == y:
        return 0
    if len(x) < len(y):
        x, y = y, x  # bits over the shorter string, loop over the longer
    if not y:
        return len(x)
    matches = {}  # character -> bit mask of its positions in y
    bit = 1
    for char in y:
        matches[char] = matches.get(char, 0) | bit
        bit <<= 1
    full = bit - 1
    last = bit >> 1
    positive = full  # vertical +1 deltas
    negative = 0  # vertical -1 deltas
    distance = len(y)
    get = matches.get
    for char in x:
        match = get(char, 0)
        diagonal = (((match & positive) + positive) ^ positive) | match | negative
        h_positive = negative | ~(diagonal | positive)
        h_negative = diagonal & positive
        if h_positive & last:
            distance += 1
        elif h_negative & last:
            distance -= 1
        h_positive = (h_positive << 1) | 1
        positive = ((h_negative << 1) | ~(diagonal | h_positive)) & full
        negative = h_positive & diagonal
    return distance


def damerau_levenshtein_distance(x: str, y: str) -> int:
    """Edit distance that additionally allows adjacent transpositions.

    This is the *restricted* (optimal string alignment) variant: a
    transposed pair may not be edited again afterwards.  It matches the
    typo model used by the synthetic data generators, where swapped
    neighbouring characters are a single error.
    """
    if x == y:
        return 0
    if not x:
        return len(y)
    if not y:
        return len(x)
    rows = len(x) + 1
    cols = len(y) + 1
    dist = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        dist[i][0] = i
    for j in range(cols):
        dist[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if x[i - 1] == y[j - 1] else 1
            best = min(
                dist[i - 1][j] + 1,
                dist[i][j - 1] + 1,
                dist[i - 1][j - 1] + cost,
            )
            if (
                i > 1
                and j > 1
                and x[i - 1] == y[j - 2]
                and x[i - 2] == y[j - 1]
            ):
                best = min(best, dist[i - 2][j - 2] + 1)
            dist[i][j] = best
    return dist[-1][-1]


class Levenshtein(NormalizedStringSimilarity):
    """Normalized Levenshtein similarity: ``1 - dist / max(len(x), len(y))``.

    Two empty strings are defined to have similarity 1.0.
    """

    name = "levenshtein"
    cost_tier = 3

    def score_norms(self, x: str, y: str) -> float:
        longest = max(len(x), len(y))
        if longest == 0:
            return 1.0
        return 1.0 - levenshtein_distance(x, y) / longest

    def upper_bound_lengths(self, len_x: int, len_y: int) -> Optional[float]:
        # dist >= |len_x - len_y| (every length-changing edit moves the
        # length by one), and the bound below is the score formula with
        # that integer lower bound substituted for dist.  Rounding
        # monotonicity of / and - then gives score <= bound exactly.
        longest = max(len_x, len_y)
        if longest == 0:
            return None
        return 1.0 - abs(len_x - len_y) / longest


class DamerauLevenshtein(NormalizedStringSimilarity):
    """Normalized Damerau-Levenshtein similarity (transposition-aware)."""

    name = "damerau_levenshtein"
    cost_tier = 4

    def score_norms(self, x: str, y: str) -> float:
        longest = max(len(x), len(y))
        if longest == 0:
            return 1.0
        return 1.0 - damerau_levenshtein_distance(x, y) / longest

    def upper_bound_lengths(self, len_x: int, len_y: int) -> Optional[float]:
        # Transpositions never change lengths, so dist >= |len_x - len_y|
        # holds for the OSA variant too; same argument as Levenshtein.
        longest = max(len_x, len_y)
        if longest == 0:
            return None
        return 1.0 - abs(len_x - len_y) / longest
