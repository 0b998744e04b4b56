"""Jaro and Jaro-Winkler similarity.

Cheap character-level measures (0.5 µs / 0.77 µs in the paper's Table 3)
well suited to short identifier-like attributes such as model numbers —
which is exactly where the paper's sample rules use them (Figure 4:
``Jaro Winkler(m, m) >= 0.97 AND Jaro(m, m) >= 0.95 ...``).
"""

from __future__ import annotations

from typing import Optional

from .base import NormalizedStringSimilarity


def jaro_similarity(x: str, y: str) -> float:
    """Raw Jaro similarity of two strings, bit-parallel.

    Matching characters must be equal and within
    ``max(len) // 2 - 1`` positions of each other; the score combines the
    match ratio in each string with the transposition count among matches.

    The greedy matching is the textbook one — each character of ``x``, in
    order, takes the first unmatched equal character of ``y`` inside its
    window — done on bit masks: one Python int per character of ``y``
    holds its positions, ``free`` holds the positions not yet matched,
    and the first candidate is the lowest set bit of their intersection
    clipped to the window.  Matches, transpositions and the score
    expression are exactly the loop's (the tests keep that loop as the
    oracle).  Python ints are unbounded, so strings of any length use the
    same code.
    """
    if x == y:
        return 1.0
    len_x, len_y = len(x), len(y)
    if len_x == 0 or len_y == 0:
        return 0.0
    window = max(len_x, len_y) // 2 - 1
    if window < 0:
        window = 0
    positions = {}  # character -> bit mask of its positions in y
    bit = 1
    for char in y:
        positions[char] = positions.get(char, 0) | bit
        bit <<= 1
    free = bit - 1  # positions of y not matched yet
    get = positions.get
    matched = []  # the matched characters of x, in x order
    for i, char in enumerate(x):
        candidates = get(char, 0) & free
        if candidates:
            low = i - window
            if low > 0:
                candidates = candidates >> low << low
            candidates &= (2 << (i + window)) - 1
            if candidates:
                free ^= candidates & -candidates
                matched.append(char)
    matches = len(matched)
    if matches == 0:
        return 0.0
    # Walk the matched positions of y in order, in step with x's.
    y_flags = (bit - 1) ^ free
    transpositions = 0
    for char in matched:
        lowest = y_flags & -y_flags
        if char != y[lowest.bit_length() - 1]:
            transpositions += 1
        y_flags ^= lowest
    transpositions //= 2
    return (
        matches / len_x + matches / len_y + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(x: str, y: str, prefix_weight: float = 0.1) -> float:
    """Jaro-Winkler: boosts Jaro by common-prefix length (up to 4 chars).

    ``prefix_weight`` must satisfy ``0 <= w <= 0.25`` so the score stays in
    ``[0, 1]``; the conventional value is 0.1.
    """
    if not 0.0 <= prefix_weight <= 0.25:
        raise ValueError(f"prefix_weight must be in [0, 0.25], got {prefix_weight}")
    jaro = jaro_similarity(x, y)
    prefix = 0
    for cx, cy in zip(x[:4], y[:4]):
        if cx != cy:
            break
        prefix += 1
    return jaro + prefix * prefix_weight * (1.0 - jaro)


def jaro_upper_bound(len_x: int, len_y: int) -> float:
    """Length-only upper bound on :func:`jaro_similarity`.

    At most ``min(len_x, len_y)`` characters can match, and the
    transposition term ``(m - t) / m`` never exceeds 1 (its float
    evaluation rounds to at most 1.0 because ``m - t <= m`` as ints).
    The bound is the Jaro formula at that maximum with the identical
    left-associated operation shape, so rounding monotonicity gives
    ``jaro_similarity(x, y) <= jaro_upper_bound(len(x), len(y))``.
    """
    shortest = min(len_x, len_y)
    return (shortest / len_x + shortest / len_y + 1.0) / 3.0


class Jaro(NormalizedStringSimilarity):
    """Case-folded Jaro similarity."""

    name = "jaro"
    cost_tier = 2

    def score_norms(self, x: str, y: str) -> float:
        return jaro_similarity(x, y)

    def upper_bound_lengths(self, len_x: int, len_y: int) -> Optional[float]:
        if len_x == 0 or len_y == 0:
            # Zero-length comparisons are trivially cheap; no bound needed.
            return None
        return jaro_upper_bound(len_x, len_y)


class JaroWinkler(NormalizedStringSimilarity):
    """Case-folded Jaro-Winkler similarity with configurable prefix weight."""

    cost_tier = 2

    def __init__(self, prefix_weight: float = 0.1):
        if not 0.0 <= prefix_weight <= 0.25:
            raise ValueError(
                f"prefix_weight must be in [0, 0.25], got {prefix_weight}"
            )
        self.prefix_weight = prefix_weight
        self.name = "jaro_winkler"

    def cache_key(self) -> tuple:
        return super().cache_key() + (self.prefix_weight,)

    def score_norms(self, x: str, y: str) -> float:
        return jaro_winkler_similarity(x, y, self.prefix_weight)

    def upper_bound_lengths(self, len_x: int, len_y: int) -> Optional[float]:
        if len_x == 0 or len_y == 0:
            return None
        jaro_bound = jaro_upper_bound(len_x, len_y)
        prefix = min(4, len_x, len_y)
        # jw = jaro + p*w*(1-jaro) is monotone in both jaro (w <= 0.25)
        # and p, so substituting their maxima bounds the exact value; the
        # Jaro bound appears twice with opposing float-rounding
        # monotonicity, so add an explicit 1e-9 margin (orders of
        # magnitude above the few-ulp rounding budget of this expression)
        # rather than relying on operation shape alone.
        return jaro_bound + prefix * self.prefix_weight * (1.0 - jaro_bound) + 1e-9
