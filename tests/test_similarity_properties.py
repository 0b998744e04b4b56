"""Property-based tests on the package-wide similarity contracts.

Every registered measure must satisfy (module docstring of
``repro.similarity.base``):

* scores in ``[0, 1]``,
* symmetry,
* ``None`` handling (0.0 on any missing side),
* identity (``sim(x, x) == 1``) on inputs the measure is defined for.

It also pins the bit-parallel ``levenshtein_distance`` to the textbook
dynamic program and the bit-parallel ``jaro_similarity`` to the textbook
matching loop, both kept here as oracles, and pins the Jaro family's
bitwise symmetry, which the token-pair memo's unordered keys rely on.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity import (
    Jaro,
    JaroWinkler,
    default_instances,
    jaro_similarity,
    levenshtein_distance,
    registered_names,
)

ALL_MEASURES = {name: instance for name, instance in
                zip(registered_names(), default_instances())}

#: measures whose identity requires numerically parseable input.
NUMERIC_MEASURES = {"numeric_exact", "rel_diff", "abs_diff_5"}

#: short realistic attribute-value alphabet: letters, digits, space, and
#: the punctuation the generators emit.
VALUE_TEXT = st.text(
    alphabet="abcdefghij0123456789 -.,()/",
    min_size=0,
    max_size=24,
)
NONEMPTY_TEXT = st.text(
    alphabet="abcdefghij0123456789",
    min_size=1,
    max_size=24,
)
NUMERIC_TEXT = st.integers(min_value=-10_000, max_value=10_000).map(str)


@pytest.mark.parametrize("name", sorted(ALL_MEASURES))
@given(x=VALUE_TEXT, y=VALUE_TEXT)
@settings(max_examples=40, deadline=None)
def test_bounds(name, x, y):
    score = ALL_MEASURES[name](x, y)
    assert 0.0 <= score <= 1.0, f"{name}({x!r}, {y!r}) = {score}"


@pytest.mark.parametrize("name", sorted(ALL_MEASURES))
@given(x=VALUE_TEXT, y=VALUE_TEXT)
@settings(max_examples=40, deadline=None)
def test_symmetry(name, x, y):
    measure = ALL_MEASURES[name]
    assert measure(x, y) == pytest.approx(measure(y, x), abs=1e-9), (
        f"{name} is asymmetric on ({x!r}, {y!r})"
    )


@pytest.mark.parametrize(
    "name", sorted(set(ALL_MEASURES) - NUMERIC_MEASURES)
)
@given(x=NONEMPTY_TEXT)
@settings(max_examples=40, deadline=None)
def test_identity_string_measures(name, x):
    assert ALL_MEASURES[name](x, x) == pytest.approx(1.0), (
        f"{name}({x!r}, {x!r}) != 1"
    )


@pytest.mark.parametrize("name", sorted(NUMERIC_MEASURES))
@given(x=NUMERIC_TEXT)
@settings(max_examples=40, deadline=None)
def test_identity_numeric_measures(name, x):
    assert ALL_MEASURES[name](x, x) == pytest.approx(1.0)


@pytest.mark.parametrize("name", sorted(ALL_MEASURES))
def test_none_handling(name):
    measure = ALL_MEASURES[name]
    assert measure(None, "abc") == 0.0
    assert measure("abc", None) == 0.0
    assert measure(None, None) == 0.0


def dp_oracle(x: str, y: str) -> int:
    """Textbook O(len(x) * len(y)) edit-distance dynamic program."""
    previous = list(range(len(y) + 1))
    for i, cx in enumerate(x, start=1):
        current = [i]
        for j, cy in enumerate(y, start=1):
            current.append(
                min(
                    previous[j - 1] + (cx != cy),
                    current[j - 1] + 1,
                    previous[j] + 1,
                )
            )
        previous = current
    return previous[-1]


#: small alphabets make matches (and so every delta case) common; the
#: non-ASCII members cover multi-byte and astral code points.
EDIT_TEXT = st.text(alphabet="abcé€😀 ", min_size=0, max_size=200) | st.text(
    min_size=0, max_size=200
)


@given(x=EDIT_TEXT, y=EDIT_TEXT)
@settings(max_examples=300, deadline=None)
def test_levenshtein_matches_dp_oracle(x, y):
    expected = dp_oracle(x, y)
    assert levenshtein_distance(x, y) == expected
    assert levenshtein_distance(y, x) == expected


def jaro_oracle(x: str, y: str) -> float:
    """Textbook Jaro: each character of ``x`` takes the first unmatched
    equal character of ``y`` in its window, one position at a time."""
    if x == y:
        return 1.0
    len_x, len_y = len(x), len(y)
    if len_x == 0 or len_y == 0:
        return 0.0
    window = max(len_x, len_y) // 2 - 1
    if window < 0:
        window = 0
    x_flags = [False] * len_x
    y_flags = [False] * len_y
    matches = 0
    for i, cx in enumerate(x):
        start = max(0, i - window)
        end = min(i + window + 1, len_y)
        for j in range(start, end):
            if not y_flags[j] and y[j] == cx:
                x_flags[i] = True
                y_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(len_x):
        if x_flags[i]:
            while not y_flags[j]:
                j += 1
            if x[i] != y[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    return (
        matches / len_x + matches / len_y + (matches - transpositions) / matches
    ) / 3.0


@given(x=EDIT_TEXT, y=EDIT_TEXT)
@settings(max_examples=300, deadline=None)
def test_jaro_matches_loop_oracle(x, y):
    assert jaro_similarity(x, y) == jaro_oracle(x, y)
    assert jaro_similarity(y, x) == jaro_oracle(y, x)


#: the Jaro-family secondaries whose token-pair memo keys are unordered.
JARO_FAMILY = [Jaro(), JaroWinkler(0.1), JaroWinkler(0.25)]


@pytest.mark.parametrize(
    "measure", JARO_FAMILY, ids=["jaro", "jaro_winkler_0.1", "jaro_winkler_0.25"]
)
@given(x=EDIT_TEXT, y=EDIT_TEXT)
@settings(max_examples=200, deadline=None)
def test_jaro_family_is_bitwise_symmetric(measure, x, y):
    assert measure.compare(x, y) == measure.compare(y, x)


def test_jaro_family_symmetry_and_oracle_on_a_binary_grid():
    """Every pair of strings over {a, b} up to length 7: dense repeats
    make the greedy matching's choices, and so its symmetry, tight."""
    words = [
        "".join(letters)
        for length in range(8)
        for letters in itertools.product("ab", repeat=length)
    ]
    for x in words:
        for y in words:
            assert jaro_similarity(x, y) == jaro_oracle(x, y)
            for measure in JARO_FAMILY:
                assert measure.compare(x, y) == measure.compare(y, x), (
                    measure, x, y
                )
