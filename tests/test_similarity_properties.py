"""Property-based tests on the package-wide similarity contracts.

Every registered measure must satisfy (module docstring of
``repro.similarity.base``):

* scores in ``[0, 1]``,
* symmetry,
* ``None`` handling (0.0 on any missing side),
* identity (``sim(x, x) == 1``) on inputs the measure is defined for.

It also pins the bit-parallel ``levenshtein_distance`` to the textbook
dynamic program, kept here as the oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity import (
    default_instances,
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
