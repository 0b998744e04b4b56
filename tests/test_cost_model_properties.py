"""Property-based tests for the cost model and ordering invariants.

Uses randomly generated rule sets over synthetic sample values, checking
the mathematical properties §4.4/§5 rely on rather than specific numbers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Feature,
    MatchingFunction,
    Predicate,
    Rule,
    function_cost_no_memo,
    function_cost_with_memo,
    rudimentary_cost,
    rule_cost,
    update_alpha,
)
from repro.core.analysis import tsp_ordering
from repro.core.cost_model import Estimates, MemoCostPrefix
from repro.core.ordering import (
    greedy_cost_ordering,
    greedy_reduction_ordering,
    lemma3_predicate_order,
)
from repro.core.parser import format_function, parse_function
from repro.similarity import ExactMatch

# Default-named features over distinct attributes, so that the DSL
# round-trip test is meaningful (custom feature names are not expressible
# in the DSL — it always writes ``sim(attr_a, attr_b)``).
FEATURES = {
    feature.name: feature
    for feature in (
        Feature(ExactMatch(), "a", "a"),
        Feature(ExactMatch(), "b", "b"),
        Feature(ExactMatch(), "c", "c"),
        Feature(ExactMatch(), "d", "d"),
    )
}
FEATURE_NAMES = list(FEATURES)


@st.composite
def estimates_strategy(draw):
    size = draw(st.integers(min_value=4, max_value=20))
    sample_values = {}
    feature_costs = {}
    for name in FEATURE_NAMES:
        values = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=16),
                min_size=size,
                max_size=size,
            )
        )
        sample_values[name] = np.asarray(values)
        feature_costs[name] = draw(
            st.floats(min_value=1e-7, max_value=1e-4, allow_nan=False)
        )
    lookup = draw(st.floats(min_value=1e-9, max_value=5e-8, allow_nan=False))
    return Estimates(
        feature_costs=feature_costs,
        lookup_cost=lookup,
        sample_values=sample_values,
        sample_size=size,
        mode="calibrated",
    )


@st.composite
def function_strategy(draw):
    n_rules = draw(st.integers(min_value=1, max_value=4))
    rules = []
    for rule_index in range(n_rules):
        slots = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(FEATURE_NAMES),
                    st.sampled_from([">=", "<="]),
                ),
                min_size=1,
                max_size=4,
                unique_by=lambda item: item,
            )
        )
        predicates = [
            Predicate(
                FEATURES[name],
                op,
                draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=16)),
            )
            for name, op in slots
        ]
        rules.append(Rule(f"r{rule_index}", predicates))
    return MatchingFunction(rules)


def edited_functions(function):
    """Every single-rule edit shape of ``function``: each rule replaced
    (its first predicate's threshold moved), removed, and a rule added at
    the end."""
    rules = function.rules
    for index, rule in enumerate(rules):
        first = rule.predicates[0]
        moved = first.with_threshold(min(first.threshold + 0.25, 1.0))
        yield function.with_rule_replaced(
            rule.with_predicates([moved, *rule.predicates[1:]])
        )
        if len(rules) > 1:
            yield function.with_rule_removed(rule.name)
    yield function.with_rule_added(Rule("added", rules[0].predicates[::-1]))


@given(estimates=estimates_strategy(), function=function_strategy())
@settings(max_examples=60, deadline=None)
def test_resumed_memo_cost_is_bit_identical(estimates, function):
    """C4 resumed at the first changed rule equals C4 of the whole edited
    function exactly (float ==), for every edit shape the refinement
    search prices."""
    prefix = MemoCostPrefix(function, estimates)
    assert prefix.cost(function) == function_cost_with_memo(function, estimates)
    for edited in edited_functions(function):
        assert prefix.cost(edited) == function_cost_with_memo(edited, estimates)


@given(estimates=estimates_strategy(), function=function_strategy())
@settings(max_examples=60, deadline=None)
def test_alpha_stays_in_unit_interval(estimates, function):
    alpha = {}
    for rule in function.rules:
        update_alpha(rule, estimates, alpha)
        for name, value in alpha.items():
            assert -1e-12 <= value <= 1.0 + 1e-12, (name, value)


@given(estimates=estimates_strategy(), function=function_strategy())
@settings(max_examples=60, deadline=None)
def test_alpha_monotone_per_feature(estimates, function):
    """Memo presence can only grow as more rules execute."""
    alpha = {}
    previous = {}
    for rule in function.rules:
        update_alpha(rule, estimates, alpha)
        for name, value in alpha.items():
            assert value >= previous.get(name, 0.0) - 1e-12
        previous = dict(alpha)


@given(estimates=estimates_strategy(), function=function_strategy())
@settings(max_examples=60, deadline=None)
def test_cost_hierarchy(estimates, function):
    """C4 <= C3 <= C1 up to δ per repeated feature (δ <= min cost(f)).

    C4 models the §5.4 grouped canonical form while C3 models raw rule
    order.  When a rule repeats a feature around an intervening predicate,
    grouping pulls the repeat's δ-lookup ahead of an early exit that rule
    order would have taken first — e.g. ``a>=0; b>=0.25; a<=1`` with
    sel(b)=0 pays δ for the second ``a`` lookup that Algorithm 3 never
    reaches.  The gap is bounded by one δ per repeated predicate; with no
    repeats the hierarchy is exact.  See docs/cost_model.md.
    """
    c1 = rudimentary_cost(function, estimates)
    c3 = function_cost_no_memo(function, estimates)
    c4 = function_cost_with_memo(function, estimates)
    repeats = sum(
        len(rule.predicates) - len({p.feature.name for p in rule.predicates})
        for rule in function.rules
    )
    assert c3 <= c1 + 1e-15
    assert c4 <= c3 + repeats * estimates.lookup_cost + 1e-15
    assert c4 >= 0.0


@given(estimates=estimates_strategy(), function=function_strategy())
@settings(max_examples=40, deadline=None)
def test_lemma3_never_increases_rule_cost(estimates, function):
    for rule in function.rules:
        ordered = lemma3_predicate_order(rule, estimates)
        assert rule_cost(ordered, estimates) <= rule_cost(rule, estimates) + 1e-15


@given(estimates=estimates_strategy(), function=function_strategy())
@settings(max_examples=30, deadline=None)
def test_orderings_are_permutations(estimates, function):
    for optimizer in (greedy_cost_ordering, greedy_reduction_ordering, tsp_ordering):
        ordered = optimizer(function, estimates)
        assert sorted(rule.name for rule in ordered) == sorted(
            rule.name for rule in function
        )
        for rule in ordered:
            original = function.rule(rule.name)
            assert sorted(p.pid for p in rule.predicates) == sorted(
                p.pid for p in original.predicates
            )


@given(function=function_strategy())
@settings(max_examples=60, deadline=None)
def test_parser_format_round_trip(function):
    """format -> parse reproduces names, predicates, and order exactly."""
    reparsed = parse_function(format_function(function))
    assert [rule.name for rule in reparsed] == [rule.name for rule in function]
    for original, copy in zip(function.rules, reparsed.rules):
        assert [p.pid for p in original.predicates] == [
            p.pid for p in copy.predicates
        ]
