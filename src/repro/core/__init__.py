"""Core of the reproduction: the rule language, matchers, cost model,
ordering optimizers, incremental matching, and the debugging session."""

from .changes import (
    AddPredicate,
    AddRule,
    Change,
    RelaxPredicate,
    RemovePredicate,
    RemoveRule,
    TightenPredicate,
)
from .cost_model import (
    CALIBRATED_LOOKUP_COST,
    CALIBRATED_TIER_COSTS,
    CostEstimator,
    Estimates,
    PredicateGroup,
    function_cost_no_memo,
    function_cost_with_memo,
    group_predicates,
    per_pair_cost,
    precompute_cost,
    predicted_runtime,
    rudimentary_cost,
    rule_cost,
    rule_cost_no_memo,
    update_alpha,
)
from .incremental import (
    IncrementalResult,
    apply_add_rule,
    apply_change,
    apply_loosening,
    apply_remove_rule,
    apply_strictening,
)
from .matchers import (
    DynamicMemoMatcher,
    EarlyExitMatcher,
    Matcher,
    MatchResult,
    PairEvaluator,
    PrecomputeMatcher,
    RudimentaryMatcher,
    TraceLog,
)
from .memo import ArrayMemo, FeatureMemo, HashMemo, ValueCache
from .ordering import (
    ORDERING_STRATEGIES,
    brute_force_ordering,
    greedy_cost_ordering,
    greedy_reduction_ordering,
    independent_ordering,
    lemma3_predicate_order,
    order_function,
    random_ordering,
)
from .parser import (
    format_function,
    format_predicate,
    format_rule,
    parse_function,
    parse_rule,
)
from .rules import Feature, MatchingFunction, Predicate, Rule
from .analysis import (
    describe_function,
    feature_frequencies,
    feature_sharing_graph,
    following_cost,
    predicate_histogram,
    sharing_summary,
    tsp_ordering,
)
from .dynamic_reorder import DynamicRuleReorderMatcher
from .validation import Finding, lint_function
from .persistence import candidate_fingerprint, load_state, save_state
from .session import DebugSession, PairExplanation, PredicateTrace, RuleTrace
from .state import MatchState, StateCheckpoint
from .stats import MatchStats

__all__ = [
    # rule language
    "Feature", "Predicate", "Rule", "MatchingFunction",
    "parse_function", "parse_rule",
    "format_function", "format_rule", "format_predicate",
    # memos
    "FeatureMemo", "ArrayMemo", "HashMemo", "ValueCache",
    # matchers
    "MatchStats", "Matcher", "MatchResult", "PairEvaluator",
    "RudimentaryMatcher", "EarlyExitMatcher", "PrecomputeMatcher",
    "DynamicMemoMatcher", "TraceLog",
    "DynamicRuleReorderMatcher",
    # cost model
    "CostEstimator", "Estimates", "PredicateGroup", "group_predicates",
    "rule_cost", "rule_cost_no_memo", "update_alpha",
    "function_cost_no_memo", "function_cost_with_memo",
    "rudimentary_cost", "precompute_cost", "per_pair_cost",
    "predicted_runtime",
    "CALIBRATED_TIER_COSTS", "CALIBRATED_LOOKUP_COST",
    # ordering
    "random_ordering", "independent_ordering", "lemma3_predicate_order",
    "greedy_cost_ordering", "greedy_reduction_ordering",
    "brute_force_ordering", "order_function", "ORDERING_STRATEGIES",
    "tsp_ordering", "following_cost", "feature_frequencies",
    "predicate_histogram", "feature_sharing_graph", "sharing_summary",
    "describe_function",
    "lint_function", "Finding",
    # incremental
    "Change", "AddPredicate", "RemovePredicate", "TightenPredicate",
    "RelaxPredicate", "AddRule", "RemoveRule",
    "MatchState", "StateCheckpoint", "IncrementalResult", "apply_change",
    "apply_strictening", "apply_loosening", "apply_remove_rule",
    "apply_add_rule",
    # session
    "DebugSession", "PairExplanation", "RuleTrace", "PredicateTrace",
    # persistence
    "save_state", "load_state", "candidate_fingerprint",
]
