"""repro — reproduction of *Towards Interactive Debugging of Rule-based
Entity Matching* (Panahi, Wu, Doan, Naughton; EDBT 2017).

Quickstart::

    from repro import build_workload, DebugSession, TightenPredicate

    workload = build_workload("products")
    session = DebugSession(
        workload.candidates, workload.function, gold=workload.gold
    )
    session.run()                                # full run (slow once)
    print(session.metrics().summary())
    rule = session.function.rules[0]
    session.apply(                               # milliseconds
        TightenPredicate(rule.name, rule.predicates[0].slot, 0.9)
    )
    print(session.metrics().summary())

Subpackages: :mod:`repro.core` (rule language, matchers, cost model,
ordering, incremental matching), :mod:`repro.similarity` (string measures),
:mod:`repro.data` (tables + six synthetic datasets), :mod:`repro.blocking`,
:mod:`repro.learning` (forest → rules), :mod:`repro.evaluation`,
:mod:`repro.streaming` (incremental matching under record-level deltas),
:mod:`repro.engine` (columnar plan/executor evaluation engine).
"""

from .core import (
    AddPredicate,
    AddRule,
    ArrayMemo,
    Change,
    CostEstimator,
    DebugSession,
    DynamicMemoMatcher,
    EarlyExitMatcher,
    Feature,
    HashMemo,
    MatchingFunction,
    MatchResult,
    MatchState,
    MatchStats,
    PrecomputeMatcher,
    Predicate,
    RelaxPredicate,
    RemovePredicate,
    RemoveRule,
    RudimentaryMatcher,
    Rule,
    TightenPredicate,
    apply_change,
    brute_force_ordering,
    format_function,
    greedy_cost_ordering,
    greedy_reduction_ordering,
    independent_ordering,
    order_function,
    parse_function,
    parse_rule,
    random_ordering,
)
from .blocking import (
    AttributeEquivalenceBlocker,
    CartesianBlocker,
    OverlapBlocker,
    blocking_recall,
)
from .data import CandidateSet, Dataset, Record, Table, dataset_names, load_dataset
from .engine import (
    ColumnarExecutor,
    ColumnarMatcher,
    MatchPlan,
    plan_function,
)
from .errors import ReproError
from .evaluation import confusion, precision_recall_f1
from .learning import FeatureSpace, RandomForest, Workload, build_workload, extract_rules
from .refine import RefineConfig, RefinementReport, RefinementSearch
from .streaming import BatchResult, Delta, DeltaBatch, StreamingSession

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # high-level entry points
    "build_workload", "Workload", "DebugSession", "load_dataset",
    "dataset_names",
    # rule language
    "Feature", "Predicate", "Rule", "MatchingFunction",
    "parse_function", "parse_rule", "format_function",
    # matchers & state
    "RudimentaryMatcher", "EarlyExitMatcher", "PrecomputeMatcher",
    "DynamicMemoMatcher", "MatchResult", "MatchStats",
    "MatchState", "ArrayMemo", "HashMemo",
    # cost & ordering
    "CostEstimator", "random_ordering", "independent_ordering",
    "greedy_cost_ordering", "greedy_reduction_ordering",
    "brute_force_ordering", "order_function",
    # changes
    "Change", "AddPredicate", "RemovePredicate", "TightenPredicate",
    "RelaxPredicate", "AddRule", "RemoveRule", "apply_change",
    # columnar engine
    "ColumnarExecutor", "ColumnarMatcher", "MatchPlan", "plan_function",
    # data & blocking
    "Record", "Table", "CandidateSet", "Dataset",
    "CartesianBlocker", "AttributeEquivalenceBlocker", "OverlapBlocker",
    "blocking_recall",
    # streaming
    "Delta", "DeltaBatch", "BatchResult", "StreamingSession",
    # learning & evaluation
    "FeatureSpace", "RandomForest", "extract_rules",
    "confusion", "precision_recall_f1",
    # refinement
    "RefineConfig", "RefinementReport", "RefinementSearch",
    "ReproError",
]
