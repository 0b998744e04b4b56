"""Columnar evaluation engine: plan/executor split for set-at-a-time matching.

Two stages (see ``docs/performance.md`` and ``DESIGN.md``):

* :mod:`repro.engine.plan` — the **planner** lowers a parsed
  :class:`~repro.core.rules.MatchingFunction` into a :class:`MatchPlan` of
  ordered predicate steps annotated with cost-model estimates, kernel
  support, and bound eligibility;
* :mod:`repro.engine.executor` — the **columnar executor** evaluates each
  step as one vectorized mask over the surviving candidate indices, with
  per-step scalar fallback for similarities without kernels, bit-identical
  to the scalar :class:`~repro.core.matchers.PairEvaluator` path.

The executor is also one of the two row evaluators
:meth:`~repro.core.state.MatchState.evaluator` builds: with
``engine="columnar"``, the paper's incremental Algorithms 7-10
(:func:`repro.core.incremental.apply_change`, which the refinement
search's scorer calls too) and the streaming re-match run as mask passes
over the materialized state.
"""

from .executor import ColumnarExecutor, ColumnarMatcher
from .plan import (
    EngineDecision,
    MatchPlan,
    PredicateStep,
    RuleStep,
    choose_engine,
    plan_function,
)

__all__ = [
    "ColumnarExecutor",
    "ColumnarMatcher",
    "EngineDecision",
    "MatchPlan",
    "PredicateStep",
    "RuleStep",
    "choose_engine",
    "plan_function",
]
