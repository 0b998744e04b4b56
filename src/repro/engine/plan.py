"""Planner: lower a :class:`MatchingFunction` into an explicit ``MatchPlan``.

The plan/executor split follows the relational idiom: the DSL parser
produces the logical form (an ordered DNF), the planner annotates each
predicate step with what the cost model and kernel layer know about it
(estimated cost, selectivity, bound-skip rate, kernel support), and the
columnar executor (:mod:`repro.engine.executor`) interprets the plan
set-at-a-time.

The plan is purely *descriptive*: evaluation order is the function's
rule/predicate order (plus the same per-pair check-cache-first regrouping
the scalar evaluator applies at runtime), so labels, counters, and trace
output stay bit-identical to the scalar path.  Annotations exist for
introspection (the workbench ``plan`` command) and for the per-plan
engine choice (:func:`choose_engine`, stored as
:attr:`MatchPlan.decision`) that an ``engine="auto"`` session resolves
through — the executor itself never branches on them.

Plan lifetime: a session compiles one plan per run or reorder and the
:class:`~repro.core.state.MatchState` owns it next to the function.  A
rule edit does not recompile: :meth:`MatchPlan.for_function` keeps every
:class:`RuleStep` whose ``Rule`` object the edited function still holds
and plans only the new ones, and each plan version decides its engine at
most once — so an edit costs one rule's planning plus, when the session
asks for the engine, one pass of :func:`choose_engine`'s arithmetic.  An
edit that evaluates no row asks for neither (see
:mod:`repro.core.incremental`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Optional, Tuple

from ..core.cost_model import CALIBRATED_BOUND_COST, CALIBRATED_TIER_COSTS
from ..core.rules import Feature, MatchingFunction, Predicate, Rule
from ..errors import EstimationError

#: Per-step interpreter overhead of the scalar per-pair loop (predicate
#: dispatch, memo probe, profiler hooks) — measured on the learned
#: products workload, same order of magnitude as a tier-3 feature.
SCALAR_STEP_OVERHEAD = 1.5e-6
#: Amortized per-(step, surviving row) overhead of a batched kernel step
#: (mask arithmetic + column gather, spread over the whole column).
COLUMNAR_SUPPORTED_OVERHEAD = 0.1e-6
#: Per-row overhead of a columnar *fallback* step: the executor drops to
#: per-pair evaluation but still pays index gathering and mask writes on
#: top of the scalar loop's own dispatch cost.
COLUMNAR_FALLBACK_OVERHEAD = 2.0e-6


@dataclass(frozen=True)
class PredicateStep:
    """One predicate of one rule, annotated for the columnar executor."""

    predicate: Predicate
    #: the kernel layer has a batched column plan for this feature (one of
    #: the token-set / normalized-string / numeric / corpus-vector
    #: families, with the family pipeline unforked).
    kernel_supported: bool
    #: the measure additionally exposes a cheap upper bound (token-set
    #: sizes, string lengths), so the executor's bound pre-filter can
    #: decide rows without computing.
    bound_eligible: bool
    est_cost: Optional[float] = None
    est_selectivity: Optional[float] = None
    bound_skip_rate: Optional[float] = None
    #: why the kernel layer rejected this feature (``None`` when
    #: supported) — surfaced by the workbench ``plan`` command.
    unsupported_reason: Optional[str] = None

    @property
    def feature_name(self) -> str:
        return self.predicate.feature.name

    def describe(self) -> str:
        tags = []
        if self.kernel_supported:
            tags.append("kernel")
        else:
            tags.append("scalar")
        if self.bound_eligible:
            tags.append("bound")
        cost = "?" if self.est_cost is None else f"{self.est_cost * 1e6:.2f}us"
        sel = "?" if self.est_selectivity is None else f"{self.est_selectivity:.3f}"
        skip = (
            "" if self.bound_skip_rate is None
            else f" bound_skip={self.bound_skip_rate:.3f}"
        )
        reason = (
            "" if self.unsupported_reason is None
            else f"  -- {self.unsupported_reason}"
        )
        return (
            f"{self.predicate.pid}  cost={cost} sel={sel}{skip} "
            f"[{','.join(tags)}]{reason}"
        )


@dataclass(frozen=True)
class RuleStep:
    """One rule: its predicate steps in static (parser) order."""

    rule: Rule
    steps: Tuple[PredicateStep, ...]
    #: the rule's distinct features in first-appearance order — the
    #: columns of the executor's check-cache-first partition.
    features: Tuple[Feature, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", tuple(self.rule.features()))

    @property
    def fully_kernel_supported(self) -> bool:
        return all(step.kernel_supported for step in self.steps)


@dataclass(frozen=True)
class EngineDecision:
    """The cost model's engine choice for one plan.

    ``engine`` is what an ``"auto"`` session resolves to (``"columnar"``
    or ``"scalar"``); ``mode`` refines it for display: ``"columnar"``
    (every step kernel-supported), ``"mixed"`` (columnar chosen despite
    per-step scalar fallbacks), or ``"scalar"``.  Costs are estimated
    seconds per candidate pair for a full evaluation under each engine.
    """

    engine: str
    mode: str
    columnar_cost: float
    scalar_cost: float
    supported_steps: int
    total_steps: int
    reason: str

    def describe(self) -> str:
        return (
            f"engine: {self.engine} ({self.mode})  "
            f"columnar~{self.columnar_cost * 1e6:.2f}us/pair "
            f"scalar~{self.scalar_cost * 1e6:.2f}us/pair  "
            f"{self.reason}"
        )


def choose_engine(plan: "MatchPlan") -> EngineDecision:
    """Pick columnar vs scalar for ``plan`` from its cost annotations.

    Models one full evaluation of an average candidate pair.  Short
    circuits make later work conditional, so each step is weighted by the
    probability it runs: a rule is reached only if no earlier rule fired
    (``reach *= 1 - rule_selectivity``), and a predicate within a rule
    only if every earlier predicate of that rule held (prefix product of
    selectivities).  The *compute* term (feature cost, discounted by the
    bound pre-filter where eligible) is identical under both engines —
    kernels replicate the scalar arithmetic — so the decision reduces to
    per-step overheads: the scalar loop pays dispatch/memo-probe per
    step, a supported columnar step amortizes to almost nothing, and a
    columnar *fallback* step costs more than scalar (it adds index
    gathering and mask writes on top of the same per-pair evaluation).
    Columnar therefore wins exactly when supported steps carry enough of
    the expected work to pay for the unsupported ones.

    Steps missing annotations fall back to calibrated tier costs,
    selectivity 0.5, and skip rate 0.0 — plans must be decidable
    mid-edit, before re-estimation has seen new features.
    """
    scalar_cost = 0.0
    columnar_cost = 0.0
    supported = 0
    total = 0
    reach = 1.0
    for rule_step in plan.rule_steps:
        prefix = 1.0
        for step in rule_step.steps:
            total += 1
            if step.kernel_supported:
                supported += 1
            cost = step.est_cost
            if cost is None:
                cost = CALIBRATED_TIER_COSTS.get(
                    step.predicate.feature.sim.cost_tier, 5.0e-6
                )
            selectivity = step.est_selectivity
            if selectivity is None:
                selectivity = 0.5
            skip = step.bound_skip_rate or 0.0
            weight = reach * prefix
            if step.bound_eligible:
                compute = skip * CALIBRATED_BOUND_COST + (1.0 - skip) * (
                    CALIBRATED_BOUND_COST + cost
                )
            else:
                compute = cost
            scalar_cost += weight * (compute + SCALAR_STEP_OVERHEAD)
            columnar_cost += weight * (
                compute
                + (
                    COLUMNAR_SUPPORTED_OVERHEAD
                    if step.kernel_supported
                    else COLUMNAR_FALLBACK_OVERHEAD
                )
            )
            prefix *= selectivity
        # ``prefix`` now holds the rule's conjunction selectivity.
        reach *= 1.0 - prefix
    engine = "columnar" if columnar_cost < scalar_cost else "scalar"
    if engine == "columnar":
        mode = "columnar" if supported == total else "mixed"
    else:
        mode = "scalar"
    reason = f"{supported}/{total} steps kernel-supported"
    return EngineDecision(
        engine=engine,
        mode=mode,
        columnar_cost=columnar_cost,
        scalar_cost=scalar_cost,
        supported_steps=supported,
        total_steps=total,
        reason=reason,
    )


@dataclass(frozen=True)
class MatchPlan:
    """An ordered, annotated physical plan for one matching function.

    ``check_cache_first`` and ``use_bounds`` record the evaluation-mode
    flags the plan was compiled under so an executor bound to the plan
    reproduces the scalar evaluator's exact control flow.
    """

    function: MatchingFunction
    rule_steps: Tuple[RuleStep, ...]
    check_cache_first: bool = False
    use_bounds: bool = False
    #: the kernels and cost estimates the plan was compiled against —
    #: what :meth:`for_function` plans edited rules with.
    kernels: Any = field(default=None, repr=False, compare=False)
    estimates: Any = field(default=None, repr=False, compare=False)

    @cached_property
    def decision(self) -> EngineDecision:
        """The cost model's engine choice (:func:`choose_engine`), made at
        most once per plan, on first use."""
        return choose_engine(self)

    def engine_for(self, engine: str) -> str:
        """``engine`` with ``"auto"`` resolved to :attr:`decision`'s choice;
        ``"scalar"`` and ``"columnar"`` pass through."""
        return self.decision.engine if engine == "auto" else engine

    def for_function(self, function: MatchingFunction) -> "MatchPlan":
        """This plan patched to an edited version of its function.

        Rule steps whose ``Rule`` object ``function`` still holds are
        reused as they are (rules are immutable, and the kernels and
        estimates have not changed, so re-planning them would annotate
        them identically); every other rule is planned afresh.  The
        patched plan's :attr:`decision` is therefore bit-identical to that
        of a from-scratch :func:`plan_function` with the same kernels and
        estimates, at the cost of the edited rules only.
        """
        if function is self.function:
            return self
        held = {rule_step.rule.name: rule_step for rule_step in self.rule_steps}
        rule_steps = []
        for rule in function.rules:
            rule_step = held.get(rule.name)
            if rule_step is None or rule_step.rule is not rule:
                rule_step = _plan_rule(
                    rule, self.kernels, self.estimates, self.use_bounds
                )
            rule_steps.append(rule_step)
        return replace(self, function=function, rule_steps=tuple(rule_steps))

    @property
    def fully_kernel_supported(self) -> bool:
        return all(step.fully_kernel_supported for step in self.rule_steps)

    def describe(self) -> str:
        """Human-readable plan dump (the workbench ``plan`` command)."""
        flags = []
        flags.append(
            "check_cache_first=on" if self.check_cache_first else "check_cache_first=off"
        )
        flags.append("bounds=on" if self.use_bounds else "bounds=off")
        flags.append(
            "fully kernel-supported" if self.fully_kernel_supported
            else "partial scalar fallback"
        )
        lines = [
            f"MatchPlan: {len(self.rule_steps)} rules, {', '.join(flags)}"
        ]
        lines.append(f"  {self.decision.describe()}")
        for rule_step in self.rule_steps:
            tag = "kernel" if rule_step.fully_kernel_supported else "mixed"
            lines.append(f"  rule {rule_step.rule.name} [{tag}]")
            for position, step in enumerate(rule_step.steps, start=1):
                lines.append(f"    {position}. {step.describe()}")
        return "\n".join(lines)


def _plan_rule(rule: Rule, kernels, estimates, use_bounds: bool) -> RuleStep:
    """Annotate one rule's predicates (see :func:`plan_function`)."""
    steps = []
    for predicate in rule.predicates:
        feature = predicate.feature
        supported = kernels is not None and kernels.supports(feature)
        if supported:
            reason = None
        elif kernels is None:
            reason = "no kernel layer bound (scalar session)"
        else:
            reason = kernels.support_reason(feature)
        bound_eligible = bool(supported and use_bounds and kernels.has_bound(feature))
        cost = selectivity = skip_rate = None
        if estimates is not None:
            cost = estimates.feature_costs.get(feature.name)
            try:
                selectivity = estimates.selectivity(predicate)
            except EstimationError:
                selectivity = None
            skip_rate = estimates.bound_skip_rates.get(predicate.pid)
        steps.append(
            PredicateStep(
                predicate=predicate,
                kernel_supported=supported,
                bound_eligible=bound_eligible,
                est_cost=cost,
                est_selectivity=selectivity,
                bound_skip_rate=skip_rate,
                unsupported_reason=reason,
            )
        )
    return RuleStep(rule=rule, steps=tuple(steps))


def plan_function(
    function: MatchingFunction,
    kernels=None,
    estimates=None,
    check_cache_first: bool = False,
    use_bounds: Optional[bool] = None,
) -> MatchPlan:
    """Compile ``function`` into a :class:`MatchPlan`.

    ``use_bounds`` defaults to the kernels' own ``use_bounds`` flag (off
    without kernels).  ``estimates`` (a :class:`repro.core.cost_model.Estimates`)
    is optional; unknown costs/selectivities annotate as ``None`` rather
    than failing the compile — plans must be buildable mid-edit, before
    re-estimation has seen newly introduced features.
    """
    if use_bounds is None:
        use_bounds = bool(kernels is not None and kernels.use_bounds)
    return MatchPlan(
        function=function,
        rule_steps=tuple(
            _plan_rule(rule, kernels, estimates, use_bounds)
            for rule in function.rules
        ),
        check_cache_first=check_cache_first,
        use_bounds=use_bounds,
        kernels=kernels,
        estimates=estimates,
    )
