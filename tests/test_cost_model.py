"""Unit tests for the §4.4 cost model and its estimator."""

import math

import numpy as np
import pytest

from repro.core import (
    CALIBRATED_LOOKUP_COST,
    CALIBRATED_TIER_COSTS,
    CostEstimator,
    DynamicMemoMatcher,
    EarlyExitMatcher,
    Feature,
    MatchingFunction,
    Predicate,
    PrecomputeMatcher,
    Rule,
    RudimentaryMatcher,
    function_cost_no_memo,
    function_cost_with_memo,
    group_predicates,
    precompute_cost,
    predicted_runtime,
    rudimentary_cost,
    rule_cost,
    rule_cost_no_memo,
    update_alpha,
)
from repro.core.cost_model import CALIBRATED_BOUND_COST, Estimates
from repro.errors import EstimationError
from repro.similarity import ExactMatch, JaroWinkler


def make_estimates(sample_values, feature_costs, lookup_cost=0.1):
    arrays = {name: np.asarray(values, dtype=float) for name, values in sample_values.items()}
    size = len(next(iter(arrays.values())))
    return Estimates(
        feature_costs=feature_costs,
        lookup_cost=lookup_cost,
        sample_values=arrays,
        sample_size=size,
        mode="calibrated",
    )


@pytest.fixture()
def two_features():
    cheap = Feature(ExactMatch(), "code", "code", name="cheap")
    pricey = Feature(JaroWinkler(), "name", "name", name="pricey")
    return cheap, pricey


@pytest.fixture()
def estimates(two_features):
    # cheap: values 0/1 half the time; pricey: uniform quartiles.
    return make_estimates(
        {
            "cheap": [0, 1, 0, 1],
            "pricey": [0.1, 0.4, 0.6, 0.9],
        },
        {"cheap": 1.0, "pricey": 10.0},
        lookup_cost=0.1,
    )


class TestSelectivity:
    def test_predicate_selectivity(self, two_features, estimates):
        cheap, pricey = two_features
        assert estimates.selectivity(Predicate(cheap, ">=", 1)) == 0.5
        assert estimates.selectivity(Predicate(pricey, ">=", 0.5)) == 0.5
        assert estimates.selectivity(Predicate(pricey, "<", 0.5)) == 0.5
        assert estimates.selectivity(Predicate(pricey, ">", 0.95)) == 0.0

    def test_joint_selectivity_same_feature_exact(self, two_features, estimates):
        _, pricey = two_features
        band = [Predicate(pricey, ">=", 0.3), Predicate(pricey, "<=", 0.7)]
        assert estimates.joint_selectivity(band) == 0.5  # 0.4 and 0.6

    def test_joint_selectivity_empty_conjunction(self, estimates):
        assert estimates.joint_selectivity([]) == 1.0

    def test_independent_rule_selectivity_multiplies_groups(
        self, two_features, estimates
    ):
        cheap, pricey = two_features
        rule = Rule(
            "r",
            [Predicate(cheap, ">=", 1), Predicate(pricey, ">=", 0.5)],
        )
        assert estimates.independent_rule_selectivity(rule) == pytest.approx(0.25)

    def test_unknown_feature_raises(self, estimates):
        ghost = Feature(ExactMatch(), "x", "x", name="ghost")
        with pytest.raises(EstimationError):
            estimates.selectivity(Predicate(ghost, ">=", 1))
        with pytest.raises(EstimationError):
            estimates.cost(ghost)


class TestGroups:
    def test_groups_by_feature(self, two_features, estimates):
        cheap, pricey = two_features
        rule = Rule(
            "r",
            [
                Predicate(pricey, ">=", 0.3),
                Predicate(cheap, ">=", 1),
                Predicate(pricey, "<=", 0.7),
            ],
        )
        groups = group_predicates(rule, estimates)
        assert [group.feature.name for group in groups] == ["pricey", "cheap"]
        assert len(groups[0]) == 2

    def test_lemma2_orders_by_selectivity(self, two_features, estimates):
        _, pricey = two_features
        narrow = Predicate(pricey, ">=", 0.8)   # sel 0.25
        wide = Predicate(pricey, "<=", 0.95)    # sel 1.0
        rule = Rule("r", [wide, narrow])
        group = group_predicates(rule, estimates)[0]
        assert group.predicates[0] is narrow  # more selective first
        assert group.first_selectivity == 0.25


class TestCostFormulas:
    def test_rudimentary_is_sum_of_all(self, two_features, estimates):
        cheap, pricey = two_features
        function = MatchingFunction(
            [
                Rule("r1", [Predicate(cheap, ">=", 1), Predicate(pricey, ">=", 0.5)]),
                Rule("r2", [Predicate(pricey, "<", 0.3)]),
            ]
        )
        assert rudimentary_cost(function, estimates) == pytest.approx(
            1.0 + 10.0 + 10.0
        )

    def test_precompute_cost_formula(self, two_features, estimates):
        cheap, pricey = two_features
        function = MatchingFunction(
            [
                Rule("r1", [Predicate(cheap, ">=", 1), Predicate(pricey, ">=", 0.5)]),
                Rule("r2", [Predicate(pricey, "<", 0.3)]),
            ]
        )
        # compute each feature once + one lookup per predicate reference
        assert precompute_cost(function, estimates) == pytest.approx(
            (1.0 + 10.0) + 3 * 0.1
        )

    def test_early_exit_rule_cost(self, two_features, estimates):
        cheap, pricey = two_features
        rule = Rule("r", [Predicate(cheap, ">=", 1), Predicate(pricey, ">=", 0.5)])
        # cost(cheap) + sel(cheap>=1) * cost(pricey) = 1 + 0.5*10
        assert rule_cost_no_memo(rule, estimates) == pytest.approx(6.0)

    def test_rule_cost_with_cold_memo_equals_no_memo_for_distinct_features(
        self, two_features, estimates
    ):
        cheap, pricey = two_features
        rule = Rule("r", [Predicate(cheap, ">=", 1), Predicate(pricey, ">=", 0.5)])
        assert rule_cost(rule, estimates) == pytest.approx(
            rule_cost_no_memo(rule, estimates)
        )

    def test_rule_cost_with_warm_memo_uses_lookup(self, two_features, estimates):
        cheap, pricey = two_features
        rule = Rule("r", [Predicate(pricey, ">=", 0.5)])
        cold = rule_cost(rule, estimates, alpha={})
        warm = rule_cost(rule, estimates, alpha={"pricey": 1.0})
        assert cold == pytest.approx(10.0)
        assert warm == pytest.approx(0.1)

    def test_same_feature_group_second_predicate_is_lookup(
        self, two_features, estimates
    ):
        _, pricey = two_features
        rule = Rule(
            "r", [Predicate(pricey, ">=", 0.3), Predicate(pricey, "<=", 0.7)]
        )
        # Lemma 2 order: <=0.7 first (sel 0.75) vs >=0.3 (sel 0.75)? equal -
        # stable order keeps >=0.3 first (sel 0.75). cost = 10 + 0.75 * 0.1
        cost = rule_cost(rule, estimates)
        assert cost == pytest.approx(10.0 + 0.75 * 0.1)

    def test_grouping_gap_bounded_by_delta_per_repeat(
        self, two_features, estimates
    ):
        """Repeated feature around an early exit: C4 may exceed C3 by <= δ.

        ``pricey>=0; cheap>1; pricey<=1`` — the cheap predicate has
        selectivity 0, so rule-order execution (C3) never reaches the
        second pricey predicate.  The grouped canonical form (C4) pulls it
        ahead of the exit and pays its δ-lookup.  The gap is exactly
        first_selectivity * δ and never more than δ per repeat.
        """
        cheap, pricey = two_features
        rule = Rule(
            "r",
            [
                Predicate(pricey, ">=", 0.0),
                Predicate(cheap, ">", 1),      # selectivity 0: early exit
                Predicate(pricey, "<=", 1.0),
            ],
        )
        # rule order: 10 + 1.0 * 1 + 1.0 * 0.0 * (lookup) = 11
        assert rule_cost_no_memo(rule, estimates) == pytest.approx(11.0)
        # grouped: (10 + 1.0 * 0.1) + 1.0 * 1 = 11.1
        assert rule_cost(rule, estimates) == pytest.approx(11.1)
        function = MatchingFunction([rule])
        c3 = function_cost_no_memo(function, estimates)
        c4 = function_cost_with_memo(function, estimates)
        assert c4 > c3
        assert c4 <= c3 + 1 * 0.1 + 1e-12  # one repeat, δ = 0.1

    def test_function_cost_weights_by_reach_probability(
        self, two_features, estimates
    ):
        cheap, pricey = two_features
        rule_1 = Rule("r1", [Predicate(cheap, ">=", 1)])      # sel 0.5, cost 1
        rule_2 = Rule("r2", [Predicate(pricey, ">=", 0.5)])   # cost 10
        function = MatchingFunction([rule_1, rule_2])
        assert function_cost_no_memo(function, estimates) == pytest.approx(
            1.0 + 0.5 * 10.0
        )

    def test_memo_reduces_cost_of_shared_features(self, two_features, estimates):
        _, pricey = two_features
        rule_1 = Rule("r1", [Predicate(pricey, ">=", 0.9)])
        rule_2 = Rule("r2", [Predicate(pricey, ">=", 0.2)])
        function = MatchingFunction([rule_1, rule_2])
        with_memo = function_cost_with_memo(function, estimates)
        without = function_cost_no_memo(function, estimates)
        assert with_memo < without

    def test_memo_never_hurts(self, small_workload, small_estimates):
        function = small_workload.function
        assert function_cost_with_memo(function, small_estimates) <= (
            function_cost_no_memo(function, small_estimates) + 1e-12
        )


class TestAlphaRecurrence:
    def test_alpha_after_first_rule_is_prefix_selectivity(
        self, two_features, estimates
    ):
        cheap, pricey = two_features
        rule = Rule("r", [Predicate(cheap, ">=", 1), Predicate(pricey, ">=", 0.5)])
        alpha = {}
        update_alpha(rule, estimates, alpha)
        assert alpha["cheap"] == pytest.approx(1.0)     # always reached
        assert alpha["pricey"] == pytest.approx(0.5)    # reached iff cheap true

    def test_alpha_monotone_nondecreasing(self, two_features, estimates):
        _, pricey = two_features
        rule = Rule("r", [Predicate(pricey, ">=", 0.5)])
        alpha = {"pricey": 0.3}
        update_alpha(rule, estimates, alpha)
        first = alpha["pricey"]
        update_alpha(rule, estimates, alpha)
        assert 0.3 <= first <= alpha["pricey"] <= 1.0


class TestPredictedRuntime:
    def test_scales_linearly_with_pairs(self, small_workload, small_estimates):
        function = small_workload.function
        full = small_workload.candidates
        half = full.subset(range(len(full) // 2))
        cost_full = predicted_runtime(function, full, small_estimates)
        cost_half = predicted_runtime(function, half, small_estimates)
        assert cost_full == pytest.approx(
            cost_half * len(full) / len(half), rel=1e-9
        )

    def test_strategy_ladder(self, small_workload, small_estimates):
        """Model must reproduce Figure 3A's ordering: R >= EE >= DM."""
        function = small_workload.function
        candidates = small_workload.candidates
        rudimentary = predicted_runtime(function, candidates, small_estimates, "rudimentary")
        early_exit = predicted_runtime(function, candidates, small_estimates, "early_exit")
        dynamic = predicted_runtime(function, candidates, small_estimates, "dynamic_memo")
        assert rudimentary >= early_exit >= dynamic

    def test_unknown_strategy(self, small_workload, small_estimates):
        with pytest.raises(EstimationError):
            predicted_runtime(
                small_workload.function,
                small_workload.candidates,
                small_estimates,
                "quantum",
            )


class TestCostEstimator:
    def test_sample_is_deterministic(self, small_workload):
        estimator = CostEstimator(sample_fraction=0.05, seed=9)
        first = estimator.sample_indices(small_workload.candidates)
        second = estimator.sample_indices(small_workload.candidates)
        assert first == second

    def test_calibrated_costs_from_tiers(self, small_workload):
        estimator = CostEstimator(mode="calibrated", sample_fraction=0.02)
        estimates = estimator.estimate(
            small_workload.function, small_workload.candidates
        )
        for feature in small_workload.function.features():
            assert estimates.cost(feature) == CALIBRATED_TIER_COSTS[feature.cost_tier]
        assert estimates.lookup_cost == CALIBRATED_LOOKUP_COST

    def test_measured_costs_positive_and_ordered_sanely(self, small_workload):
        estimator = CostEstimator(mode="measured", sample_fraction=0.02, seed=4)
        estimates = estimator.estimate(
            small_workload.function, small_workload.candidates
        )
        assert all(cost > 0 for cost in estimates.feature_costs.values())
        assert estimates.lookup_cost > 0

    def test_model_tracks_observed_counters(self, small_workload):
        """Fig 5A's claim at counter level: predicted C4 should be within
        a small factor of cost_units(actual counters) for the same run."""
        estimator = CostEstimator(mode="calibrated", sample_fraction=0.05, seed=2)
        function = small_workload.function
        candidates = small_workload.candidates
        estimates = estimator.estimate(function, candidates)
        predicted = predicted_runtime(function, candidates, estimates)
        result = DynamicMemoMatcher().run(function, candidates)
        actual_model_units = result.stats.cost_units(
            estimates.feature_costs, estimates.lookup_cost
        )
        assert predicted == pytest.approx(actual_model_units, rel=0.6)

    def test_invalid_parameters(self):
        with pytest.raises(EstimationError):
            CostEstimator(sample_fraction=0.0)
        with pytest.raises(EstimationError):
            CostEstimator(mode="psychic")

    def test_empty_candidates_rejected(self, people_tables, b1_function):
        from repro.data import CandidateSet

        empty = CandidateSet(*people_tables)
        with pytest.raises(EstimationError):
            CostEstimator().estimate(b1_function, empty)


class TestSelectivityCache:
    def test_selectivity_takes_each_mean_once(self, monkeypatch, two_features, estimates):
        """sel(p) is ``float(mask.mean())``, and the mean is taken once
        per pid however often it is asked for."""
        cheap, pricey = two_features
        predicates = [
            Predicate(cheap, ">=", 1),
            Predicate(pricey, ">=", 0.5),
            Predicate(pricey, "<", 0.5),
            Predicate(pricey, ">", 0.95),
        ]
        means = []

        class CountedMask(np.ndarray):
            def mean(self, *args, **kwargs):
                means.append(1)
                return np.asarray(self).mean(*args, **kwargs)

        mask = Estimates._mask
        monkeypatch.setattr(
            Estimates, "_mask", lambda self, p: mask(self, p).view(CountedMask)
        )
        for _ in range(3):
            for predicate in predicates:
                assert estimates.selectivity(predicate) == float(
                    np.asarray(mask(estimates, predicate)).mean()
                )
        assert len(means) == len(predicates)


def looped_estimate(estimator, function, candidates, kernels):
    """The estimator's loops as written before values were computed once
    per mode and bounds once per (feature, sample pair): a warm-up pass
    and a timed pass per kernel feature, and one ``bound_decision`` per
    predicate and sample pair.  Returns (sample values, bound-skip
    rates)."""
    pairs = [candidates[index] for index in estimator.sample_indices(candidates)]
    sample_values = {}
    for feature in function.features():
        if kernels.supports(feature):
            for pair in pairs:
                kernels.compute(feature, pair)
            values = [kernels.compute(feature, pair) for pair in pairs]
        else:
            values = [feature.compute(pair.record_a, pair.record_b) for pair in pairs]
        sample_values[feature.name] = np.array(values, dtype=np.float64)
    rates = {}
    for rule in function.rules:
        for predicate in rule.predicates:
            if predicate.pid in rates or not kernels.supports(predicate.feature):
                continue
            decided = sum(
                1 for pair in pairs if kernels.bound_decision(predicate, pair) is not None
            )
            if decided:
                rates[predicate.pid] = decided / len(pairs)
    return sample_values, rates


class TestEstimationWithoutRepeatedWork:
    @pytest.mark.parametrize("mode", ["measured", "calibrated"])
    def test_estimates_equal_the_looped_oracle(self, small_workload, mode):
        """Values computed once and bounds computed once per feature leave
        the estimates field for field what the loops gave: the sample
        values, the bound-skip rates, and in calibrated mode every cost."""
        from repro.kernels import FeatureKernels

        function = small_workload.function
        candidates = small_workload.candidates
        estimator = CostEstimator(mode=mode, sample_fraction=0.05, seed=3)
        estimates = estimator.estimate(
            function, candidates, kernels=FeatureKernels(use_bounds=True)
        )
        values, rates = looped_estimate(
            estimator, function, candidates, FeatureKernels(use_bounds=True)
        )
        assert rates  # the workload has bound-decided predicates
        assert estimates.bound_skip_rates == rates
        assert list(estimates.sample_values) == list(values)
        for name, column in values.items():
            assert np.array_equal(estimates.sample_values[name], column), name
        assert estimates.sample_size == len(next(iter(values.values())))
        assert list(estimates.feature_costs) == list(values)
        if mode == "calibrated":
            assert estimates.feature_costs == {
                feature.name: CALIBRATED_TIER_COSTS[feature.cost_tier]
                for feature in function.features()
            }
            assert estimates.lookup_cost == CALIBRATED_LOOKUP_COST
            assert estimates.bound_check_cost == CALIBRATED_BOUND_COST
