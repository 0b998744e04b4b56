"""Candidate-edit vocabulary — one generator feeding both suggestion paths.

This module is the single place that knows how to turn an error analysis
(current :class:`~repro.core.state.MatchState` + gold labels) into concrete
:class:`~repro.core.changes.Change` proposals.  Two consumers share it:

* :mod:`repro.evaluation.suggest` — the interactive "show me the top-5
  edits" path (thin ranking wrappers over these generators).
* :mod:`repro.refine.search` — the automated beam search, which scores
  every proposal through the incremental engine instead of trusting the
  generators' static gain/cost predictions.

Six generator families cover the paper's §6.2 edit vocabulary:

========================  =============================================
:func:`tighten_edits`     raise/lower a threshold to exclude FPs (Alg 7)
:func:`relax_edits`       move a threshold to admit FNs (Alg 8)
:func:`add_predicate_edits`  new conjunct that splits FPs from TPs (Alg 7)
:func:`drop_predicate_edits` delete the sole blocker of FNs (Alg 8)
:func:`drop_rule_edits`   delete a rule that mostly produces FPs (Alg 9)
:func:`add_rule_edits`    new rule from extractor output or FN feature
                          profiles (Alg 10)
========================  =============================================

All feature reads go through the state's memo (computing + memoizing on
miss), so generation cost is itself incremental and repeated generation
inside a search round is nearly free.  Every generator is deterministic:
iteration follows rule/predicate order and sampling is a prefix slice,
never an RNG draw.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.changes import (
    AddPredicate,
    AddRule,
    Change,
    RelaxPredicate,
    RemovePredicate,
    RemoveRule,
    TightenPredicate,
)
from ..core.rules import Feature, MatchingFunction, Predicate, Rule
from ..core.state import MatchState
from ..data.pairs import PairId


@dataclass
class CandidateEdit:
    """One proposed edit with its statically-predicted effect.

    ``predicted_gain``/``predicted_cost`` are the generator's *estimates*
    (pairs fixed / pairs broken); the refinement search replaces them with
    measured values by actually applying the edit.  The class doubles as
    the suggestion object of :mod:`repro.evaluation.suggest` (exported
    there under its historical name ``Suggestion``).
    """

    change: Change
    #: predicted newly-correct pairs (FPs removed / FNs recovered)
    predicted_gain: int
    #: predicted newly-wrong pairs (TPs lost / FPs admitted)
    predicted_cost: int
    #: generator family that proposed the edit (for attribution/debugging)
    origin: str = ""

    @property
    def score(self) -> float:
        """Gain discounted by cost; ties favour cheaper edits."""
        return self.predicted_gain - 2.0 * self.predicted_cost

    def describe(self) -> str:
        return (
            f"{self.change.describe()}  "
            f"(+{self.predicted_gain} fixed, -{self.predicted_cost} broken)"
        )

    def __repr__(self) -> str:
        return f"Suggestion({self.describe()})"


def feature_value(state: MatchState, pair_index: int, feature: Feature) -> float:
    """Memo-first feature read; a miss is computed and memoized.

    The miss goes through the state's kernels when it has them (record
    caches, token-pair memo), else through the memo-free
    ``feature.compute``; the two return bit-identical values.
    """
    cached = state.memo.get(pair_index, feature.name)
    if cached is not None:
        return cached
    pair = state.candidates[pair_index]
    if state.kernels is not None:
        value = state.kernels.compute(feature, pair)
    else:
        value = feature.compute(pair.record_a, pair.record_b)
    state.memo.put(pair_index, feature.name, value)
    return value


def stricter_candidates(
    predicate: Predicate, good_values: Sequence[float], bad_values: Sequence[float]
) -> List[Tuple[float, int, int]]:
    """Candidate stricter thresholds with their (fp_removed, tp_lost).

    For a lower-bound predicate, raising the threshold to just above a
    value excludes every pair at or below it; symmetric for upper bounds.
    Candidates are the distinct bad-pair values (each is the cheapest
    threshold that excludes that pair) — i.e. the observed feature-value
    quantiles of the error population, not an arbitrary grid.
    """
    lower_bound = predicate.op in (">=", ">")
    results = []
    for pivot in sorted(set(bad_values)):
        if lower_bound:
            threshold = round(pivot + 1e-6, 6)
            if threshold <= predicate.threshold:
                continue
            removed = sum(1 for value in bad_values if value < threshold)
            lost = sum(1 for value in good_values if value < threshold)
        else:
            threshold = round(pivot - 1e-6, 6)
            if threshold >= predicate.threshold:
                continue
            removed = sum(1 for value in bad_values if value > threshold)
            lost = sum(1 for value in good_values if value > threshold)
        if removed > 0:
            results.append((threshold, removed, lost))
    return results


def rank_edits(
    edits: Iterable[CandidateEdit],
    per_slot: bool = True,
    limit: Optional[int] = None,
) -> List[CandidateEdit]:
    """Shared ranking/dedupe: sort by (-score, description), optionally keep
    only the best edit per (rule, slot), optionally truncate.

    This is the one implementation of what used to be ``_dedupe_by_slot``
    in :mod:`repro.evaluation.suggest`.
    """
    ranked = sorted(edits, key=lambda item: (-item.score, item.change.describe()))
    if per_slot:
        seen: Set[Tuple[str, str]] = set()
        kept: List[CandidateEdit] = []
        for edit in ranked:
            change = edit.change
            slot = getattr(change, "slot", None)
            if slot is None:
                kept.append(edit)
                continue
            key = (change.rule_name, slot)
            if key in seen:
                continue
            seen.add(key)
            kept.append(edit)
        ranked = kept
    return ranked if limit is None else ranked[:limit]


def change_key(change: Change) -> Tuple:
    """Structural identity of an edit, for pool-level dedupe."""
    if isinstance(change, (TightenPredicate, RelaxPredicate)):
        return (type(change).__name__, change.rule_name, change.slot,
                round(change.new_threshold, 9))
    if isinstance(change, RemovePredicate):
        return ("RemovePredicate", change.rule_name, change.slot)
    if isinstance(change, AddPredicate):
        return ("AddPredicate", change.rule_name, change.predicate.pid)
    if isinstance(change, RemoveRule):
        return ("RemoveRule", change.rule_name)
    if isinstance(change, AddRule):
        return ("AddRule", frozenset(p.pid for p in change.rule.predicates))
    return ("Change", change.describe())


def dedupe_edits(edits: Iterable[CandidateEdit]) -> List[CandidateEdit]:
    """Drop structurally-identical proposals, keeping the first occurrence."""
    seen: Set[Tuple] = set()
    kept: List[CandidateEdit] = []
    for edit in edits:
        key = change_key(edit.change)
        if key in seen:
            continue
        seen.add(key)
        kept.append(edit)
    return kept


# ---------------------------------------------------------------------------
# Error profile — the shared first pass over state + gold
# ---------------------------------------------------------------------------


@dataclass
class ErrorProfile:
    """Indices of each confusion cell, with matched pairs grouped by the
    rule the state attributes them to (exactly the set Algorithm 7 will
    re-examine on a tighten of that rule)."""

    true_positives_by_rule: Dict[str, List[int]]
    false_positives_by_rule: Dict[str, List[int]]
    false_negatives: List[int]
    unmatched_non_gold: List[int]

    @property
    def false_positive_count(self) -> int:
        return sum(len(v) for v in self.false_positives_by_rule.values())


def error_profile(state: MatchState, gold: Set[PairId]) -> ErrorProfile:
    """One scan of the state's labels/attribution against gold."""
    tp_by_rule: Dict[str, List[int]] = defaultdict(list)
    fp_by_rule: Dict[str, List[int]] = defaultdict(list)
    for pair_index in state.matched_indices():
        rule_name = state.function.rules[int(state.attribution[pair_index])].name
        if state.candidates[pair_index].pair_id in gold:
            tp_by_rule[rule_name].append(pair_index)
        else:
            fp_by_rule[rule_name].append(pair_index)
    false_negatives: List[int] = []
    unmatched_non_gold: List[int] = []
    for pair_index in state.unmatched_indices():
        if state.candidates[pair_index].pair_id in gold:
            false_negatives.append(pair_index)
        else:
            unmatched_non_gold.append(pair_index)
    return ErrorProfile(
        true_positives_by_rule=dict(tp_by_rule),
        false_positives_by_rule=dict(fp_by_rule),
        false_negatives=false_negatives,
        unmatched_non_gold=unmatched_non_gold,
    )


# ---------------------------------------------------------------------------
# Threshold edits (tighten / relax)
# ---------------------------------------------------------------------------


def tighten_edits(
    state: MatchState,
    gold: Set[PairId],
    profile: Optional[ErrorProfile] = None,
    max_per_slot: Optional[int] = None,
) -> List[CandidateEdit]:
    """Tighten proposals for every rule with attributed false positives.

    Emits one proposal per useful stricter threshold (each distinct FP
    feature value is a candidate pivot); ``max_per_slot`` keeps only the
    best few per (rule, slot) — the search uses a small cap, the
    interactive path keeps everything and ranks later.
    """
    profile = profile or error_profile(state, gold)
    edits: List[CandidateEdit] = []
    for rule_name, false_positive_pairs in profile.false_positives_by_rule.items():
        true_positive_pairs = profile.true_positives_by_rule.get(rule_name, [])
        rule = state.function.rule(rule_name)
        for predicate in rule.predicates:
            good_values = [
                feature_value(state, index, predicate.feature)
                for index in true_positive_pairs
            ]
            bad_values = [
                feature_value(state, index, predicate.feature)
                for index in false_positive_pairs
            ]
            slot_edits = [
                CandidateEdit(
                    change=TightenPredicate(rule_name, predicate.slot, threshold),
                    predicted_gain=removed,
                    predicted_cost=lost,
                    origin="tighten",
                )
                for threshold, removed, lost in stricter_candidates(
                    predicate, good_values, bad_values
                )
            ]
            if max_per_slot is not None and len(slot_edits) > max_per_slot:
                slot_edits.sort(
                    key=lambda item: (-item.score, item.change.describe())
                )
                slot_edits = slot_edits[:max_per_slot]
            edits.extend(slot_edits)
    return edits


def _recoverable_by_slot(
    state: MatchState,
    profile: ErrorProfile,
) -> Dict[Tuple[str, str], List[float]]:
    """(rule, slot) -> feature values of FNs blocked *only* by that slot.

    A false negative is recoverable through rule r by editing slot s iff
    s's predicate is r's only failing predicate for that pair — the shared
    premise of both relax and drop-predicate proposals.
    """
    needed: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for pair_index in profile.false_negatives:
        for rule in state.function.rules:
            failing: List[Predicate] = []
            for predicate in rule.predicates:
                value = feature_value(state, pair_index, predicate.feature)
                if not predicate.evaluate(value):
                    failing.append(predicate)
                if len(failing) > 1:
                    break
            if len(failing) == 1:
                predicate = failing[0]
                needed[(rule.name, predicate.slot)].append(
                    feature_value(state, pair_index, predicate.feature)
                )
    return needed


def _relaxation_risk(
    state: MatchState,
    rule: Rule,
    slot: str,
    relaxed: Predicate,
    unmatched_non_gold: Sequence[int],
) -> int:
    """Unmatched non-gold pairs the relaxed rule would newly admit."""
    predicate = rule.predicate_by_slot(slot)
    others = [p for p in rule.predicates if p.slot != slot]
    risk = 0
    for pair_index in unmatched_non_gold:
        value = feature_value(state, pair_index, predicate.feature)
        if not relaxed.evaluate(value) or predicate.evaluate(value):
            continue
        if all(
            other.evaluate(feature_value(state, pair_index, other.feature))
            for other in others
        ):
            risk += 1
    return risk


def relax_edits(
    state: MatchState,
    gold: Set[PairId],
    profile: Optional[ErrorProfile] = None,
    risk_sample: int = 500,
    admit_fractions: Sequence[float] = (1.0,),
) -> List[CandidateEdit]:
    """Relax proposals that recover false negatives.

    For each (rule, slot) with recoverable FNs, proposes thresholds at
    quantiles of the needed-value distribution: ``admit_fractions=(1.0,)``
    (the interactive default) relaxes just enough to admit *all* of them;
    fractions below 1.0 admit only the nearest portion — less gain, but
    usually far less risk, which gives the Pareto search intermediate
    points to work with.  Risk is replayed over (a prefix sample of) the
    unmatched non-gold pairs.
    """
    profile = profile or error_profile(state, gold)
    if not profile.false_negatives:
        return []
    needed = _recoverable_by_slot(state, profile)
    unmatched_non_gold = profile.unmatched_non_gold[:risk_sample]

    edits: List[CandidateEdit] = []
    for (rule_name, slot), values in needed.items():
        rule = state.function.rule(rule_name)
        predicate = rule.predicate_by_slot(slot)
        lower_bound = predicate.op in (">=", ">")
        # ordered[k] is the k+1'th-easiest value to admit: descending for
        # lower bounds (closest to the threshold first), ascending for
        # upper bounds.
        ordered = sorted(values, reverse=lower_bound)
        seen_thresholds: Set[float] = set()
        for fraction in admit_fractions:
            count = max(1, min(len(ordered), round(len(ordered) * fraction)))
            admitted = ordered[:count]
            target = admitted[-1]
            threshold = (
                round(target - 1e-6, 6) if lower_bound else round(target + 1e-6, 6)
            )
            if threshold in seen_thresholds:
                continue
            seen_thresholds.add(threshold)
            relaxed = predicate.with_threshold(threshold)
            if not predicate.is_stricter_than(relaxed):
                continue  # no actual relaxation possible (already at bound)
            gain = sum(1 for value in values if relaxed.evaluate(value))
            risk = _relaxation_risk(state, rule, slot, relaxed, unmatched_non_gold)
            edits.append(
                CandidateEdit(
                    change=RelaxPredicate(rule_name, slot, threshold),
                    predicted_gain=gain,
                    predicted_cost=risk,
                    origin="relax",
                )
            )
    return edits


# ---------------------------------------------------------------------------
# Structural edits (add/drop predicate, add/drop rule)
# ---------------------------------------------------------------------------


def drop_predicate_edits(
    state: MatchState,
    gold: Set[PairId],
    profile: Optional[ErrorProfile] = None,
    risk_sample: int = 500,
) -> List[CandidateEdit]:
    """RemovePredicate proposals: delete a slot that is the sole blocker of
    at least one false negative (the limit case of relaxing it to -∞)."""
    profile = profile or error_profile(state, gold)
    if not profile.false_negatives:
        return []
    needed = _recoverable_by_slot(state, profile)
    unmatched_non_gold = profile.unmatched_non_gold[:risk_sample]

    edits: List[CandidateEdit] = []
    for (rule_name, slot), values in needed.items():
        rule = state.function.rule(rule_name)
        if len(rule.predicates) == 1:
            continue  # removal would be RemoveRule; proposed separately
        predicate = rule.predicate_by_slot(slot)
        others = [p for p in rule.predicates if p.slot != slot]
        risk = 0
        for pair_index in unmatched_non_gold:
            value = feature_value(state, pair_index, predicate.feature)
            if predicate.evaluate(value):
                continue  # not newly admitted by the removal
            if all(
                other.evaluate(feature_value(state, pair_index, other.feature))
                for other in others
            ):
                risk += 1
        edits.append(
            CandidateEdit(
                change=RemovePredicate(rule_name, slot),
                predicted_gain=len(values),
                predicted_cost=risk,
                origin="drop-predicate",
            )
        )
    return edits


def drop_rule_edits(
    state: MatchState,
    gold: Set[PairId],
    profile: Optional[ErrorProfile] = None,
) -> List[CandidateEdit]:
    """RemoveRule proposals for rules whose attributed matches are mostly
    false positives.  The cost estimate (attributed TPs) is an upper bound:
    a later rule may re-admit some of them, which the search's incremental
    scoring will discover."""
    profile = profile or error_profile(state, gold)
    edits: List[CandidateEdit] = []
    if len(state.function) <= 1:
        return edits
    for rule_name, fps in profile.false_positives_by_rule.items():
        tps = profile.true_positives_by_rule.get(rule_name, [])
        if len(fps) <= len(tps):
            continue  # removal predicted to hurt; tighten instead
        edits.append(
            CandidateEdit(
                change=RemoveRule(rule_name),
                predicted_gain=len(fps),
                predicted_cost=len(tps),
                origin="drop-rule",
            )
        )
    return edits


def add_predicate_edits(
    state: MatchState,
    gold: Set[PairId],
    profile: Optional[ErrorProfile] = None,
    feature_universe: Sequence[Feature] = (),
    max_per_rule: int = 2,
) -> List[CandidateEdit]:
    """AddPredicate proposals: a new lower-bound conjunct that separates a
    rule's false positives from its true positives.

    Candidate features are the function's own features plus any supplied
    ``feature_universe`` (e.g. the learning workload's feature space),
    skipping features already occupying the rule's lower-bound slot.
    Thresholds come from :func:`stricter_candidates` over the observed
    TP/FP value distributions — the same quantile machinery as tightening,
    with a ``>= -1`` probe predicate standing in for the paper's "empty
    predicate that always evaluates to true" (§6.2.1).
    """
    profile = profile or error_profile(state, gold)
    universe: Dict[str, Feature] = {
        feature.name: feature for feature in state.function.features()
    }
    for feature in feature_universe:
        universe.setdefault(feature.name, feature)

    edits: List[CandidateEdit] = []
    for rule_name, fps in profile.false_positives_by_rule.items():
        tps = profile.true_positives_by_rule.get(rule_name, [])
        rule = state.function.rule(rule_name)
        occupied = {predicate.slot for predicate in rule.predicates}
        rule_edits: List[CandidateEdit] = []
        for name in sorted(universe):
            feature = universe[name]
            probe = Predicate(feature, ">=", -1.0)
            if probe.slot in occupied:
                continue
            good_values = [
                feature_value(state, index, feature) for index in tps
            ]
            bad_values = [
                feature_value(state, index, feature) for index in fps
            ]
            for threshold, removed, lost in stricter_candidates(
                probe, good_values, bad_values
            ):
                rule_edits.append(
                    CandidateEdit(
                        change=AddPredicate(
                            rule_name, Predicate(feature, ">=", threshold)
                        ),
                        predicted_gain=removed,
                        predicted_cost=lost,
                        origin="add-predicate",
                    )
                )
        rule_edits.sort(key=lambda item: (-item.score, item.change.describe()))
        edits.extend(rule_edits[:max_per_rule])
    return edits


def _fresh_rule_name(function: MatchingFunction, prefix: str, start: int = 0) -> str:
    index = start
    while f"{prefix}{index}" in function:
        index += 1
    return f"{prefix}{index}"


def _rule_admits(state: MatchState, rule: Rule, pair_index: int) -> bool:
    return all(
        predicate.evaluate(feature_value(state, pair_index, predicate.feature))
        for predicate in rule.predicates
    )


def add_rule_edits(
    state: MatchState,
    gold: Set[PairId],
    profile: Optional[ErrorProfile] = None,
    seed_rules: Sequence[Rule] = (),
    feature_universe: Sequence[Feature] = (),
    risk_sample: int = 500,
    max_profile_rules: int = 2,
    profile_quantile: float = 0.25,
    max_profile_predicates: int = 3,
    name_prefix: str = "refine_r",
) -> List[CandidateEdit]:
    """AddRule proposals from two seeding paths (Algorithm 10 applies them):

    * ``seed_rules`` — rules mined elsewhere, e.g. by
      :func:`repro.learning.rule_extraction.extract_rules` on the labeled
      sample.  Bodies already present in the function are skipped; names
      are rewritten to fresh ones so extractor output can be replayed
      against any function.
    * false-negative feature profiles — for the FN population, rank
      features by how well they separate FNs from unmatched non-gold
      pairs, then build a conjunction of lower-bound predicates at the
      ``profile_quantile`` of the FN value distribution (loose enough to
      admit most FNs, tight enough to exclude the bulk of non-matches).

    Gain = FNs the new rule admits; cost = (sampled) unmatched non-gold
    pairs it admits.
    """
    profile = profile or error_profile(state, gold)
    if not profile.false_negatives:
        return []
    unmatched_non_gold = profile.unmatched_non_gold[:risk_sample]
    existing_bodies = {
        frozenset(p.pid for p in rule.predicates) for rule in state.function.rules
    }

    def assess(rule: Rule, origin: str) -> Optional[CandidateEdit]:
        body = frozenset(p.pid for p in rule.predicates)
        if body in existing_bodies:
            return None
        gain = sum(
            1
            for index in profile.false_negatives
            if _rule_admits(state, rule, index)
        )
        if gain == 0:
            return None
        risk = sum(
            1 for index in unmatched_non_gold if _rule_admits(state, rule, index)
        )
        existing_bodies.add(body)
        return CandidateEdit(
            change=AddRule(rule),
            predicted_gain=gain,
            predicted_cost=risk,
            origin=origin,
        )

    edits: List[CandidateEdit] = []
    name_counter = 0
    for seed in seed_rules:
        name = _fresh_rule_name(state.function, name_prefix, name_counter)
        name_counter += 1
        edit = assess(Rule(name, seed.predicates), "add-rule/extractor")
        if edit is not None:
            edits.append(edit)

    # FN feature-profile rules: rank features by separation between the FN
    # population and the unmatched non-gold population.
    universe: Dict[str, Feature] = {
        feature.name: feature for feature in state.function.features()
    }
    for feature in feature_universe:
        universe.setdefault(feature.name, feature)
    scored_features: List[Tuple[float, str, Feature, List[float]]] = []
    for name in sorted(universe):
        feature = universe[name]
        fn_values = sorted(
            feature_value(state, index, feature)
            for index in profile.false_negatives
        )
        median_fn = fn_values[len(fn_values) // 2]
        if unmatched_non_gold:
            ung_values = sorted(
                feature_value(state, index, feature)
                for index in unmatched_non_gold
            )
            median_ung = ung_values[len(ung_values) // 2]
        else:
            median_ung = 0.0
        separation = median_fn - median_ung
        if separation > 0.0:
            scored_features.append((separation, name, feature, fn_values))
    scored_features.sort(key=lambda item: (-item[0], item[1]))

    top = scored_features[:max_profile_predicates]
    for width in range(len(top), 0, -1):
        if len(edits) >= len(seed_rules) + max_profile_rules:
            break
        predicates = []
        for _, _, feature, fn_values in top[:width]:
            position = min(
                len(fn_values) - 1, int(len(fn_values) * profile_quantile)
            )
            threshold = round(fn_values[position], 6)
            predicates.append(Predicate(feature, ">=", threshold))
        name = _fresh_rule_name(state.function, name_prefix, name_counter)
        name_counter += 1
        edit = assess(Rule(name, predicates), "add-rule/fn-profile")
        if edit is not None:
            edits.append(edit)
    return edits


# ---------------------------------------------------------------------------
# Combined pool — what the search consumes
# ---------------------------------------------------------------------------


def edit_targets_rules(edit: CandidateEdit, focus: Set[str]) -> bool:
    """Does this edit modify one of the ``focus`` rules?

    ``AddRule`` changes introduce a *new* rule, so they never target an
    existing one and are excluded under any focus set.
    """
    rule_name = getattr(edit.change, "rule_name", None)
    return rule_name is not None and rule_name in focus


def generate_candidates(
    state: MatchState,
    gold: Set[PairId],
    max_per_slot: int = 3,
    admit_fractions: Sequence[float] = (0.25, 0.5, 1.0),
    risk_sample: int = 500,
    seed_rules: Sequence[Rule] = (),
    feature_universe: Sequence[Feature] = (),
    max_candidates: Optional[int] = None,
    focus_rules: Optional[Sequence[str]] = None,
) -> List[CandidateEdit]:
    """The full candidate pool for one search node: every generator family,
    structurally deduped, deterministically ranked best-predicted-first.

    ``focus_rules`` (e.g. drift-monitor warm-start hints) restricts the
    pool to edits targeting those rules — applied *before* ranking and
    the ``max_candidates`` truncation, so a focused pool is a genuine
    subset of the cold-start pool, never a re-ranking of it."""
    profile = error_profile(state, gold)
    pool: List[CandidateEdit] = []
    pool.extend(tighten_edits(state, gold, profile, max_per_slot=max_per_slot))
    pool.extend(
        relax_edits(
            state,
            gold,
            profile,
            risk_sample=risk_sample,
            admit_fractions=admit_fractions,
        )
    )
    pool.extend(
        add_predicate_edits(
            state, gold, profile, feature_universe=feature_universe
        )
    )
    pool.extend(drop_predicate_edits(state, gold, profile, risk_sample=risk_sample))
    pool.extend(drop_rule_edits(state, gold, profile))
    pool.extend(
        add_rule_edits(
            state,
            gold,
            profile,
            seed_rules=seed_rules,
            feature_universe=feature_universe,
            risk_sample=risk_sample,
        )
    )
    if focus_rules:
        focus = {str(name) for name in focus_rules}
        pool = [edit for edit in pool if edit_targets_rules(edit, focus)]
    pool = dedupe_edits(pool)
    pool.sort(key=lambda item: (-item.score, item.change.describe()))
    if max_candidates is not None:
        pool = pool[:max_candidates]
    return pool
