"""The rule language: features, predicates, CNF rules, DNF matching functions.

This is the paper's §3 formalism, made concrete:

* A :class:`Feature` is a similarity function bound to an attribute pair —
  ``Jaccard(a.title, b.title)``.  Its :attr:`name` is the memo key.
* A :class:`Predicate` compares one feature against a constant threshold
  with one of ``>=, >, <=, <, ==``.
* A :class:`Rule` is a conjunction of predicates (one CNF clause each).
* A :class:`MatchingFunction` is a disjunction of rules (DNF).  A candidate
  pair matches iff at least one rule is true.

Everything here is **immutable**.  The interactive debugging loop edits
matching functions constantly; immutability means an edit produces a new
``MatchingFunction`` object while rules and predicates keep stable
identities (their names), which is what the incremental state keys its
bitmaps on.  Mutation-in-place would silently desynchronize those bitmaps.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..data.table import Record
from ..errors import ChangeError, ReproError
from ..similarity.base import SimilarityFunction

#: Comparison operators a predicate may use, mapped to their evaluators.
OPERATORS: Dict[str, Callable[[float, float], bool]] = {
    ">=": lambda value, threshold: value >= threshold,
    ">": lambda value, threshold: value > threshold,
    "<=": lambda value, threshold: value <= threshold,
    "<": lambda value, threshold: value < threshold,
    "==": lambda value, threshold: value == threshold,
}

#: Operators for which *raising* the threshold makes the predicate stricter.
_LOWER_BOUND_OPS = frozenset({">=", ">"})
#: Operators for which *lowering* the threshold makes the predicate stricter.
_UPPER_BOUND_OPS = frozenset({"<=", "<"})


class Feature:
    """A similarity function applied to one (attr_a, attr_b) pair.

    ``name`` uniquely identifies the feature within a matching task and is
    the key used by memos, cost models, and the rule DSL.  The default
    name is ``"{sim}({attr_a},{attr_b})"``.
    """

    __slots__ = ("name", "sim", "attr_a", "attr_b")

    def __init__(
        self,
        sim: SimilarityFunction,
        attr_a: str,
        attr_b: str,
        name: Optional[str] = None,
    ):
        self.sim = sim
        self.attr_a = attr_a
        self.attr_b = attr_b
        self.name = name or f"{sim.name}({attr_a},{attr_b})"

    def compute(self, record_a: Record, record_b: Record) -> float:
        """Compute the similarity score for a record pair (no memoization —
        callers that want memoing go through a matcher's memo)."""
        return self.sim(record_a.get(self.attr_a), record_b.get(self.attr_b))

    @property
    def cost_tier(self) -> int:
        """The similarity function's static cost tier (see Table 3)."""
        return self.sim.cost_tier

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Feature) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"Feature({self.name!r})"


class Predicate:
    """``feature <op> threshold`` — the atomic unit of a rule.

    The predicate id (:attr:`pid`) is ``"{feature.name}{op}{threshold:g}"``
    *without* the threshold for bitmap identity purposes — see :attr:`slot`:
    threshold edits (tighten/relax) keep the same slot, which is how the
    incremental state carries a predicate's history across threshold
    changes (paper §6.2.1-6.2.2).
    """

    __slots__ = ("feature", "op", "threshold", "_compare", "pid", "slot", "_hash")

    def __init__(self, feature: Feature, op: str, threshold: float):
        compare = OPERATORS.get(op)
        if compare is None:
            raise ReproError(
                f"unknown operator {op!r}; expected one of {sorted(OPERATORS)}"
            )
        self.feature = feature
        self.op = op
        self.threshold = float(threshold)
        self._compare = compare
        #: Full identity including the threshold (display / equality).
        self.pid = f"{feature.name}{op}{self.threshold:g}"
        #: Threshold-free identity: feature + operator direction.  Within a
        #: rule in canonical form there is at most one lower-bound and one
        #: upper-bound predicate per feature (paper §5.4), so the slot is
        #: unique inside a rule and stable across threshold edits — the
        #: identity the incremental bitmaps key on.
        direction = "lb" if op in _LOWER_BOUND_OPS else (
            "ub" if op in _UPPER_BOUND_OPS else "eq"
        )
        self.slot = f"{feature.name}#{direction}"
        self._hash = hash(self.pid)

    def evaluate(self, value: float) -> bool:
        """Apply the comparison to a computed feature value."""
        return self._compare(value, self.threshold)

    def is_stricter_than(self, other: "Predicate") -> bool:
        """True if this predicate's true-set is a subset of ``other``'s.

        Only defined for same-slot predicates; raises otherwise.  Used to
        validate tighten/relax edits before dispatching to the incremental
        algorithms, whose correctness depends on the direction of change.
        """
        if self.slot != other.slot:
            raise ChangeError(
                f"cannot compare strictness across slots "
                f"({self.pid} vs {other.pid})"
            )
        if self.op in _LOWER_BOUND_OPS:
            if self.threshold != other.threshold:
                return self.threshold > other.threshold
            # Same threshold: '>' is stricter than '>='.
            return self.op == ">" and other.op == ">="
        if self.op in _UPPER_BOUND_OPS:
            if self.threshold != other.threshold:
                return self.threshold < other.threshold
            return self.op == "<" and other.op == "<="
        return False

    def with_threshold(self, threshold: float) -> "Predicate":
        """A copy of this predicate with a different threshold."""
        return Predicate(self.feature, self.op, threshold)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Predicate) and self.pid == other.pid

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Predicate({self.pid})"


class Rule:
    """A named conjunction of predicates (one CNF clause per predicate).

    Canonical form (paper §5.4) is enforced: a rule may contain at most
    one lower-bound and one upper-bound predicate per feature.  Redundant
    same-slot predicates would break both the cost model's grouping and
    the incremental bitmaps' slot identity.
    """

    # ``_arrays`` caches the rule's compiled form for row evaluators
    # (:class:`repro.core.matchers.PairRows`); derived data, built on
    # first use and never part of the rule's identity.
    __slots__ = ("name", "predicates", "_arrays")

    def __init__(self, name: str, predicates: Sequence[Predicate]):
        if not predicates:
            raise ReproError(f"rule {name!r} has no predicates")
        slots = [predicate.slot for predicate in predicates]
        if len(set(slots)) != len(slots):
            duplicates = sorted({slot for slot in slots if slots.count(slot) > 1})
            raise ReproError(
                f"rule {name!r} is not in canonical form: duplicate "
                f"predicate slots {duplicates}"
            )
        self.name = name
        self.predicates: Tuple[Predicate, ...] = tuple(predicates)
        self._arrays = None

    def features(self) -> List[Feature]:
        """Distinct features, in first-appearance order."""
        seen: Dict[str, Feature] = {}
        for predicate in self.predicates:
            seen.setdefault(predicate.feature.name, predicate.feature)
        return list(seen.values())

    def predicate_by_slot(self, slot: str) -> Predicate:
        """The predicate occupying ``slot`` (ChangeError if absent)."""
        for predicate in self.predicates:
            if predicate.slot == slot:
                return predicate
        raise ChangeError(f"rule {self.name!r} has no predicate in slot {slot!r}")

    def with_predicates(self, predicates: Sequence[Predicate]) -> "Rule":
        """A copy of this rule with a different predicate list."""
        return Rule(self.name, predicates)

    def evaluate_with(self, scores: Dict[str, float]) -> bool:
        """Evaluate against a full feature-score mapping (testing helper;
        matchers use their own lazy evaluation paths)."""
        return all(
            predicate.evaluate(scores[predicate.feature.name])
            for predicate in self.predicates
        )

    def __len__(self) -> int:
        return len(self.predicates)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Rule)
            and self.name == other.name
            and self.predicates == other.predicates
        )

    def __hash__(self) -> int:
        return hash((self.name, self.predicates))

    def __repr__(self) -> str:
        body = " AND ".join(predicate.pid for predicate in self.predicates)
        return f"Rule({self.name!r}: {body})"


class MatchingFunction:
    """A DNF matching function: a pair matches iff any rule is true.

    Rule names must be unique — they are the identities the incremental
    state and the orderings refer to.
    """

    __slots__ = ("rules", "_by_name")

    def __init__(self, rules: Sequence[Rule]):
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            duplicates = sorted({name for name in names if names.count(name) > 1})
            raise ReproError(f"duplicate rule names: {duplicates}")
        self.rules: Tuple[Rule, ...] = tuple(rules)
        self._by_name: Dict[str, int] = {rule.name: i for i, rule in enumerate(rules)}

    def rule(self, name: str) -> Rule:
        """Look up a rule by name (ChangeError if absent)."""
        index = self._by_name.get(name)
        if index is None:
            raise ChangeError(f"no rule named {name!r}")
        return self.rules[index]

    def rule_index(self, name: str) -> int:
        """Position of the named rule (ChangeError if absent)."""
        index = self._by_name.get(name)
        if index is None:
            raise ChangeError(f"no rule named {name!r}")
        return index

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def features(self) -> List[Feature]:
        """Distinct features across all rules, in first-appearance order.

        This is the paper's ``F`` — the "used features" column of Table 2
        — and the feature set the production-precomputation baseline
        precomputes.
        """
        seen: Dict[str, Feature] = {}
        for rule in self.rules:
            for feature in rule.features():
                seen.setdefault(feature.name, feature)
        return list(seen.values())

    def predicate_count(self) -> int:
        """Total number of predicates across all rules."""
        return sum(len(rule) for rule in self.rules)

    def evaluate_with(self, scores: Dict[str, float]) -> bool:
        """Evaluate against a full feature-score mapping (testing helper)."""
        return any(rule.evaluate_with(scores) for rule in self.rules)

    # ------------------------------------------------------------------
    # Functional edit helpers — each returns a NEW MatchingFunction.
    # ------------------------------------------------------------------

    def with_rule_added(self, rule: Rule) -> "MatchingFunction":
        if rule.name in self._by_name:
            raise ChangeError(f"rule {rule.name!r} already exists")
        return MatchingFunction([*self.rules, rule])

    def with_rule_removed(self, name: str) -> "MatchingFunction":
        index = self.rule_index(name)
        remaining = [rule for i, rule in enumerate(self.rules) if i != index]
        if not remaining:
            raise ChangeError("cannot remove the last rule of a matching function")
        return MatchingFunction(remaining)

    def with_rule_replaced(self, replacement: Rule) -> "MatchingFunction":
        index = self.rule_index(replacement.name)
        rules = list(self.rules)
        rules[index] = replacement
        return MatchingFunction(rules)

    def subset(self, names: Iterable[str]) -> "MatchingFunction":
        """The sub-function containing only the named rules, in this
        function's order (used by the Figure 3/5 rule-count sweeps)."""
        wanted = set(names)
        kept = [rule for rule in self.rules if rule.name in wanted]
        missing = wanted - {rule.name for rule in kept}
        if missing:
            raise ChangeError(f"no such rules: {sorted(missing)}")
        return MatchingFunction(kept)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def __repr__(self) -> str:
        return (
            f"MatchingFunction({len(self.rules)} rules, "
            f"{self.predicate_count()} predicates, "
            f"{len(self.features())} features)"
        )
