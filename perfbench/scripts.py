"""Seeded operation scripts: rule edits and record deltas.

Both scripts undo themselves, so a run can go on for as long as its time
box without drifting away from the generated task.

:class:`EditScript` yields edit/inverse pairs covering Algorithms 7-10:
tighten/relax, drop/re-add a predicate, drop/re-add a rule, add/drop a new
rule and add/drop a new predicate.  It follows the edit protocol of the
paper's §7.6 as ``benchmarks/test_fig6_incremental_changes.py`` encodes
it: threshold moves are drawn from {0.1, ..., 0.5} and clamped, an added
predicate is borrowed from a donor rule, and an added rule is a renamed
copy of a donor rule.  Rules are picked by name, never by position,
because the rule order comes from wall-clock cost estimates.

:class:`DeltaScript` cycles five record deltas.  The paper has no
streaming protocol, so this mix is an assumption: one delta of each kind
the streaming layer handles, in equal shares, with every rename followed
by its restore and every insert by its delete so that a long run keeps
the generated tables (and so the candidate set's size) where they
started.  The kinds:

1. ``plain`` — update a non-blocking attribute (copied from another
   record), which invalidates the record's pairs but moves no candidates;
2. ``rename`` — replace one token of the blocking attribute with a token
   of another record's, which moves candidate membership;
3. ``restore`` — put that attribute back to its original value;
4. ``insert`` — add a record built from another's values, renamed;
5. ``delete`` — remove the record the previous insert added.

Deltas are wire-format dicts (``op``/``side``/``id``/``values``), the
shape the service accepts.  Kinds rotate in both scripts so every run has
the same mix; the seed picks rules, slots, thresholds and records.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List

import numpy as np
import repro
from repro.errors import ChangeError

EDIT_KINDS = (
    "tighten", "relax", "drop_predicate", "drop_rule", "add_rule", "add_predicate",
)
DELTA_KINDS = ("plain", "rename", "restore", "insert", "delete")
#: Threshold moves of the paper's §7.6.
THRESHOLD_DELTAS = (0.1, 0.2, 0.3, 0.4, 0.5)
#: Proposals tried per edit before the script gives up.
MAX_TRIES = 200


def moved_threshold(predicate, kind: str, delta: float) -> float:
    """``predicate``'s threshold moved by ``delta`` to tighten or relax it,
    clamped as ``benchmarks/test_fig6_incremental_changes.py`` clamps."""
    lower = predicate.op in (">=", ">")
    if kind == "tighten":
        return (
            min(1.0, predicate.threshold + delta) if lower
            else max(0.0, predicate.threshold - delta)
        )
    return (
        max(-0.001, predicate.threshold - delta) if lower
        else min(1.001, predicate.threshold + delta)
    )


def by_slot(predicates):
    return sorted(predicates, key=lambda p: p.slot)


class EditScript:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.count = 0
        self._queue: List[str] = []

    def _rule(self, function):
        """The next rule of a seeded shuffle of the rule names, so every
        rule is edited equally often and the mix varies little by seed."""
        while True:
            if not self._queue:
                self._queue = sorted(rule.name for rule in function.rules)
                self.rng.shuffle(self._queue)
            name = self._queue.pop()
            if name in function:
                return function.rule(name)

    def next_pair(self, function):
        """(change, inverse) against the current ``function``."""
        kind = EDIT_KINDS[self.count % len(EDIT_KINDS)]
        self.count += 1
        for _ in range(MAX_TRIES):
            pair = self._propose(kind, function)
            if pair is None:
                continue
            try:
                pair[0].validate(function)
            except ChangeError:
                continue
            return pair
        raise RuntimeError(f"no valid {kind} edit in {MAX_TRIES} proposals")

    def _propose(self, kind, function):
        """One (change, inverse) proposal, or None if it cannot apply."""
        rule = self._rule(function)
        if kind in ("tighten", "relax"):
            bounded = [p for p in rule.predicates if p.op in (">=", ">", "<=", "<")]
            if not bounded:
                return None
            predicate = self.rng.choice(by_slot(bounded))
            new = moved_threshold(predicate, kind, self.rng.choice(THRESHOLD_DELTAS))
            forward, back = repro.TightenPredicate, repro.RelaxPredicate
            if kind == "relax":
                forward, back = back, forward
            return (
                forward(rule.name, predicate.slot, new),
                back(rule.name, predicate.slot, predicate.threshold),
            )
        if kind == "drop_predicate":
            if len(rule) < 2:
                return None
            predicate = self.rng.choice(by_slot(rule.predicates))
            return (
                repro.RemovePredicate(rule.name, predicate.slot),
                repro.AddPredicate(rule.name, predicate),
            )
        if kind == "drop_rule":
            return repro.RemoveRule(rule.name), repro.AddRule(rule)
        donor = function.rule(self.rng.choice(sorted(r.name for r in function.rules)))
        if kind == "add_rule":
            copy = repro.Rule(f"bench_rule_{self.count}", list(donor.predicates))
            return repro.AddRule(copy), repro.RemoveRule(copy.name)
        # add_predicate: a donor rule's predicate on a slot the rule leaves
        # free (validate() rejects a taken slot).
        predicate = self.rng.choice(by_slot(donor.predicates))
        return (
            repro.AddPredicate(rule.name, predicate),
            repro.RemovePredicate(rule.name, predicate.slot),
        )


def run_edit_pairs(session, script, pairs, report, toggle_observability=None):
    """Apply ``pairs`` edit/inverse pairs to ``session``, timing each apply.

    Checks that every pair restores the labels.  With
    ``toggle_observability``, alternate blocks of one pair per edit kind
    run with it attached and without (the tracing-overhead comparison).
    Returns ``[(change, ms, affected_pairs, traced)]``.
    """
    timings = []
    for index in range(pairs):
        change, inverse = script.next_pair(session.function)
        before = session.labels().copy()
        traced = (index // len(EDIT_KINDS)) % 2 == 0
        if toggle_observability is not None:
            session.observability = toggle_observability if traced else None
        for edit in (change, inverse):
            with report.operation(f"apply {edit!r}"):
                started = time.perf_counter()
                result = session.apply(edit)
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                timings.append((edit, elapsed_ms, result.affected_pairs, traced))
        report.check(
            np.array_equal(session.labels(), before),
            f"labels not restored after {change!r} and its inverse",
        )
    if toggle_observability is not None:
        session.observability = toggle_observability
    return timings


class DeltaScript:
    def __init__(
        self,
        seed: int,
        table_a,
        table_b,
        blocking_attribute: str,
        plain_attributes: List[str],
        id_prefix: str = "bench-",
        owns: Callable[[int], bool] = lambda index: True,
    ):
        self.rng = random.Random(seed)
        self.blocking = blocking_attribute
        self.plain = list(plain_attributes)
        self.prefix = id_prefix
        #: side -> [(record id, original values)] of the generated tables
        self.records: Dict[str, list] = {
            side: [(record.record_id, record.as_dict()) for record in table]
            for side, table in (("a", table_a), ("b", table_b))
        }
        #: side -> positions this script may update (disjoint per client)
        self.owned = {
            side: [i for i in range(len(rows)) if owns(i)]
            for side, rows in self.records.items()
        }
        self._queues: Dict[str, list] = {"a": [], "b": []}
        self.count = 0
        self._renamed = None
        self._inserted = None

    def _pick(self, side: str):
        """The next owned record of a seeded shuffle, so every record is
        updated equally often."""
        queue = self._queues[side]
        if not queue:
            queue.extend(self.owned[side])
            self.rng.shuffle(queue)
        return self.records[side][queue.pop()]

    def _other(self, side: str):
        return self.records[side][self.rng.randrange(len(self.records[side]))]

    def _perturbed(self, side: str, value) -> str:
        tokens = str(value).split()
        donor = str(self._other(side)[1].get(self.blocking, "")).split() or ["x"]
        token = self.rng.choice(donor)
        if len(tokens) <= 1:
            return " ".join(tokens + [token])
        tokens[self.rng.randrange(len(tokens))] = token
        return " ".join(tokens)

    def next(self) -> dict:
        kind = DELTA_KINDS[self.count % len(DELTA_KINDS)]
        self.count += 1
        side = self.rng.choice("ab")
        if kind == "plain":
            record_id, _ = self._pick(side)
            attribute = self.rng.choice(self.plain)
            return {"op": "update", "side": side, "id": record_id,
                    "values": {attribute: self._other(side)[1].get(attribute)}}
        if kind == "rename":
            record_id, values = self._pick(side)
            original = values[self.blocking]
            self._renamed = (side, record_id, original)
            return {"op": "update", "side": side, "id": record_id,
                    "values": {self.blocking: self._perturbed(side, original)}}
        if kind == "restore":
            side, record_id, original = self._renamed
            return {"op": "update", "side": side, "id": record_id,
                    "values": {self.blocking: original}}
        if kind == "insert":
            values = dict(self._other(side)[1])
            values[self.blocking] = self._perturbed(side, values[self.blocking])
            record_id = f"{self.prefix}{side}{self.count}"
            self._inserted = (side, record_id)
            return {"op": "insert", "side": side, "id": record_id, "values": values}
        side, record_id = self._inserted
        return {"op": "delete", "side": side, "id": record_id}
