"""Wire protocol of the matching service: payload codecs and error model.

Everything crossing the HTTP boundary is JSON.  This module owns the
vocabulary: the error envelope every response uses, the blocker/table/
delta/change payload shapes, and the serializers that turn engine objects
(:class:`~repro.core.stats.MatchStats`, confusions, explanations) into
JSON-able dicts.  Both the server (:mod:`repro.service.handlers`) and the
client (:mod:`repro.service.client`) import from here, so the two ends
cannot drift apart silently.

Blocker specs
-------------
Blockers may close over lambdas, so they are never serialized directly;
a *spec* is a small JSON dict that :func:`build_blocker` turns into a
fresh instance::

    {"kind": "overlap", "attribute": "title", "min_overlap": 2,
     "stop_fraction": 0.15}

Specs are stored verbatim in session checkpoints
(:func:`repro.core.persistence.save_session`), which is how a restarted
server rebuilds each session's blocker before adopting its state.
"""

from __future__ import annotations

import math
import re
import time
import uuid
from typing import Dict, List, Optional, Sequence

from ..blocking import (
    AttributeEquivalenceBlocker,
    BLOCKER_REGISTRY,
    Blocker,
    CartesianBlocker,
    OverlapBlocker,
    SortedNeighborhoodBlocker,
)
from ..core.changes import (
    AddRule,
    Change,
    RelaxPredicate,
    RemovePredicate,
    RemoveRule,
    TightenPredicate,
)
from ..core.parser import parse_rule
from ..core.persistence import stats_to_dict
from ..data.table import Record, Table
from ..errors import ReproError
from ..streaming.deltas import Delta, DeltaBatch

API_VERSION = 1

#: error code -> HTTP status the server answers with.
ERROR_STATUS: Dict[str, int] = {
    "bad_request": 400,
    "not_found": 404,
    "conflict": 409,
    "busy": 429,
    "timeout": 504,
    "shutting_down": 503,
    "internal": 500,
}


class ServiceError(ReproError):
    """A request failure with a protocol error code.

    ``code`` picks the HTTP status (:data:`ERROR_STATUS`); anything the
    engine raises that is not already a ``ServiceError`` is wrapped as
    ``bad_request`` (engine validation errors are the caller's fault) or
    ``internal`` (everything else) by the dispatch layer.
    """

    def __init__(self, code: str, message: str):
        if code not in ERROR_STATUS:
            raise ValueError(f"unknown service error code {code!r}")
        self.code = code
        super().__init__(message)

    @property
    def status(self) -> int:
        return ERROR_STATUS[self.code]


# ---------------------------------------------------------------------------
# Response envelopes
# ---------------------------------------------------------------------------


#: header a client may set to name its request; the server adopts it as
#: the envelope request id and the trace-context stamp for write actions.
REQUEST_ID_HEADER = "X-Repro-Request-Id"

_REQUEST_ID_PATTERN = re.compile(r"[A-Za-z0-9_-]{1,64}$")


def new_request_id() -> str:
    return uuid.uuid4().hex[:12]


def valid_request_id(candidate: str) -> bool:
    """Is ``candidate`` acceptable as a client-supplied request id?

    Constrained to 64 URL/label-safe characters so the id is safe to
    echo into envelopes, span attrs, and query strings unquoted.
    """
    return bool(
        isinstance(candidate, str) and _REQUEST_ID_PATTERN.match(candidate)
    )


def envelope_ok(result, request_id: str, started: float) -> dict:
    return {
        "ok": True,
        "api_version": API_VERSION,
        "request_id": request_id,
        "elapsed_ms": round((time.perf_counter() - started) * 1000, 3),
        "result": result,
    }


def envelope_error(error: ServiceError, request_id: str, started: float) -> dict:
    return {
        "ok": False,
        "api_version": API_VERSION,
        "request_id": request_id,
        "elapsed_ms": round((time.perf_counter() - started) * 1000, 3),
        "error": {"code": error.code, "message": str(error)},
    }


# ---------------------------------------------------------------------------
# Blocker specs
# ---------------------------------------------------------------------------


def build_blocker(spec: Optional[dict]) -> Blocker:
    """Construct a blocker from its JSON spec (see module docstring).

    Supported kinds: ``overlap`` (attribute, min_overlap, stop_fraction),
    ``attr_equivalence`` (attribute), ``cartesian``,
    ``sorted_neighborhood`` (attribute, window), and ``registry`` (name +
    attribute, resolved through
    :data:`repro.blocking.BLOCKER_REGISTRY`).
    """
    if not spec:
        raise ServiceError("bad_request", "a blocker spec is required")
    if not isinstance(spec, dict):
        raise ServiceError(
            "bad_request", f"a blocker spec must be an object, got {spec!r}"
        )
    kind = spec.get("kind")
    try:
        if kind == "overlap":
            return OverlapBlocker(
                spec["attribute"],
                min_overlap=int(spec.get("min_overlap", 1)),
                stop_fraction=float(spec.get("stop_fraction") or 0.0),
            )
        if kind == "attr_equivalence":
            return AttributeEquivalenceBlocker(spec["attribute"])
        if kind == "cartesian":
            return CartesianBlocker()
        if kind == "sorted_neighborhood":
            return SortedNeighborhoodBlocker(
                spec["attribute"], window=int(spec.get("window", 3))
            )
        if kind == "registry":
            factory = BLOCKER_REGISTRY.get(spec["name"])
            if factory is None:
                raise ServiceError(
                    "bad_request",
                    f"no blocker {spec['name']!r} in the registry",
                )
            return factory(spec["attribute"])
    except ServiceError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as error:
        raise ServiceError(
            "bad_request", f"malformed blocker spec {spec!r}: {error}"
        ) from error
    raise ServiceError("bad_request", f"unknown blocker kind {kind!r}")


def default_blocker_spec(dataset_name: str) -> dict:
    """The spec matching :func:`repro.learning.workload.default_blocker`."""
    from ..learning.workload import BLOCKING_ATTRIBUTES, _BLOCKING_MIN_OVERLAP

    attribute = BLOCKING_ATTRIBUTES.get(dataset_name)
    if attribute is None:
        raise ServiceError(
            "bad_request", f"no default blocker for dataset {dataset_name!r}"
        )
    return {
        "kind": "overlap",
        "attribute": attribute,
        "min_overlap": _BLOCKING_MIN_OVERLAP.get(dataset_name, 1),
        "stop_fraction": 0.15,
    }


# ---------------------------------------------------------------------------
# Table / delta / change payloads
# ---------------------------------------------------------------------------


def string_field(value, what: str) -> str:
    """``value`` if it is a non-empty string, else a ``bad_request``."""
    if not isinstance(value, str) or not value:
        raise ServiceError(
            "bad_request", f"{what} must be a non-empty string, got {value!r}"
        )
    return value


def number_field(value, what: str, kind=float):
    """``kind(value)`` (``int`` or ``float``) for a numeric request field;
    a value it rejects, a bool, or a number that is not finite is a
    ``bad_request``."""
    noun = "an integer" if kind is int else "a number"
    try:
        if isinstance(value, bool) or (
            kind is int and isinstance(value, float) and not value.is_integer()
        ):
            raise TypeError(value)
        coerced = kind(value)
        if not math.isfinite(coerced):
            raise ValueError(value)
        return coerced
    except (TypeError, ValueError, OverflowError) as error:
        raise ServiceError(
            "bad_request", f"{what} must be {noun}, got {value!r}"
        ) from error


def positive_field(value, what: str, kind=float):
    """:func:`number_field`, which must also be above zero."""
    number = number_field(value, what, kind)
    if number <= 0:
        raise ServiceError("bad_request", f"{what} must be positive, got {value!r}")
    return number


def _record_values(values, what: str) -> dict:
    """A record's attribute mapping: string keys, scalar JSON values."""
    if not isinstance(values, dict) or not all(
        isinstance(key, str)
        and (value is None or isinstance(value, (str, int, float)))
        for key, value in values.items()
    ):
        raise ServiceError(
            "bad_request",
            f"{what} must be an object of attribute -> string, number or "
            f"null, got {values!r}",
        )
    return values


def table_to_payload(table: Table) -> dict:
    """The :func:`table_from_payload` shape of ``table``."""
    return {
        "name": table.name,
        "attributes": list(table.attributes),
        "records": [
            {"id": record.record_id, "values": record.as_dict()}
            for record in table
        ],
    }


def table_from_payload(payload: dict, default_name: str) -> Table:
    """``{"name"?, "attributes": [...], "records": [{"id", "values"}...]}``"""
    if not isinstance(payload, dict):
        raise ServiceError("bad_request", "a table must be a JSON object")
    attributes = payload.get("attributes")
    records = payload.get("records", [])
    if not isinstance(attributes, list) or not isinstance(records, list):
        raise ServiceError(
            "bad_request", "a table needs 'attributes' and 'records' arrays"
        )
    for attribute in attributes:
        string_field(attribute, "a table attribute")
    rows = []
    for position, row in enumerate(records):
        what = f"record #{position + 1}"
        if not isinstance(row, dict):
            raise ServiceError("bad_request", f"{what} must be a JSON object")
        rows.append(
            Record(
                string_field(row.get("id"), f"{what}'s 'id'"),
                _record_values(row.get("values", {}), f"{what}'s 'values'"),
            )
        )
    name = string_field(payload.get("name", default_name), "a table name")
    return Table(name, attributes, rows)


def deltas_from_payload(payload) -> DeltaBatch:
    """``[{"op", "side", "id", "values"?}, ...]`` → :class:`DeltaBatch`."""
    if not isinstance(payload, (list, tuple)):
        raise ServiceError("bad_request", "deltas must be a JSON array")
    deltas = []
    for position, entry in enumerate(payload):
        what = f"delta #{position + 1}"
        if not isinstance(entry, dict):
            raise ServiceError("bad_request", f"{what} must be a JSON object")
        values = entry.get("values")
        if values is not None:
            _record_values(values, f"{what}'s 'values'")
        deltas.append(
            Delta(
                string_field(entry.get("op"), f"{what}'s 'op'"),
                string_field(entry.get("side"), f"{what}'s 'side'"),
                string_field(entry.get("id"), f"{what}'s 'id'"),
                values,
            )
        )
    return DeltaBatch(deltas)


def change_from_payload(payload: dict, resolver=None) -> Change:
    """``{"kind": ..., ...}`` → a :class:`~repro.core.changes.Change`.

    Kinds: ``tighten``/``relax`` (rule, slot, threshold),
    ``drop_predicate`` (rule, slot), ``drop_rule`` (rule), ``add_rule``
    (rule_dsl, parsed through ``resolver``).
    """
    if not isinstance(payload, dict):
        raise ServiceError("bad_request", "edit must be a JSON object")
    kind = payload.get("kind")
    if kind == "add_rule":
        text = string_field(payload.get("rule_dsl"), "'rule_dsl'")
        return AddRule(parse_rule(text, resolver))
    if kind not in ("tighten", "relax", "drop_predicate", "drop_rule"):
        raise ServiceError("bad_request", f"unknown edit kind {kind!r}")
    rule = string_field(payload.get("rule"), "'rule'")
    if kind == "drop_rule":
        return RemoveRule(rule)
    slot = string_field(payload.get("slot"), "'slot'")
    if kind == "drop_predicate":
        return RemovePredicate(rule, slot)
    change_class = TightenPredicate if kind == "tighten" else RelaxPredicate
    threshold = number_field(payload.get("threshold"), "'threshold'")
    return change_class(rule, slot, threshold)


# ---------------------------------------------------------------------------
# Engine-object serializers
# ---------------------------------------------------------------------------


def confusion_to_payload(confusion) -> dict:
    return {
        "true_positives": confusion.true_positives,
        "false_positives": confusion.false_positives,
        "false_negatives": confusion.false_negatives,
        "true_negatives": confusion.true_negatives,
        "precision": confusion.precision,
        "recall": confusion.recall,
        "f1": confusion.f1,
    }


def batch_result_to_payload(result) -> dict:
    return {
        "stats": stats_to_dict(result.stats),
        "gained": [list(pair) for pair in result.gained],
        "lost": [list(pair) for pair in result.lost],
        "affected": result.affected,
        "match_count": result.match_count,
    }


def explanation_to_payload(explanation) -> dict:
    return {
        "pair": list(explanation.pair_id),
        "matched": explanation.matched,
        "rules": [
            {
                "rule": trace.rule_name,
                "matched": trace.matched,
                "predicates": [
                    {
                        "pid": predicate.pid,
                        "value": predicate.value,
                        "passed": predicate.passed,
                    }
                    for predicate in trace.predicates
                ],
            }
            for trace in explanation.rules
        ],
    }


def pairs_to_payload(pairs: Sequence) -> List[List[str]]:
    return [list(pair) for pair in pairs]


#: RefineConfig fields a service caller may set, with coercions.  Kept
#: explicit (not introspected) so the wire contract is visible in one place.
_REFINE_CONFIG_FIELDS = {
    "budget": int,
    "beam_width": int,
    "max_depth": int,
    "max_candidates_per_round": int,
    "max_per_slot": int,
    "risk_sample": int,
    "seed": int,
    "attribution_limit": int,
    "cost_strategy": str,
    "estimate_mode": str,
    "admit_fractions": lambda value: tuple(float(v) for v in value),
    "focus_rules": lambda value: tuple(str(v) for v in value),
}


def refine_config_from_payload(payload: Optional[dict]):
    """Build a :class:`repro.refine.RefineConfig` from request options."""
    from ..refine import RefineConfig

    payload = payload or {}
    kwargs = {}
    for key, coerce in _REFINE_CONFIG_FIELDS.items():
        if key in payload:
            try:
                kwargs[key] = coerce(payload[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ServiceError(
                    "bad_request", f"bad refine option {key!r}: {exc}"
                ) from exc
    return RefineConfig(**kwargs)


def scored_candidate_to_payload(candidate) -> dict:
    """One frontier/baseline entry of a refinement report."""
    return {
        "edits": [change.describe() for change in candidate.edits],
        "precision": candidate.precision,
        "recall": candidate.recall,
        "f1": candidate.f1,
        "expected_cost": candidate.expected_cost,
        "confusion": confusion_to_payload(candidate.confusion),
        "per_edit": [
            {
                "change": outcome.change.describe(),
                "fixed": outcome.fixed,
                "broken": outcome.broken,
                "fixed_examples": pairs_to_payload(outcome.fixed_examples),
                "broken_examples": pairs_to_payload(outcome.broken_examples),
                "newly_matched": outcome.newly_matched,
                "newly_unmatched": outcome.newly_unmatched,
            }
            for outcome in candidate.outcomes
        ],
    }


def refinement_to_payload(report) -> dict:
    """JSON shape of a :class:`repro.refine.RefinementReport`."""
    return {
        "baseline": scored_candidate_to_payload(report.baseline),
        "frontier": [
            scored_candidate_to_payload(candidate)
            for candidate in report.frontier
        ],
        "best_index": (
            report.frontier.index(report.best) if report.frontier else None
        ),
        "improves_f1": report.improves_f1(),
        "candidates_generated": report.candidates_generated,
        "candidates_scored": report.candidates_scored,
        "incremental_evals": report.incremental_evals,
        "full_rematches": report.full_rematches,
        "rounds": report.rounds,
        "elapsed_seconds": report.elapsed_seconds,
    }
