"""Record-level deltas: the unit of change streaming ingestion consumes.

A :class:`Delta` describes one mutation of one record on one side of the
matching task — insert, update, or delete.  A :class:`DeltaBatch` is an
ordered sequence of deltas applied atomically by
:meth:`~repro.streaming.session.StreamingSession.ingest`: the matching
state observed between two batches is always consistent with some prefix
of the delta stream, never with half a batch.

Updates are *partial*: ``values`` merges over the existing record's
attributes (set an attribute to ``None`` to blank it).  Inserts carry the
full attribute mapping.  Deletes carry none.

:func:`apply_delta` validates a delta against the live tables, mutates the
right table in place, and returns an :class:`AppliedDelta` — the same
mutation with the *resolved* post-application record attached, which is
the shape :meth:`repro.blocking.base.Blocker.pairs_for_delta` consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence, Tuple

from ..data.table import Record, Table
from ..errors import SchemaError, StreamingError

VALID_OPS = ("insert", "update", "delete")
VALID_SIDES = ("a", "b")


@dataclass(frozen=True)
class Delta:
    """One record-level mutation, as submitted by the caller."""

    op: str
    side: str
    record_id: str
    values: Optional[Mapping[str, object]] = None

    def __post_init__(self):
        if self.op not in VALID_OPS:
            raise StreamingError(
                f"delta op must be one of {VALID_OPS}, got {self.op!r}"
            )
        if self.side not in VALID_SIDES:
            raise StreamingError(
                f"delta side must be 'a' or 'b', got {self.side!r}"
            )
        if not self.record_id:
            raise StreamingError("delta record_id must be non-empty")
        if self.op == "delete":
            if self.values:
                raise StreamingError(
                    f"delete of {self.record_id!r} must not carry values"
                )
        elif self.op == "insert" and self.values is None:
            raise StreamingError(
                f"insert of {self.record_id!r} needs an attribute mapping"
            )
        elif self.op == "update" and not self.values:
            raise StreamingError(
                f"update of {self.record_id!r} needs at least one attribute"
            )

    # -- convenience constructors --------------------------------------

    @classmethod
    def insert(cls, side: str, record_id: str, **values: object) -> "Delta":
        return cls("insert", side, record_id, values)

    @classmethod
    def update(cls, side: str, record_id: str, **values: object) -> "Delta":
        return cls("update", side, record_id, values)

    @classmethod
    def delete(cls, side: str, record_id: str) -> "Delta":
        return cls("delete", side, record_id)

    def __repr__(self) -> str:
        extra = f", {dict(self.values)!r}" if self.values else ""
        return f"Delta({self.op} {self.side}:{self.record_id}{extra})"


@dataclass(frozen=True)
class AppliedDelta:
    """A delta that has been applied to the tables.

    ``record`` is the post-application record (the merged record for
    updates), or ``None`` for deletes; ``previous`` is the record the
    delta displaced, or ``None`` for inserts.  This is the resolved form
    blockers' ``pairs_for_delta`` consumes.
    """

    op: str
    side: str
    record_id: str
    record: Optional[Record]
    previous: Optional[Record]


@dataclass(frozen=True)
class DeltaBatch:
    """An ordered, atomically applied sequence of deltas."""

    deltas: Tuple[Delta, ...] = ()

    def __init__(self, deltas: Sequence[Delta] = ()):
        object.__setattr__(self, "deltas", tuple(deltas))
        for delta in self.deltas:
            if not isinstance(delta, Delta):
                raise StreamingError(
                    f"DeltaBatch takes Delta objects, got {type(delta).__name__}"
                )

    def __iter__(self) -> Iterator[Delta]:
        return iter(self.deltas)

    def __len__(self) -> int:
        return len(self.deltas)

    def touched_records(self) -> Tuple[set, set]:
        """Record ids touched per side, as ``(a_ids, b_ids)``."""
        a_ids = {d.record_id for d in self.deltas if d.side == "a"}
        b_ids = {d.record_id for d in self.deltas if d.side == "b"}
        return a_ids, b_ids

    def __repr__(self) -> str:
        return f"DeltaBatch({len(self.deltas)} deltas)"


def validate_batch(
    table_a: Table, table_b: Table, batch: Sequence[Delta]
) -> None:
    """Check that every delta in ``batch`` would apply cleanly, in order.

    Simulates the batch against the live tables without mutating (or
    copying) them, so the work follows the batch: record-id liveness is
    tracked through the sequence (so an insert followed by an update of
    the same id validates, and a delete followed by an update of it does
    not), and insert/update values are checked against the table schema
    — exactly the conditions under which :func:`apply_delta` raises.
    Raises
    :class:`~repro.errors.StreamingError` naming the offending delta's
    position; the tables are untouched either way.

    :meth:`~repro.streaming.session.StreamingSession.ingest` runs this
    before applying anything, which is what makes a batch atomic: a batch
    that cannot apply in full is rejected in full.
    """
    tables = {"a": table_a, "b": table_b}
    # Liveness changes made by earlier deltas of the batch, per side; the
    # tables answer for every id the batch has not touched.
    added = {"a": set(), "b": set()}
    removed = {"a": set(), "b": set()}
    schema = {"a": set(table_a.attributes), "b": set(table_b.attributes)}

    def reject(position: int, delta: Delta, reason: str) -> None:
        raise StreamingError(
            f"batch rejected at delta {position + 1}/{len(batch)} "
            f"({delta!r}): {reason}; no deltas were applied"
        )

    for position, delta in enumerate(batch):
        side, record_id = delta.side, delta.record_id
        name = tables[side].name
        live = record_id in added[side] or (
            record_id in tables[side] and record_id not in removed[side]
        )
        if delta.op == "insert":
            if live:
                reject(
                    position, delta,
                    f"id already in table {name!r} (use an update delta)",
                )
        elif not live:
            reject(position, delta, f"no such record in table {name!r}")
        if delta.values:
            extra = set(delta.values) - schema[side]
            if extra:
                reject(
                    position, delta,
                    f"attributes outside the schema of table {name!r}: "
                    f"{sorted(extra)}",
                )
        if delta.op == "insert":
            added[side].add(record_id)
            removed[side].discard(record_id)
        elif delta.op == "delete":
            removed[side].add(record_id)
            added[side].discard(record_id)


def apply_delta(table_a: Table, table_b: Table, delta: Delta) -> AppliedDelta:
    """Validate ``delta`` against the tables, apply it, resolve the record.

    Raises :class:`~repro.errors.StreamingError` on an unknown record id
    (update/delete), a duplicate id (insert), or a schema violation; the
    tables are untouched when it raises.
    """
    table = table_a if delta.side == "a" else table_b
    if delta.op == "insert":
        if delta.record_id in table:
            raise StreamingError(
                f"insert of {delta.record_id!r}: id already in table "
                f"{table.name!r} (use an update delta)"
            )
        record = Record(delta.record_id, delta.values or {})
        try:
            table.add(record)
        except SchemaError as error:
            raise StreamingError(str(error)) from error
        return AppliedDelta(delta.op, delta.side, delta.record_id, record, None)
    if delta.record_id not in table:
        raise StreamingError(
            f"{delta.op} of {delta.record_id!r}: no such record in table "
            f"{table.name!r}"
        )
    if delta.op == "delete":
        previous = table.remove(delta.record_id)
        return AppliedDelta(
            delta.op, delta.side, delta.record_id, None, previous
        )
    # update: merge the new values over the existing record's.
    merged = table.get(delta.record_id).as_dict()
    merged.update(delta.values or {})
    record = Record(delta.record_id, merged)
    try:
        previous = table.replace(record)
    except SchemaError as error:
        raise StreamingError(str(error)) from error
    return AppliedDelta(delta.op, delta.side, delta.record_id, record, previous)
