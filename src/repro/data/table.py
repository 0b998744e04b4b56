"""Tabular data model: :class:`Record` and :class:`Table`.

The EM workflow's input is two tables A and B (paper §3).  We keep the model
deliberately small — a table is an ordered collection of records sharing a
schema, with O(1) lookup by record id — because everything interesting in
this system happens at the candidate-pair level, not the storage level.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..errors import SchemaError


class Record:
    """One row of a table: an immutable id plus an attribute mapping.

    Attribute access goes through :meth:`get`/``[]``; missing attributes
    read as ``None`` via :meth:`get`, which is the convention the
    similarity layer expects for absent values.
    """

    __slots__ = ("record_id", "_values")

    def __init__(self, record_id: str, values: Mapping[str, object]):
        self.record_id = record_id
        self._values = dict(values)

    def get(self, attribute: str, default: object = None) -> object:
        """Return the attribute value, or ``default`` if absent/``None``."""
        value = self._values.get(attribute, default)
        return default if value is None else value

    def __getitem__(self, attribute: str) -> object:
        return self._values[attribute]

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._values

    def attributes(self) -> Tuple[str, ...]:
        return tuple(self._values)

    def as_dict(self) -> Dict[str, object]:
        """A copy of the attribute mapping (mutating it won't alter the record)."""
        return dict(self._values)

    def __repr__(self) -> str:
        preview = ", ".join(f"{k}={v!r}" for k, v in list(self._values.items())[:3])
        return f"Record({self.record_id!r}, {preview}{', ...' if len(self._values) > 3 else ''})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Record)
            and self.record_id == other.record_id
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash(self.record_id)


class Table:
    """An ordered collection of :class:`Record` objects with a fixed schema.

    ``attributes`` declares the schema; records may omit attributes (read as
    ``None``) but may not introduce attributes outside the schema — doing so
    raises :class:`~repro.errors.SchemaError`, because a silent extra
    attribute would make feature spaces built from the schema incomplete.
    """

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        records: Optional[Iterable[Record]] = None,
    ):
        if len(set(attributes)) != len(attributes):
            raise SchemaError(f"duplicate attribute names in schema: {attributes}")
        self.name = name
        self.attributes: Tuple[str, ...] = tuple(attributes)
        self._records: List[Record] = []
        self._by_id: Dict[str, int] = {}
        if records is not None:
            for record in records:
                self.add(record)

    def add(self, record: Record) -> None:
        """Append a record, validating id uniqueness and schema conformance."""
        if record.record_id in self._by_id:
            raise SchemaError(
                f"duplicate record id {record.record_id!r} in table {self.name!r}"
            )
        extra = set(record.attributes()) - set(self.attributes)
        if extra:
            raise SchemaError(
                f"record {record.record_id!r} has attributes outside the schema "
                f"of table {self.name!r}: {sorted(extra)}"
            )
        self._by_id[record.record_id] = len(self._records)
        self._records.append(record)

    def add_row(self, record_id: str, **values: object) -> Record:
        """Convenience: build and add a record from keyword arguments."""
        record = Record(record_id, values)
        self.add(record)
        return record

    def replace(self, record: Record) -> Record:
        """Swap the record with ``record.record_id`` in place, keeping its
        position (so blocker/candidate iteration order is stable).

        Returns the previous record.  Raises KeyError if the id is absent
        and :class:`~repro.errors.SchemaError` on schema violations —
        mirrors :meth:`add`.
        """
        position = self._by_id.get(record.record_id)
        if position is None:
            raise KeyError(
                f"no record {record.record_id!r} in table {self.name!r}"
            )
        extra = set(record.attributes()) - set(self.attributes)
        if extra:
            raise SchemaError(
                f"record {record.record_id!r} has attributes outside the schema "
                f"of table {self.name!r}: {sorted(extra)}"
            )
        previous = self._records[position]
        self._records[position] = record
        return previous

    def remove(self, record_id: str) -> Record:
        """Delete a record by id, shifting later records down one position.

        O(|table|) — later records re-index, exactly as if the table had
        been built from scratch without the removed record (the property
        streaming equivalence tests rely on).
        """
        position = self._by_id.pop(record_id, None)
        if position is None:
            raise KeyError(f"no record {record_id!r} in table {self.name!r}")
        removed = self._records.pop(position)
        for later in self._records[position:]:
            self._by_id[later.record_id] -= 1
        return removed

    def snapshot(self) -> Tuple[Record, ...]:
        """The records, in order, for a later in-place :meth:`restore`.

        Records are immutable, so a shallow copy of the ordering is a full
        snapshot of the table's contents.
        """
        return tuple(self._records)

    def restore(self, records: Iterable[Record]) -> None:
        """Reset the contents *in place* to ``records`` (keeping identity).

        In-place so that every holder of this table object — candidate
        sets, blockers, sessions — observes the restored contents; used by
        streaming ingestion to roll back a failed batch.
        """
        self._records = list(records)
        self._by_id = {
            record.record_id: index
            for index, record in enumerate(self._records)
        }

    def get(self, record_id: str) -> Record:
        """Return the record with ``record_id`` (KeyError if absent)."""
        try:
            return self._records[self._by_id[record_id]]
        except KeyError:
            raise KeyError(
                f"no record {record_id!r} in table {self.name!r}"
            ) from None

    def position(self, record_id: str) -> int:
        """The record's position in table order (KeyError if absent)."""
        return self._by_id[record_id]

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._by_id

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index: int) -> Record:
        return self._records[index]

    def values(self, attribute: str) -> List[object]:
        """All values of one attribute, in record order (``None`` for missing)."""
        if attribute not in self.attributes:
            raise SchemaError(
                f"attribute {attribute!r} not in schema of table {self.name!r}"
            )
        return [record.get(attribute) for record in self._records]

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, {len(self)} records, "
            f"attributes={list(self.attributes)})"
        )
