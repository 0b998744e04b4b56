"""Feature memos — the "Γ" of Algorithms 2 and 4.

Two interchangeable backends implement the paper's §7.4 discussion:

* :class:`ArrayMemo` — a dense ``|C| × |F|`` float array with a validity
  bitmask.  O(1) access with tiny constants; memory is |C|·|F|·9 bytes
  whether or not entries are filled.  This is the paper's choice.
* :class:`HashMemo` — a dict keyed by ``(pair_index, feature_name)``.
  Pays hashing on every access but only stores what was computed — the
  alternative the paper suggests "for a data set where [the array does
  not fit in memory]".

Both persist across matching runs: dynamic memoing's payoff in the
debugging loop comes precisely from the memo surviving rule edits.

:class:`ValueCache` is the orthogonal *value-level* cache of Algorithm 2's
"hash table mapping pairs of attribute values to similarity function
outputs": two candidate pairs with identical attribute values share one
computation.  Matchers can layer it under either memo.
"""

from __future__ import annotations

import sys
import threading
from abc import ABC, abstractmethod
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..errors import UnknownFeatureError

#: Process-wide small integer ids of feature names (see :func:`feature_id`).
_FEATURE_IDS: Dict[str, int] = {}
_FEATURE_IDS_LOCK = threading.Lock()


def feature_id(feature_name: str) -> int:
    """A process-wide small integer id for ``feature_name``.

    Ids are handed out on first use and never change, so an evaluator can
    compile a rule's features into an int array once and address the
    columns of any :class:`ArrayMemo` through its
    :meth:`~ArrayMemo.column_map`, whatever the memo's column layout.
    """
    found = _FEATURE_IDS.get(feature_name)
    if found is None:
        with _FEATURE_IDS_LOCK:
            found = _FEATURE_IDS.setdefault(feature_name, len(_FEATURE_IDS))
    return found


class FeatureMemo(ABC):
    """Protocol shared by both memo backends."""

    @abstractmethod
    def get(self, pair_index: int, feature_name: str) -> Optional[float]:
        """Stored value, or ``None`` if not yet computed."""

    @abstractmethod
    def put(self, pair_index: int, feature_name: str, value: float) -> None:
        """Store a computed value."""

    @abstractmethod
    def contains(self, pair_index: int, feature_name: str) -> bool:
        """True iff the value is memoized (used by check-cache-first)."""

    @abstractmethod
    def items(self) -> Iterator[Tuple[int, str, float]]:
        """Iterate all memoized entries as ``(pair_index, feature_name, value)``.

        Order is backend-defined but deterministic for a given put history.
        """

    @abstractmethod
    def __len__(self) -> int:
        """Number of memoized entries."""

    @abstractmethod
    def nbytes(self) -> int:
        """Approximate resident bytes (for the §7.4 memory experiment)."""

    @abstractmethod
    def clear(self) -> None:
        """Drop all entries (fresh debugging session)."""

    @abstractmethod
    def invalidate_pairs(self, pair_indices: Iterable[int]) -> int:
        """Evict every memoized feature value of the given pairs.

        Streaming updates call this when a record changes: its incident
        pairs' feature values are stale, everything else stays warm.
        Returns the number of entries evicted.
        """

    @abstractmethod
    def snapshot(self) -> object:
        """An opaque copy of the memo's contents for later :meth:`restore`.

        Used by the refinement search's rollback API.  Because memoized
        feature values depend only on the record pair — never on the
        matching function — restoring a memo snapshot is *optional* for
        correctness after a rolled-back rule edit; it exists for callers
        that need byte-identical accounting (entry counts, fill
        fractions) as well.
        """

    @abstractmethod
    def restore(self, snapshot: object) -> None:
        """Reset the memo to a state captured by :meth:`snapshot`.

        The snapshot may be restored any number of times; restoring never
        consumes it.
        """

    @abstractmethod
    def with_rows(self, rows) -> "FeatureMemo":
        """A new memo in the row layout of a :class:`~repro.data.pairs.RowDelta`.

        Copy-on-write: entries of surviving pairs follow their rows, lost
        pairs' entries go, and gained rows start empty; ``self`` is not
        changed.  Streaming ingest calls this once per batch, so apart
        from C-level copies its cost follows the delta.
        """

    # -- row-batch access (the columnar engine's view) -------------------
    #
    # Generic implementations loop over the scalar accessors so every
    # backend works out of the box; ArrayMemo overrides them with single
    # fancy-indexed array operations.  Semantics are defined to match the
    # scalar accessors exactly (same entry accounting, same float64
    # read-back), which the engine's bit-identity property relies on.

    def valid_rows(self, feature_name: str, rows) -> np.ndarray:
        """Bool mask over ``rows``: which pairs have the feature memoized."""
        return np.fromiter(
            (self.contains(int(row), feature_name) for row in rows),
            dtype=bool,
            count=len(rows),
        )

    def get_rows(self, feature_name: str, rows) -> np.ndarray:
        """Memoized values for ``rows`` as float64 (all must be present)."""
        return np.fromiter(
            (self.get(int(row), feature_name) for row in rows),
            dtype=np.float64,
            count=len(rows),
        )

    def put_rows(self, feature_name: str, rows, values) -> None:
        """Store one value per row (the batched counterpart of ``put``)."""
        for row, value in zip(rows, values):
            self.put(int(row), feature_name, float(value))


class ArrayMemo(FeatureMemo):
    """Dense ``|C| × |F|`` array memo (the paper's implementation).

    Feature columns are allocated on first use; the column set may grow as
    the analyst introduces new features mid-session (``ensure_feature``),
    with geometric growth so amortized insertion stays O(1).

    ``dtype`` controls value-array precision.  The default ``float64``
    round-trips every Python float exactly (required for the bit-identity
    guarantees of the kernel layer); ``float32`` halves
    the value-array footprint at the cost of rounding stored scores to
    single precision on read-back.
    """

    def __init__(
        self,
        n_pairs: int,
        feature_names: Iterable[str] = (),
        dtype=np.float64,
    ):
        if n_pairs < 0:
            raise ValueError(f"n_pairs must be >= 0, got {n_pairs}")
        dtype = np.dtype(dtype)
        if dtype.kind != "f":
            raise ValueError(f"dtype must be a float dtype, got {dtype}")
        self.n_pairs = n_pairs
        self.dtype = dtype
        self._columns: Dict[str, int] = {}
        initial = list(feature_names)
        capacity = max(len(initial), 4)
        self._values = np.zeros((n_pairs, capacity), dtype=dtype)
        self._valid = np.zeros((n_pairs, capacity), dtype=bool)
        self._entries = 0
        # column_map()'s array; None until asked for, reset when a column
        # is added or the layout is replaced.
        self._column_map: Optional[np.ndarray] = None
        for name in initial:
            self.ensure_feature(name)

    def ensure_feature(self, feature_name: str) -> int:
        """Return the column index for ``feature_name``, allocating it if new."""
        column = self._columns.get(feature_name)
        if column is not None:
            return column
        column = len(self._columns)
        if column >= self._values.shape[1]:
            grown = max(4, self._values.shape[1] * 2)
            values = np.zeros((self.n_pairs, grown), dtype=self.dtype)
            valid = np.zeros((self.n_pairs, grown), dtype=bool)
            values[:, : self._values.shape[1]] = self._values
            valid[:, : self._valid.shape[1]] = self._valid
            self._values, self._valid = values, valid
        self._columns[feature_name] = column
        self._column_map = None
        return column

    def column_map(self) -> np.ndarray:
        """The memo column of every :func:`feature_id` handed out so far,
        as an int64 array indexed by id; -1 where the feature has no
        column.  Kept until a column is added or the layout replaced."""
        column_map = self._column_map
        if column_map is None or len(column_map) < len(_FEATURE_IDS):
            ids = [feature_id(name) for name in self._columns]
            column_map = np.full(len(_FEATURE_IDS), -1, dtype=np.int64)
            column_map[ids] = list(self._columns.values())
            self._column_map = column_map
        return column_map

    def has_entries(self, rows) -> np.ndarray:
        """Bool mask over ``rows``: which pairs have any memoized value."""
        return self._valid[rows].any(axis=1)

    def gather(self, rows, columns) -> Tuple[np.ndarray, np.ndarray]:
        """Validity and float64 values over ``rows`` x ``columns``.

        ``columns`` (any shape) are memo columns as :meth:`column_map`
        gives them; a column of -1 reads as invalid.  The blocks have
        shape ``(len(rows), *columns.shape)``; values of invalid entries
        are arbitrary.
        """
        valid = self._valid.take(rows, 0).take(columns, 1)
        if columns.size and columns.min() < 0:
            valid &= columns >= 0
        values = self._values.take(rows, 0).take(columns, 1)
        return valid, values.astype(np.float64, copy=False)

    def _column(self, feature_name: str) -> int:
        column = self._columns.get(feature_name)
        if column is None:
            raise UnknownFeatureError(
                f"feature {feature_name!r} has no memo column; call "
                f"ensure_feature first"
            )
        return column

    def get(self, pair_index: int, feature_name: str) -> Optional[float]:
        column = self._columns.get(feature_name)
        if column is None or not self._valid[pair_index, column]:
            return None
        return float(self._values[pair_index, column])

    def put(self, pair_index: int, feature_name: str, value: float) -> None:
        column = self.ensure_feature(feature_name)
        if not self._valid[pair_index, column]:
            self._entries += 1
        self._values[pair_index, column] = value
        self._valid[pair_index, column] = True

    def contains(self, pair_index: int, feature_name: str) -> bool:
        column = self._columns.get(feature_name)
        return column is not None and bool(self._valid[pair_index, column])

    def valid_rows(self, feature_name: str, rows) -> np.ndarray:
        column = self._columns.get(feature_name)
        if column is None:
            return np.zeros(len(rows), dtype=bool)
        return self._valid[rows, column]

    def get_rows(self, feature_name: str, rows) -> np.ndarray:
        # astype(float64) mirrors the scalar get()'s float() cast, so a
        # float32-backed memo reads back identically on both engines.
        column = self._column(feature_name)
        return self._values[rows, column].astype(np.float64)

    def put_rows(self, feature_name: str, rows, values) -> None:
        column = self.ensure_feature(feature_name)
        newly = int((~self._valid[rows, column]).sum())
        self._values[rows, column] = values
        self._valid[rows, column] = True
        self._entries += newly

    def fill_column(self, feature_name: str, values: np.ndarray) -> None:
        """Bulk-store a full column (used by the precomputation baselines)."""
        if len(values) != self.n_pairs:
            raise ValueError(
                f"column length {len(values)} != n_pairs {self.n_pairs}"
            )
        column = self.ensure_feature(feature_name)
        newly = int((~self._valid[:, column]).sum())
        self._values[:, column] = values
        self._valid[:, column] = True
        self._entries += newly

    def fill_fraction(self, feature_name: str) -> float:
        """Fraction of pairs whose value for this feature is memoized."""
        column = self._columns.get(feature_name)
        if column is None or self.n_pairs == 0:
            return 0.0
        return float(self._valid[:, column].mean())

    def items(self):
        for name, column in self._columns.items():
            valid = self._valid[:, column]
            for pair_index in np.flatnonzero(valid):
                yield int(pair_index), name, float(self._values[pair_index, column])

    def export_columns(self) -> Tuple[List[str], np.ndarray, np.ndarray]:
        """The memo as whole arrays: column names, the ``pairs x columns``
        validity mask, and the valid values in column-major order."""
        width = len(self._columns)
        valid = self._valid[:, :width]
        return list(self._columns), valid, self._values[:, :width].T[valid.T]

    @classmethod
    def from_columns(
        cls, n_pairs: int, names: List[str], valid: np.ndarray, values: np.ndarray
    ) -> "ArrayMemo":
        """Inverse of :meth:`export_columns`: one masked assignment."""
        memo = cls(n_pairs, names)
        width = len(names)
        memo._valid[:, :width] = valid
        memo._values[:, :width].T[valid.T] = values
        memo._entries = int(values.size)
        return memo

    def __len__(self) -> int:
        return self._entries

    def nbytes(self) -> int:
        # The column-name index is part of the memo's real footprint: with
        # hundreds of learned features its dict + key strings are not
        # negligible next to a small candidate set's arrays.
        index_bytes = sys.getsizeof(self._columns) + sum(
            sys.getsizeof(name) for name in self._columns
        )
        return int(self._values.nbytes + self._valid.nbytes + index_bytes)

    def clear(self) -> None:
        self._valid[:] = False
        self._entries = 0

    def invalidate_pairs(self, pair_indices: Iterable[int]) -> int:
        rows = np.unique(np.fromiter(pair_indices, dtype=np.int64))
        if rows.size == 0:
            return 0
        evicted = int(self._valid[rows, :].sum())
        self._valid[rows, :] = False
        self._entries -= evicted
        return evicted

    def snapshot(self) -> object:
        return (
            dict(self._columns),
            self._values.copy(),
            self._valid.copy(),
            self._entries,
        )

    def restore(self, snapshot: object) -> None:
        columns, values, valid, entries = snapshot
        self._columns = dict(columns)
        self._column_map = None
        self._values = values.copy()
        self._valid = valid.copy()
        self._entries = entries

    def with_rows(self, rows) -> "ArrayMemo":
        memo = ArrayMemo(0, dtype=self.dtype)
        memo.n_pairs = rows.size
        memo._columns = dict(self._columns)
        memo._values = rows.take(self._values, 0.0)
        memo._valid = rows.take(self._valid, False)
        memo._entries = int(np.count_nonzero(memo._valid))
        return memo

    def __repr__(self) -> str:
        return (
            f"ArrayMemo({self.n_pairs} pairs x {len(self._columns)} features, "
            f"{self._entries} entries, {self.nbytes() / 1e6:.1f} MB)"
        )


class HashMemo(FeatureMemo):
    """Sparse dict-backed memo — stores only computed entries."""

    #: rough CPython overhead of one dict entry (key tuple + float + slot).
    _BYTES_PER_ENTRY = 120

    def __init__(self, n_pairs: int = 0, feature_names: Iterable[str] = ()):
        # Signature mirrors ArrayMemo so the two are drop-in interchangeable;
        # the sizing arguments are advisory only.
        self.n_pairs = n_pairs
        self._store: Dict[Tuple[int, str], float] = {}
        # Every feature name ever stored, so a row's entries can be found
        # by probing instead of scanning the whole store.
        self._names: Set[str] = set()

    def ensure_feature(self, feature_name: str) -> None:
        """No-op (hash memos need no column allocation)."""

    def get(self, pair_index: int, feature_name: str) -> Optional[float]:
        return self._store.get((pair_index, feature_name))

    def put(self, pair_index: int, feature_name: str, value: float) -> None:
        self._store[(pair_index, feature_name)] = value
        self._names.add(feature_name)

    def contains(self, pair_index: int, feature_name: str) -> bool:
        return (pair_index, feature_name) in self._store

    def items(self):
        for (pair_index, name), value in self._store.items():
            yield pair_index, name, value

    def export_columns(self) -> Tuple[List[str], np.ndarray, np.ndarray]:
        """:meth:`ArrayMemo.export_columns`'s arrays, by a walk over the
        store (columns in first-seen order)."""
        columns: Dict[str, int] = {}
        for _, name in self._store:
            columns.setdefault(name, len(columns))
        valid = np.zeros((self.n_pairs, len(columns)), dtype=bool)
        dense = np.zeros((self.n_pairs, len(columns)), dtype=np.float64)
        for (pair_index, name), value in self._store.items():
            valid[pair_index, columns[name]] = True
            dense[pair_index, columns[name]] = value
        return list(columns), valid, dense.T[valid.T]

    @classmethod
    def from_columns(
        cls, n_pairs: int, names: List[str], valid: np.ndarray, values: np.ndarray
    ) -> "HashMemo":
        """Inverse of :meth:`export_columns`."""
        memo = cls(n_pairs, names)
        columns, rows = np.nonzero(valid.T)
        for row, column, value in zip(rows.tolist(), columns.tolist(), values.tolist()):
            memo.put(row, names[column], value)
        return memo

    def __len__(self) -> int:
        return len(self._store)

    def nbytes(self) -> int:
        return len(self._store) * self._BYTES_PER_ENTRY

    def clear(self) -> None:
        self._store.clear()

    def invalidate_pairs(self, pair_indices: Iterable[int]) -> int:
        store = self._store
        evicted = 0
        for pair_index in {int(index) for index in pair_indices}:
            for name in self._names:
                if store.pop((pair_index, name), None) is not None:
                    evicted += 1
        return evicted

    def snapshot(self) -> object:
        return dict(self._store), set(self._names)

    def restore(self, snapshot: object) -> None:
        store, names = snapshot
        self._store = dict(store)
        self._names = set(names)

    def with_rows(self, rows) -> "HashMemo":
        memo = HashMemo(rows.size)
        memo._names = set(self._names)
        store = memo._store = dict(self._store)
        for pair_index in rows.dropped.tolist():
            for name in self._names:
                store.pop((pair_index, name), None)
        for hole, mover in zip(rows.holes.tolist(), rows.movers.tolist()):
            for name in self._names:
                value = store.pop((mover, name), None)
                if value is not None:
                    store[(hole, name)] = value
        return memo

    def __repr__(self) -> str:
        return f"HashMemo({len(self._store)} entries)"


class ValueCache:
    """Cache keyed by attribute *values* rather than pair indices.

    Algorithm 2 stores "a hash table mapping pairs of attribute values to
    similarity function outputs": when many records share values (common
    for brands, categories, cities), distinct pairs reuse one computation.
    The key is symmetric-insensitive only if the measure is symmetric,
    which the package guarantees, so we canonicalize the value order.
    """

    def __init__(self):
        self._store: Dict[Tuple[str, object, object], float] = {}
        self.hits = 0
        self.misses = 0

    def lookup(
        self, feature_name: str, value_a: object, value_b: object
    ) -> Optional[float]:
        key = self._key(feature_name, value_a, value_b)
        cached = self._store.get(key)
        if cached is None:
            self.misses += 1
        else:
            self.hits += 1
        return cached

    def store(
        self, feature_name: str, value_a: object, value_b: object, value: float
    ) -> None:
        self._store[self._key(feature_name, value_a, value_b)] = value

    @staticmethod
    def _key(feature_name: str, value_a: object, value_b: object):
        first, second = str(value_a), str(value_b)
        if second < first:
            first, second = second, first
        return (feature_name, first, second)

    def __len__(self) -> int:
        return len(self._store)
