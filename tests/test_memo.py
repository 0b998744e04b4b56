"""Unit tests for the memo backends and the value cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ArrayMemo, HashMemo, ValueCache
from repro.errors import UnknownFeatureError


@pytest.fixture(params=["array", "hash"])
def memo(request):
    if request.param == "array":
        return ArrayMemo(10, ["f1", "f2"])
    return HashMemo(10, ["f1", "f2"])


class TestMemoProtocol:
    def test_get_missing_is_none(self, memo):
        assert memo.get(0, "f1") is None

    def test_put_get_round_trip(self, memo):
        memo.put(3, "f1", 0.75)
        assert memo.get(3, "f1") == 0.75

    def test_contains(self, memo):
        assert not memo.contains(3, "f1")
        memo.put(3, "f1", 0.5)
        assert memo.contains(3, "f1")
        assert not memo.contains(4, "f1")
        assert not memo.contains(3, "f2")

    def test_overwrite(self, memo):
        memo.put(1, "f1", 0.2)
        memo.put(1, "f1", 0.9)
        assert memo.get(1, "f1") == 0.9
        assert len(memo) == 1

    def test_len_counts_entries(self, memo):
        memo.put(0, "f1", 0.1)
        memo.put(1, "f1", 0.2)
        memo.put(0, "f2", 0.3)
        assert len(memo) == 3

    def test_clear(self, memo):
        memo.put(0, "f1", 0.1)
        memo.clear()
        assert len(memo) == 0
        assert memo.get(0, "f1") is None

    def test_zero_value_is_stored(self, memo):
        """0.0 is a legitimate similarity score and must not read as
        'absent' — the classic sentinel bug."""
        memo.put(2, "f1", 0.0)
        assert memo.get(2, "f1") == 0.0
        assert memo.contains(2, "f1")

    def test_nbytes_positive(self, memo):
        memo.put(0, "f1", 0.5)
        assert memo.nbytes() > 0


class TestArrayMemo:
    def test_new_feature_grows_columns(self):
        memo = ArrayMemo(5, ["f1"])
        memo.put(0, "brand_new", 0.4)  # implicit ensure_feature
        assert memo.get(0, "brand_new") == 0.4

    def test_many_feature_growth(self):
        memo = ArrayMemo(3)
        for index in range(40):
            memo.put(0, f"f{index}", index / 40)
        for index in range(40):
            assert memo.get(0, f"f{index}") == index / 40

    def test_get_unknown_feature_is_none(self):
        memo = ArrayMemo(5, ["f1"])
        assert memo.get(0, "never_registered") is None

    def test_fill_column(self):
        memo = ArrayMemo(4, ["f1"])
        memo.fill_column("f1", np.array([0.1, 0.2, 0.3, 0.4]))
        assert len(memo) == 4
        assert memo.get(2, "f1") == pytest.approx(0.3)

    def test_fill_column_wrong_length(self):
        memo = ArrayMemo(4, ["f1"])
        with pytest.raises(ValueError):
            memo.fill_column("f1", np.array([0.1]))

    def test_fill_fraction(self):
        memo = ArrayMemo(4, ["f1"])
        assert memo.fill_fraction("f1") == 0.0
        memo.put(0, "f1", 0.5)
        assert memo.fill_fraction("f1") == pytest.approx(0.25)

    def test_nbytes_is_dense(self):
        # Dense memo pays for capacity, not occupancy (the §7.4 tradeoff).
        empty = ArrayMemo(1000, ["f1", "f2"]).nbytes()
        filled = ArrayMemo(1000, ["f1", "f2"])
        filled.put(0, "f1", 0.5)
        assert filled.nbytes() == empty

    def test_negative_pairs_rejected(self):
        with pytest.raises(ValueError):
            ArrayMemo(-1)


class TestArrayMemoColumnMap:
    """The memo-side half of the per-pair decision pass: feature ids to
    this memo's columns, and gathers over them."""

    def test_map_follows_new_columns_and_restores(self):
        from repro.core.memo import feature_id

        memo = ArrayMemo(4, ["f1", "f2"])
        snapshot = memo.snapshot()
        column_map = memo.column_map()
        assert column_map[feature_id("f2")] == 1
        memo.put(0, "f3", 0.5)
        assert memo.column_map()[feature_id("f3")] == 2
        memo.restore(snapshot)
        memo.put(0, "f4", 0.25)  # f4 takes the column f3 had
        column_map = memo.column_map()
        assert column_map[feature_id("f3")] == -1
        assert column_map[feature_id("f4")] == 2

    def test_gather_reads_rows_by_columns(self):
        memo = ArrayMemo(4, ["f1", "f2"])
        memo.put(1, "f1", 0.25)
        memo.put(3, "f2", 0.75)
        columns = np.array([[1, 0], [-1, 1]])
        valid, values = memo.gather(np.array([3, 1]), columns)
        assert valid.shape == values.shape == (2, 2, 2)
        assert valid[:, 0].tolist() == [[True, False], [False, True]]
        assert not valid[:, 1, 0].any()  # column -1: no column
        assert values[0, 0, 0] == 0.75 and values[1, 0, 1] == 0.25
        assert memo.has_entries(np.array([0, 1, 2, 3])).tolist() == [
            False, True, False, True
        ]


class TestArrayMemoDtype:
    def test_default_is_float64(self):
        memo = ArrayMemo(4, ["f1"])
        assert memo.dtype == np.float64

    def test_float32_round_trip(self):
        memo = ArrayMemo(4, ["f1"], dtype=np.float32)
        memo.put(0, "f1", 0.1)
        assert memo.get(0, "f1") == np.float32(0.1)
        assert memo.contains(0, "f1")

    def test_float32_halves_value_storage(self):
        wide = ArrayMemo(1000, ["f1", "f2"])
        narrow = ArrayMemo(1000, ["f1", "f2"], dtype=np.float32)
        # Value arrays halve; the validity bitmap and index are unchanged.
        assert narrow._values.nbytes * 2 == wide._values.nbytes
        assert (
            wide.nbytes() - narrow.nbytes()
            == wide._values.nbytes - narrow._values.nbytes
        )

    def test_growth_preserves_dtype(self):
        memo = ArrayMemo(4, dtype=np.float32)
        for index in range(40):
            memo.put(0, f"f{index}", 0.5)
        assert memo._values.dtype == np.float32

    def test_non_float_dtype_rejected(self):
        with pytest.raises(ValueError):
            ArrayMemo(4, ["f1"], dtype=np.int64)


class TestArrayMemoNbytesAudit:
    def test_nbytes_includes_the_column_index(self):
        """The audit counts the name->column dict, not just the arrays.

        With many features over few pairs the index dict is a real share
        of the footprint; nbytes must exceed the raw array bytes.
        """
        memo = ArrayMemo(2, [f"feature_{index}" for index in range(50)])
        arrays_only = memo._values.nbytes + memo._valid.nbytes
        assert memo.nbytes() > arrays_only

    def test_nbytes_grows_with_new_columns(self):
        memo = ArrayMemo(10, ["f1"])
        before = memo.nbytes()
        memo.put(0, "another_feature", 0.5)
        assert memo.nbytes() > before


class TestHashMemoSparsity:
    def test_nbytes_scales_with_occupancy(self):
        sparse = HashMemo(1000)
        sparse.put(0, "f1", 0.5)
        dense = HashMemo(1000)
        for index in range(100):
            dense.put(index, "f1", 0.5)
        assert dense.nbytes() > sparse.nbytes()


class TestItems:
    def test_items_round_trip(self, memo):
        memo.put(0, "f1", 0.1)
        memo.put(3, "f2", 0.0)
        memo.put(9, "f1", 1.0)
        assert sorted(memo.items()) == [(0, "f1", 0.1), (3, "f2", 0.0), (9, "f1", 1.0)]

    def test_items_empty(self, memo):
        assert list(memo.items()) == []

    def test_backends_items_agree(self):
        array_memo = ArrayMemo(5, ["f1"])
        hash_memo = HashMemo(5, ["f1"])
        for pair_index, feature, value in [(0, "f1", 0.5), (2, "f2", 0.0), (4, "f1", 1.0)]:
            array_memo.put(pair_index, feature, value)
            hash_memo.put(pair_index, feature, value)
        assert sorted(array_memo.items()) == sorted(hash_memo.items())


class TestInvalidatePairs:
    """Streaming eviction of whole memo rows."""

    def test_evicts_all_features_of_given_pairs(self, memo):
        memo.put(0, "f1", 0.1)
        memo.put(0, "f2", 0.2)
        memo.put(1, "f1", 0.3)
        evicted = memo.invalidate_pairs([0])
        assert evicted == 2
        assert memo.get(0, "f1") is None
        assert memo.get(0, "f2") is None
        assert memo.get(1, "f1") == 0.3
        assert len(memo) == 1

    def test_duplicate_indices_counted_once(self, memo):
        memo.put(2, "f1", 0.5)
        assert memo.invalidate_pairs([2, 2, 2]) == 1
        assert len(memo) == 0

    def test_empty_iterable_is_noop(self, memo):
        memo.put(0, "f1", 0.5)
        assert memo.invalidate_pairs([]) == 0
        assert len(memo) == 1

    def test_untouched_pairs_keep_entries(self, memo):
        for pair_index in range(5):
            memo.put(pair_index, "f1", float(pair_index))
        memo.invalidate_pairs([1, 3])
        assert [memo.get(index, "f1") for index in range(5)] == [
            0.0, None, 2.0, None, 4.0,
        ]

    def test_reput_after_invalidate(self, memo):
        memo.put(0, "f1", 0.5)
        memo.invalidate_pairs([0])
        memo.put(0, "f1", 0.7)
        assert memo.get(0, "f1") == 0.7
        assert len(memo) == 1


class TestValueCache:
    def test_round_trip(self):
        cache = ValueCache()
        cache.store("jaccard", "red apple", "apple red", 0.8)
        assert cache.lookup("jaccard", "red apple", "apple red") == 0.8

    def test_symmetric_key(self):
        cache = ValueCache()
        cache.store("jaccard", "x", "y", 0.5)
        assert cache.lookup("jaccard", "y", "x") == 0.5

    def test_distinct_features_distinct_entries(self):
        cache = ValueCache()
        cache.store("jaccard", "x", "y", 0.5)
        assert cache.lookup("cosine", "x", "y") is None

    def test_hit_miss_counters(self):
        cache = ValueCache()
        cache.lookup("f", "a", "b")
        cache.store("f", "a", "b", 1.0)
        cache.lookup("f", "a", "b")
        assert cache.misses == 1
        assert cache.hits == 1


@given(
    entries=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.sampled_from(["f1", "f2", "f3"]),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_backends_agree(entries):
    """Property: both memo backends expose identical contents after any
    put sequence (last write wins)."""
    array_memo = ArrayMemo(10, ["f1"])
    hash_memo = HashMemo(10, ["f1"])
    for pair_index, feature, value in entries:
        array_memo.put(pair_index, feature, value)
        hash_memo.put(pair_index, feature, value)
    for pair_index in range(10):
        for feature in ("f1", "f2", "f3"):
            assert array_memo.get(pair_index, feature) == hash_memo.get(
                pair_index, feature
            )
    assert len(array_memo) == len(hash_memo)
