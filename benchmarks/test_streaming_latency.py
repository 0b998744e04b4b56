"""Streaming engine — single-delta ingest latency vs full re-match (books).

Not a paper figure: the paper's debugging loop holds the data fixed.
This benchmark verifies the engineering claim of :mod:`repro.streaming` —
a record-level delta is absorbed by re-matching only the affected pairs,
orders of magnitude fewer than the candidate set, so ingest latency is a
small fraction of a from-scratch block+match of the post-delta tables.

The speedup assertion (>= 3x over full re-match) is gated on the measured
full-rematch time being large enough to resolve (>= 50 ms); on hosts
where the whole workload re-matches in noise-level time the sweep still
runs and reports measured numbers, since equivalence of the streaming
state is asserted unconditionally by the test suite proper
(``tests/test_streaming.py``).

A second, smaller books scale checks that ingest cost follows the delta,
not the candidate set: from the small scale to the full one the candidate
count grows about 16x (quadratically in scale) but the updated record's
pairs only about 4x, so the ingest-time ratio must stay at most half the
candidate-count ratio.  A ratio of two times on one host, not an absolute
time.
"""

import time

import pytest

from repro.core import DebugSession
from repro.data.datasets import load_dataset
from repro.learning.workload import build_workload, default_blocker
from repro.streaming import Delta, StreamingSession

from conftest import print_series

_RESULTS = {}


@pytest.fixture(scope="module")
def books_function():
    return build_workload(
        "books", seed=7, n_trees=96, max_depth=9, max_rules=80
    ).function


#: the smaller books scale of the ingest-scaling floor.
SMALL_SCALE = 0.25


def _fresh_streaming(books_function, scale=1.0):
    dataset = load_dataset("books", seed=7, scale=scale)
    streaming = StreamingSession(
        dataset.table_a,
        dataset.table_b,
        default_blocker("books"),
        books_function,
        gold=dataset.gold,
    )
    streaming.run()
    return streaming


def _time_single_delta_ingest(benchmark, books_function, scale):
    """Min time of one non-blocking-attribute update (invalidate +
    re-match of the incident pairs), with its affected and total pairs."""
    streaming = _fresh_streaming(books_function, scale)
    record_id = streaming.table_a[0].record_id
    counter = [0]

    def ingest_one():
        counter[0] += 1
        return streaming.ingest(
            Delta.update("a", record_id, author=f"renamed {counter[0]}")
        )

    result = benchmark.pedantic(ingest_one, rounds=5, iterations=1)
    assert result.affected > 0
    return (
        min(benchmark.stats.stats.data),
        result.affected,
        len(streaming.candidates),
    )


def test_single_delta_ingest(benchmark, books_function):
    """One non-blocking-attribute update: invalidate + re-match incident pairs."""
    _RESULTS["ingest"] = _time_single_delta_ingest(benchmark, books_function, 1.0)


def test_single_delta_ingest_small_scale(benchmark, books_function):
    """The same update at the smaller books scale (the scaling floor)."""
    _RESULTS["ingest_small"] = _time_single_delta_ingest(
        benchmark, books_function, SMALL_SCALE
    )


def test_full_rematch_baseline(benchmark, books_function):
    """The do-nothing-clever baseline: block + match the tables from scratch."""
    streaming = _fresh_streaming(books_function)
    streaming.ingest(
        Delta.update("a", streaming.table_a[0].record_id, author="renamed")
    )

    def full_rematch():
        candidates = default_blocker("books").block(
            streaming.table_a, streaming.table_b
        )
        session = DebugSession(
            candidates, streaming.function, ordering="original"
        )
        session.run()
        return session

    session = benchmark.pedantic(full_rematch, rounds=3, iterations=1)
    assert session.state is not None
    _RESULTS["full"] = (min(benchmark.stats.stats.data), len(session.candidates))


def test_streaming_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not {"ingest", "ingest_small", "full"} <= set(_RESULTS):
        pytest.skip("needs every timing point")
    ingest_seconds, affected, total_pairs = _RESULTS["ingest"]
    small_seconds, small_affected, small_pairs = _RESULTS["ingest_small"]
    full_seconds, full_pairs = _RESULTS["full"]
    speedup = full_seconds / ingest_seconds if ingest_seconds else float("inf")
    time_ratio = ingest_seconds / small_seconds
    pairs_ratio = total_pairs / small_pairs
    print_series(
        "Streaming: single-delta ingest vs full re-match (books)",
        ["path", "time", "pairs matched", "candidates", "speedup"],
        [
            [f"ingest (delta, scale {SMALL_SCALE})", f"{small_seconds * 1000:.1f}ms",
             small_affected, small_pairs, ""],
            ["ingest (delta)", f"{ingest_seconds * 1000:.1f}ms", affected,
             total_pairs, f"{speedup:.1f}x"],
            ["full re-match", f"{full_seconds * 1000:.1f}ms", full_pairs,
             full_pairs, "1.0x"],
        ],
    )
    print(
        f"ingest time ratio {time_ratio:.2f}x over a {pairs_ratio:.1f}x "
        f"candidate ratio ({affected / small_affected:.1f}x affected pairs)"
    )
    assert time_ratio <= pairs_ratio / 2, (
        f"ingest time grew {time_ratio:.1f}x for {pairs_ratio:.1f}x candidates; "
        f"a per-delta cost that follows the delta stays under {pairs_ratio / 2:.1f}x"
    )
    # Only assert where the baseline is big enough to measure reliably.
    if full_seconds >= 0.05:
        assert speedup >= 3.0, (
            f"expected >= 3x ingest speedup over full re-match "
            f"({full_seconds * 1000:.0f}ms baseline), measured {speedup:.2f}x"
        )
