"""Tests for the parallel matching engine (:mod:`repro.parallel`).

The invariant under test throughout: every observable output of a parallel
run — labels, summed stats counters, memo contents, materialized state —
is bit-identical to a serial :class:`DynamicMemoMatcher` run, whatever
worker count, chunking, or fault-recovery path produced it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core import (
    CostEstimator,
    DebugSession,
    DynamicMemoMatcher,
    Feature,
    MatchingFunction,
    Predicate,
    Rule,
    parse_function,
)
from repro.core.parser import registry_resolver
from repro.data import CandidateSet, Record, Table
from repro.errors import ParallelExecutionError
from repro.learning import build_workload
from repro.parallel import (
    ChunkTask,
    ParallelMatcher,
    build_chunk_task,
    plan_partition,
    run_chunk,
    serialize_function,
)
from repro.parallel.partitioner import Chunk, PartitionPlan
from repro.similarity import Corpus, Jaccard, TfIdf
from repro.workbench import Workbench, WorkbenchError

# ----------------------------------------------------------------------
# Shared fixtures
# ----------------------------------------------------------------------

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]


def make_tables(n_a=20, n_b=20, seed=0):
    rng = np.random.default_rng(seed)

    def record(prefix, index):
        return Record(
            f"{prefix}{index}",
            {
                "name": " ".join(rng.choice(WORDS, size=3)),
                "code": str(rng.integers(1, 60)),
            },
        )

    table_a = Table("A", ("name", "code"), (record("a", i) for i in range(n_a)))
    table_b = Table("B", ("name", "code"), (record("b", i) for i in range(n_b)))
    return table_a, table_b


def cross_candidates(table_a, table_b, limit=None):
    pairs = [(a.record_id, b.record_id) for a in table_a for b in table_b]
    if limit is not None:
        pairs = pairs[:limit]
    return CandidateSet.from_id_pairs(table_a, table_b, pairs)


@pytest.fixture(scope="module")
def small_workload():
    table_a, table_b = make_tables(20, 20)
    candidates = cross_candidates(table_a, table_b)
    function = parse_function(
        "R1: jaccard_ws(name, name) >= 0.3 and levenshtein(code, code) >= 0.5; "
        "R2: jaro(name, name) >= 0.8",
        registry_resolver(),
    )
    return candidates, function


# Fast-chunking settings so even a 400-pair set splits across workers.
FAST = dict(min_chunk_size=8, target_chunk_seconds=0.001)


# ----------------------------------------------------------------------
# Partitioner
# ----------------------------------------------------------------------


class TestPartitioner:
    def test_tiles_exactly(self):
        plan = plan_partition(1000, workers=4, min_chunk_size=16)
        plan.validate()
        assert plan.chunks[0].start == 0
        assert plan.chunks[-1].stop == 1000
        assert sum(len(chunk) for chunk in plan.chunks) == 1000

    def test_respects_min_chunk_size(self):
        plan = plan_partition(1000, workers=8, min_chunk_size=400)
        assert all(len(chunk) >= 400 for chunk in plan.chunks[:-1])

    def test_bounded_chunk_count(self):
        plan = plan_partition(100_000, workers=4, chunks_per_worker=4)
        assert len(plan.chunks) <= 16

    def test_small_input_single_chunk(self):
        plan = plan_partition(10, workers=4, min_chunk_size=64)
        assert len(plan.chunks) == 1
        assert len(plan.chunks[0]) == 10

    def test_zero_pairs(self):
        plan = plan_partition(0, workers=4)
        assert plan.chunks == []
        plan.validate()

    def test_no_trailing_sliver(self):
        # 1000 pairs at size ~64: the tail must be glued, not a tiny chunk.
        plan = plan_partition(1001, workers=2, min_chunk_size=64)
        assert len(plan.chunks[-1]) >= 32

    def test_cost_model_sizing(self, small_workload):
        candidates, function = small_workload
        estimator = CostEstimator(sample_fraction=1.0, min_sample=1, mode="calibrated")
        estimates = estimator.estimate(function, candidates)
        plan = plan_partition(
            len(candidates),
            workers=2,
            function=function,
            estimates=estimates,
            min_chunk_size=1,
        )
        plan.validate()
        assert plan.estimated_pair_seconds is not None
        assert plan.estimated_pair_seconds > 0

    def test_invalid_arguments(self):
        with pytest.raises(ParallelExecutionError):
            plan_partition(-1, workers=2)
        with pytest.raises(ParallelExecutionError):
            plan_partition(10, workers=0)

    def test_validate_catches_bad_tiling(self):
        plan = PartitionPlan(10, [Chunk(0, 0, 4), Chunk(1, 5, 10)])
        with pytest.raises(ParallelExecutionError):
            plan.validate()


# ----------------------------------------------------------------------
# Payload serialization
# ----------------------------------------------------------------------


class TestPayload:
    def test_round_trip_registry_features(self, small_workload):
        _, function = small_workload
        rebuilt = serialize_function(function).materialize()
        assert [rule.name for rule in rebuilt.rules] == [
            rule.name for rule in function.rules
        ]
        for original, copy in zip(function.rules, rebuilt.rules):
            for p_original, p_copy in zip(original.predicates, copy.predicates):
                assert p_copy.threshold == p_original.threshold
                assert p_copy.op == p_original.op
                assert p_copy.feature.name == p_original.feature.name

    def test_round_trip_preserves_exact_thresholds(self):
        # 1/3 is not representable in 6 significant digits — the default
        # DSL formatting would corrupt it and could flip labels.
        feature = Feature(Jaccard(), "name", "name")
        function = MatchingFunction(
            [Rule("r1", [Predicate(feature, ">=", 1.0 / 3.0)])]
        )
        rebuilt = serialize_function(function).materialize()
        assert rebuilt.rules[0].predicates[0].threshold == 1.0 / 3.0

    def test_corpus_bound_feature_travels_by_object(self):
        corpus = Corpus.from_values(["alpha beta", "beta gamma", "alpha gamma"])
        sim = TfIdf()
        sim.bind_corpus(corpus)
        feature = Feature(sim, "name", "name")
        function = MatchingFunction(
            [Rule("r1", [Predicate(feature, ">=", 0.1)])]
        )
        serialized = serialize_function(function)
        assert serialized.pickled_features  # shipped by object, not text
        rebuilt = serialize_function(function).materialize()
        rebuilt_sim = rebuilt.rules[0].predicates[0].feature.sim
        record_x = Record("x", {"name": "alpha beta"})
        record_y = Record("y", {"name": "beta gamma"})
        assert rebuilt.rules[0].predicates[0].feature.compute(
            record_x, record_y
        ) == feature.compute(record_x, record_y)
        assert rebuilt_sim is not sim  # a copy, not a shared object

    def test_unpicklable_feature_raises(self):
        class LocalSim(Jaccard):  # local classes cannot pickle by reference
            pass

        feature = Feature(LocalSim(), "name", "name", name="custom_name")
        function = MatchingFunction(
            [Rule("r1", [Predicate(feature, ">=", 0.5)])]
        )
        with pytest.raises(ParallelExecutionError):
            serialize_function(function)

    def test_build_chunk_task_slices_records(self, small_workload):
        candidates, function = small_workload
        serialized = serialize_function(function)
        chunk = Chunk(0, 0, 20)  # first 20 pairs: a0 x all b
        task = build_chunk_task(chunk, candidates, serialized)
        assert len(task) == 20
        assert len(task.records_a) == 1  # only a0 referenced
        assert len(task.records_b) == 20

    def test_run_chunk_is_pure_and_local(self, small_workload):
        candidates, function = small_workload
        serialized = serialize_function(function)
        chunk = Chunk(3, 40, 80)
        task = build_chunk_task(chunk, candidates, serialized)
        outcome = run_chunk(task)
        serial = DynamicMemoMatcher().run(function, candidates)
        assert np.array_equal(outcome.labels, serial.labels[40:80])
        # memo entries are local indices within the chunk
        assert all(0 <= index < 40 for index, _, _ in outcome.memo_entries)


# ----------------------------------------------------------------------
# Executor: parallel == serial
# ----------------------------------------------------------------------


class TestParallelEquality:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_labels_stats_memo_identical(self, small_workload, workers):
        candidates, function = small_workload
        serial_matcher = DynamicMemoMatcher()
        serial = serial_matcher.run(function, candidates)

        matcher = ParallelMatcher(workers=workers, **FAST)
        parallel = matcher.run(function, candidates)

        assert matcher.fallback_reason is None
        assert len(matcher.last_plan.chunks) > 1
        assert np.array_equal(serial.labels, parallel.labels)
        assert parallel.stats.feature_computations == serial.stats.feature_computations
        assert parallel.stats.predicate_evaluations == serial.stats.predicate_evaluations
        assert parallel.stats.rule_evaluations == serial.stats.rule_evaluations
        assert parallel.stats.pairs_evaluated == serial.stats.pairs_evaluated
        assert parallel.stats.pairs_matched == serial.stats.pairs_matched
        assert (
            parallel.stats.computations_by_feature
            == serial.stats.computations_by_feature
        )
        assert sorted(matcher.last_memo.items()) == sorted(
            serial_matcher.last_memo.items()
        )

    def test_memo_merges_into_supplied_memo(self, small_workload):
        from repro.core import ArrayMemo

        candidates, function = small_workload
        memo = ArrayMemo(len(candidates), [f.name for f in function.features()])
        matcher = ParallelMatcher(workers=2, memo=memo, **FAST)
        matcher.run(function, candidates)
        serial_matcher = DynamicMemoMatcher()
        serial_matcher.run(function, candidates)
        assert sorted(memo.items()) == sorted(serial_matcher.last_memo.items())

    def test_phase_and_worker_instrumentation(self, small_workload):
        candidates, function = small_workload
        matcher = ParallelMatcher(workers=2, **FAST)
        result = matcher.run(function, candidates)
        assert set(result.stats.phase_seconds) == {
            "partition", "serialize", "execute", "stitch",
        }
        timings = result.stats.worker_timings
        assert [t.chunk_id for t in timings] == list(range(len(matcher.last_plan)))
        assert sum(t.pairs for t in timings) == len(candidates)
        assert all(t.attempts == 1 and not t.fallback for t in timings)

    def test_trace_replay_matches_serial_recorder(self, small_workload):
        from repro.core import TraceLog

        candidates, function = small_workload
        serial_log = TraceLog()
        DynamicMemoMatcher(recorder=serial_log).run(function, candidates)
        parallel_log = TraceLog()
        ParallelMatcher(workers=2, recorder=parallel_log, **FAST).run(
            function, candidates
        )
        assert sorted(parallel_log.rule_matches) == sorted(serial_log.rule_matches)
        assert sorted(parallel_log.predicate_falses) == sorted(
            serial_log.predicate_falses
        )

    def test_empty_candidate_set(self, small_workload):
        _, function = small_workload
        table_a, table_b = make_tables(2, 2)
        empty = CandidateSet.from_id_pairs(table_a, table_b, [])
        result = ParallelMatcher(workers=2, **FAST).run(function, empty)
        assert len(result.labels) == 0
        assert result.stats.pairs_evaluated == 0


# ----------------------------------------------------------------------
# Robustness: retry, fallback, broken pool
# ----------------------------------------------------------------------


class TestFaultRecovery:
    def test_failing_once_retries_in_pool(self, small_workload):
        candidates, function = small_workload
        serial = DynamicMemoMatcher().run(function, candidates)
        matcher = ParallelMatcher(
            workers=2, fault_plan={1: (1, "raise")}, **FAST
        )
        result = matcher.run(function, candidates)
        assert np.array_equal(result.labels, serial.labels)
        retried = [t for t in result.stats.worker_timings if t.chunk_id == 1]
        assert retried[0].attempts == 2
        assert not retried[0].fallback
        assert "retried" in matcher.fallback_reason

    def test_failing_twice_falls_back_to_parent(self, small_workload):
        candidates, function = small_workload
        serial = DynamicMemoMatcher().run(function, candidates)
        matcher = ParallelMatcher(
            workers=2, fault_plan={1: (2, "raise")}, **FAST
        )
        result = matcher.run(function, candidates)
        assert np.array_equal(result.labels, serial.labels)
        fallen = [t for t in result.stats.worker_timings if t.chunk_id == 1]
        assert fallen[0].fallback
        assert fallen[0].attempts == 3
        assert "failed twice" in matcher.fallback_reason

    def test_killed_worker_breaks_pool_and_recovers(self, small_workload):
        # os._exit in a worker simulates OOM-kill/segfault: the whole pool
        # breaks and every unfinished chunk must run in the parent.
        candidates, function = small_workload
        serial = DynamicMemoMatcher().run(function, candidates)
        matcher = ParallelMatcher(
            workers=2, fault_plan={1: (1, "exit")}, **FAST
        )
        result = matcher.run(function, candidates)
        assert np.array_equal(result.labels, serial.labels)
        assert "pool broke" in matcher.fallback_reason
        assert any(t.fallback for t in result.stats.worker_timings)

    @pytest.mark.parametrize(
        "error, failing_call, reason",
        [
            # A worker that dies while tasks are still being submitted
            # breaks the pool under the submit loop.
            (BrokenProcessPool("a worker died"), 2, "pool broke: BrokenProcessPool"),
            # Workers start on the first submit, so a pool that cannot
            # start them fails there.
            (RuntimeError("can't start new thread"), 1,
             "pool start failed: RuntimeError"),
        ],
        ids=["broken", "start_failed"],
    )
    def test_pool_failing_during_submission_runs_every_chunk_in_parent(
        self, small_workload, monkeypatch, error, failing_call, reason
    ):
        candidates, function = small_workload
        serial = DynamicMemoMatcher().run(function, candidates)
        submit, shutdown = ProcessPoolExecutor.submit, ProcessPoolExecutor.shutdown
        submitted, shut_down = [], []

        def failing_submit(pool, *args, **kwargs):
            submitted.append(pool)
            if len(submitted) == failing_call:
                raise error
            return submit(pool, *args, **kwargs)

        def recording_shutdown(pool, *args, **kwargs):
            shut_down.append(pool)
            return shutdown(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", failing_submit)
        monkeypatch.setattr(ProcessPoolExecutor, "shutdown", recording_shutdown)
        matcher = ParallelMatcher(workers=2, **FAST)
        result = matcher.run(function, candidates)
        assert np.array_equal(result.labels, serial.labels)
        assert matcher.fallback_reason.startswith(reason)
        assert shut_down == [submitted[0]]
        assert all(timing.fallback for timing in result.stats.worker_timings)

    def test_memo_correct_after_fallback(self, small_workload):
        candidates, function = small_workload
        serial_matcher = DynamicMemoMatcher()
        serial_matcher.run(function, candidates)
        matcher = ParallelMatcher(
            workers=2, fault_plan={0: (2, "raise")}, **FAST
        )
        matcher.run(function, candidates)
        assert sorted(matcher.last_memo.items()) == sorted(
            serial_matcher.last_memo.items()
        )


class TestSerialPaths:
    def test_workers_one_runs_serial(self, small_workload):
        candidates, function = small_workload
        serial = DynamicMemoMatcher().run(function, candidates)
        matcher = ParallelMatcher(workers=1)
        result = matcher.run(function, candidates)
        assert np.array_equal(result.labels, serial.labels)
        assert matcher.fallback_reason is not None

    def test_single_chunk_plan_runs_serial(self, small_workload):
        candidates, function = small_workload
        matcher = ParallelMatcher(workers=4, min_chunk_size=10_000)
        result = matcher.run(function, candidates)
        assert matcher.fallback_reason is not None
        assert result.stats.pairs_evaluated == len(candidates)

    def test_unserializable_function_falls_back(self, small_workload):
        candidates, _ = small_workload

        class LocalSim(Jaccard):
            pass

        feature = Feature(LocalSim(), "name", "name", name="local")
        function = MatchingFunction(
            [Rule("r1", [Predicate(feature, ">=", 0.5)])]
        )
        serial = DynamicMemoMatcher().run(function, candidates)
        matcher = ParallelMatcher(workers=2, **FAST)
        result = matcher.run(function, candidates)
        assert "not serializable" in matcher.fallback_reason
        assert np.array_equal(result.labels, serial.labels)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ParallelExecutionError):
            ParallelMatcher(workers=0)


class TestSerialFallbackStats:
    """The serial-fallback path stamps stats like the pool path does.

    ``elapsed_seconds`` must be measured from the *parallel run's* start
    (covering partitioning too, not just the matcher), and
    ``phase_seconds`` must keep the partition phase plus a ``match``
    entry, so fallback runs stay comparable with pool runs in dashboards
    and in the metrics registry.
    """

    def _assert_stamped(self, result):
        phases = result.stats.phase_seconds
        assert "partition" in phases
        assert "match" in phases
        assert phases["match"] > 0.0
        # measured from run() entry, so it covers partition + match
        assert result.stats.elapsed_seconds >= phases["match"]

    def test_workers_one_path(self, small_workload):
        candidates, function = small_workload
        result = ParallelMatcher(workers=1).run(function, candidates)
        self._assert_stamped(result)

    def test_single_chunk_path(self, small_workload):
        candidates, function = small_workload
        result = ParallelMatcher(workers=4, min_chunk_size=10_000).run(
            function, candidates
        )
        self._assert_stamped(result)

    def test_unserializable_function_path(self, small_workload):
        candidates, _ = small_workload

        class LocalSim(Jaccard):
            pass

        feature = Feature(LocalSim(), "name", "name", name="local2")
        function = MatchingFunction(
            [Rule("r1", [Predicate(feature, ">=", 0.5)])]
        )
        matcher = ParallelMatcher(workers=2, **FAST)
        result = matcher.run(function, candidates)
        assert "not serializable" in matcher.fallback_reason
        self._assert_stamped(result)


class TestTraceReplayWithState:
    """``TraceLog.replay_into`` at a nonzero offset, composed with the
    streaming state transforms (``with_rows`` / ``forget_pairs``) — the
    exact seam a parallel re-match of a streaming batch exercises."""

    @pytest.fixture()
    def setup(self):
        table_a, table_b = make_tables(6, 6, seed=3)
        candidates = cross_candidates(table_a, table_b)
        function = parse_function(
            "R1: jaccard_ws(name, name) >= 0.3; R2: jaro(name, name) >= 0.8",
            registry_resolver(),
        )
        return table_a, table_b, candidates, function

    def _replayed_state(self, candidates, function, offset, size):
        from repro.core.matchers import TraceLog
        from repro.core.memo import ArrayMemo
        from repro.core.state import MatchState

        chunk = candidates.subset(range(offset, offset + size))
        trace = TraceLog()
        chunk_result = DynamicMemoMatcher(recorder=trace).run(function, chunk)
        names = [feature.name for feature in function.features()]
        state = MatchState(function, candidates, ArrayMemo(len(candidates), names))
        trace.replay_into(state, index_offset=offset)
        state.labels[offset:offset + size] = chunk_result.labels
        return state, trace

    def test_offset_replay_lands_on_global_indices(self, setup):
        _, _, candidates, function = setup
        offset, size = 10, 8
        state, trace = self._replayed_state(candidates, function, offset, size)
        assert len(trace) > 0
        for local_index, rule_name in trace.rule_matches:
            assert local_index + offset in state.matched_by_rule(rule_name)
        for local_index, rule_name, slot in trace.predicate_falses:
            assert local_index + offset in state.failed_predicate(rule_name, slot)
        # no fact leaked outside the chunk's global index range
        fact_indices = {
            index
            for rule in function.rules
            for index in state.matched_by_rule(rule.name)
        } | {
            index
            for rule in function.rules
            for predicate in rule.predicates
            for index in state.failed_predicate(rule.name, predicate.slot)
        }
        assert all(offset <= index < offset + size for index in fact_indices)

    def test_replayed_facts_survive_remap_then_forget(self, setup):
        table_a, table_b, candidates, function = setup
        offset, size = 24, 10
        state, trace = self._replayed_state(candidates, function, offset, size)

        # lose the first 12 pairs: the swap-remove step moves the tail
        # (rows 24..35) into their holes, so every fact-bearing row moves
        # and a row-delta bug cannot hide.
        old_order = candidates.id_pairs()
        new_candidates, rows = candidates.with_delta(old_order[:12], [])
        new_state = state.with_rows(new_candidates, rows)
        assert set(rows.movers.tolist()) >= set(range(offset, offset + size))

        new_position = {
            pair.pair_id: index for index, pair in enumerate(new_candidates)
        }
        for local_index, rule_name in trace.rule_matches:
            old_global = local_index + offset
            expected = new_position[old_order[old_global]]
            assert expected != old_global
            assert expected in new_state.matched_by_rule(rule_name)
        for local_index, rule_name, slot in trace.predicate_falses:
            old_global = local_index + offset
            expected = new_position[old_order[old_global]]
            assert expected in new_state.failed_predicate(rule_name, slot)

        # forgetting the remapped fact-bearing pairs erases every fact
        fact_indices = sorted(
            {
                new_position[old_order[local_index + offset]]
                for local_index, _rule in trace.rule_matches
            }
            | {
                new_position[old_order[local_index + offset]]
                for local_index, _rule, _slot in trace.predicate_falses
            }
        )
        new_state.forget_pairs(fact_indices)
        for rule in function.rules:
            assert not set(new_state.matched_by_rule(rule.name)) & set(fact_indices)
            for predicate in rule.predicates:
                assert not (
                    set(new_state.failed_predicate(rule.name, predicate.slot))
                    & set(fact_indices)
                )
        assert not new_state.labels[fact_indices].any()


# ----------------------------------------------------------------------
# Session + workbench integration
# ----------------------------------------------------------------------


class TestSessionIntegration:
    @pytest.fixture(scope="class")
    def workload(self):
        return build_workload("products", seed=7, scale=0.12, max_rules=10)

    def test_parallel_session_state_identical(self, workload):
        # ordering="original" pins the rule order: the measured-cost
        # estimator can legitimately order rules differently between two
        # sessions, which changes attribution/memo (but never labels).
        serial = DebugSession(
            workload.candidates, workload.function,
            gold=workload.gold, ordering="original",
        )
        serial.run()
        parallel = DebugSession(
            workload.candidates, workload.function,
            gold=workload.gold, ordering="original",
        )
        parallel.run(workers=2)
        assert np.array_equal(serial.labels(), parallel.labels())
        assert np.array_equal(serial.state.attribution, parallel.state.attribution)
        assert sorted(serial.state.memo.items()) == sorted(
            parallel.state.memo.items()
        )

    def test_incremental_edits_after_parallel_run(self, workload):
        from repro.core import TightenPredicate

        session = DebugSession(
            workload.candidates, workload.function,
            gold=workload.gold, paranoid=True,  # validates state per edit
        )
        session.run(workers=2)
        rule = session.function.rules[0]
        outcome = session.apply(
            TightenPredicate(rule.name, rule.predicates[0].slot, 0.99)
        )
        assert outcome is not None  # paranoid validation passed

    def test_parallel_run_labels_match_serial_any_ordering(self, workload):
        serial = DebugSession(
            workload.candidates, workload.function, gold=workload.gold
        )
        serial.run()
        parallel = DebugSession(
            workload.candidates, workload.function, gold=workload.gold
        )
        parallel.run(workers=4)
        assert np.array_equal(serial.labels(), parallel.labels())


class TestWorkbenchCommand:
    def test_run_workers_flag(self):
        bench = Workbench()
        bench.execute("load products --scale 0.1 --rules 6")
        output = bench.execute("run --workers 2")
        assert output.startswith("ran:")
        assert "parallel:" in output
        assert "workers" in output

    def test_run_default_is_serial(self):
        bench = Workbench()
        bench.execute("load products --scale 0.1 --rules 6")
        output = bench.execute("run")
        assert "parallel:" not in output

    def test_bad_workers_values(self):
        bench = Workbench()
        bench.execute("load products --scale 0.1 --rules 6")
        with pytest.raises(WorkbenchError):
            bench.execute("run --workers 0")
        with pytest.raises(WorkbenchError):
            bench.execute("run --workers nope")
        with pytest.raises(WorkbenchError):
            bench.execute("run --workers")
        with pytest.raises(WorkbenchError):
            bench.execute("run --frobnicate 3")


# ----------------------------------------------------------------------
# All six datasets (the acceptance sweep, at reduced scale)
# ----------------------------------------------------------------------


class TestAllDatasets:
    from repro.data import dataset_names

    @pytest.mark.parametrize("name", dataset_names())
    def test_parallel_labels_identical(self, name):
        workload = build_workload(name, seed=7, scale=0.08, max_rules=8)
        serial = DynamicMemoMatcher().run(workload.function, workload.candidates)
        matcher = ParallelMatcher(workers=4, **FAST)
        parallel = matcher.run(workload.function, workload.candidates)
        assert np.array_equal(serial.labels, parallel.labels)
        assert parallel.stats.pairs_matched == serial.stats.pairs_matched
