"""ParallelMatcher: sharded DM+EE execution over a process pool.

The executor orchestrates the other modules: **plan** (partitioner) →
**pack** (payload) → **dispatch** (ProcessPoolExecutor running
:func:`~repro.parallel.worker.run_chunk`) → **stitch** (labels, stats,
memo, trace).  Because the worker function is pure, every recovery path
is just "call it again somewhere else":

1. A chunk that raises is retried once in the pool.
2. A chunk that fails twice (or times out twice) runs serially in the
   parent process.
3. A broken pool (worker killed mid-run) or a pool that cannot start at
   all downgrades every unfinished chunk to the in-parent serial path.
4. ``workers <= 1``, a single-chunk plan, or a function that cannot be
   serialized skips the pool entirely and runs the plain serial matcher.

Whichever path executes, labels/memo/trace are bit-identical — the
fallbacks trade speed, never correctness.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor, TimeoutError
from typing import Dict, List, Optional, Tuple

from ..core.cost_model import Estimates
from ..core.matchers import DynamicMemoMatcher, MatchResult, TraceRecorder
from ..core.memo import ArrayMemo, FeatureMemo, HashMemo
from ..core.rules import MatchingFunction
from ..data.pairs import CandidateSet
from ..errors import ParallelExecutionError
from ..observability import maybe_span
from .partitioner import (
    DEFAULT_MIN_CHUNK_SIZE,
    DEFAULT_TARGET_CHUNK_SECONDS,
    PartitionPlan,
    plan_partition,
)
from .payload import ChunkTask, build_chunk_task, serialize_function
from .stitcher import stitch_outcomes, timings_from_outcomes
from .worker import ChunkOutcome, run_chunk

#: fault_plan maps chunk_id -> (failures, kind); see worker.run_chunk.
FaultPlan = Dict[int, Tuple[int, str]]


def _default_workers() -> int:
    return os.cpu_count() or 1


#: Monotonic run stamp carried by every ChunkTask of one run.  Workers key
#: their bound-plan cache on it, so an in-parent fallback chunk of run N
#: can never reuse a plan (or kernels) bound for run N-1 — records may
#: have changed in between.
_RUN_TOKENS = itertools.count(1)


class ParallelMatcher:
    """Run a matching function over a candidate set across worker processes.

    Drop-in alongside the serial matchers: ``run(function, candidates)``
    returns a :class:`~repro.core.matchers.MatchResult` whose labels are
    bit-identical to :class:`~repro.core.matchers.DynamicMemoMatcher`.

    ``memo`` and ``recorder`` mirror the serial matcher's parameters: the
    memo receives every worker-computed feature value (merged back by
    global pair index), the recorder receives every replayed trace fact.
    ``estimates`` (from :class:`~repro.core.cost_model.CostEstimator`)
    makes chunk sizing cost-model-aware.

    Diagnostics after a run: :attr:`last_plan`, :attr:`last_memo`, and
    :attr:`fallback_reason` (None when the pool path completed cleanly).
    """

    strategy_name = "parallel_dynamic_memo"

    def __init__(
        self,
        workers: Optional[int] = None,
        memo: Optional[FeatureMemo] = None,
        memo_backend: str = "array",
        check_cache_first: bool = False,
        recorder: Optional[TraceRecorder] = None,
        estimates: Optional[Estimates] = None,
        chunk_timeout: Optional[float] = None,
        target_chunk_seconds: float = DEFAULT_TARGET_CHUNK_SECONDS,
        min_chunk_size: int = DEFAULT_MIN_CHUNK_SIZE,
        chunks_per_worker: int = 4,
        check_memo_conflicts: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        observability=None,
        kernels=None,
        engine: str = "scalar",
    ):
        self.workers = workers if workers is not None else _default_workers()
        if self.workers < 1:
            raise ParallelExecutionError(
                f"workers must be >= 1, got {self.workers}"
            )
        self.memo = memo
        self.memo_backend = memo_backend
        self.check_cache_first = check_cache_first
        self.recorder = recorder
        self.estimates = estimates
        self.chunk_timeout = chunk_timeout
        self.target_chunk_seconds = target_chunk_seconds
        self.min_chunk_size = min_chunk_size
        self.chunks_per_worker = chunks_per_worker
        self.check_memo_conflicts = check_memo_conflicts
        self.fault_plan = dict(fault_plan or {})
        #: repro.observability.Observability: spans for every phase, worker
        #: span logs spliced back, worker profiles merged.  None = seed paths.
        self.observability = observability
        #: repro.kernels.FeatureKernels: token caches + batched kernels.
        #: Workers cannot share the parent's cache (records are re-hydrated
        #: per shard), so tasks carry only the *flags*; each worker builds a
        #: fresh per-shard kernel set.  The parent's instance serves the
        #: serial and in-parent fallback paths.  None = seed-exact paths.
        self.kernels = kernels
        #: "scalar", "columnar", or "auto": the evaluation engine inside
        #: each worker (and in every serial/in-parent fallback).  "auto"
        #: ships unresolved — each worker binds the plan against its own
        #: kernels and follows the cost model's decision; the serial
        #: fallback resolves against the parent's.  Chunk outcomes are
        #: bit-identical either way; columnar chunks additionally ship
        #: engine counters back for the parent's metrics.
        if engine not in ("scalar", "columnar", "auto"):
            raise ParallelExecutionError(
                f"engine must be 'scalar', 'columnar', or 'auto', got {engine!r}"
            )
        self.engine = engine
        self.last_plan: Optional[PartitionPlan] = None
        self.last_memo: Optional[FeatureMemo] = memo
        self.fallback_reason: Optional[str] = None
        self._pool_broken = False

    # ------------------------------------------------------------------ run

    def run(
        self, function: MatchingFunction, candidates: CandidateSet
    ) -> MatchResult:
        self.fallback_reason = None
        self.last_plan = None
        observability = self.observability
        started = time.perf_counter()

        with maybe_span(
            observability,
            "parallel_run",
            workers=self.workers,
            pairs=len(candidates),
        ):
            partition_started = time.perf_counter()
            with maybe_span(observability, "partition"):
                plan = plan_partition(
                    len(candidates),
                    self.workers,
                    function=function,
                    estimates=self.estimates,
                    target_chunk_seconds=self.target_chunk_seconds,
                    chunks_per_worker=self.chunks_per_worker,
                    min_chunk_size=self.min_chunk_size,
                )
            partition_seconds = time.perf_counter() - partition_started
            self.last_plan = plan

            # Mirror DynamicMemoMatcher: without a supplied memo a fresh one
            # is created per run and exposed afterwards as last_memo.
            memo = self.memo
            if memo is None:
                names = [feature.name for feature in function.features()]
                if self.memo_backend == "array":
                    memo = ArrayMemo(len(candidates), names)
                else:
                    memo = HashMemo(len(candidates), names)
            self.last_memo = memo

            if self.workers <= 1 or len(plan) <= 1:
                return self._run_serial(
                    function,
                    candidates,
                    memo,
                    "workers<=1 or single chunk",
                    started=started,
                    partition_seconds=partition_seconds,
                )

            collect_spans = (
                observability is not None and observability.tracer.enabled
            )
            profile_sample_every = (
                observability.profiler.sample_every
                if observability is not None and observability.profiler is not None
                else 0
            )
            plan_spec = None
            if self.engine != "scalar":
                # Compile once in the parent; workers re-bind the picklable
                # spec to their re-materialized function + fresh kernels
                # (and, for "auto", resolve the engine decision there).
                from ..engine import plan_function

                plan_spec = plan_function(
                    function,
                    kernels=self.kernels,
                    estimates=self.estimates,
                    check_cache_first=self.check_cache_first,
                ).spec()
            run_token = next(_RUN_TOKENS)
            serialize_started = time.perf_counter()
            with maybe_span(observability, "serialize"):
                try:
                    serialized = serialize_function(function)
                except ParallelExecutionError as error:
                    serialized = None
                    serialize_error = error
                if serialized is not None:
                    tasks = [
                        self._attach_fault(
                            build_chunk_task(
                                chunk,
                                candidates,
                                serialized,
                                collect_trace=self.recorder is not None,
                                check_cache_first=self.check_cache_first,
                                collect_spans=collect_spans,
                                profile_sample_every=profile_sample_every,
                                use_kernels=self.kernels is not None,
                                use_bounds=(
                                    self.kernels is not None
                                    and self.kernels.use_bounds
                                ),
                                engine=self.engine,
                                plan_spec=plan_spec,
                                run_token=run_token,
                            )
                        )
                        for chunk in plan.chunks
                    ]
            if serialized is None:
                return self._run_serial(
                    function,
                    candidates,
                    memo,
                    f"function not serializable: {serialize_error}",
                    started=started,
                    partition_seconds=partition_seconds,
                )
            serialize_seconds = time.perf_counter() - serialize_started

            execute_started = time.perf_counter()
            with maybe_span(
                observability, "execute", chunks=len(tasks)
            ) as execute_span:
                try:
                    outcomes, attempts, fallbacks = self._execute(tasks)
                except ParallelExecutionError as error:
                    outcomes = None
                    execute_error = error
            if outcomes is None:
                return self._run_serial(
                    function,
                    candidates,
                    memo,
                    f"pool execution failed: {execute_error}",
                    started=started,
                    partition_seconds=partition_seconds,
                )
            execute_seconds = time.perf_counter() - execute_started

            # Splice worker-recorded spans under the execute span and fold
            # worker profiles into the session profiler — the parallel
            # analogue of the memo/trace merge the stitcher does below.
            if observability is not None:
                for outcome in outcomes:
                    if outcome.spans is not None and observability.tracer.enabled:
                        observability.tracer.log.splice(
                            outcome.spans,
                            parent_id=(
                                execute_span.span_id
                                if execute_span is not None
                                else None
                            ),
                            time_offset=(
                                execute_span.start
                                if execute_span is not None
                                else 0.0
                            ),
                        )
                    if outcome.profile is not None and observability.profiler is not None:
                        observability.profiler.merge(outcome.profile)
                mask_evals = sum(outcome.mask_evals for outcome in outcomes)
                scalar_fallbacks = sum(
                    outcome.scalar_fallbacks for outcome in outcomes
                )
                if mask_evals or scalar_fallbacks:
                    observability.metrics.counter("engine.mask_evals").inc(
                        mask_evals
                    )
                    observability.metrics.counter(
                        "engine.scalar_fallbacks"
                    ).inc(scalar_fallbacks)
                plan_binds = sum(outcome.plan_binds for outcome in outcomes)
                plan_cache_hits = sum(
                    outcome.plan_cache_hits for outcome in outcomes
                )
                if plan_binds or plan_cache_hits:
                    observability.metrics.counter("engine.plan_binds").inc(
                        plan_binds
                    )
                    observability.metrics.counter(
                        "engine.plan_cache_hits"
                    ).inc(plan_cache_hits)

            stitch_started = time.perf_counter()
            with maybe_span(observability, "stitch"):
                result = stitch_outcomes(
                    plan,
                    outcomes,
                    candidates,
                    memo=memo,
                    recorder=self.recorder,
                    check_memo_conflicts=self.check_memo_conflicts,
                )
            result.stats.worker_timings = timings_from_outcomes(
                outcomes, attempts=attempts, fallbacks=fallbacks
            )
            result.stats.phase_seconds.update(
                partition=partition_seconds,
                serialize=serialize_seconds,
                execute=execute_seconds,
                stitch=time.perf_counter() - stitch_started,
            )
            result.stats.elapsed_seconds = time.perf_counter() - started
            return result

    # --------------------------------------------------------- pool driving

    def _execute(
        self, tasks: List[ChunkTask]
    ) -> Tuple[List[ChunkOutcome], Dict[int, int], set]:
        """Run every task, preferring the pool but never giving up on a chunk.

        Returns (outcomes, attempts per chunk_id, chunk_ids that ran in the
        parent).  Raises :class:`ParallelExecutionError` only when even the
        in-parent execution of some chunk fails — the caller then retries
        the whole run through the plain serial matcher.
        """
        attempts: Dict[int, int] = {task.chunk_id: 0 for task in tasks}
        fallbacks: set = set()
        outcomes: List[ChunkOutcome] = []
        self._pool_broken = False

        pool: Optional[ProcessPoolExecutor] = None
        futures: Dict[int, Future] = {}
        try:
            try:
                pool = ProcessPoolExecutor(max_workers=self.workers)
            except Exception as error:  # pool refused to start
                self._note_fallback(f"pool start failed: {error!r}")
            else:
                try:
                    for task in tasks:
                        futures[task.chunk_id] = pool.submit(run_chunk, task)
                        attempts[task.chunk_id] += 1
                except Exception as error:
                    # ``submit`` raises BrokenExecutor once a worker died;
                    # anything else is a pool that could not start its
                    # workers, which start on the first submit.
                    if isinstance(error, BrokenExecutor):
                        self._note_fallback(f"pool broke: {error!r}")
                    else:
                        self._note_fallback(f"pool start failed: {error!r}")
                    self._pool_broken = True  # every chunk runs in the parent
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None

            for task in tasks:
                chunk_id = task.chunk_id
                outcome: Optional[ChunkOutcome] = None
                # A broken pool downgrades every later chunk too.
                if not self._pool_broken and chunk_id in futures:
                    outcome = self._collect(pool, futures, task, attempts)
                if outcome is None:
                    outcome = self._run_in_parent(task, attempts)
                    fallbacks.add(chunk_id)
                outcomes.append(outcome)
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        return outcomes, attempts, fallbacks

    def _collect(
        self,
        pool: ProcessPoolExecutor,
        futures: Dict[int, Future],
        task: ChunkTask,
        attempts: Dict[int, int],
    ) -> Optional[ChunkOutcome]:
        """Await one chunk's future, retrying once in the pool on failure.

        Returns None when the chunk must fall back to the parent (two
        failures, two timeouts, or a broken pool).
        """
        future = futures[task.chunk_id]
        for retry in (True, False):
            try:
                return future.result(timeout=self.chunk_timeout)
            except BrokenExecutor as error:
                self._pool_broken = True
                self._note_fallback(f"pool broke: {error!r}")
                return None
            except TimeoutError:
                future.cancel()
                if not retry:
                    self._note_fallback(
                        f"chunk {task.chunk_id} timed out twice "
                        f"({self.chunk_timeout}s each)"
                    )
                    return None
                reason = f"chunk {task.chunk_id} timed out"
            except Exception as error:
                if not retry:
                    self._note_fallback(
                        f"chunk {task.chunk_id} failed twice, last: {error!r}"
                    )
                    return None
                reason = f"chunk {task.chunk_id} raised {error!r}"
            # One in-pool retry, with the fault counter burned down.
            self._note_retry(reason)
            attempts[task.chunk_id] += 1
            try:
                future = pool.submit(run_chunk, self._burn_fault(task))
            except Exception as error:
                self._pool_broken = True
                self._note_fallback(f"pool broke on resubmit: {error!r}")
                return None
        return None  # unreachable; loop always returns

    def _run_in_parent(
        self, task: ChunkTask, attempts: Dict[int, int]
    ) -> ChunkOutcome:
        """Serial fallback: run the chunk in this process, faults disarmed."""
        attempts[task.chunk_id] += 1
        safe = dataclasses.replace(task, fault_failures=0)
        try:
            return run_chunk(safe)
        except Exception as error:
            raise ParallelExecutionError(
                f"chunk {task.chunk_id} failed even in the parent process"
            ) from error

    # ------------------------------------------------------------- fallback

    def _run_serial(
        self,
        function: MatchingFunction,
        candidates: CandidateSet,
        memo: FeatureMemo,
        reason: str,
        started: Optional[float] = None,
        partition_seconds: Optional[float] = None,
    ) -> MatchResult:
        """Whole-run serial fallback through the plain DM+EE matcher.

        ``started``/``partition_seconds`` come from the enclosing
        :meth:`run`; stamping them here keeps the fallback's
        ``elapsed_seconds`` measured from the *parallel run's* start (not
        from matcher start) and preserves the partition phase in
        ``phase_seconds``, so serial-fallback stats stay comparable to the
        pool path's.
        """
        self._note_fallback(reason)
        observability = self.observability
        engine = self.engine
        if engine == "auto":
            # Resolve against the parent's own kernels — this path runs in
            # the parent process, so the workers' decisions don't apply.
            if self.kernels is None:
                engine = "scalar"
            else:
                from ..engine import plan_function

                engine = plan_function(
                    function,
                    kernels=self.kernels,
                    estimates=self.estimates,
                    check_cache_first=self.check_cache_first,
                ).decision.engine
        if engine == "columnar":
            from ..engine import ColumnarMatcher

            matcher = ColumnarMatcher(
                memo=memo,
                memo_backend=self.memo_backend,
                check_cache_first=self.check_cache_first,
                recorder=self.recorder,
                profiler=(
                    observability.profiler
                    if observability is not None
                    else None
                ),
                kernels=self.kernels,
            )
        else:
            matcher = DynamicMemoMatcher(
                memo=memo,
                memo_backend=self.memo_backend,
                check_cache_first=self.check_cache_first,
                recorder=self.recorder,
                profiler=(
                    observability.profiler
                    if observability is not None
                    else None
                ),
                kernels=self.kernels,
            )
        with maybe_span(observability, "serial_fallback", reason=reason):
            result = matcher.run(function, candidates)
        if engine == "columnar" and observability is not None:
            matcher.last_executor.report_metrics(observability.metrics)
        self.last_memo = matcher.last_memo
        match_seconds = result.stats.elapsed_seconds
        if partition_seconds is not None:
            result.stats.phase_seconds["partition"] = partition_seconds
        result.stats.phase_seconds["match"] = match_seconds
        if started is not None:
            result.stats.elapsed_seconds = time.perf_counter() - started
        return result

    # ------------------------------------------------------------- plumbing

    def _attach_fault(self, task: ChunkTask) -> ChunkTask:
        fault = self.fault_plan.get(task.chunk_id)
        if fault is None:
            return task
        failures, kind = fault
        return dataclasses.replace(
            task, fault_failures=failures, fault_kind=kind
        )

    def _burn_fault(self, task: ChunkTask) -> ChunkTask:
        fault = self.fault_plan.get(task.chunk_id)
        if fault is None:
            return task
        failures, kind = fault
        remaining = max(failures - 1, 0)
        self.fault_plan[task.chunk_id] = (remaining, kind)
        return dataclasses.replace(
            task, fault_failures=remaining, fault_kind=kind
        )

    def _note_fallback(self, reason: str) -> None:
        # A genuine fallback outranks a recovered-retry note.
        if self.fallback_reason is None or self.fallback_reason.startswith("retried:"):
            self.fallback_reason = reason

    def _note_retry(self, reason: str) -> None:
        # Retries are recoverable; only remember them if nothing worse came.
        if self.fallback_reason is None:
            self.fallback_reason = f"retried: {reason}"
