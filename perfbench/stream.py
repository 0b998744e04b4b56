"""restaurants-stream: data that changes under a fixed rule set.

Restaurants at scale 0.3 (short strings; one-token overlap blocking, so
one record touches many pairs).  Set-up — build the workload, open a
``StreamingSession``, run it cold — is timed ``SETUPS`` times (median):
once for the session the run streams into, and the other times at even
intervals of the time box, on sessions that are then discarded, so that
the median spans the whole run rather than one moment of a shared
machine's drifting speed.  Until the time box closes (and at least
``MIN_INGESTS`` ingests):

* ``StreamingSession.ingest`` on single-delta batches from the seeded
  :class:`~scripts.DeltaScript` (non-blocking updates, renames that move
  candidates and their restores, inserts and deletes);
* every ``EDIT_EVERY`` ingests, one rule edit/inverse pair;
* every ``CHECKPOINT_EVERY`` ingests, ``save_session`` then
  ``load_session``, checking the restored labels equal the saved ones.

At the end the live labels are checked against a from-scratch block and
``DynamicMemoMatcher`` run over the current tables.  Traced runs then
serve the live session from a ``ServiceThread`` and drive the service
workload's clients at it for a few seconds (the service-layer metrics).
"""

from __future__ import annotations

import os
import time

import numpy as np
import repro
from repro.core.persistence import load_session, save_session
from repro.learning.workload import default_blocker
from repro.observability import Observability

from common import median, program_spans, scratch_dir, self_times, span_durations, tree_bytes
from layers import (
    cold_sample,
    determinism_record,
    note_determinism,
    overhead_frac,
    report_cold_layers,
    report_family_costs,
    report_incremental,
)
from scripts import DELTA_KINDS, DeltaScript, EditScript, run_edit_pairs
from service_mix import probe as service_probe

DATASET = "restaurants"
SCALE = 0.3
DATA_SEED = 7
ESTIMATOR_SEED = 0
SETUPS = 7
MIN_INGESTS = 100
EDIT_EVERY = 25
CHECKPOINT_EVERY = 12
BLOCKING_ATTRIBUTE = "name"
PLAIN_ATTRIBUTES = ("address", "phone", "cuisine")
PHASES = ("validate", "apply_deltas", "remap", "invalidate", "rematch")
#: Traced runs end by serving the live session over HTTP for this long.
PROBE_SECONDS = 5.0

NAMED = (
    ("setup_s", "setup_s", "median", "s"),
    ("ingest_p50_ms", "ingest_ms", 50, "ms"),
    ("ingest_p90_ms", "ingest_ms", 90, "ms"),
    ("checkpoint_save_s", "checkpoint_save_s", "median", "s"),
    ("checkpoint_restore_s", "checkpoint_restore_s", "median", "s"),
    ("ingest_deltas_per_s", "ingest_deltas_per_s", "median", "1/s"),
)
SLOTS = {
    "op_p50_ms": ("ingest_p50_ms", 1.0),
    "op_p90_ms": ("ingest_p90_ms", 1.0),
    "aux1_ms": ("checkpoint_save_s", 1000.0),
    "aux2_ms": ("checkpoint_restore_s", 1000.0),
    "rate_per_s": ("ingest_deltas_per_s", 1.0),
}


def open_stream(report, trace, determinism, samples, build_s):
    """One timed set-up; returns (workload, streaming session, observability)."""
    observability = Observability() if trace else None
    started = time.perf_counter()
    workload = repro.build_workload(DATASET, seed=DATA_SEED, scale=SCALE)
    build_s.append(time.perf_counter() - started)
    streaming = repro.StreamingSession(
        workload.dataset.table_a, workload.dataset.table_b,
        default_blocker(DATASET), workload.function, gold=workload.gold,
        estimator=repro.CostEstimator(seed=ESTIMATOR_SEED),
        observability=observability,
    )
    result = streaming.run()
    report.add("setup_s", time.perf_counter() - started, "s")
    determinism.append(determinism_record(result, streaming.function))
    if trace:
        samples.append(cold_sample(streaming.session, observability))
    return workload, streaming, observability


def run(args, report):
    trace = args.trace == 1
    determinism, samples, build_s = [], [], []
    workload, streaming, observability = open_stream(
        report, trace, determinism, samples, build_s
    )
    report.note(workload.summary())

    deltas = DeltaScript(
        args.seed, streaming.table_a, streaming.table_b,
        BLOCKING_ATTRIBUTE, PLAIN_ATTRIBUTES,
    )
    edit_script = EditScript(args.seed)
    edits, batches, checkpoints = [], [], []
    ingest_seconds = 0.0
    step = 0
    begun = time.perf_counter()
    deadline = begun + args.seconds
    setup_times = [begun + k * args.seconds / SETUPS for k in range(1, SETUPS)]
    with scratch_dir("checkpoints-") as root:
        while step < MIN_INGESTS or time.perf_counter() < deadline:
            if setup_times and time.perf_counter() >= setup_times[0]:
                setup_times.pop(0)
                open_stream(report, trace, determinism, samples, build_s)
            step += 1
            delta = deltas.next()
            # Alternate cycles of the delta kinds traced and untraced: the
            # tracing-overhead comparison.
            traced = (step // len(DELTA_KINDS)) % 2 == 0
            if trace:
                streaming.session.observability = observability if traced else None
            with report.operation(f"ingest {delta}"):
                started = time.perf_counter()
                batch = streaming.ingest(
                    repro.Delta(delta["op"], delta["side"], delta["id"],
                                delta.get("values"))
                )
                elapsed = time.perf_counter() - started
                ingest_seconds += elapsed
                report.add("ingest_ms", elapsed * 1000.0, "ms")
                batches.append((batch, elapsed, delta["op"], traced))
            streaming.session.observability = observability

            if step % EDIT_EVERY == 0:
                edits += run_edit_pairs(streaming.session, edit_script, 1, report)
            if step % CHECKPOINT_EVERY == 0:
                outcome = checkpoint(streaming, os.path.join(root, f"ckpt{step}"), report)
                if outcome is not None:
                    checkpoints.append(outcome)
    for _ in setup_times:  # a run shorter than its minimum ingests
        open_stream(report, trace, determinism, samples, build_s)
    report.add("ingest_deltas_per_s", len(batches) / ingest_seconds, "1/s")
    report.note(
        f"{len(batches)} ingests, {len(edits)} edits, {len(checkpoints)} checkpoints"
    )
    note_determinism(report, determinism)

    # -- streaming invariant: live state == from-scratch over current data
    with report.operation("from-scratch reference"):
        started = time.perf_counter()
        fresh = default_blocker(DATASET).block(streaming.table_a, streaming.table_b)
        block_s = time.perf_counter() - started
        labels = repro.DynamicMemoMatcher().run(streaming.function, fresh).labels
        expected = {fresh[i].pair_id for i in np.flatnonzero(labels)}
        report.check(
            set(streaming.candidates.id_pairs()) == set(fresh.id_pairs()),
            "streamed candidate set differs from a fresh block",
        )
        report.check(
            set(streaming.session.matched_ids()) == expected,
            "streamed labels differ from a from-scratch match",
        )

    if not trace:
        return
    report.layer("learning.build_workload_s", median(build_s))
    report.layer("blocking.block_s", block_s)
    report.note(
        f"blocking: {len(fresh)} candidates; per ingest "
        f"{np.mean([b[0].stats.pairs_gained for b in batches]):.2f} pairs gained, "
        f"{np.mean([b[0].stats.pairs_lost for b in batches]):.2f} lost (mean)"
    )
    report_cold_layers(report, samples, determinism)
    kernels = streaming.session.kernels
    report.layer("kernels.cache_hits", kernels.cache.total_hits + kernels.values.total_hits)
    report.layer(
        "kernels.cache_misses", kernels.cache.total_misses + kernels.values.total_misses
    )
    report_family_costs(report, streaming.candidates, streaming.function, args.seed)
    report_incremental(report, edits)
    records = program_spans(observability)
    report.layer("streaming.affected_pairs", median([b[0].affected for b in batches]))
    for phase in PHASES:
        report.layer(f"streaming.{phase}_s", median(span_durations(records, phase)))
    report.layer(
        "streaming.ingest_self_s",
        median(self_times(records, "ingest")),
    )
    report.layer("persistence.save_s", median([c[0] for c in checkpoints]))
    report.layer("persistence.load_s", median([c[1] for c in checkpoints]))
    report.layer("persistence.bytes_written", median([c[2] for c in checkpoints]))
    report.layer("trace.overhead_frac", overhead_frac(
        [(op, seconds, traced) for _, seconds, op, traced in batches]
    ))
    service_probe(streaming, workload, DATASET, args.seed, PROBE_SECONDS, report)


def checkpoint(streaming, directory, report):
    """Save, restore and compare; (save_s, load_s, bytes), None on failure."""
    with report.operation("checkpoint save/restore"):
        started = time.perf_counter()
        save_session(streaming, directory)
        save_s = time.perf_counter() - started
        started = time.perf_counter()
        restored = load_session(directory, default_blocker(DATASET))
        load_s = time.perf_counter() - started
        report.add("checkpoint_save_s", save_s, "s")
        report.add("checkpoint_restore_s", load_s, "s")
        report.check(
            restored.candidates.id_pairs() == streaming.candidates.id_pairs()
            and np.array_equal(restored.state.labels, streaming.state.labels),
            "restored labels differ from the saved ones",
        )
        return save_s, load_s, tree_bytes(directory)
    return None
