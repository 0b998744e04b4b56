"""Checkpoint I/O: session save and restore against the cold match.

Not a paper figure: the paper's §6.1 materializes the memo and the rule
and predicate bitmaps so the next debugging iteration is cheap, and
:mod:`repro.core.persistence` carries that state across restarts.  The
service checkpoints every session with it, under the session's reader
lock, so a save stalls the session's writers for as long as it takes.

The bench builds the restaurants workload at scale 0.3 (~7,000 candidate
pairs), times three cold ``run()`` calls on fresh sessions (median), and
then runs 10 ``save_session`` / ``load_session`` cycles into one
checkpoint directory (so generations rotate as they do in the service),
checking every restore against the live labels.  It then ingests 1,200
single-delta batches into that session and times 10 more saves of it,
alternating with saves of a second session that ingested nothing (so
that a drift in machine speed hits both sides).  Three ratio floors, no
absolute times:

* median save <= 0.05 x the cold run;
* median restore <= 0.15 x the cold run;
* median save after 1,200 ingests <= 1.5 x the median save after none
  (a save must not pay for the batch history).

The first two floors are set so that the version-1 format fails them:
on a 2-vCPU VM this bench read save 0.13 and restore 0.20 of the cold
run there (200 ms and 312 ms against 1.54 s; its late-save ratio was
1.07).  The third fails without the streaming session's running batch
totals: 2.38 (54 vs 23 ms).  Results land in
``benchmarks/BENCH_checkpoint_io.json``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro import CostEstimator, Delta, StreamingSession, build_workload
from repro.core.persistence import load_session, open_checkpoint, save_session
from repro.learning.workload import default_blocker

DATASET = "restaurants"
SCALE = 0.3
CYCLES = 10
COLD_RUNS = 3
INGESTS = 1200
MAX_SAVE_OVER_RUN = 0.05
MAX_RESTORE_OVER_RUN = 0.15
MAX_LATE_SAVE_GROWTH = 1.5


def _cold_session(workload):
    streaming = StreamingSession(
        workload.dataset.table_a,
        workload.dataset.table_b,
        default_blocker(DATASET),
        workload.function,
        gold=workload.gold,
        estimator=CostEstimator(seed=0),
    )
    started = time.perf_counter()
    streaming.run()
    return streaming, time.perf_counter() - started


def _ingest_script(streaming, count):
    """Plain-attribute updates on both sides, round-robin, with an insert
    and its delete every 50 ingests so candidates churn too."""
    ids = {
        side: [record.record_id for record in table]
        for side, table in (("a", streaming.table_a), ("b", streaming.table_b))
    }
    attributes = ("phone", "address", "cuisine")
    for step in range(count):
        if step % 50 == 48:
            template = streaming.table_b.get(ids["b"][step % len(ids["b"])])
            yield Delta.insert("b", f"bench-{step}", **template.as_dict())
        elif step % 50 == 49:
            yield Delta.delete("b", f"bench-{step - 1}")
        else:
            side = "a" if step % 2 else "b"
            record_id = ids[side][(step // 2) % len(ids[side])]
            attribute = attributes[step % len(attributes)]
            yield Delta.update(side, record_id, **{attribute: f"v{step}"})


def _timed(function, *args) -> float:
    started = time.perf_counter()
    function(*args)
    return time.perf_counter() - started


def test_checkpoint_io(tmp_path):
    workload = build_workload(DATASET, seed=7, scale=SCALE)
    runs = [_cold_session(workload) for _ in range(COLD_RUNS)]
    idle, streaming = runs[0][0], runs[-1][0]
    run_s = statistics.median(seconds for _, seconds in runs)

    saves, restores = [], []
    for _ in range(CYCLES):
        saves.append(_timed(save_session, streaming, tmp_path / "ckpt"))
        started = time.perf_counter()
        restored = load_session(tmp_path / "ckpt", default_blocker(DATASET))
        restores.append(time.perf_counter() - started)
        assert restored.candidates.id_pairs() == streaming.candidates.id_pairs()
        assert np.array_equal(restored.state.labels, streaming.state.labels)

    for delta in _ingest_script(streaming, INGESTS):
        streaming.ingest(delta)
    assert streaming.batches_ingested == INGESTS
    early_saves, late_saves = [], []
    for _ in range(CYCLES):
        early_saves.append(_timed(save_session, idle, tmp_path / "idle"))
        late_saves.append(_timed(save_session, streaming, tmp_path / "ckpt"))

    save_s = statistics.median(saves)
    restore_s = statistics.median(restores)
    early_save_s = statistics.median(early_saves)
    late_save_s = statistics.median(late_saves)
    ratios = {
        "save_over_run": save_s / run_s,
        "restore_over_run": restore_s / run_s,
        "late_save_over_save": late_save_s / early_save_s,
    }
    generation = open_checkpoint(tmp_path / "ckpt").path
    payload = {
        "dataset": DATASET,
        "scale": SCALE,
        "pairs": len(streaming.candidates),
        "cycles": CYCLES,
        "ingests": INGESTS,
        "cold_run_s": run_s,
        "save_ms": [seconds * 1000.0 for seconds in saves],
        "restore_ms": [seconds * 1000.0 for seconds in restores],
        "early_save_ms": [seconds * 1000.0 for seconds in early_saves],
        "late_save_ms": [seconds * 1000.0 for seconds in late_saves],
        "median_save_ms": save_s * 1000.0,
        "median_restore_ms": restore_s * 1000.0,
        "median_early_save_ms": early_save_s * 1000.0,
        "median_late_save_ms": late_save_s * 1000.0,
        "generation_bytes": sum(
            path.stat().st_size for path in generation.iterdir()
        ),
        "ratios": ratios,
        "floors": {
            "save_over_run": MAX_SAVE_OVER_RUN,
            "restore_over_run": MAX_RESTORE_OVER_RUN,
            "late_save_over_save": MAX_LATE_SAVE_GROWTH,
        },
    }
    out_path = Path(__file__).resolve().parent / "BENCH_checkpoint_io.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\ncheckpoint io: run {run_s * 1000:.0f} ms, save {save_s * 1000:.1f} ms "
        f"({ratios['save_over_run']:.3f}), restore {restore_s * 1000:.1f} ms "
        f"({ratios['restore_over_run']:.3f}), save after {INGESTS} ingests "
        f"{late_save_s * 1000:.1f} ms ({ratios['late_save_over_save']:.2f}x)"
    )

    assert ratios["save_over_run"] <= MAX_SAVE_OVER_RUN, ratios
    assert ratios["restore_over_run"] <= MAX_RESTORE_OVER_RUN, ratios
    assert ratios["late_save_over_save"] <= MAX_LATE_SAVE_GROWTH, ratios
