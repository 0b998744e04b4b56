"""Persist and restore a debugging session's materialized state.

Analysts iterate on a matching task over hours or days; the memo — the
expensive part of the state — is worth keeping across process restarts.
A checkpoint directory holds *generations*, each one complete save::

    <directory>/
      CURRENT            names the published generation ("gen-7")
      gen-6/             the previous generation (kept as a fallback)
      gen-7/
        manifest.json    format, generation, crc32 + size of every file
        function.rules   the matching function in DSL text
        meta.json        fingerprint, memo backend, memo/rule/slot names
        state.npz        labels, attribution, memo, bitmaps (whole arrays)
        stats.json       run stats (when the caller kept them)
        session.json     session configuration + batch totals  } session
        tables.json      the live tables                       } checkpoints
        gold.json        gold labels, if any                   } only

A save writes its files into a sibling temp directory, fsyncs them and
the directory, renames it to ``gen-<N>``, and only then publishes it by
atomically replacing ``CURRENT`` (:func:`os.replace`, then an fsync of
the checkpoint directory).  Generations older than the previous one, and
temp directories that a failed save left behind, are deleted after the
pointer has moved.  A crash at any point therefore leaves ``CURRENT``
naming a complete generation: restore returns the old state or the new
one, never a mix.

Restore (:func:`open_checkpoint`) reads every file of the current
generation and checks it against the manifest, whose own crc32 seals it.
If any check fails it falls back to the previous generation and says so
(:attr:`Checkpoint.fallback`); if none verifies it raises
:class:`~repro.errors.StateError`.

Arrays are stored whole and uncompressed, so neither side loops over
entries: the memo as a validity mask bit-packed in column-major order
plus ``values[valid]`` in that same order, the rule and predicate
bitmaps stacked and bit-packed, and the candidate order as two int32
record-position arrays.  Every array loads with ``allow_pickle=False``;
only the version-1 reader, which maps the old per-entry triples into the
same in-memory arrays, may unpickle.

Two things are deliberately not stored.  The candidate set of a plain
:func:`save_state` is deterministic from the dataset and blocker, so only
a fingerprint guards against loading onto a different one.  The kernels'
token caches rebuild lazily from the tables; restarting them cold costs
less than encoding and decoding them on every checkpoint.

Session checkpoints
-------------------
:func:`save_session` / :func:`load_session` widen the unit of durability
from one :class:`MatchState` to one live
:class:`~repro.streaming.session.StreamingSession` — the serving layer's
(:mod:`repro.service`) unit of work — in the same format.  A session
generation additionally holds the *live tables* (which deltas have
mutated away from any generator), the candidate order (survivors-then-
gained, which a fresh re-block would not reproduce), gold labels,
accumulated stats, and the session's configuration.  The blocker itself
is rebuilt by the caller (it may close over lambdas); re-blocking the
restored tables reproduces its delta index exactly, which the streaming
adopt path verifies pair-for-pair.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import re
import shutil
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..data.pairs import CandidateSet
from ..data.table import Record, Table
from ..errors import StateError
from .memo import ArrayMemo, FeatureMemo, HashMemo
from .parser import FeatureResolver, format_function, parse_function
from .state import MatchState
from .stats import MatchStats

logger = logging.getLogger(__name__)

FORMAT_VERSION = 2
SESSION_FORMAT_VERSION = 2

#: the pointer file naming the published generation.
CURRENT = "CURRENT"
MANIFEST = "manifest.json"
_GENERATION = re.compile(r"gen-(\d+)")
#: a zip member timestamp fixed so that equal states give equal bytes.
_EPOCH = (1980, 1, 1, 0, 0, 0)


def candidate_fingerprint(candidates: CandidateSet) -> str:
    """A stable fingerprint of the candidate set's identity and order."""
    id_pairs = candidates.id_pairs()
    joined = "\x1e".join(map("\x1f".join, id_pairs)) + ("\x1e" if id_pairs else "")
    digest = hashlib.sha256(joined.encode()).hexdigest()
    return f"{len(candidates)}:{digest[:24]}"


def stats_to_dict(stats: MatchStats) -> dict:
    """Full-fidelity JSON-able form of a :class:`MatchStats`.

    Every counter round-trips through :func:`stats_from_dict`, including
    ``computations_by_feature``, a Counter that a naive ``vars()`` dump
    would mangle.
    """
    return {
        "feature_computations": stats.feature_computations,
        "memo_hits": stats.memo_hits,
        "predicate_evaluations": stats.predicate_evaluations,
        "bound_skips": stats.bound_skips,
        "rule_evaluations": stats.rule_evaluations,
        "pairs_evaluated": stats.pairs_evaluated,
        "pairs_matched": stats.pairs_matched,
        "elapsed_seconds": stats.elapsed_seconds,
        "deltas_applied": stats.deltas_applied,
        "pairs_gained": stats.pairs_gained,
        "pairs_lost": stats.pairs_lost,
        "pairs_invalidated": stats.pairs_invalidated,
        "computations_by_feature": dict(stats.computations_by_feature),
    }


def stats_from_dict(data: dict) -> MatchStats:
    """Inverse of :func:`stats_to_dict`; keys it does not know are ignored."""
    stats = MatchStats(
        feature_computations=int(data.get("feature_computations", 0)),
        memo_hits=int(data.get("memo_hits", 0)),
        predicate_evaluations=int(data.get("predicate_evaluations", 0)),
        bound_skips=int(data.get("bound_skips", 0)),
        rule_evaluations=int(data.get("rule_evaluations", 0)),
        pairs_evaluated=int(data.get("pairs_evaluated", 0)),
        pairs_matched=int(data.get("pairs_matched", 0)),
        elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
        deltas_applied=int(data.get("deltas_applied", 0)),
        pairs_gained=int(data.get("pairs_gained", 0)),
        pairs_lost=int(data.get("pairs_lost", 0)),
        pairs_invalidated=int(data.get("pairs_invalidated", 0)),
    )
    stats.computations_by_feature.update(
        {
            str(name): int(count)
            for name, count in data.get("computations_by_feature", {}).items()
        }
    )
    return stats


# ---------------------------------------------------------------------------
# Generations: write, publish, verify
# ---------------------------------------------------------------------------


def _write_file(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` and fsync it (every byte a save writes
    goes through here)."""
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def _fsync_directory(path: Path) -> None:
    descriptor = os.open(path, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def _seal(body: dict) -> int:
    return zlib.crc32(json.dumps(body, sort_keys=True).encode())


def _manifest_bytes(generation: int, files: Dict[str, bytes]) -> bytes:
    """The manifest of a generation holding ``files``, sealed by its own crc32."""
    body = {
        "format": FORMAT_VERSION,
        "generation": generation,
        "files": {
            name: {"crc32": zlib.crc32(data), "size": len(data)}
            for name, data in sorted(files.items())
        },
    }
    return json.dumps({**body, "seal": _seal(body)}, indent=2, sort_keys=True).encode()


def _generation_number(name: str) -> Optional[int]:
    match = _GENERATION.fullmatch(name)
    return int(match.group(1)) if match else None


def _generations(directory: Path) -> List[int]:
    """The generation numbers present in ``directory``, newest first."""
    numbers = (_generation_number(entry.name) for entry in directory.iterdir())
    return sorted((number for number in numbers if number is not None), reverse=True)


def _read_pointer(directory: Path) -> Optional[str]:
    """The generation ``CURRENT`` names, or ``None`` if it names none."""
    try:
        name = (directory / CURRENT).read_bytes().decode("ascii").strip()
    except (OSError, UnicodeDecodeError):
        return None
    return name if _generation_number(name) is not None else None


def _publish(directory: Path, files: Dict[str, bytes]) -> Path:
    """Write ``files`` as the next generation of ``directory`` and point
    ``CURRENT`` at it; returns the generation's path."""
    directory.mkdir(parents=True, exist_ok=True)
    previous = _read_pointer(directory)
    generation = 1 + max(_generations(directory), default=0)
    name = f"gen-{generation}"
    staging = directory / f"{name}.tmp"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir()
    for file_name, data in files.items():
        _write_file(staging / file_name, data)
    _write_file(staging / MANIFEST, _manifest_bytes(generation, files))
    _fsync_directory(staging)
    os.rename(staging, directory / name)
    _fsync_directory(directory)
    _write_file(directory / f"{CURRENT}.tmp", f"{name}\n".encode())
    os.replace(directory / f"{CURRENT}.tmp", directory / CURRENT)
    _fsync_directory(directory)
    # The pointer has moved: everything but the new generation and the
    # one it replaced is garbage (older generations, orphans of saves
    # that died before publishing, and their temp directories).
    for entry in directory.iterdir():
        if entry.name in (name, previous):
            continue
        stem = entry.name[: -len(".tmp")] if entry.name.endswith(".tmp") else entry.name
        if _generation_number(stem) is not None:
            shutil.rmtree(entry, ignore_errors=True)
    return directory / name


def _read_generation(path: Path) -> Tuple[dict, Dict[str, bytes]]:
    """Every file of one generation, checked against its sealed manifest.

    Raises :class:`StateError` naming the first check that failed.
    """
    try:
        manifest = json.loads((path / MANIFEST).read_bytes())
        body = {key: value for key, value in manifest.items() if key != "seal"}
        sealed = manifest["seal"] == _seal(body)
        listed = body["files"].items()
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as error:
        raise StateError(f"{path.name}: unreadable manifest ({error})") from None
    if not sealed:
        raise StateError(f"{path.name}: manifest checksum mismatch")
    files: Dict[str, bytes] = {}
    for name, entry in listed:
        try:
            data = (path / name).read_bytes()
        except OSError as error:
            raise StateError(f"{path.name}/{name}: {error.strerror}") from None
        if len(data) != entry["size"] or zlib.crc32(data) != entry["crc32"]:
            raise StateError(f"{path.name}/{name}: size or checksum mismatch")
        files[name] = data
    return body, files


def has_checkpoint(directory: str | Path) -> bool:
    """True if ``directory`` holds a checkpoint of either format version."""
    directory = Path(directory)
    return any(
        (directory / name).exists() for name in (CURRENT, "session.json", "meta.json")
    )


# ---------------------------------------------------------------------------
# The in-memory form both format versions load into
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    """One verified checkpoint, decoded into memory.

    Produced by :func:`open_checkpoint`; :func:`load_state` and
    :func:`load_session` accept it in place of a directory, so a caller
    that needs the session configuration first (the service registry
    rebuilds the blocker from it) reads the files only once.
    """

    #: the checkpoint directory.
    directory: Path
    #: the directory the files came from (a generation, or a v1 directory).
    path: Path
    #: on-disk format version (1 or 2).
    format: int
    #: state meta: fingerprint, memo backend, check-cache-first, pair
    #: count, and the memo column, rule, and slot names.
    meta: dict
    function_text: str
    #: labels, attribution, memo_valid (bool, pairs x columns), memo_values
    #: (column-major), rule_bitmaps and slot_bitmaps (bool, one row per
    #: name), and for sessions candidates_a/candidates_b (record positions).
    arrays: Dict[str, np.ndarray]
    #: the saved run stats (``stats_to_dict`` form), if any.
    stats: Optional[dict] = None
    #: session configuration; ``None`` for a :func:`save_state` checkpoint.
    session: Optional[dict] = None
    tables: Optional[dict] = None
    gold: Optional[list] = None
    #: generation number (``None`` for version 1).
    generation: Optional[int] = None
    #: why the current generation was passed over, when restore fell back.
    fallback: Optional[str] = None


def _check_version(kind: str, found, expected: int) -> None:
    if found != expected:
        raise StateError(
            f"{kind} format version {found} not supported (expected {expected})"
        )


def _json(data: bytes, name: str):
    try:
        return json.loads(data)
    except ValueError as error:
        raise StateError(f"{name}: {error}") from None


def _npz_bytes(arrays: Dict[str, np.ndarray]) -> bytes:
    """An uncompressed ``.npz`` image of ``arrays`` (deterministic bytes)."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as archive:
        for name, array in arrays.items():
            info = zipfile.ZipInfo(f"{name}.npy", date_time=_EPOCH)
            with archive.open(info, "w", force_zip64=True) as handle:
                np.lib.format.write_array(handle, np.asanyarray(array), allow_pickle=False)
    return buffer.getvalue()


def _read_npz(data: bytes) -> Dict[str, np.ndarray]:
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as archive:
            return {name: archive[name] for name in archive.files}
    except ValueError as error:
        raise StateError(f"state.npz: {error}") from None


def _stacked(bitmaps: List[np.ndarray], n_pairs: int) -> np.ndarray:
    return np.stack(bitmaps) if bitmaps else np.zeros((0, n_pairs), dtype=bool)


def _unpack_rows(packed: np.ndarray, n_pairs: int) -> np.ndarray:
    return np.unpackbits(packed, axis=1, count=n_pairs).view(bool)


def _decode_v2(directory: Path, path: Path, body: dict, files: Dict[str, bytes]) -> Checkpoint:
    _check_version("checkpoint", body.get("format"), FORMAT_VERSION)
    meta = _json(files["meta.json"], "meta.json")
    _check_version("state", meta.get("version"), FORMAT_VERSION)
    arrays = _read_npz(files["state.npz"])
    n_pairs = int(meta["n_pairs"])
    columns = len(meta["memo_columns"])
    arrays["memo_valid"] = (
        np.unpackbits(arrays["memo_valid"], count=columns * n_pairs)
        .view(bool)
        .reshape(columns, n_pairs)
        .T
    )
    arrays["rule_bitmaps"] = _unpack_rows(arrays["rule_bitmaps"], n_pairs)
    arrays["slot_bitmaps"] = _unpack_rows(arrays["slot_bitmaps"], n_pairs)
    checkpoint = Checkpoint(
        directory=directory,
        path=path,
        format=FORMAT_VERSION,
        meta=meta,
        function_text=files["function.rules"].decode("utf-8"),
        arrays=arrays,
        generation=int(body["generation"]),
    )
    if "stats.json" in files:
        checkpoint.stats = _json(files["stats.json"], "stats.json")
    if "session.json" in files:
        checkpoint.session = _json(files["session.json"], "session.json")
        _check_version("session", checkpoint.session.get("version"), SESSION_FORMAT_VERSION)
        checkpoint.tables = _json(files["tables.json"], "tables.json")
        if "gold.json" in files:
            checkpoint.gold = _json(files["gold.json"], "gold.json")
    return checkpoint


def _decode_v1(directory: Path) -> Checkpoint:
    """Map a version-1 directory into the arrays version 2 loads from.

    Version 1 wrote files in place: a session's ``session.json``,
    ``tables.json``, ``candidates.json`` and ``gold.json`` at the top and
    its state under ``state/``; a plain state at the top.  The memo was
    (pair, feature, value) triples and the names object arrays, so this
    is the one reader that unpickles.
    """

    def read_json(path: Path):
        return _json(path.read_bytes(), path.name)

    checkpoint = Checkpoint(
        directory=directory, path=directory, format=1, meta={}, function_text="", arrays={}
    )
    state_dir = directory
    if (directory / "session.json").exists():
        checkpoint.session = read_json(directory / "session.json")
        _check_version("session", checkpoint.session.get("version"), 1)
        checkpoint.tables = read_json(directory / "tables.json")
        if (directory / "gold.json").exists():
            checkpoint.gold = read_json(directory / "gold.json")
        state_dir = directory / "state"
    meta = read_json(state_dir / "meta.json")
    _check_version("state", meta.get("version"), 1)
    n_pairs = int(meta["n_pairs"])
    with np.load(state_dir / "state.npz", allow_pickle=True) as old:
        columns = [str(name) for name in old["memo_feature_names"]]
        pairs, features = old["memo_pairs"], old["memo_features"]
        valid = np.zeros((n_pairs, len(columns)), dtype=bool)
        valid[pairs, features] = True
        rule_names = [str(name) for name in old["rule_bitmap_names"]]
        slot_keys = [str(key).split("\x1f", 1) for key in old["slot_bitmap_keys"]]
        checkpoint.arrays = {
            "labels": old["labels"],
            "attribution": old["attribution"],
            "memo_valid": valid,
            "memo_values": old["memo_values"][np.lexsort((pairs, features))],
            "rule_bitmaps": _stacked(
                [old[f"rule_bitmap_{i}"].astype(bool) for i in range(len(rule_names))],
                n_pairs,
            ),
            "slot_bitmaps": _stacked(
                [old[f"slot_bitmap_{i}"].astype(bool) for i in range(len(slot_keys))],
                n_pairs,
            ),
        }
    checkpoint.meta = {
        **meta,
        "memo_columns": columns,
        "rule_names": rule_names,
        "slot_keys": slot_keys,
    }
    checkpoint.function_text = (state_dir / "function.rules").read_text(encoding="utf-8")
    if (state_dir / "stats.json").exists():
        checkpoint.stats = read_json(state_dir / "stats.json")
    if checkpoint.session is not None:
        id_pairs = read_json(directory / "candidates.json")
        for side, column in (("a", 0), ("b", 1)):
            position = {
                row["id"]: index
                for index, row in enumerate(checkpoint.tables[side]["records"])
            }
            checkpoint.arrays[f"candidates_{side}"] = np.asarray(
                [position[pair[column]] for pair in id_pairs], dtype=np.int32
            )
    return checkpoint


def open_checkpoint(directory: str | Path) -> Checkpoint:
    """Resolve, verify, and decode the checkpoint in ``directory``.

    Reads the generation ``CURRENT`` names; if it fails verification,
    the newest older generation that passes (normally the previous one)
    is used instead and :attr:`Checkpoint.fallback` says why.  A
    directory without ``CURRENT`` is read as version 1.  Raises
    :class:`StateError` when no generation verifies, when the directory
    holds no checkpoint, or on a format version this code cannot read.
    """
    directory = Path(directory)
    if not (directory / CURRENT).exists():
        if has_checkpoint(directory):
            return _decode_v1(directory)
        raise StateError(f"{directory} does not contain a saved session or state")
    current = _read_pointer(directory)
    if current is None:
        failures, names = [f"{CURRENT} names no generation"], []
        ceiling = None
    else:
        failures, names = [], [current]
        ceiling = _generation_number(current)
    names += [
        f"gen-{number}"
        for number in _generations(directory)
        if ceiling is None or number < ceiling
    ]
    for name in names:
        try:
            body, files = _read_generation(directory / name)
        except StateError as error:
            failures.append(str(error))
            continue
        checkpoint = _decode_v2(directory, directory / name, body, files)
        if failures:
            checkpoint.fallback = f"{'; '.join(failures)}; restored {name}"
            logger.warning("checkpoint %s: %s", directory, checkpoint.fallback)
        return checkpoint
    raise StateError(f"{directory}: no generation verifies ({'; '.join(failures)})")


def _as_checkpoint(directory: str | Path | Checkpoint) -> Checkpoint:
    return directory if isinstance(directory, Checkpoint) else open_checkpoint(directory)


# ---------------------------------------------------------------------------
# Match states
# ---------------------------------------------------------------------------


def _state_files(
    state: MatchState,
    stats: Optional[MatchStats],
    arrays: Optional[Dict[str, np.ndarray]] = None,
) -> Dict[str, bytes]:
    """The files of one state (plus any extra ``arrays`` for ``state.npz``)."""
    n_pairs = len(state.candidates)
    columns, valid, values = state.memo.export_columns()
    rule_names = sorted(state._rule_matched)
    slot_keys = sorted(state._predicate_false)
    meta = {
        "version": FORMAT_VERSION,
        "fingerprint": candidate_fingerprint(state.candidates),
        "memo_backend": "hash" if isinstance(state.memo, HashMemo) else "array",
        "check_cache_first": state.check_cache_first,
        "n_pairs": n_pairs,
        "memo_columns": columns,
        "rule_names": rule_names,
        "slot_keys": [list(key) for key in slot_keys],
    }
    npz = {
        "labels": state.labels,
        "attribution": state.attribution,
        "memo_valid": np.packbits(valid.T),
        "memo_values": values,
        "rule_bitmaps": np.packbits(
            _stacked([state._rule_matched[name] for name in rule_names], n_pairs), axis=1
        ),
        "slot_bitmaps": np.packbits(
            _stacked([state._predicate_false[key] for key in slot_keys], n_pairs), axis=1
        ),
        **(arrays or {}),
    }
    files = {
        # Exact thresholds: the %g form rounds to 6 significant digits.
        "function.rules": format_function(state.function, precise=True).encode(
            "utf-8"
        ),
        "meta.json": json.dumps(meta, indent=2).encode(),
        "state.npz": _npz_bytes(npz),
    }
    if stats is not None:
        files["stats.json"] = json.dumps(
            stats_to_dict(stats), indent=2, sort_keys=True
        ).encode()
    return files


def _build_state(
    checkpoint: Checkpoint, candidates: CandidateSet, resolver: Optional[FeatureResolver]
) -> MatchState:
    """The one build path: a :class:`MatchState` from decoded arrays."""
    meta = checkpoint.meta
    fingerprint = candidate_fingerprint(candidates)
    if meta["fingerprint"] != fingerprint:
        raise StateError(
            "saved state belongs to a different candidate set "
            f"(saved {meta['fingerprint']}, current {fingerprint}); "
            "re-block with the same dataset, blocker, and seed"
        )
    function = parse_function(checkpoint.function_text, resolver)
    arrays = checkpoint.arrays
    backend = HashMemo if meta["memo_backend"] == "hash" else ArrayMemo
    memo: FeatureMemo = backend.from_columns(
        len(candidates), meta["memo_columns"], arrays["memo_valid"], arrays["memo_values"]
    )
    state = MatchState(
        function, candidates, memo, check_cache_first=bool(meta["check_cache_first"])
    )
    # Copies: a Checkpoint may build more than one state.
    state.labels = arrays["labels"].astype(bool)
    state.attribution = arrays["attribution"].astype(np.int32)
    state._rule_matched = dict(zip(meta["rule_names"], arrays["rule_bitmaps"].copy()))
    state._predicate_false = dict(
        zip(map(tuple, meta["slot_keys"]), arrays["slot_bitmaps"].copy())
    )
    return state


def save_state(
    state: MatchState,
    directory: str | Path,
    stats: Optional[MatchStats] = None,
) -> Path:
    """Save ``state`` as the next generation of ``directory`` (created if
    needed); returns ``directory``.

    ``stats`` (the run's :class:`MatchStats`, if the caller kept it) is
    stored alongside in full fidelity — every counter, bound skips and
    per-feature computations included, survives the round-trip — and
    comes back via :func:`load_stats`.
    """
    directory = Path(directory)
    _publish(directory, _state_files(state, stats))
    return directory


def load_stats(directory: str | Path | Checkpoint) -> Optional[MatchStats]:
    """The stats saved next to a state, or ``None`` if none were."""
    stats = _as_checkpoint(directory).stats
    return stats_from_dict(stats) if stats is not None else None


def load_state(
    directory: str | Path | Checkpoint,
    candidates: CandidateSet,
    resolver: Optional[FeatureResolver] = None,
) -> MatchState:
    """Restore a state saved by :func:`save_state` onto ``candidates``.

    ``directory`` is a checkpoint directory (either format version) or a
    :class:`Checkpoint` already opened from one.  ``resolver`` should be
    the feature resolver that built the original function (e.g.
    ``workload.space.resolver()``) so corpus-bound similarity instances
    are reattached; the default registry resolver rebuilds corpus-free
    equivalents.
    """
    return _build_state(_as_checkpoint(directory), candidates, resolver)


# ---------------------------------------------------------------------------
# Session checkpoints (tables + candidates + state + stats)
# ---------------------------------------------------------------------------


def _table_to_jsonable(table: Table) -> dict:
    return {
        "name": table.name,
        "attributes": list(table.attributes),
        "records": [
            {"id": record.record_id, "values": record.as_dict()}
            for record in table
        ],
    }


def _table_from_jsonable(data: dict) -> Table:
    return Table(
        data["name"],
        data["attributes"],
        (Record(row["id"], row["values"]) for row in data["records"]),
    )


def _record_positions(table: Table, record_ids) -> np.ndarray:
    return np.fromiter(
        map(table.position, record_ids), dtype=np.int32, count=len(record_ids)
    )


def save_session(
    streaming,
    directory: str | Path,
    blocker_spec: Optional[dict] = None,
    extra_meta: Optional[dict] = None,
) -> Path:
    """Checkpoint a :class:`~repro.streaming.session.StreamingSession`.

    One generation of ``directory`` gets everything a restart needs: the
    live tables (post-delta, so no generator can rebuild them), the
    candidate order (survivors-then-gained — a fresh re-block would NOT
    reproduce it, so it is stored explicitly), the matching state and run
    stats (as :func:`save_state` writes them), gold labels, accumulated
    batch stats, and the session configuration.  ``blocker_spec`` is an
    opaque JSON description the caller can turn back into a blocker on
    load (:mod:`repro.service.protocol` defines one such vocabulary).
    Returns ``directory``.

    The wrapped :class:`~repro.core.session.DebugSession` must have run
    (:class:`~repro.errors.StateError` otherwise).
    """
    session = streaming.session
    if session.state is None:
        raise StateError("cannot checkpoint a session that has not run")
    directory = Path(directory)

    run_stats = streaming.run_stats()
    id_pairs = session.candidates.id_pairs()
    ids_a, ids_b = zip(*id_pairs) if id_pairs else ((), ())
    files = _state_files(
        session.state,
        run_stats,
        arrays={
            "candidates_a": _record_positions(streaming.table_a, ids_a),
            "candidates_b": _record_positions(streaming.table_b, ids_b),
        },
    )
    files["tables.json"] = json.dumps(
        {
            "a": _table_to_jsonable(streaming.table_a),
            "b": _table_to_jsonable(streaming.table_b),
        }
    ).encode()
    if session.gold is not None:
        files["gold.json"] = json.dumps(
            sorted([list(pair) for pair in session.gold])
        ).encode()
    meta = {
        "version": SESSION_FORMAT_VERSION,
        "blocker_spec": blocker_spec,
        "ordering": session.ordering_strategy,
        "memo_backend": session.memo_backend,
        "check_cache_first": session.check_cache_first,
        "use_kernels": session.use_kernels,
        "use_bounds": session.use_bounds,
        "batches_ingested": streaming.batches_ingested,
        "batch_stats": stats_to_dict(streaming.total_batch_stats()),
        "extra": extra_meta or {},
    }
    files["session.json"] = json.dumps(meta, indent=2).encode()
    _publish(directory, files)
    return directory


def load_session(
    directory: str | Path | Checkpoint,
    blocker,
    resolver: Optional[FeatureResolver] = None,
):
    """Restore a :func:`save_session` checkpoint onto a fresh blocker.

    ``directory`` is a checkpoint directory (either format version) or a
    :class:`Checkpoint` already opened from one.  ``blocker`` must be
    behaviorally identical to the one the session ran under (rebuild it
    from the checkpoint's ``blocker_spec``); it is re-blocked against the
    restored tables to warm its delta index, and the adopt path verifies
    it reproduces the checkpointed candidate membership exactly.  Returns
    a :class:`~repro.streaming.session.StreamingSession` whose labels,
    attribution, bitmaps, memo, and stats equal the checkpointed ones
    entry for entry; its token caches start cold.
    """
    from ..streaming.session import StreamingSession
    from .session import DebugSession

    checkpoint = _as_checkpoint(directory)
    meta = checkpoint.session
    if meta is None:
        raise StateError(
            f"{checkpoint.directory} holds a saved state, not a saved session"
        )
    table_a = _table_from_jsonable(checkpoint.tables["a"])
    table_b = _table_from_jsonable(checkpoint.tables["b"])
    candidates = CandidateSet.from_positions(
        table_a,
        table_b,
        checkpoint.arrays["candidates_a"],
        checkpoint.arrays["candidates_b"],
    )
    gold = None
    if checkpoint.gold is not None:
        gold = {(a_id, b_id) for a_id, b_id in checkpoint.gold}
    state = _build_state(checkpoint, candidates, resolver)
    run_stats = stats_from_dict(checkpoint.stats) if checkpoint.stats is not None else None

    session = DebugSession.from_materialized(
        candidates,
        state,
        gold=gold,
        ordering=meta["ordering"],
        memo_backend=meta["memo_backend"],
        check_cache_first=meta["check_cache_first"],
        use_kernels=meta["use_kernels"],
        use_bounds=meta["use_bounds"],
    )
    streaming = StreamingSession.adopt(session, table_a, table_b, blocker)
    streaming.seed_restored(
        run_stats=run_stats,
        batch_stats=stats_from_dict(meta["batch_stats"]),
        batches=int(meta.get("batches_ingested", 0)),
    )
    return streaming
