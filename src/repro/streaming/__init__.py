"""Streaming subsystem: incremental matching under record-level data deltas.

The debugging loop of the paper assumes frozen input tables; this package
keeps a live :class:`~repro.core.session.DebugSession` consistent while
records are inserted, updated, and deleted:

* :mod:`~repro.streaming.deltas` — the :class:`Delta`/:class:`DeltaBatch`
  change model and table application;
* :mod:`~repro.streaming.session` — :class:`StreamingSession`, which
  applies a batch by re-matching only the affected candidate pairs
  (delta-aware blocking + memo invalidation + state remap).

See ``docs/streaming.md`` for the design and the equivalence argument.
"""

from .deltas import AppliedDelta, Delta, DeltaBatch, apply_delta, validate_batch
from .session import BatchResult, StreamingSession

__all__ = [
    "Delta",
    "DeltaBatch",
    "AppliedDelta",
    "apply_delta",
    "validate_batch",
    "BatchResult",
    "StreamingSession",
]
