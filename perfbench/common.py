"""Shared plumbing for the benchmark workloads.

* :class:`Report` — named measurements (lists of samples, summarised as
  median and quartiles), per-layer values, and the attempted/failed
  operation ledger every correctness check feeds.
* Readers of the program's own span log (``repro.observability``), with
  self time computed as a span's duration minus its direct children's.
* Small helpers: a scratch directory inside the checkout, the
  similarity-family classifier, order hashes.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import tempfile
from contextlib import contextmanager
from typing import Dict, List

#: Where runs keep checkpoints (relative to the checkout).
OUT_DIR = ".perfbench_out"

#: Similarity family per measure class; classes missing here are "other".
FAMILIES = {
    "ExactMatch": "exact",
    "NormalizedExactMatch": "exact",
    "PrefixMatch": "exact",
    "SuffixMatch": "exact",
    "Levenshtein": "levenshtein",
    "DamerauLevenshtein": "levenshtein",
    "Jaro": "jaro",
    "JaroWinkler": "jaro",
    "Jaccard": "token_set",
    "Dice": "token_set",
    "Cosine": "token_set",
    "OverlapCoefficient": "token_set",
    "Trigram": "token_set",
    "Tversky": "token_set",
    "TfIdf": "tfidf",
    "SoftTfIdf": "tfidf",
    "MongeElkan": "monge_elkan",
    "RelativeDifference": "numeric",
    "AbsoluteDifference": "numeric",
    "NumericExact": "numeric",
    "Soundex": "phonetic",
    "Nysiis": "phonetic",
}
FAMILY_NAMES = (
    "exact", "levenshtein", "jaro", "token_set", "tfidf", "monge_elkan",
    "numeric", "phonetic",
)


def family_of(feature) -> str:
    return FAMILIES.get(type(feature.sim).__name__, "other")


def quartiles(values: List[float]):
    """(q1, median, q3) of ``values``; a single sample is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q`` percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def order_hash(function) -> int:
    """A 32-bit hash of a matching function's rule order."""
    names = "\n".join(rule.name for rule in function.rules)
    return int(hashlib.sha1(names.encode("utf-8")).hexdigest()[:8], 16)


def tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


@contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under :data:`OUT_DIR`, removed on exit."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def self_times(records: List[dict], name: str) -> List[float]:
    """Duration minus direct children's durations, per span named ``name``,
    over the program's span dicts (see :func:`program_spans`)."""
    child_total: Dict[int, float] = {}
    for record in records:
        parent = record["parent_id"]
        if parent is not None:
            child_total[parent] = child_total.get(parent, 0.0) + record["duration"]
    return [
        record["duration"] - child_total.get(record["span_id"], 0.0)
        for record in records
        if record["name"] == name
    ]


def program_spans(observability) -> List[dict]:
    """The program's span log (``repro.observability``) as plain dicts."""
    if observability is None:
        return []
    return [record.as_dict() for record in observability.tracer.log]


def span_durations(records: List[dict], name: str) -> List[float]:
    return [r["duration"] for r in records if r["name"] == name]


class Report:
    """Measurements and the operation ledger of one workload run."""

    def __init__(self, workload: str):
        self.workload = workload
        #: sample key -> (unit, samples)
        self.samples: Dict[str, tuple] = {}
        #: per-layer metric name -> value
        self.layers: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.notes: List[str] = []

    # -- ledger ---------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a False ``ok`` is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    @contextmanager
    def operation(self, what: str):
        """Count one operation; an exception inside marks it failed."""
        self.attempted += 1
        try:
            yield
        except Exception as error:  # noqa: BLE001 — a failed op is data
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {type(error).__name__}: {error}")

    # -- measurements ---------------------------------------------------

    def add(self, name: str, value: float, unit: str) -> None:
        self.samples.setdefault(name, (unit, []))[1].append(float(value))

    def layer(self, name: str, value: float) -> None:
        self.layers[name] = float(value)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self, named: Dict[str, tuple]) -> str:
        """Human-readable table of the named end-to-end metrics."""
        lines = [f"== {self.workload}"]
        for name, (unit, value, count, q1, q3) in named.items():
            lines.append(
                f"  {name:<26} {value:>12.4f} {unit:<5} "
                f"n={count:<5} q1={q1:.4f} q3={q3:.4f}"
            )
        for note in self.notes:
            lines.append(f"  # {note}")
        lines.append(f"  attempted={self.attempted} failed={self.failed}")
        for problem in self.problems:
            lines.append(f"  ! {problem}")
        return "\n".join(lines)

