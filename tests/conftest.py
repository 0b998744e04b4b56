"""Shared fixtures for the test suite.

The expensive artifacts (a learned workload over the products dataset) are
session-scoped; everything else builds tiny, fast structures so that
individual test modules stay independent and quick.
"""

from __future__ import annotations

import json

import pytest

from repro.blocking import OverlapBlocker
from repro.core import CostEstimator, parse_function
from repro.data import CandidateSet, Record, Table, load_dataset
from repro.learning import build_workload


@pytest.fixture()
def people_tables():
    """The paper's Figure 2 running example: two tiny people tables."""
    table_a = Table("A", ["name", "phone", "zip", "street"])
    table_a.add_row("a1", name="John", phone="1234", zip="53703", street="Main St")
    table_a.add_row("a2", name="Bob", phone="5678", zip="53706", street="Oak Ave")
    table_b = Table("B", ["name", "phone", "zip", "street"])
    table_b.add_row("b1", name="John", phone="1234", zip="53703", street="Main St")
    table_b.add_row("b2", name="Jon", phone="1234", zip="53703", street="Main Street")
    return table_a, table_b


@pytest.fixture()
def people_candidates(people_tables):
    """Cross product of the Figure 2 tables (4 candidate pairs)."""
    table_a, table_b = people_tables
    return CandidateSet.from_id_pairs(
        table_a,
        table_b,
        [(a.record_id, b.record_id) for a in table_a for b in table_b],
    )


@pytest.fixture()
def b1_function():
    """The paper's B1: (p1_name AND p2_zip-ish) OR (p_phone AND p2_name)."""
    return parse_function(
        """
        R1: jaro_winkler(name, name) >= 0.9 AND exact_match(zip, zip) >= 1
        R2: exact_match(phone, phone) >= 1 AND jaro_winkler(name, name) >= 0.7
        """
    )


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small but realistic products dataset (deterministic)."""
    return load_dataset("products", shared=60, a_only=10, b_only=200, seed=11)


@pytest.fixture(scope="session")
def tiny_candidates(tiny_dataset):
    blocker = OverlapBlocker("title", min_overlap=2, stop_fraction=0.25)
    return blocker.block(tiny_dataset.table_a, tiny_dataset.table_b)


@pytest.fixture(scope="session")
def small_workload():
    """A learned products workload, shared across the whole session.

    ~40 rules over ~2k candidate pairs: large enough for ordering and
    memoing to matter, small enough that a full DM+EE run takes well
    under a second.
    """
    return build_workload(
        "products",
        seed=13,
        scale=0.35,
        n_trees=12,
        max_depth=5,
        max_rules=40,
    )


@pytest.fixture(scope="session")
def small_estimates(small_workload):
    """Calibrated (deterministic) estimates for the small workload."""
    estimator = CostEstimator(sample_fraction=0.05, seed=3, mode="calibrated")
    return estimator.estimate(small_workload.function, small_workload.candidates)


@pytest.fixture()
def reseal():
    """Re-seal a checkpoint generation after a test edited its files, so
    that what rejects the edit is the check under test, not the checksum."""
    from repro.core.persistence import MANIFEST, _manifest_bytes

    def _reseal(generation):
        manifest = json.loads((generation / MANIFEST).read_bytes())
        files = {name: (generation / name).read_bytes() for name in manifest["files"]}
        (generation / MANIFEST).write_bytes(
            _manifest_bytes(manifest["generation"], files)
        )

    return _reseal
