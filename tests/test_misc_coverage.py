"""Gap-filling tests: persistence versioning, reporting write_all, error
hierarchy, workload helpers, and miscellaneous edge paths."""

import json

import pytest

from repro import ReproError
from repro.core import MatchState, save_state
from repro.core.persistence import load_state, open_checkpoint
from repro.errors import (
    BlockingError,
    ChangeError,
    EstimationError,
    MatchingError,
    RuleParseError,
    SchemaError,
    StateError,
    UnknownFeatureError,
    UnknownSimilarityError,
)
from repro.learning import build_workload, default_blocker
from repro.reporting import write_all


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_class",
        [
            RuleParseError,
            UnknownSimilarityError,
            UnknownFeatureError,
            SchemaError,
            BlockingError,
            MatchingError,
            StateError,
            ChangeError,
            EstimationError,
        ],
    )
    def test_all_derive_from_repro_error(self, error_class):
        assert issubclass(error_class, ReproError)

    def test_key_errors_also_keyerrors(self):
        # Lookups by name should be catchable as KeyError too.
        assert issubclass(UnknownSimilarityError, KeyError)

    def test_parse_error_carries_position(self):
        error = RuleParseError("bad", text="abc", position=2)
        assert error.position == 2
        assert "abc" in str(error)

    def test_single_except_clause_catches_everything(self):
        from repro.similarity import make_similarity

        with pytest.raises(ReproError):
            make_similarity("nope")


class TestPersistenceVersioning:
    @pytest.fixture()
    def saved(self, tmp_path, small_workload):
        candidates = small_workload.candidates.subset(range(100))
        state, _ = MatchState.from_initial_run(small_workload.function, candidates)
        directory = save_state(state, tmp_path / "session")
        return directory, candidates, small_workload

    def test_version_mismatch_rejected(self, saved, reseal):
        directory, candidates, workload = saved
        generation = open_checkpoint(directory).path
        meta_path = generation / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 999
        meta_path.write_text(json.dumps(meta))
        reseal(generation)
        with pytest.raises(StateError, match="version"):
            load_state(directory, candidates)

    def test_function_file_is_human_readable_dsl(self, saved):
        directory, _candidates, workload = saved
        text = (open_checkpoint(directory).path / "function.rules").read_text()
        assert ":" in text  # rule names
        assert any(op in text for op in (">=", "<=", ">", "<"))

    def test_load_with_default_resolver(self, saved):
        """Without the workload's resolver, registry features are rebuilt;
        labels still load (they are stored, not recomputed)."""
        directory, candidates, _workload = saved
        state = load_state(directory, candidates)
        assert state.match_count() >= 0
        assert len(state.memo) > 0


class TestReportingWriteAll:
    def test_writes_every_figure(self, tmp_path):
        workload = build_workload(
            "products", seed=19, scale=0.2, n_trees=8, max_depth=4, max_rules=12
        )
        runners = {
            "fig5b_scaling": lambda: __import__(
                "repro.reporting", fromlist=["run_pair_scaling"]
            ).run_pair_scaling(workload, pair_counts=(40, 80)),
        }
        written = write_all(workload, tmp_path / "figures", runners=runners)
        assert set(written) == {"fig5b_scaling"}
        content = written["fig5b_scaling"].read_text()
        assert "pairs" in content
        assert "40" in content


class TestWorkloadHelpers:
    def test_default_blocker_unknown_dataset(self):
        with pytest.raises(ReproError, match="no default blocker"):
            default_blocker("atlantis")

    def test_people_workload_builds(self):
        workload = build_workload("people", seed=9, scale=0.3, max_rules=20)
        assert len(workload.function) >= 1
        assert "people" in workload.summary()

    def test_workload_gold_property(self, small_workload):
        assert small_workload.gold is small_workload.dataset.gold


class TestPyprojectConsistency:
    def test_version_matches_package(self):
        import tomllib

        import repro

        with open("pyproject.toml", "rb") as handle:
            pyproject = tomllib.load(handle)
        assert pyproject["project"]["version"] == repro.__version__

    def test_numpy_is_the_only_runtime_dependency(self):
        import tomllib

        with open("pyproject.toml", "rb") as handle:
            pyproject = tomllib.load(handle)
        dependencies = pyproject["project"]["dependencies"]
        assert len(dependencies) == 1
        assert dependencies[0].startswith("numpy")
