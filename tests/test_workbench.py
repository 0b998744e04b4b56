"""Tests for the CLI workbench command interpreter."""

import pytest

from repro.workbench import Workbench, WorkbenchError


@pytest.fixture(scope="module")
def loaded_bench():
    bench = Workbench()
    bench.execute("load products --scale 0.25 --rules 30 --seed 13")
    bench.execute("run")
    return bench


class TestLifecycle:
    def test_commands_before_load_fail(self):
        bench = Workbench()
        with pytest.raises(WorkbenchError, match="no active run"):
            bench.execute("metrics")
        with pytest.raises(WorkbenchError, match="load a dataset"):
            bench.execute("run")

    def test_load_reports_workload(self):
        bench = Workbench()
        output = bench.execute("load products --scale 0.2 --rules 10")
        assert "products" in output
        assert "rules=" in output

    def test_unknown_command(self):
        with pytest.raises(WorkbenchError, match="unknown command"):
            Workbench().execute("frobnicate")

    def test_empty_line_is_noop(self):
        assert Workbench().execute("   ") == ""

    def test_unknown_flag(self):
        bench = Workbench()
        with pytest.raises(WorkbenchError, match="unknown flag"):
            bench.execute("load products --wat 3")

    def test_run_command_error_paths(self):
        bench = Workbench()
        bench.execute("load products --scale 0.2 --rules 10")
        with pytest.raises(WorkbenchError, match="unknown flag '--workers'"):
            bench.execute("run --workers 2")
        with pytest.raises(WorkbenchError, match="unknown flag"):
            bench.execute("run --wat 3")

    def test_help_lists_commands(self):
        text = Workbench().execute("help")
        for command in ("load", "run", "tighten", "suggest", "save"):
            assert command in text


class TestInspection:
    def test_metrics(self, loaded_bench):
        output = loaded_bench.execute("metrics")
        assert "P=" in output and "R=" in output

    def test_rules_lists_dsl(self, loaded_bench):
        output = loaded_bench.execute("rules")
        assert "r" in output and ">=" in output or "<=" in output or ">" in output

    def test_explain_known_pair(self, loaded_bench):
        pair = loaded_bench.session.candidates[0]
        output = loaded_bench.execute(f"explain {pair.pair_id[0]} {pair.pair_id[1]}")
        assert "MATCH" in output

    def test_explain_unknown_pair(self, loaded_bench):
        with pytest.raises(WorkbenchError, match="not a candidate"):
            loaded_bench.execute("explain zz qq")

    def test_memory(self, loaded_bench):
        assert "MB" in loaded_bench.execute("memory")

    def test_cache_stats(self, loaded_bench):
        output = loaded_bench.execute("cache stats")
        assert "hit-rate" in output
        assert "bound skips" in output
        assert "total:" in output
        # Per-(attribute, tokenizer) rows use the attribute:tokenizer label.
        assert ":" in output.splitlines()[1]
        # The command also folds the counters into the metrics registry.
        metrics = loaded_bench.session.observability.metrics
        assert metrics.value("cache.hit") > 0

    def test_cache_stats_before_run_fails(self):
        bench = Workbench()
        with pytest.raises(WorkbenchError, match="no active run"):
            bench.execute("cache stats")

    def test_cache_bad_argument(self, loaded_bench):
        with pytest.raises(WorkbenchError, match="usage: cache stats"):
            loaded_bench.execute("cache wat")


class TestEditing:
    @pytest.fixture()
    def bench(self):
        bench = Workbench()
        bench.execute("load products --scale 0.25 --rules 30 --seed 13")
        bench.execute("run")
        return bench

    def test_tighten_by_command(self, bench):
        rule = bench.session.function.rules[0]
        predicate = rule.predicates[0]
        threshold = (
            min(1.0, predicate.threshold + 0.1)
            if predicate.op in (">=", ">")
            else max(0.0, predicate.threshold - 0.1)
        )
        output = bench.execute(
            f"tighten {rule.name} '{predicate.slot}' {threshold}"
        )
        assert "tighten" in output
        history = bench.execute("history")
        assert "1." in history

    def test_bad_threshold_text(self, bench):
        rule = bench.session.function.rules[0]
        predicate = rule.predicates[0]
        with pytest.raises(WorkbenchError, match="not a number"):
            bench.execute(f"tighten {rule.name} '{predicate.slot}' lots")

    def test_drop_rule(self, bench):
        name = bench.session.function.rules[0].name
        bench.execute(f"drop-rule {name}")
        assert name not in bench.session.function

    def test_add_rule(self, bench):
        before = len(bench.session.function)
        bench.execute("add-rule extra: norm_exact_match(modelno, modelno) >= 1")
        assert len(bench.session.function) == before + 1

    def test_suggest_and_apply(self, bench):
        output = bench.execute("suggest tighten")
        if "no suggestions" in output:
            pytest.skip("no false positives to fix at this scale")
        assert "1." in output
        applied = bench.execute("apply 1")
        assert "tighten" in applied

    def test_apply_without_suggestions(self, bench):
        with pytest.raises(WorkbenchError, match="no suggestion"):
            bench.execute("apply 3")

    def test_history_empty_initially(self, bench):
        assert "no edits" in bench.execute("history")


class TestPersistenceCommands:
    def test_save_and_restore(self, tmp_path):
        bench = Workbench()
        bench.execute("load products --scale 0.2 --rules 15 --seed 13")
        bench.execute("run")
        matches_before = bench.session.state.match_count()
        bench.execute(f"save {tmp_path / 'session'}")

        # restore rebuilds the whole session from the checkpoint: no 'load'
        fresh = Workbench()
        output = fresh.execute(f"restore {tmp_path / 'session'}")
        assert "restored" in output
        assert fresh.session.state.match_count() == matches_before
        assert fresh.execute("metrics") == bench.execute("metrics")

    def test_restore_without_load(self, tmp_path):
        bench = Workbench()
        with pytest.raises(WorkbenchError, match="does not contain a saved session"):
            bench.execute(f"restore {tmp_path}")
        with pytest.raises(WorkbenchError, match="no active run"):
            bench.execute("metrics")


class TestAnalysisCommands:
    def test_stats(self, loaded_bench):
        output = loaded_bench.execute("stats")
        assert "rules" in output
        assert "hottest features" in output

    def test_simplify_reports_or_clean(self, loaded_bench):
        output = loaded_bench.execute("simplify")
        assert ("subsumed" in output) or ("no subsumed rules" in output)

    def test_lint(self, loaded_bench):
        output = loaded_bench.execute("lint")
        assert ("no findings" in output) or ("[" in output)

    def test_report(self, loaded_bench):
        output = loaded_bench.execute("report")
        assert "matched" in output
        assert "precision" in output


class TestObservabilityCommands:
    """Round-trips for ``trace`` / ``profile`` / ``drift`` and the
    metrics block appended to ``stats``.  Uses its own bench so that
    toggling profiling cannot leak into the shared module fixture."""

    @pytest.fixture(scope="class")
    def obs_bench(self):
        bench = Workbench()
        bench.execute("load products --scale 0.15 --rules 10 --seed 13")
        bench.execute("run")
        return bench

    def test_trace_before_any_run(self):
        with pytest.raises(WorkbenchError, match="no active run"):
            Workbench().execute("trace")

    def test_trace_renders_run_tree(self, obs_bench):
        output = obs_bench.execute("trace")
        assert "run" in output
        assert "match" in output
        # nested phases are indented under the run root
        assert "  " in output

    def test_trace_json_round_trips(self, obs_bench):
        import json

        rows = [
            json.loads(line)
            for line in obs_bench.execute("trace --json").strip().splitlines()
        ]
        assert any(row["name"] == "run" for row in rows)
        assert all(row["duration"] >= 0.0 for row in rows)

    def test_trace_rejects_unknown_flag(self, obs_bench):
        with pytest.raises(WorkbenchError, match="usage"):
            obs_bench.execute("trace --wat")

    def test_stats_appends_metrics_block(self, obs_bench):
        output = obs_bench.execute("stats")
        assert "metrics:" in output
        assert "run.runs" in output

    def test_profile_off_by_default(self, obs_bench):
        assert "profiling is off" in obs_bench.execute("profile")

    def test_profile_run_drift_round_trip(self, obs_bench):
        message = obs_bench.execute("profile on --sample 1")
        assert "1/1" in message
        obs_bench.execute("run")
        table = obs_bench.execute("profile")
        assert "mean(us)" in table
        report = obs_bench.execute("drift")
        assert "feature cost" in report
        assert "order" in report
        assert "profiling off" in obs_bench.execute("profile off")
        assert "profiling is off" in obs_bench.execute("profile")

    def test_drift_requires_profile(self, obs_bench):
        obs_bench.execute("profile off")
        with pytest.raises(WorkbenchError, match="profile on"):
            obs_bench.execute("drift")

    def test_profile_flag_validation(self, obs_bench):
        with pytest.raises(WorkbenchError, match="needs a value"):
            obs_bench.execute("profile on --sample")
        with pytest.raises(WorkbenchError, match="integer"):
            obs_bench.execute("profile on --sample many")
        with pytest.raises(WorkbenchError, match=">= 1"):
            obs_bench.execute("profile on --sample 0")
        with pytest.raises(WorkbenchError, match="usage"):
            obs_bench.execute("profile sideways")

    def test_help_lists_observability_commands(self):
        text = Workbench().execute("help")
        for command in ("trace", "profile", "drift"):
            assert command in text


class TestLoadCsv:
    @pytest.fixture()
    def csv_files(self, tmp_path):
        from repro.data import Table, save_table, save_pairs

        table_a = Table("A", ["title", "code"])
        table_a.add_row("a0", title="red apple pie", code="k1")
        table_a.add_row("a1", title="blue bicycle", code="k2")
        table_b = Table("B", ["title", "code"])
        table_b.add_row("b0", title="red apple cake", code="k1")
        table_b.add_row("b1", title="green bicycle", code="k9")
        save_table(table_a, tmp_path / "a.csv")
        save_table(table_b, tmp_path / "b.csv")
        save_pairs([("a0", "b0")], tmp_path / "gold.csv")
        return tmp_path

    def test_load_csv_and_run(self, csv_files):
        bench = Workbench()
        output = bench.execute(
            f"load-csv {csv_files / 'a.csv'} {csv_files / 'b.csv'} "
            f"--block title --gold {csv_files / 'gold.csv'} "
            f"--rules 'R1: exact_match(code, code) >= 1'"
        )
        assert "candidate pairs" in output
        bench.execute("run")
        metrics = bench.execute("metrics")
        assert "P=" in metrics
        assert bench.session.state.match_count() == 1  # a0b0 via code

    def test_load_csv_requires_block_and_rules(self, csv_files):
        bench = Workbench()
        with pytest.raises(WorkbenchError, match="--block and --rules"):
            bench.execute(
                f"load-csv {csv_files / 'a.csv'} {csv_files / 'b.csv'}"
            )

    def test_load_csv_edits_work(self, csv_files):
        bench = Workbench()
        bench.execute(
            f"load-csv {csv_files / 'a.csv'} {csv_files / 'b.csv'} "
            f"--block title "
            f"--rules 'R1: jaccard_ws(title, title) >= 0.9'"
        )
        bench.execute("run")
        bench.execute("add-rule R2: exact_match(code, code) >= 1")
        assert bench.session.state.match_count() >= 1


class TestStreamingCommands:
    @pytest.fixture()
    def bench(self):
        bench = Workbench()
        bench.execute("load books --scale 0.2 --rules 20 --seed 11")
        bench.execute("run")
        return bench

    def test_ingest_update_reports_counters(self, bench):
        record_id = bench.hosted.streaming.table_a[0].record_id
        output = bench.execute(f"ingest update a {record_id} author=Nobody")
        assert "deltas=1" in output
        assert "invalidated=" in output

    def test_ingest_delete_drops_pairs(self, bench):
        record_id = bench.hosted.streaming.table_b[0].record_id
        before = len(bench.session.candidates)
        bench.execute(f"ingest delete b {record_id}")
        assert record_id not in bench.hosted.streaming.table_b
        assert len(bench.session.candidates) <= before
        # the session's state follows the new candidate set
        assert len(bench.session.state.labels) == len(bench.session.candidates)

    def test_ingest_insert_new_record(self, bench):
        title = bench.hosted.streaming.table_b[0].get("title")
        output = bench.execute(f"ingest insert b zz99 title='{title}'")
        assert "deltas=1" in output
        assert "zz99" in bench.hosted.streaming.table_b

    def test_ingest_then_rule_edit_stays_sound(self, bench):
        record_id = bench.hosted.streaming.table_a[1].record_id
        bench.execute(f"ingest update a {record_id} author=Changed")
        rule = bench.session.function.rules[0]
        predicate = rule.predicates[0]
        bench.execute(
            f"tighten {rule.name} {predicate.slot} "
            f"{min(1.0, predicate.threshold + 0.01)}"
        )
        bench.session.state.check_soundness()

    def test_delta_stats_empty(self, bench):
        assert bench.execute("delta-stats") == "no deltas ingested yet"

    def test_delta_stats_accumulates(self, bench):
        a_id = bench.hosted.streaming.table_a[0].record_id
        b_id = bench.hosted.streaming.table_b[0].record_id
        bench.execute(f"ingest update a {a_id} author=X")
        bench.execute(f"ingest delete b {b_id}")
        output = bench.execute("delta-stats")
        assert output.count("deltas=1") == 2
        assert "total: deltas=2" in output

    def test_ingest_bad_op(self, bench):
        with pytest.raises(WorkbenchError, match="unknown delta op"):
            bench.execute("ingest frob a x1")

    def test_ingest_unknown_record(self, bench):
        with pytest.raises(WorkbenchError, match="no such record"):
            bench.execute("ingest update a nosuchid title=x")

    def test_ingest_usage_error(self, bench):
        with pytest.raises(WorkbenchError, match="usage: ingest"):
            bench.execute("ingest update a")

    def test_ingest_bad_assignment(self, bench):
        record_id = bench.hosted.streaming.table_a[0].record_id
        with pytest.raises(WorkbenchError, match="attr=value"):
            bench.execute(f"ingest update a {record_id} notanassignment")

    def test_ingest_before_load_fails(self):
        with pytest.raises(WorkbenchError, match="no active run"):
            Workbench().execute("ingest update a a0 title=x")

    def test_ingest_workers_flag_error(self, bench):
        with pytest.raises(WorkbenchError, match="expected attr=value"):
            bench.execute("ingest update a a0 title=x --workers 2")


class TestServiceCommands:
    """The 'serve' / 'remote' commands against an embedded server."""

    @pytest.fixture()
    def serving_bench(self, tmp_path):
        bench = Workbench()
        output = bench.execute(f"serve start 0 {tmp_path / 'ckpt'}")
        address = output.split("serving on ")[1].split(",")[0]
        bench.execute(f"remote connect {address}")
        yield bench
        if bench.service_thread is not None and bench.service_thread.running:
            bench.execute("serve stop")

    def test_serve_status_reports_not_serving(self):
        assert Workbench().execute("serve status") == "not serving"

    def test_serve_stop_without_start_fails(self):
        with pytest.raises(WorkbenchError, match="not serving"):
            Workbench().execute("serve stop")

    def test_remote_without_connection_fails(self):
        with pytest.raises(WorkbenchError, match="no server connection"):
            Workbench().execute("remote sessions")

    def test_serve_start_status_stop_cycle(self, tmp_path):
        bench = Workbench()
        output = bench.execute(f"serve start 0 {tmp_path}")
        assert "serving on" in output and "checkpoints in" in output
        assert "0 session(s)" in bench.execute("serve status")
        with pytest.raises(WorkbenchError, match="already serving"):
            bench.execute("serve start 0")
        stopped = bench.execute("serve stop")
        assert "drained=True" in stopped
        assert bench.execute("serve status") == "not serving"

    def test_remote_session_lifecycle(self, serving_bench):
        bench = serving_bench
        created = bench.execute(
            "remote load demo products --scale 0.2 --seed 7"
        )
        assert "loaded products" in created and "matched=" in created
        assert "demo" in bench.execute("remote sessions")
        assert "rules:" in bench.execute("remote info demo")

        ingested = bench.execute("remote ingest demo delete a a0")
        assert "ingested" in ingested and "matches=" in ingested

        metrics = bench.execute("remote metrics demo")
        assert "P=" in metrics and "F1=" in metrics
        stats = bench.execute("remote stats demo")
        assert "metrics:" in stats and "stream.batches: 1" in stats
        trace = bench.execute("remote trace demo")
        assert "run  [" in trace and "ingest" in trace

        closed = bench.execute("remote close demo")
        assert "closed 'demo'" in closed
        assert bench.execute("remote sessions") == "no sessions"

    def test_remote_server_error_surfaces_code(self, serving_bench):
        with pytest.raises(WorkbenchError, match="not_found"):
            serving_bench.execute("remote info ghost")

    def test_remote_load_rejects_workers_flag(self, serving_bench):
        with pytest.raises(WorkbenchError, match="unknown flag '--workers'"):
            serving_bench.execute("remote load w products --workers 2")

    def test_remote_connect_bad_target(self):
        bench = Workbench()
        with pytest.raises(WorkbenchError, match="usage: remote connect"):
            bench.execute("remote connect nocolon")
        with pytest.raises(WorkbenchError, match="bad port"):
            bench.execute("remote connect host:notaport")


class TestOneCommandSurface:
    """Every shared verb runs the same payload through the in-process
    handlers and, as ``remote <verb> <session>``, through a server: the
    two sessions must stay equal step for step.  (The cost-based rule
    order comes from wall-clock sampling, so it may differ between the
    two; labels, metrics and explain verdicts do not depend on it.)"""

    @pytest.fixture(scope="class")
    def bench(self):
        bench = Workbench()
        address = bench.execute("serve start 0").split()[2]
        bench.execute(f"remote connect {address}")
        yield bench
        bench.execute("serve stop")

    @staticmethod
    def both(bench, session, line):
        verb, _, rest = line.partition(" ")
        return bench.execute(line), bench.execute(f"remote {verb} {session} {rest}")

    def assert_twins(self, bench, session, pair):
        local, remote = self.both(bench, session, "metrics")
        assert local == remote  # P/R/F1 and tp/fp/fn
        matches = bench.remote_client.matches(session)["match_count"]
        assert bench.session.state.match_count() == matches
        local, remote = self.both(bench, session, "explain {} {}".format(*pair))
        assert sorted(local.splitlines()) == sorted(remote.splitlines())

    def test_script_keeps_local_and_remote_sessions_equal(self, bench):
        local, remote = self.both(
            bench, "twin", "load products --scale 0.2 --rules 20"
        )
        assert local == remote
        pair = next(  # a matched pair the deltas below leave alone
            bench.session.candidates[index].pair_id
            for index in bench.session.state.matched_indices()
            if "a0" not in bench.session.candidates[index].pair_id
            and "b1" not in bench.session.candidates[index].pair_id
        )
        self.assert_twins(bench, "twin", pair)

        rule = bench.session.function.rules[0]
        predicate = next(p for p in rule.predicates if p.op in (">", ">="))
        stricter = round(min(1.0, predicate.threshold + 0.05), 6)
        script = [
            f"tighten {rule.name} '{predicate.slot}' {stricter}",
            f"relax {rule.name} '{predicate.slot}' {predicate.threshold}",
            f"drop-rule {bench.session.function.rules[-1].name}",
            "add-rule extra: tfidf_ws(title, title) >= 0.8",
            "ingest update a a0 title='sony digital camera'",
            "ingest delete b b1",
        ]
        for line in script:
            self.both(bench, "twin", line)
            self.assert_twins(bench, "twin", pair)

    def test_refine_apply_applies_what_it_listed_in_both_modes(self, bench):
        self.both(bench, "refined", "load products --scale 0.2 --rules 20")
        for verb in ("refine ", "remote refine refined "):
            listing = bench.execute(f"{verb}--budget 20")
            entry = next(
                line for line in listing.splitlines()
                if line[:1].isdigit() and "(no edits)" not in line
            )
            number, edits = entry.split(".")[0], entry.split("  [")[1][:-1]
            applied = bench.execute(f"{verb}apply {number}")
            assert applied.splitlines()[0] == f"applied: {edits}"

    def test_refine_apply_refuses_an_entry_that_changed(self, bench):
        bench.execute("load products --scale 0.2 --rules 20")
        bench.execute("refine --budget 20")
        bench.refinement["frontier"][0] = ["tighten r0:x to 0.5"]
        with pytest.raises(WorkbenchError, match="nothing applied"):
            bench.execute("refine apply 1")
        assert bench.execute("history") == "no edits applied yet"

    def test_feature_space_refine_runs_on_a_dataset_session(self, bench):
        bench.execute("load products --scale 0.2 --rules 20")
        assert "baseline" in bench.execute("refine --budget 10 --space")

    def test_top_renders_a_frame(self, bench):
        frame = bench.execute("top")
        assert frame.startswith("service: ") and "sessions=" in frame
        assert "session twin" in frame
