"""End-to-end tests against a live matching service.

The acceptance bar for the service layer: a workflow driven through the
HTTP API (create session → ingest two delta batches → edit a rule →
fetch metrics/trace) produces *identical* match labels and deterministic
stats to the same workflow run through :class:`StreamingSession`
directly; sessions survive a server kill/restart via checkpoints; and a
graceful shutdown drains, checkpoints, and flushes telemetry.
"""

from __future__ import annotations

import json

import pytest

from repro.blocking import OverlapBlocker
from repro.core import parse_function
from repro.core.changes import RelaxPredicate
from repro.core.persistence import (
    MANIFEST,
    has_checkpoint,
    open_checkpoint,
    stats_to_dict,
)
from repro.data import Record, Table
from repro.service import ServiceClient, ServiceClientError, ServiceThread
from repro.streaming import Delta, DeltaBatch, StreamingSession

ATTRIBUTES = ["title", "author"]
ROWS_A = [
    ("a1", "red apple pie", "kim"),
    ("a2", "blue sky atlas", "lee"),
    ("a3", "green tea house", "kim"),
]
ROWS_B = [
    ("b1", "red apple pie", "kim"),
    ("b2", "blue sky atlas", "lee"),
    ("b3", "red apple tart", "kim"),
]
RULES = (
    "R1: jaccard_ws(title, title) >= 0.6\n"
    "R2: jaro(author, author) >= 0.9 AND jaccard_ws(title, title) >= 0.3"
)
BLOCKER_SPEC = {"kind": "overlap", "attribute": "title", "min_overlap": 1}
GOLD = [["a1", "b1"], ["a2", "b2"], ["a3", "b3"]]

BATCH_ONE = [
    {"op": "insert", "side": "a", "id": "a4",
     "values": {"title": "red apple cake", "author": "kim"}},
    {"op": "update", "side": "b", "id": "b3",
     "values": {"title": "red apple pie deluxe"}},
]
BATCH_TWO = [
    {"op": "delete", "side": "a", "id": "a2"},
    {"op": "insert", "side": "b", "id": "b4",
     "values": {"title": "green tea house", "author": "kim"}},
]
EDIT = {"kind": "relax", "rule": "R1",
        "slot": "jaccard_ws(title,title)#lb", "threshold": 0.5}


def _table_payload(rows):
    return {
        "attributes": ATTRIBUTES,
        "records": [
            {"id": rid, "values": {"title": title, "author": author}}
            for rid, title, author in rows
        ],
    }


def _create_payload(name):
    return {
        "name": name,
        "table_a": _table_payload(ROWS_A),
        "table_b": _table_payload(ROWS_B),
        "rules": RULES,
        "blocker": BLOCKER_SPEC,
        "gold": GOLD,
    }


def _direct_reference() -> StreamingSession:
    """The same workflow executed in-process, no service involved."""
    table_a = Table("A", ATTRIBUTES)
    for rid, title, author in ROWS_A:
        table_a.add(Record(rid, {"title": title, "author": author}))
    table_b = Table("B", ATTRIBUTES)
    for rid, title, author in ROWS_B:
        table_b.add(Record(rid, {"title": title, "author": author}))
    streaming = StreamingSession(
        table_a,
        table_b,
        OverlapBlocker("title", min_overlap=1),
        parse_function(RULES),
        gold={tuple(pair) for pair in GOLD},
    )
    streaming.run()
    for batch in (BATCH_ONE, BATCH_TWO):
        streaming.ingest(DeltaBatch([
            Delta(d["op"], d["side"], d["id"], d.get("values"))
            for d in batch
        ]))
    streaming.apply(RelaxPredicate("R1", EDIT["slot"], EDIT["threshold"]))
    return streaming


def _counters(stats_dict):
    """Deterministic subset of a stats payload (drop wall-clock noise)."""
    cleaned = dict(stats_dict)
    for key in ("elapsed_seconds",):
        cleaned.pop(key, None)
    return cleaned


@pytest.fixture()
def server(tmp_path):
    thread = ServiceThread(port=0, checkpoint_root=tmp_path / "ckpt")
    host, port = thread.start()
    yield ServiceClient(host, port), thread, tmp_path / "ckpt"
    if thread.running:
        thread.stop()


class TestEndToEndEquality:
    def test_service_workflow_equals_direct_session(self, server):
        client, _thread, _root = server
        created = client.create_session(_create_payload("e2e"))
        assert created["session"]["name"] == "e2e"

        client.ingest("e2e", BATCH_ONE)
        client.ingest("e2e", BATCH_TWO)
        edited = client.edit_rule("e2e", EDIT)
        assert "relax" in edited["change"]

        reference = _direct_reference()

        matches = client.matches("e2e")
        want_matches = sorted(
            [list(pair) for pair in reference.session.matched_ids()]
        )
        assert sorted(matches["matches"]) == want_matches
        assert matches["match_count"] == len(want_matches)

        confusion = reference.session.metrics()
        assert matches["confusion"]["true_positives"] == confusion.true_positives
        assert matches["confusion"]["false_positives"] == confusion.false_positives
        assert matches["confusion"]["false_negatives"] == confusion.false_negatives
        assert matches["confusion"]["precision"] == confusion.precision
        assert matches["confusion"]["recall"] == confusion.recall

        stats = client.stats("e2e")
        assert stats["batches_ingested"] == 2
        assert stats["edits_applied"] == 1
        assert _counters(stats["run_stats"]) == _counters(
            stats_to_dict(reference.run_stats())
        )
        assert _counters(stats["batch_stats"]) == _counters(
            stats_to_dict(reference.total_batch_stats())
        )

    def test_observability_reachable_over_http(self, server):
        client, _thread, _root = server
        client.create_session(_create_payload("obs"))
        client.ingest("obs", BATCH_ONE)

        metrics = client.metrics("obs")
        assert metrics["snapshot"], "metrics registry should not be empty"
        again = client.metrics("obs")
        assert again["diff_since_last"] == {}  # nothing changed between polls

        trace = client.trace("obs")
        assert trace["span_count"] > 0
        names = {span["name"] for span in trace["spans"]}
        assert any("ingest" in name or "match" in name for name in names)

        snapshot = client.observability("obs")
        assert snapshot["metrics"] and snapshot["spans"]

    def test_explain_over_http(self, server):
        client, _thread, _root = server
        client.create_session(_create_payload("expl"))
        explanation = client.explain("expl", "a1", "b1")
        assert explanation["matched"] is True
        assert {trace["rule"] for trace in explanation["rules"]} == {"R1", "R2"}

    def test_refine_over_http(self, server):
        client, _thread, _root = server
        client.create_session(_create_payload("ref"))
        result = client.refine("ref", budget=40, beam_width=2, max_depth=1)
        report = result["report"]
        assert report["full_rematches"] == 0
        assert report["frontier"]
        assert 0 <= report["best_index"] < len(report["frontier"])
        assert result["applied"] is None

        # apply="best" closes the loop server-side and bumps the seq.
        seq_before = result["seq"]
        applied = client.refine("ref", budget=40, max_depth=1, apply="best")
        assert applied["seq"] > seq_before
        assert applied["applied"] is not None
        best = applied["report"]["frontier"][applied["report"]["best_index"]]
        assert applied["applied"]["confusion"]["f1"] == pytest.approx(best["f1"])

    def test_refine_bad_options_are_bad_request(self, server):
        client, _thread, _root = server
        client.create_session(_create_payload("refbad"))
        with pytest.raises(ServiceClientError) as excinfo:
            client.refine("refbad", budget="lots")
        assert excinfo.value.code == "bad_request"
        with pytest.raises(ServiceClientError) as excinfo:
            client.refine("refbad", apply=99)
        assert excinfo.value.code == "bad_request"


class TestErrorEnvelopes:
    def test_unknown_session_is_not_found(self, server):
        client, _thread, _root = server
        with pytest.raises(ServiceClientError) as excinfo:
            client.matches("ghost")
        assert excinfo.value.code == "not_found"
        assert excinfo.value.status == 404

    def test_duplicate_session_is_conflict(self, server):
        client, _thread, _root = server
        client.create_session(_create_payload("dup"))
        with pytest.raises(ServiceClientError) as excinfo:
            client.create_session(_create_payload("dup"))
        assert excinfo.value.code == "conflict"
        assert excinfo.value.status == 409

    def test_malformed_delta_is_bad_request(self, server):
        client, _thread, _root = server
        client.create_session(_create_payload("bad"))
        with pytest.raises(ServiceClientError) as excinfo:
            client.ingest("bad", [{"op": "upsert", "side": "a", "id": "x"}])
        assert excinfo.value.code == "bad_request"
        assert excinfo.value.status == 400

    def test_engine_rejection_is_bad_request(self, server):
        client, _thread, _root = server
        client.create_session(_create_payload("engine"))
        with pytest.raises(ServiceClientError) as excinfo:
            client.ingest(
                "engine", [{"op": "delete", "side": "a", "id": "missing"}]
            )
        assert excinfo.value.code == "bad_request"

    @pytest.mark.parametrize("field", ["drift_every", "seed", "scale"])
    def test_unparseable_create_number_is_bad_request(self, server, field):
        client, _thread, _root = server
        if field == "drift_every":
            payload = {**_create_payload("num"), "drift_every": "often"}
        else:
            dataset = {"name": "restaurants", field: "big"}
            payload = {"name": "num", "dataset": dataset}
        with pytest.raises(ServiceClientError) as excinfo:
            client.create_session(payload)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        assert repr(field) in str(excinfo.value)
        assert client.list_sessions() == []

    def test_unknown_route_is_not_found(self, server):
        client, _thread, _root = server
        with pytest.raises(ServiceClientError) as excinfo:
            client.request("GET", "/nonsense")
        assert excinfo.value.code == "not_found"

    def test_invalid_json_body_is_bad_request(self, server):
        client, _thread, _root = server
        import http.client

        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=30
        )
        connection.request(
            "POST", "/sessions", body=b"{not json",
            headers={"Connection": "close"},
        )
        response = connection.getresponse()
        envelope = json.loads(response.read())
        connection.close()
        assert response.status == 400
        assert envelope["error"]["code"] == "bad_request"

    def test_oversized_body_gets_error_envelope(self, server):
        client, _thread, _root = server
        import socket

        from repro.service.app import MAX_BODY_BYTES

        with socket.create_connection(
            (client.host, client.port), timeout=30
        ) as sock:
            sock.sendall(
                b"POST /sessions HTTP/1.1\r\n"
                b"Content-Length: " + str(MAX_BODY_BYTES + 1).encode()
                + b"\r\n\r\n"
            )
            response = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break  # server answers, then closes (body unread)
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert b" 400 " in head.split(b"\r\n")[0]
        envelope = json.loads(body)
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "bad_request"
        assert "exceeds" in envelope["error"]["message"]

    def test_timeout_produces_504_envelope(self, tmp_path):
        thread = ServiceThread(port=0, request_timeout=0.02)
        host, port = thread.start()
        try:
            client = ServiceClient(host, port)
            with pytest.raises(ServiceClientError) as excinfo:
                # learning a workload takes far longer than 20ms
                client.create_session(
                    {"name": "slow", "dataset": {"name": "products",
                                                 "scale": 0.3}}
                )
            assert excinfo.value.code == "timeout"
            assert excinfo.value.status == 504
        finally:
            thread.stop(graceful=False)


def _current_generation_files(root):
    """``{session/file: bytes}`` over every file of each session's
    current checkpoint generation except the manifest, whose generation
    number a rewrite of the same state bumps."""
    return {
        f"{entry.name}/{path.name}": path.read_bytes()
        for entry in sorted(root.iterdir())
        if has_checkpoint(entry)
        for path in sorted(open_checkpoint(entry).path.iterdir())
        if path.name != MANIFEST
    }


class TestRestartRestore:
    def test_sessions_survive_server_restart(self, server):
        client, thread, root = server
        client.create_session(_create_payload("phoenix"))
        client.ingest("phoenix", BATCH_ONE)
        before = client.matches("phoenix")
        report = thread.stop()
        assert report["checkpointed"] == ["phoenix"]

        thread2 = ServiceThread(port=0, checkpoint_root=root)
        host2, port2 = thread2.start()
        try:
            client2 = ServiceClient(host2, port2)
            sessions = client2.list_sessions()
            assert [s["name"] for s in sessions] == ["phoenix"]
            assert sessions[0]["batches_ingested"] == 1

            after = client2.matches("phoenix")
            assert sorted(after["matches"]) == sorted(before["matches"])
            assert after["confusion"] == before["confusion"]

            # the restored session keeps ingesting correctly:
            client2.ingest("phoenix", BATCH_TWO)
            client2.edit_rule("phoenix", EDIT)
            reference = _direct_reference()
            final = client2.matches("phoenix")
            assert sorted(final["matches"]) == sorted(
                [list(pair) for pair in reference.session.matched_ids()]
            )
        finally:
            thread2.stop()

    def test_restart_restores_checkpoint_byte_identically(self, server):
        client, thread, root = server
        client.create_session(_create_payload("bytes"))
        client.ingest("bytes", BATCH_ONE)
        thread.stop()
        first = _current_generation_files(root)
        assert first, "checkpoint should contain state files"

        # restart, change nothing, stop again: the re-checkpointed state
        # must be byte-identical (modulo nothing — restored sessions are
        # clean, so stop() rewrites nothing unless state changed).
        thread2 = ServiceThread(port=0, checkpoint_root=root)
        host2, port2 = thread2.start()
        client2 = ServiceClient(host2, port2)
        assert client2.list_sessions()[0]["name"] == "bytes"
        report = thread2.stop()
        assert report["checkpointed"] == []  # clean -> not rewritten
        second = _current_generation_files(root)
        assert first == second

    def test_corrupt_checkpoint_does_not_block_startup(self, server):
        client, thread, root = server
        client.create_session(_create_payload("healthy"))
        thread.stop()
        rotten = root / "rotten"
        rotten.mkdir()
        (rotten / "session.json").write_text("{corrupt", "utf-8")

        thread2 = ServiceThread(port=0, checkpoint_root=root)
        host2, port2 = thread2.start()
        try:
            client2 = ServiceClient(host2, port2)
            # the healthy session restored; the bad one was skipped and
            # reported, not fatal to the whole server:
            assert [s["name"] for s in client2.list_sessions()] == ["healthy"]
            health = client2.health()
            assert [f["name"] for f in health["restore_failures"]] == [
                "rotten"
            ]
        finally:
            thread2.stop()

    def test_forced_checkpoint_of_restored_session_is_identical(self, server):
        client, thread, root = server
        client.create_session(_create_payload("stable"))
        client.ingest("stable", BATCH_ONE)
        client.checkpoint("stable")
        first = _current_generation_files(root)
        thread.stop()

        thread2 = ServiceThread(port=0, checkpoint_root=root)
        host2, port2 = thread2.start()
        try:
            client2 = ServiceClient(host2, port2)
            client2.checkpoint("stable")  # force a rewrite from restored state
            second = _current_generation_files(root)
            assert first == second
        finally:
            thread2.stop()


class TestGracefulShutdown:
    def test_stop_checkpoints_dirty_and_flushes_telemetry(self, server):
        client, thread, root = server
        client.create_session(_create_payload("one"))
        client.create_session(_create_payload("two"))
        client.ingest("one", BATCH_ONE)

        report = thread.stop()
        assert report["drained"] is True
        assert sorted(report["checkpointed"]) == ["one", "two"]
        assert sorted(report["flushed"]) == ["one", "two"]

        for name in ("one", "two"):
            telemetry = root / name / "observability.jsonl"
            assert telemetry.exists()
            lines = [
                json.loads(line)
                for line in telemetry.read_text().splitlines()
                if line
            ]
            kinds = {line["kind"] for line in lines}
            assert "span" in kinds and "metric" in kinds

    def test_stop_is_idempotent(self, server):
        client, thread, _root = server
        client.create_session(_create_payload("solo"))
        thread.stop()
        assert thread.stop() == {
            "drained": True, "checkpointed": [], "flushed": []
        }

    def test_shutdown_endpoint_stops_the_server(self, server):
        client, thread, root = server
        client.create_session(_create_payload("remote-stop"))
        assert client.shutdown() == {"stopping": True}
        thread._stopped.wait(timeout=30)
        assert not thread.running
        # the endpoint-triggered stop checkpointed the dirty session:
        assert (open_checkpoint(root / "remote-stop").path / "session.json").exists()


class TestServiceThread:
    def test_double_start_rejected(self, server):
        _client, thread, _root = server
        with pytest.raises(RuntimeError, match="already started"):
            thread.start()

    def test_health_and_session_listing(self, server):
        client, _thread, _root = server
        health = client.health()
        assert health["status"] == "ok" and health["durable"] is True
        assert client.list_sessions() == []
        client.create_session(_create_payload("listed"))
        assert [s["name"] for s in client.list_sessions()] == ["listed"]
        info = client.session_info("listed")
        assert info["has_gold"] is True
        assert "R1" in info["function"]
