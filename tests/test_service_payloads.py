"""The service's payload layer: typed errors, per-session feature
resolution, and a fuzz of every handler that takes a payload.

Every malformed request must come back as a ``ServiceError`` (or a
``ReproError``, which the dispatcher answers with 400), never a 500, and
a rejected write must leave the session exactly as it was.
"""

from __future__ import annotations

import json
import socket

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.parser import parse_function
from repro.errors import ReproError
from repro.service import (
    ServiceClient,
    ServiceClientError,
    ServiceError,
    ServiceHandlers,
    ServiceThread,
    SessionRegistry,
)
from repro.service.protocol import change_from_payload, deltas_from_payload

ATTRIBUTES = ["title", "author"]
ROWS_A = [("a1", "red apple pie", "kim"), ("a2", "blue sky atlas", "lee")]
ROWS_B = [("b1", "red apple pie", "kim"), ("b2", "red apple tart", "lee")]
RULES = (
    "R1: jaccard_ws(title, title) >= 0.6\n"
    "R2: jaro(author, author) >= 0.9 AND jaccard_ws(title, title) >= 0.3"
)


def _table(rows):
    return {
        "attributes": ATTRIBUTES,
        "records": [
            {"id": rid, "values": {"title": title, "author": author}}
            for rid, title, author in rows
        ],
    }


def _tables_payload(name):
    return {
        "name": name,
        "table_a": _table(ROWS_A),
        "table_b": _table(ROWS_B),
        "rules": RULES,
        "blocker": {"kind": "overlap", "attribute": "title"},
        "gold": [["a1", "b1"]],
    }


def _snapshot(managed):
    return managed.seq, managed.streaming.state.labels.copy()


def _assert_unchanged(managed, before):
    seq, labels = before
    assert managed.seq == seq
    assert np.array_equal(managed.streaming.state.labels, labels)


# ----------------------------------------------------------------------
# Typed errors, over HTTP: each case used to be a 500 or silently accepted
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def served():
    thread = ServiceThread(port=0)
    host, port = thread.start()
    client = ServiceClient(host, port)
    client.create_session(_tables_payload("t"))
    yield client, thread
    thread.stop(graceful=False)


def _rejected(call, code="bad_request"):
    with pytest.raises(ServiceClientError) as excinfo:
        call()
    assert excinfo.value.code == code, str(excinfo.value)
    return str(excinfo.value)


class TestTypedErrors:
    @pytest.mark.parametrize("scale", [0, -1.0, float("nan"), float("inf")])
    def test_create_rejects_a_non_positive_or_non_finite_scale(self, served, scale):
        client, _ = served
        payload = {"name": "d", "dataset": {"name": "restaurants", "scale": scale}}
        assert "'scale'" in _rejected(lambda: client.create_session(payload))

    @pytest.mark.parametrize("max_rules", ["many", 0, 2.5, [3]])
    def test_create_rejects_a_bad_max_rules(self, served, max_rules):
        client, _ = served
        dataset = {"name": "restaurants", "scale": 0.05, "max_rules": max_rules}
        payload = {"name": "d", "dataset": dataset}
        assert "'max_rules'" in _rejected(lambda: client.create_session(payload))

    @pytest.mark.parametrize("gold", [5, [["a1"]], [["a1", 2]], "a1,b1"])
    def test_create_rejects_malformed_gold(self, served, gold):
        client, _ = served
        payload = {**_tables_payload("g"), "gold": gold}
        assert "'gold'" in _rejected(lambda: client.create_session(payload))
        assert [s["name"] for s in client.list_sessions()] == ["t"]

    def test_create_rejects_an_unknown_memo_backend(self, served):
        client, _ = served
        payload = {**_tables_payload("m"), "memo_backend": "disk"}
        assert "memo_backend" in _rejected(lambda: client.create_session(payload))

    @pytest.mark.parametrize(
        "delta",
        [
            {"op": "update", "side": "a", "id": "a1", "values": "title=x"},
            {"op": "update", "side": "a", "id": "a1", "values": {"title": [1]}},
            {"op": "insert", "side": "a", "id": 7, "values": {"title": "x"}},
            {"op": "delete", "side": "a", "id": ["a1"]},
            "delete a1",
        ],
    )
    def test_ingest_rejects_malformed_deltas(self, served, delta):
        client, _ = served
        _rejected(lambda: client.ingest("t", [delta]))

    @pytest.mark.parametrize("rule", [5, None, ["R1"]])
    def test_edit_rejects_a_non_string_rule(self, served, rule):
        client, _ = served
        edit = {"kind": "drop_rule", "rule": rule}
        assert "'rule'" in _rejected(lambda: client.edit_rule("t", edit))

    def test_explain_of_a_non_candidate_is_not_found(self, served):
        client, _ = served
        message = _rejected(lambda: client.explain("t", "a2", "b9"), "not_found")
        assert "not a candidate pair" in message

    def test_explain_rejects_non_string_ids(self, served):
        client, _ = served
        _rejected(lambda: client.request(
            "POST", "/sessions/t/explain", {"a_id": 1, "b_id": "b1"}
        ))

    def test_close_rejects_a_body_that_is_not_an_object(self, served):
        client, _ = served
        _rejected(lambda: client.request("DELETE", "/sessions/t", [True]))
        assert [s["name"] for s in client.list_sessions()] == ["t"]

    @pytest.mark.parametrize("limit", [-1, 0])
    def test_trace_rejects_a_limit_below_one(self, served, limit):
        client, _ = served
        assert "'limit'" in _rejected(lambda: client.trace("t", limit=limit))
        assert len(client.trace("t", limit=1)["spans"]) == 1

    @pytest.mark.parametrize("length", [b"ten", b"-5", b"1e3", b"\xb2"])
    def test_malformed_content_length_gets_an_error_envelope(self, served, length):
        client, _ = served
        with socket.create_connection((client.host, client.port), timeout=30) as sock:
            sock.sendall(
                b"POST /sessions HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n"
            )
            response = b""
            while chunk := sock.recv(4096):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert b" 400 " in head.split(b"\r\n")[0]
        envelope = json.loads(body)
        assert envelope["error"]["code"] == "bad_request"
        assert "Content-Length" in envelope["error"]["message"]


# ----------------------------------------------------------------------
# Sessions keep the feature resolver they were created with
# ----------------------------------------------------------------------


RESTAURANTS = {"name": "restaurants", "scale": 0.3}


@pytest.fixture(scope="module")
def restaurants(tmp_path_factory):
    registry = SessionRegistry(checkpoint_root=tmp_path_factory.mktemp("ckpt"))
    handlers = ServiceHandlers(registry)
    handlers.create_session({"name": "orig", "dataset": RESTAURANTS})
    return registry, handlers


class TestFeatureResolution:
    def test_restored_session_follows_the_original_under_updates(self, restaurants):
        registry, handlers = restaurants
        registry.checkpoint("orig")
        restored_registry = SessionRegistry(checkpoint_root=registry.checkpoint_root)
        assert restored_registry.restore_all() == ["orig"]
        restored = ServiceHandlers(restored_registry)
        original = registry.get("orig").streaming
        table_b = original.table_b
        # 30 renames: record i of A takes the name of a B record.
        deltas = [
            {"op": "update", "side": "a", "id": record.record_id,
             "values": {"name": table_b[(7 * i) % len(table_b)].get("name")}}
            for i, record in enumerate(list(original.table_a)[:30])
        ]
        for delta in deltas:
            handlers.ingest("orig", {"deltas": [delta]})
            restored.ingest("orig", {"deltas": [delta]})
        copy = restored_registry.get("orig").streaming
        assert np.array_equal(original.state.labels, copy.state.labels)
        assert copy.state.match_count() == original.state.match_count()

    def test_add_rule_reuses_the_corpus_bound_feature(self, restaurants):
        registry, handlers = restaurants
        handlers.create_session({"name": "edit", "dataset": RESTAURANTS})
        handlers.edit_rule(
            "edit",
            {"kind": "add_rule", "rule_dsl": "extra: tfidf_ws(name, name) >= 0.8"},
        )
        function = registry.get("edit").streaming.function
        added = function.rule("extra").predicates[0].feature
        existing = [
            predicate.feature
            for rule in function.rules
            if rule.name != "extra"
            for predicate in rule.predicates
            if predicate.feature.name == added.name
        ]
        assert existing and all(feature is added for feature in existing)
        assert added is registry.get("edit").space.get("tfidf_ws(name,name)")

    def test_feature_space_refine_needs_a_dataset_session(self, restaurants):
        registry, handlers = restaurants
        handlers.create_session(_tables_payload("tables"))
        with pytest.raises(ServiceError) as excinfo:
            handlers.refine("tables", {"feature_space": True, "budget": 5})
        assert excinfo.value.code == "bad_request"


# ----------------------------------------------------------------------
# Fuzz: arbitrary JSON into every handler that takes a payload
# ----------------------------------------------------------------------


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=12)
)
JSON = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)


def _fields(**choices):
    """Objects over known keys: each value is one of the plausible
    ``choices`` or arbitrary JSON."""
    return st.fixed_dictionaries(
        {},
        optional={
            key: st.sampled_from(values) | JSON for key, values in choices.items()
        },
    )


FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

@pytest.fixture(scope="module")
def handlers():
    handlers = ServiceHandlers(SessionRegistry())
    handlers.create_session(_tables_payload("fuzz"))
    return handlers


def _write_rejects_cleanly(handlers, operation, payload):
    managed = handlers.registry.get("fuzz")
    before = _snapshot(managed)
    try:
        getattr(handlers, operation)("fuzz", payload)
    except ReproError:
        _assert_unchanged(managed, before)


class TestPayloadFuzz:
    @FUZZ
    @given(
        JSON
        | _fields(
            name=["s", "", "../x", "fuzz"],
            table_a=[_table(ROWS_A), {"attributes": ["title"]}],
            table_b=[_table(ROWS_B)],
            rules=[RULES, "R1: nope(x, x) >= 1", ""],
            blocker=[{"kind": "overlap", "attribute": "title"}, {"kind": "x"}],
            gold=[[["a1", "b1"]], [], [[1, 2]]],
            dataset=[{"name": "nope"}, {"name": "restaurants", "scale": -1}],
            ordering=["algorithm5", "nope"],
            memo_backend=["array", "hash", "disk"],
            use_kernels=[True, False],
            use_bounds=[True, False],
            observability=[True, False],
            drift_every=[1, 0],
        )
    )
    def test_create_session(self, handlers, payload):
        try:
            created = handlers.create_session(payload)
        except ReproError:
            return
        handlers.close_session(created["session"]["name"])

    @FUZZ
    @given(
        JSON
        | _fields(
            deltas=[[], [{"op": "delete", "side": "b", "id": "b2"}]]
        )
        | st.fixed_dictionaries({
            "deltas": st.lists(
                _fields(
                    op=["insert", "update", "delete"],
                    side=["a", "b"],
                    id=["a1", "a2", "b1", "zz"],
                    values=[{"title": "red apple pie"}, {"author": None}, {}],
                ),
                max_size=3,
            )
        })
    )
    def test_ingest(self, handlers, payload):
        _write_rejects_cleanly(handlers, "ingest", payload)

    @FUZZ
    @given(
        JSON
        | _fields(
            kind=["tighten", "relax", "drop_predicate", "drop_rule", "add_rule"],
            rule=["R1", "R2", "R9"],
            slot=["jaccard_ws(title,title)#lb", "jaro(author,author)#lb", "x"],
            threshold=[0.0, 0.5, 0.95, 1.5],
            rule_dsl=["R3: exact_match(author, author) >= 1", "R3: ??"],
        )
    )
    def test_edit_rule(self, handlers, payload):
        _write_rejects_cleanly(handlers, "edit_rule", payload)

    @FUZZ
    @given(
        JSON
        | _fields(
            budget=[1, 5, 0],
            beam_width=[1, 2],
            max_depth=[1, 2],
            max_candidates_per_round=[4, 0, -1],
            max_per_slot=[1, 0],
            risk_sample=[10, 0],
            seed=[0, 3, -1],
            attribution_limit=[2, -1],
            cost_strategy=["dynamic_memo", "nope"],
            estimate_mode=["calibrated", "measured", "nope"],
            admit_fractions=[[0.5], [2.0], [-1.0], []],
            focus_rules=[["R1"], "R1", []],
            apply=["best", 0, 9, True],
            warm_start=[True],
            feature_space=[True, False],
        )
    )
    def test_refine(self, handlers, payload):
        _write_rejects_cleanly(handlers, "refine", payload)

    @FUZZ
    @given(JSON | _fields(a_id=["a1", "a2", "zz"], b_id=["b1", "b2", "zz"]))
    def test_explain(self, handlers, payload):
        _write_rejects_cleanly(handlers, "explain", payload)

    @FUZZ
    @given(JSON)
    def test_close_session(self, handlers, payload):
        with pytest.raises(ReproError):
            handlers.close_session("absent", payload)

    @FUZZ
    @given(JSON)
    def test_change_from_payload(self, payload):
        try:
            change_from_payload(payload)
        except ReproError:
            pass

    @FUZZ
    @given(JSON)
    def test_deltas_from_payload(self, payload):
        try:
            deltas_from_payload(payload)
        except ReproError:
            pass

    @settings(max_examples=400, deadline=None)
    @given(
        st.text(max_size=60)
        | st.text(alphabet="R1:() ,>=<.0123456789abjdeklmnopstw_&|!ANDOR", max_size=60)
    )
    def test_parse_function(self, text):
        # Pins current behaviour: the DSL parser raises only ReproError.
        try:
            parse_function(text)
        except ReproError:
            pass

