"""Interactive command-line workbench — the Figure 1 loop at a prompt.

``python -m repro.workbench`` starts a small REPL where an analyst can
load a dataset (which runs the initial match), inspect quality and
individual pairs, apply rule edits (incrementally), ask for suggested
edits, and save/restore the session:

.. code-block:: text

    repro> load products --scale 0.4
    repro> metrics
    repro> suggest tighten
    repro> apply 1
    repro> explain a3 b17
    repro> save /tmp/session1

One command surface serves both front ends of the loop.  The workbench
hosts its session in an in-process
:class:`~repro.service.SessionRegistry` behind
:class:`~repro.service.ServiceHandlers`.  Each verb the two share
(``load``, ``ingest``, the rule edits, ``explain``, ``refine``,
``metrics``, ``trace``, ``stats``) is one argument grammar that builds
the service payload plus one renderer of the reply; ``remote <verb>
<session> [args]`` sends the same payload to a server through
:class:`~repro.service.ServiceClient`.  The local-only commands read the
hosted session under its lock.  :class:`Workbench` maps command strings
to output text, so it is testable without a TTY.
"""

from __future__ import annotations

import json
import shlex
import sys
import time
from functools import partial
from typing import Callable, Dict, List, Optional

from .core.parser import format_rule
from .core.persistence import stats_from_dict
from .errors import ReproError
from .evaluation.suggest import suggest_relaxations, suggest_tightenings
from .observability import DEFAULT_SAMPLE_EVERY, detect_drift
from .observability.export import histogram_quantile, parse_prometheus
from .observability.spans import SpanLog, SpanRecord
from .service import (
    ManagedSession,
    ServiceClient,
    ServiceClientError,
    ServiceHandlers,
    SessionRegistry,
)
from .service.protocol import table_to_payload


class WorkbenchError(ReproError):
    """User-facing command error (bad syntax, wrong session phase)."""


NO_SESSION = "no active run; load a dataset first ('load' or 'load-csv')"

#: handler operation -> (HTTP method, route under ``/sessions/{name}``).
_ROUTES = {
    "create_session": ("POST", None),
    "session_info": ("GET", ""),
    "close_session": ("DELETE", ""),
    "ingest": ("POST", "/ingest"),
    "edit_rule": ("POST", "/edit"),
    "explain": ("POST", "/explain"),
    "refine": ("POST", "/refine"),
    "matches": ("GET", "/matches"),
    "metrics": ("GET", "/metrics"),
    "trace": ("GET", "/trace"),
}

#: the rule-edit verbs' positional arguments, in payload-field order.
_EDIT_FIELDS = {
    "tighten": ("rule", "slot", "threshold"),
    "relax": ("rule", "slot", "threshold"),
    "drop_predicate": ("rule", "slot"),
    "drop_rule": ("rule",),
    "add_rule": ("rule_dsl",),
}

Send = Callable[..., dict]


def _parse_flags(arguments: List[str], grammar: dict, usage: str) -> dict:
    """``--flag value`` arguments -> ``{key: value}``.  ``grammar`` maps a
    flag to ``(key, convert)``; ``convert=None`` marks a switch."""
    options = {}
    iterator = iter(arguments)
    for flag in iterator:
        if flag not in grammar:
            raise WorkbenchError(f"unknown flag {flag!r}; usage: {usage}")
        key, convert = grammar[flag]
        try:
            options[key] = True if convert is None else convert(next(iterator))
        except StopIteration:
            raise WorkbenchError(f"flag {flag!r} needs a value") from None
        except ValueError:
            noun = "an integer" if convert is int else "a number"
            raise WorkbenchError(f"{flag} needs {noun}") from None
    return options


def _over_http(call, *args):
    """``call(*args)`` against a server, its failures as WorkbenchErrors."""
    try:
        return call(*args)
    except ServiceClientError as error:
        raise WorkbenchError(f"server error [{error.code}]: {error}") from error
    except (ConnectionError, OSError) as error:
        raise WorkbenchError(f"connection failed: {error}") from error


# ---------------------------------------------------------------------------
# Renderers: one per reply shape, shared by both modes
# ---------------------------------------------------------------------------


def _render_created(reply: dict) -> str:
    session, dataset = reply["session"], reply["session"]["dataset"]
    source = (
        f"{dataset['name']} (scale {dataset['scale']:g}, seed {dataset['seed']})"
        if dataset else "tables"
    )
    return (
        f"loaded {source}: {session['candidates']} candidate pairs, "
        f"rules={len(session['rules'])}, "
        f"matched={reply['initial_run']['match_count']}"
    )


def _render_confusion(confusion: dict) -> str:
    return (
        f"P={confusion['precision']:.3f} R={confusion['recall']:.3f} "
        f"F1={confusion['f1']:.3f} (tp={confusion['true_positives']} "
        f"fp={confusion['false_positives']} fn={confusion['false_negatives']})"
    )


def _render_edit(reply: dict) -> str:
    stats = reply["stats"]
    return (
        f"{reply['change']}: affected={reply['affected_pairs']} "
        f"+{reply['newly_matched']}/-{reply['newly_unmatched']} matches, "
        f"{stats['elapsed_seconds'] * 1000:.2f}ms "
        f"(computed={stats['feature_computations']}, hits={stats['memo_hits']})"
    )


def _render_explanation(reply: dict) -> str:
    verdict = "MATCH" if reply["matched"] else "NO MATCH"
    lines = [f"pair {tuple(reply['pair'])}: {verdict}"]
    for rule in reply["rules"]:
        lines.append(f"  [{'+' if rule['matched'] else '-'}] {rule['rule']}")
        lines.extend(
            f"        {'ok ' if predicate['passed'] else 'FAIL'} {predicate['pid']}"
            f"  (value={predicate['value']:.4f})"
            for predicate in rule["predicates"]
        )
    return "\n".join(lines)


def _render_point(point: dict) -> str:
    """One baseline/frontier entry of a refinement report."""
    return (
        f"P={point['precision']:.3f} R={point['recall']:.3f} "
        f"F1={point['f1']:.3f} cost={point['expected_cost'] * 1e6:.2f}us/pair"
        f"  [{'; '.join(point['edits']) or '(no edits)'}]"
    )


def _render_refinement(report: dict) -> str:
    lines = [
        f"baseline: {_render_point(report['baseline'])}",
        f"scored {report['candidates_scored']} candidate(s) in "
        f"{report['rounds']} round(s) ({report['incremental_evals']} "
        f"incremental evals, {report['full_rematches']} full re-matches)",
    ]
    for index, point in enumerate(report["frontier"]):
        marker = "*" if index == report["best_index"] else " "
        lines.append(f"{index + 1}.{marker} {_render_point(point)}")
    lines.append("apply one with: refine apply <n>")
    return "\n".join(lines)


def _render_metric(name: str, data: dict) -> str:
    if data["type"] != "histogram":
        return f"  {name}: {data['value']:g}"
    mean = data["total"] / data["count"] if data["count"] else 0.0
    return (
        f"  {name}: n={data['count']} mean={mean:.6g} "
        f"min={data['min']} max={data['max']}"
    )


def _render_top_frame(client: ServiceClient) -> str:
    """One dashboard frame from ``/health`` and one ``/metrics`` scrape."""
    health = client.health()
    samples = parse_prometheus(client.scrape_metrics())["samples"]

    def sample(name, **labels):
        return samples.get((name, tuple(sorted(labels.items())))) or 0.0

    lines = [
        f"service: {health['status']}  sessions={health['sessions']}  "
        f"durable={'yes' if health['durable'] else 'no'}  "
        f"restore_failures={len(health['restore_failures'])}  "
        f"restore_fallbacks={len(health['restore_fallbacks'])}"
    ]
    window = samples.get(("repro_http_window_seconds", ()))
    if window is not None:
        lines.append(
            f"requests (last {window:g}s):  "
            f"{sample('repro_http_requests'):g} total, "
            f"{sample('repro_http_request_rate'):.2f}/s, "
            f"{sample('repro_http_error_rate'):.1%} errors"
        )
        endpoints = {
            dict(labels).get("endpoint")
            for name, labels in samples
            if name == "repro_http_requests" and labels
        }
        for endpoint in sorted(endpoints - {None}):
            p50, p95 = (
                histogram_quantile(
                    samples, "repro_http_request_seconds", q,
                    labels={"endpoint": endpoint},
                ) or 0.0
                for q in (0.5, 0.95)
            )
            lines.append(
                f"  {endpoint}: "
                f"n={sample('repro_http_requests', endpoint=endpoint):g} "
                f"err={sample('repro_http_error_rate', endpoint=endpoint):.1%} "
                f"p50={p50 * 1000:.1f}ms p95={p95 * 1000:.1f}ms"
            )
    for state in health.get("sessions_state", []):
        lines.append(
            f"  session {state['name']}: seq={state['seq']} "
            f"pending={state['pending']}{' [dirty]' if state['dirty'] else ''}"
        )
    slo = health.get("slo")
    for objective in slo["objectives"] if slo else ():
        verdict = {None: "no data", True: "OK", False: "BREACH"}[objective["ok"]]
        observed = objective["observed"]
        lines.append(
            f"  slo {objective['name']}: {verdict} ({objective['objective']}"
            f"{f' observed={observed:.4g}' if observed is not None else ''})"
        )
    if slo and slo["alerts"]:
        lines.append(
            f"  alerts: {slo['alerts_total']} total, "
            f"latest: {slo['alerts'][-1]['message']}"
        )
    return "\n".join(lines)


class Workbench:
    """Stateful command interpreter over one hosted debugging session."""

    def __init__(self):
        # The hosted session lives in an in-process, non-durable registry
        # behind the same handlers a server runs.
        self.registry = SessionRegistry(checkpoint_root=None)
        self.handlers = ServiceHandlers(self.registry)
        self.session_name: Optional[str] = None
        self._sessions_hosted = 0
        self.suggestions = []
        #: the last refine: its session, payload, and the edits of each
        #: frontier entry it listed ('refine apply <n>' re-sends it).
        self.refinement: Optional[dict] = None
        # an embedded server ('serve') and a connection to one ('remote').
        self.service_thread = None
        self.remote_client: Optional[ServiceClient] = None
        #: shared verbs: run(send, arguments) -> output text.
        self._shared: Dict[str, Callable[[Send, List[str]], str]] = {
            name[5:].replace("_", "-"): getattr(self, name)
            for name in dir(self) if name.startswith("verb_")
        }
        for kind in _EDIT_FIELDS:
            self._shared[kind.replace("_", "-")] = partial(self._edit, kind)
        self._commands: Dict[str, Callable[[List[str]], str]] = {
            name[4:].replace("_", "-"): getattr(self, name)
            for name in dir(self) if name.startswith("cmd_")
        }
        for verb, run in self._shared.items():
            self._commands[verb] = partial(run, self._local_send)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def execute(self, line: str) -> str:
        """Run one command line; returns the output text (never prints)."""
        parts = shlex.split(line)
        if not parts:
            return ""
        command, *arguments = parts
        handler = self._commands.get(command)
        if handler is None:
            raise WorkbenchError(f"unknown command {command!r}; try 'help'")
        return handler(arguments)

    @property
    def hosted(self) -> ManagedSession:
        """The in-process session the local commands act on."""
        if self.session_name is None:
            raise WorkbenchError(NO_SESSION)
        return self.registry.get(self.session_name)

    @property
    def session(self):
        """The hosted session's :class:`~repro.core.session.DebugSession`."""
        return self.hosted.streaming.session

    def _next_name(self) -> str:
        self._sessions_hosted += 1
        return f"local-{self._sessions_hosted}"

    def _host(self, name: str) -> None:
        """Make ``name`` the hosted session, closing the one it replaces."""
        previous, self.session_name = self.session_name, name
        if previous is not None:
            self.registry.close(previous, checkpoint=False)
        self.suggestions, self.refinement = [], None

    def _local_send(self, op: str, payload: Optional[dict] = None) -> dict:
        """A shared verb's request, run by the in-process handlers."""
        if op == "create_session":
            arguments = ({**payload, "name": self._next_name()},)
        else:
            name = self.hosted.name
            arguments = (name,) if payload is None else (name, payload)
        try:
            reply = getattr(self.handlers, op)(*arguments)
        except ReproError as error:
            raise WorkbenchError(str(error)) from error
        if op == "create_session":
            self._host(arguments[0]["name"])
        return reply

    def _remote_send(self, session: str) -> Send:
        """A shared verb's requests, sent to ``session`` on the server."""
        client = self._require_remote()

        def send(op: str, payload: Optional[dict] = None) -> dict:
            method, route = _ROUTES[op]
            if route is None:
                path, payload = "/sessions", {**payload, "name": session}
            else:
                path = f"/sessions/{session}{route}"
            return _over_http(client.request, method, path, payload)

        return send

    # ------------------------------------------------------------------
    # Shared verbs: grammar -> payload -> handler -> renderer
    # ------------------------------------------------------------------

    def verb_load(self, send: Send, arguments: List[str]) -> str:
        usage = "load <dataset> [--scale S] [--rules N] [--seed K]"
        if not arguments:
            raise WorkbenchError(f"usage: {usage}")
        spec = {"name": arguments[0], "scale": 0.5, "max_rules": 80, "seed": 7}
        spec.update(_parse_flags(arguments[1:], {
            "--scale": ("scale", float),
            "--rules": ("max_rules", int),
            "--seed": ("seed", int),
        }, usage))
        return _render_created(
            send("create_session", {"dataset": spec, "ordering": "algorithm6"})
        )

    def verb_load_csv(self, send: Send, arguments: List[str]) -> str:
        """Two CSV tables (id column ``id``), blocked on one attribute,
        matched with the supplied DSL rules."""
        from .data import load_gold, load_table

        usage = (
            "load-csv <a.csv> <b.csv> --block <attr> [--overlap N] "
            "[--gold gold.csv] --rules '<DSL>'"
        )
        if len(arguments) < 2:
            raise WorkbenchError(f"usage: {usage}")
        options = _parse_flags(arguments[2:], {
            "--block": ("attribute", str),
            "--overlap": ("min_overlap", int),
            "--gold": ("gold", str),
            "--rules": ("rules", str),
        }, usage)
        if "attribute" not in options or "rules" not in options:
            raise WorkbenchError("--block and --rules are required")
        rules, gold_path = options.pop("rules"), options.pop("gold", None)
        payload = {
            "rules": rules,
            "blocker": {"kind": "overlap", "min_overlap": 1, **options},
            "ordering": "algorithm5",
        }
        try:
            payload["table_a"], payload["table_b"] = (
                table_to_payload(load_table(path)) for path in arguments[:2]
            )
            if gold_path is not None:
                payload["gold"] = sorted(map(list, load_gold(gold_path)))
        except OSError as error:
            raise WorkbenchError(
                f"cannot read {error.filename}: {error.strerror}"
            ) from error
        return _render_created(send("create_session", payload))

    def verb_ingest(self, send: Send, arguments: List[str]) -> str:
        """``ingest <insert|update|delete> <a|b> <id> [attr=value ...]``"""
        if len(arguments) < 3:
            raise WorkbenchError(
                "usage: ingest <insert|update|delete> <a|b> <record_id> "
                "[attr=value ...]"
            )
        op, side, record_id, *assignments = arguments
        if op not in ("insert", "update", "delete"):
            raise WorkbenchError(
                f"unknown delta op {op!r}; use insert, update, or delete"
            )
        values = {}
        for assignment in assignments:
            attribute, separator, value = assignment.partition("=")
            if not separator or not attribute:
                raise WorkbenchError(f"expected attr=value, got {assignment!r}")
            values[attribute] = value if value != "" else None
        delta = {"op": op, "side": side, "id": record_id}
        if op != "delete":
            delta["values"] = values
        elif values:
            raise WorkbenchError("delete takes no attr=value arguments")
        batch = send("ingest", {"deltas": [delta]})["batch"]
        return (
            f"ingested: {stats_from_dict(batch['stats']).delta_summary()}, "
            f"matches={batch['match_count']}"
        )

    def _edit(self, kind: str, send: Send, arguments: List[str]) -> str:
        """The rule-edit verbs (Algorithms 7-10), one ``edit`` payload each."""
        fields = _EDIT_FIELDS[kind]
        if kind == "add_rule" and arguments:
            arguments = [" ".join(arguments)]
        if len(arguments) != len(fields):
            raise WorkbenchError(
                f"usage: {kind.replace('_', '-')} "
                + " ".join(f"<{field}>" for field in fields)
            )
        payload = {"kind": kind, **dict(zip(fields, arguments))}
        if "threshold" in payload:
            try:
                payload["threshold"] = float(payload["threshold"])
            except ValueError:
                raise WorkbenchError(
                    f"{payload['threshold']!r} is not a number"
                ) from None
        return _render_edit(send("edit_rule", payload))

    def verb_explain(self, send: Send, arguments: List[str]) -> str:
        if len(arguments) != 2:
            raise WorkbenchError("usage: explain <a_id> <b_id>")
        a_id, b_id = arguments
        return _render_explanation(send("explain", {"a_id": a_id, "b_id": b_id}))

    def verb_refine(self, send: Send, arguments: List[str]) -> str:
        """``refine [--budget N] [--beam W] [--depth D] [--seed K]
        [--space]`` searches and prints the Pareto frontier; ``refine
        apply <n>`` applies the n-th entry of the last search."""
        if arguments[:1] == ["apply"]:
            return self._refine_apply(send, arguments[1:])
        payload = _parse_flags(arguments, {
            "--budget": ("budget", int),
            "--beam": ("beam_width", int),
            "--depth": ("max_depth", int),
            "--seed": ("seed", int),
            "--space": ("feature_space", None),
        }, "refine [--budget N] [--beam W] [--depth D] [--seed K] [--space]")
        reply = send("refine", payload)
        self.refinement = {
            "session": reply["session"],
            "payload": payload,
            "frontier": [point["edits"] for point in reply["report"]["frontier"]],
        }
        return _render_refinement(reply["report"])

    def _refine_apply(self, send: Send, arguments: List[str]) -> str:
        """Re-send the last search with ``"apply": n-1``.  The search is
        deterministic under its seed, so it lists the same frontier unless
        the session changed since; a re-search without ``apply`` checks
        that first, and nothing is applied if the entry's edits differ."""
        if len(arguments) != 1 or not arguments[0].isdigit():
            raise WorkbenchError("usage: refine apply <frontier number>")
        last, position = self.refinement, int(arguments[0]) - 1
        if last is None:
            raise WorkbenchError("no refinement result; run 'refine' first")
        if not 0 <= position < len(last["frontier"]):
            raise WorkbenchError(
                f"no frontier entry #{arguments[0]} "
                f"(the frontier has {len(last['frontier'])} point(s))"
            )
        listed = last["frontier"][position]
        if not listed:
            return "that frontier point is the unedited baseline"
        reply = send("refine", last["payload"])
        frontier = reply["report"]["frontier"]
        if reply["session"] != last["session"] or not (
            position < len(frontier) and frontier[position]["edits"] == listed
        ):
            raise WorkbenchError(
                f"frontier entry #{arguments[0]} is not the one listed (the "
                f"session changed); nothing applied, run 'refine' again"
            )
        self.refinement = None
        applied = send("refine", {**last["payload"], "apply": position})["applied"]
        if applied["edits"] != listed:
            raise WorkbenchError(
                f"the session changed during the request: applied "
                f"[{'; '.join(applied['edits'])}], not [{'; '.join(listed)}]"
            )
        lines = [f"applied: {'; '.join(applied['edits'])}"]
        if applied["confusion"] is not None:
            lines.append(_render_confusion(applied["confusion"]))
        return "\n".join(lines)

    def verb_metrics(self, send: Send, arguments: List[str]) -> str:
        """P/R/F1 against gold, from the ``matches`` reply."""
        if arguments:
            raise WorkbenchError("usage: metrics")
        confusion = send("matches").get("confusion")
        if confusion is None:
            raise WorkbenchError("the session has no gold labels to score against")
        return _render_confusion(confusion)

    def verb_trace(self, send: Send, arguments: List[str]) -> str:
        """``trace [--json]`` — span tree of everything recorded so far."""
        if arguments not in ([], ["--json"]):
            raise WorkbenchError("usage: trace [--json]")
        spans = send("trace")["spans"]
        if not spans:
            return "no spans recorded yet; 'run' or 'ingest' something first"
        if arguments:
            return "\n".join(
                json.dumps(span, sort_keys=True, default=str) for span in spans
            )
        log = SpanLog()
        log.records = [SpanRecord(**span) for span in spans]
        return log.render()

    def verb_stats(self, send: Send, arguments: List[str]) -> str:
        """Rule-set structure plus the session's engine metrics."""
        if arguments:
            raise WorkbenchError("usage: stats")
        structure = send("session_info")["structure"]
        snapshot = send("metrics")["snapshot"]
        metrics = [_render_metric(name, data) for name, data in snapshot.items()]
        return "\n".join([structure, "", "metrics:", *metrics])

    # ------------------------------------------------------------------
    # Local-only commands: read the hosted session under its lock
    # ------------------------------------------------------------------

    def cmd_help(self, arguments: List[str]) -> str:
        return """commands ('*': also 'remote <command> <session> [args]' on a server):
* load <dataset> [--scale S] [--rules N] [--seed K]   build the workload, match
* load-csv <a.csv> <b.csv> --block <attr> [--overlap N] [--gold g.csv]
           --rules '<DSL>'            your own tables and rules, matched
* metrics                      P/R/F1 against gold
* explain <a_id> <b_id>        per-rule, per-predicate trace
* tighten <rule> <slot> <thr>  stricter threshold (Alg 7)
* relax <rule> <slot> <thr>    looser threshold (Alg 8)
* drop-predicate <rule> <slot> remove a predicate (Alg 8)
* drop-rule <rule>             remove a rule (Alg 9)
* add-rule <dsl text>          add a rule (Alg 10)
* ingest <insert|update|delete> <a|b> <id> [attr=value ...]
                               apply a record delta, re-match affected pairs
* refine [--budget N] [--beam W] [--depth D] [--seed K] [--space]
                               edit search -> Pareto frontier (P, R, cost)
* refine apply <n>             re-run that search and apply entry n
* stats                        rule-set structure + engine metrics
* trace [--json]               span tree of run/ingest timings
  run                          full re-match (orders rules first)
  rules | history              current rules | applied edits with timings
  plan                         compiled plan with cost/selectivity estimates
  delta-stats                  per-batch streaming counters
  suggest [tighten|relax]      ranked edit proposals; apply <n> applies one
  memory | cache stats         state bytes | token caches and bound skips
  profile [on|off] [--sample N]  sampled per-feature cost profile
  drift                        observed vs estimated costs, stale ordering
  simplify | lint | report     subsumed rules | rule checks | rule precision
  save <dir> | restore <dir>   checkpoint / restore the session
  serve start [port] [ckpt-dir] | status | stop    in-process service
  remote connect <host:port>   point 'remote' at a server
  remote sessions | info <session> | close <session>
  top [--watch N] [--interval S]  dashboard from /metrics and /health"""

    def cmd_rules(self, arguments: List[str]) -> str:
        return self.hosted.read(
            lambda streaming: "\n".join(map(format_rule, streaming.function.rules))
        )

    def cmd_plan(self, arguments: List[str]) -> str:
        """The compiled evaluation plan of the current function (kernel
        support and fallback reasons, bound eligibility, cost-model
        annotations) and the engine the session picks for it."""
        if arguments:
            raise WorkbenchError("usage: plan")

        def describe(streaming) -> str:
            session = streaming.session
            plan = session.state.plan
            resolved = plan.engine_for(session.engine)
            return plan.describe() + f"\nengine: {session.engine} -> {resolved}"

        return self.hosted.read(describe)

    def cmd_run(self, arguments: List[str]) -> str:
        if arguments:
            raise WorkbenchError(f"unknown flag {arguments[0]!r}")
        result = self.hosted.write(lambda streaming: streaming.run())
        return f"ran: {result.stats.summary()}"

    def cmd_delta_stats(self, arguments: List[str]) -> str:
        def describe(streaming) -> str:
            if not streaming.batch_history:
                return "no deltas ingested yet"
            return "\n".join([
                *(
                    f"{index + 1}. {result.summary()}"
                    for index, result in enumerate(streaming.batch_history)
                ),
                f"total: {streaming.total_batch_stats().delta_summary()}",
            ])

        return self.hosted.read(describe)

    def cmd_suggest(self, arguments: List[str]) -> str:
        kind = arguments[0] if arguments else "tighten"
        propose = {"tighten": suggest_tightenings, "relax": suggest_relaxations}
        if kind not in propose or len(arguments) > 1:
            raise WorkbenchError("usage: suggest [tighten|relax]")

        def suggest(streaming):
            session = streaming.session
            if session.gold is None:
                raise WorkbenchError("suggestions need gold labels")
            return propose[kind](session.state, session.gold)

        self.suggestions = self.hosted.read(suggest)
        if not self.suggestions:
            return "no suggestions (nothing to fix in this direction)"
        return "\n".join(
            f"{index + 1}. {suggestion.describe()}"
            for index, suggestion in enumerate(self.suggestions)
        )

    def cmd_apply(self, arguments: List[str]) -> str:
        if len(arguments) != 1 or not arguments[0].isdigit():
            raise WorkbenchError("usage: apply <suggestion number>")
        position = int(arguments[0]) - 1
        if not 0 <= position < len(self.suggestions):
            raise WorkbenchError(f"no suggestion #{arguments[0]}; run 'suggest' first")
        change = self.suggestions.pop(position).change
        return self.hosted.write(lambda streaming: streaming.apply(change)).summary()

    def cmd_history(self, arguments: List[str]) -> str:
        history = self.hosted.read(lambda streaming: list(streaming.session.history))
        if not history:
            return "no edits applied yet"
        return "\n".join(
            f"{index + 1}. {result.summary()}" for index, result in enumerate(history)
        )

    def cmd_memory(self, arguments: List[str]) -> str:
        report = self.hosted.read(lambda streaming: streaming.session.memory_report())
        return (
            f"memo {report['memo'] / 1e6:.2f}MB, "
            f"rule bitmaps {report['rule_bitmaps'] / 1e6:.2f}MB, "
            f"predicate bitmaps {report['predicate_bitmaps'] / 1e6:.2f}MB, "
            f"total {report['total'] / 1e6:.2f}MB"
        )

    def cmd_cache(self, arguments: List[str]) -> str:
        """``cache stats`` — per-(attribute, tokenizer) token-cache report.
        Folds the live kernel counters into the metrics registry first, so
        the totals match what ``stats`` shows."""
        if arguments not in ([], ["stats"]):
            raise WorkbenchError("usage: cache stats")

        def describe(streaming) -> str:
            kernels = streaming.session.kernels
            if kernels is None:
                return "token caching is off (session built with use_kernels=False)"
            if streaming.observability is not None:
                kernels.report_metrics(streaming.observability.metrics)
            cache, rows = kernels.cache, kernels.cache.stats()
            if not rows:
                return "token cache is empty; 'run' something first"
            accesses = cache.total_hits + cache.total_misses
            return "\n".join([
                f"{'cache (attribute:tokenizer)':<38}{'entries':>8}{'hits':>10}"
                f"{'misses':>10}{'hit-rate':>10}",
                *(
                    f"{row['label']:<38}{row['entries']:>8}{row['hits']:>10}"
                    f"{row['misses']:>10}{row['hit_rate']:>9.1%}"
                    for row in rows
                ),
                f"total: {len(cache)} entries, {cache.total_hits} hits / "
                f"{accesses} accesses "
                f"({cache.total_hits / accesses if accesses else 0.0:.1%}), "
                f"{kernels.total_bound_skips} bound skips",
                *(["bound skips by predicate:"] if kernels.bound_skips else []),
                *(
                    f"  {pid:<48}{count:>8}"
                    for pid, count in sorted(kernels.bound_skips.items())
                ),
            ])

        return self.hosted.read(describe)

    def cmd_profile(self, arguments: List[str]) -> str:
        """``profile [on|off] [--sample N]``: with no arguments, the
        observed-cost table so far; ``on`` attaches a fresh profiler
        (sampling one feature computation in N) that later ``run`` and
        ``ingest`` calls feed; ``off`` detaches it."""
        mode = arguments[0] if arguments[:1] in (["on"], ["off"]) else None
        sample_every = _parse_flags(
            arguments[1:] if mode else arguments,
            {"--sample": ("sample", int)},
            "profile [on|off] [--sample N]",
        ).get("sample", DEFAULT_SAMPLE_EVERY)
        if sample_every < 1:
            raise WorkbenchError("--sample must be >= 1")

        def toggle(streaming) -> str:
            observability = streaming.observability
            if mode == "on":
                observability.enable_profiling(sample_every=sample_every)
                return (
                    f"profiling on (sampling 1/{sample_every}); "
                    "'run' to collect, 'profile' to inspect, 'drift' to compare"
                )
            if mode == "off":
                observability.disable_profiling()
                return "profiling off"
            if observability.profiler is None:
                return "profiling is off; 'profile on' to enable"
            return observability.profiler.render()

        return self.hosted.read(toggle)

    def cmd_drift(self, arguments: List[str]) -> str:
        """Compare observed costs/selectivities against the estimates."""

        def compare(streaming) -> str:
            session, profiler = streaming.session, streaming.observability.profiler
            if profiler is None:
                raise WorkbenchError(
                    "drift needs a profile; 'profile on' then 'run' first"
                )
            if session.estimates is None:
                raise WorkbenchError(
                    "no cost estimates to compare against; 'run' first"
                )
            return detect_drift(
                session.function, session.estimates, profiler,
                ordering_strategy=session.ordering_strategy,
            ).render()

        return self.hosted.read(compare)

    def cmd_simplify(self, arguments: List[str]) -> str:
        """Report (not apply) subsumed rules, with the commands to drop them."""
        from .learning.simplify import redundancy_report

        pairs = self.hosted.read(
            lambda streaming: redundancy_report(streaming.function)
        )
        if not pairs:
            return "no subsumed rules"
        return "\n".join(
            f"{specific} is subsumed by {general}  ->  drop-rule {specific}"
            for general, specific in pairs
        )

    def cmd_lint(self, arguments: List[str]) -> str:
        from .core.validation import lint_function

        findings = self.hosted.read(
            lambda streaming: lint_function(
                streaming.function, streaming.session.estimates
            )
        )
        if not findings:
            return "no findings — the rule set is clean"
        return "\n".join(finding.render() for finding in findings)

    def cmd_report(self, arguments: List[str]) -> str:
        from .evaluation.debug_report import build_report, render_report

        def report(streaming) -> str:
            session = streaming.session
            if session.gold is None:
                raise WorkbenchError("the report needs gold labels")
            return render_report(build_report(session.state, session.gold))

        return self.hosted.read(report)

    def cmd_save(self, arguments: List[str]) -> str:
        if len(arguments) != 1:
            raise WorkbenchError("usage: save <directory>")
        path = self.registry.checkpoint(self.hosted.name, arguments[0])
        return f"state saved to {path}"

    def cmd_restore(self, arguments: List[str]) -> str:
        if len(arguments) != 1:
            raise WorkbenchError("usage: restore <directory>")
        name = self._next_name()
        try:
            state = self.registry.restore(arguments[0], name).streaming.state
        except ReproError as error:
            raise WorkbenchError(str(error)) from error
        self._host(name)
        return (
            f"state restored: {state.match_count()} matches, "
            f"{len(state.memo)} memoized values"
        )

    # ------------------------------------------------------------------
    # Service layer: embedded server + remote client
    # ------------------------------------------------------------------

    def cmd_serve(self, arguments: List[str]) -> str:
        """``serve start [port] [checkpoint_dir]`` / ``status`` / ``stop``."""
        action = arguments[0] if arguments else "status"
        running = self.service_thread is not None and self.service_thread.running
        if action == "start":
            if running:
                host, port = self.service_thread.address
                raise WorkbenchError(f"already serving on {host}:{port}")
            from .service import ServiceThread

            try:
                port = int(arguments[1]) if len(arguments) > 1 else 0
            except ValueError:
                raise WorkbenchError("serve start needs a numeric port") from None
            root = arguments[2] if len(arguments) > 2 else None
            self.service_thread = ServiceThread(port=port, checkpoint_root=root)
            host, bound = self.service_thread.start()
            restored = self.service_thread.service.restored_sessions
            return (
                f"serving on {host}:{bound}"
                + (f", checkpoints in {root}" if root else " (not durable)")
                + (f", restored {len(restored)} session(s)" if restored else "")
            )
        if action == "status":
            if not running:
                return "not serving"
            host, port = self.service_thread.address
            sessions = len(self.service_thread.service.registry)
            return f"serving on {host}:{port}, {sessions} session(s)"
        if action == "stop":
            if not running:
                raise WorkbenchError("not serving")
            report = self.service_thread.stop()
            self.service_thread = None
            return (
                f"stopped: drained={report['drained']} "
                f"checkpointed={report['checkpointed']} flushed={report['flushed']}"
            )
        raise WorkbenchError("usage: serve start [port] [ckpt-dir] | status | stop")

    def _require_remote(self) -> ServiceClient:
        if self.remote_client is None:
            raise WorkbenchError(
                "no server connection; use 'remote connect <host:port>'"
            )
        return self.remote_client

    def cmd_remote(self, arguments: List[str]) -> str:
        """``remote connect|sessions|info|close`` and ``remote <verb>
        <session> [args]`` for every shared verb (see ``help``)."""
        if not arguments:
            raise WorkbenchError("usage: remote <verb> <session> [args]; try 'help'")
        verb, *rest = arguments
        if verb == "connect":
            if len(rest) != 1 or ":" not in rest[0]:
                raise WorkbenchError("usage: remote connect <host:port>")
            host, _, port_text = rest[0].rpartition(":")
            if not port_text.isdigit():
                raise WorkbenchError(f"bad port {port_text!r}")
            client = ServiceClient(host, int(port_text))
            health = _over_http(client.health)
            self.remote_client = client
            return (
                f"connected to {host}:{port_text} ({health['sessions']} session(s), "
                f"{'durable' if health['durable'] else 'not durable'})"
            )
        if verb == "sessions":
            sessions = _over_http(self._require_remote().list_sessions)
            return "\n".join(
                f"{info['name']}: {info['candidates']} candidates, "
                f"{info['batches_ingested']} batch(es), seq={info['seq']}"
                f"{' [dirty]' if info['dirty'] else ''}"
                for info in sessions
            ) or "no sessions"
        if verb not in self._shared and verb not in ("info", "close"):
            raise WorkbenchError(f"unknown remote verb {verb!r}; try 'help'")
        if not rest or (verb in ("info", "close") and len(rest) != 1):
            raise WorkbenchError(f"usage: remote {verb} <session> [args]")
        send = self._remote_send(rest[0])
        if verb in self._shared:
            return self._shared[verb](send, rest[1:])
        if verb == "close":
            closed = send("close_session", {})
            return f"closed {closed['closed']!r} (checkpoint: {closed['checkpoint']})"
        info = send("session_info")
        return (
            f"{info['name']}: {info['candidates']} candidates, "
            f"{info['batches_ingested']} batch(es), {info['edits_applied']} "
            f"edit(s), rules: {', '.join(info['rules'])}"
        )

    def cmd_top(self, arguments: List[str]) -> str:
        """Live service dashboard: ``top`` renders one frame from ``GET
        /metrics`` and ``/health``; ``top --watch N [--interval S]`` polls
        N times, S seconds apart, and returns every frame."""
        client = self._require_remote()
        options = _parse_flags(arguments, {
            "--watch": ("frames", int),
            "--interval": ("interval", float),
        }, "top [--watch N] [--interval S]")
        frames = []
        for _ in range(options.get("frames", 1)):
            if frames:
                time.sleep(options.get("interval", 2.0))
            frames.append(_over_http(_render_top_frame, client))
        if not frames:
            raise WorkbenchError("--watch needs a positive count")
        return "\n\n".join(frames)


def main(argv: Optional[List[str]] = None) -> int:
    """REPL entry point for ``python -m repro.workbench``."""
    bench = Workbench()
    print("repro workbench — 'help' for commands, 'quit' to exit")
    while True:
        try:
            line = input("repro> ")
        except EOFError:
            print()
            return 0
        if line.strip() in ("quit", "exit"):
            return 0
        try:
            output = bench.execute(line)
        except ReproError as error:
            output = f"error: {error}"
        except Exception as error:  # surface, don't crash the loop
            output = f"internal error: {error!r}"
        if output:
            print(output)


if __name__ == "__main__":
    sys.exit(main())
