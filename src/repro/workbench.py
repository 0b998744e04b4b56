"""Interactive command-line workbench — the Figure 1 loop at a prompt.

``python -m repro.workbench`` starts a small REPL where an analyst can
load a dataset, run matching, inspect quality and individual pairs, apply
rule edits (incrementally), ask for suggested edits, and save/restore the
session state:

.. code-block:: text

    repro> load products --scale 0.4
    repro> run
    repro> metrics
    repro> suggest tighten
    repro> apply 1
    repro> explain a3 b17
    repro> save /tmp/session1

The engine is :class:`Workbench`, a plain object mapping command strings
to actions — fully testable without a TTY (``tests/test_workbench.py``).
"""

from __future__ import annotations

import shlex
import sys
import time
from typing import Callable, Dict, List, Optional

from .core.changes import (
    AddRule,
    Change,
    RelaxPredicate,
    RemovePredicate,
    RemoveRule,
    TightenPredicate,
)
from .core.parser import format_rule, parse_rule
from .core.persistence import load_state, save_state
from .core.session import DebugSession
from .errors import ReproError
from .observability import DEFAULT_SAMPLE_EVERY, Observability, detect_drift
from .evaluation.suggest import Suggestion, suggest_relaxations, suggest_tightenings
from .learning import build_workload


class WorkbenchError(ReproError):
    """User-facing command error (bad syntax, wrong session phase)."""


class Workbench:
    """Stateful command interpreter over one debugging session."""

    def __init__(self):
        self.workload = None
        self.session: Optional[DebugSession] = None
        self.suggestions: List[Suggestion] = []
        # last refinement report; 'refine apply <n>' indexes its frontier.
        self.refinement = None
        # live-table context for streaming ingestion; set by load/load-csv.
        self.tables = None
        self.blocker = None
        self.streaming = None
        # one Observability per loaded dataset; every run/ingest of the
        # session writes into it (see 'trace', 'profile', 'drift').
        self.observability: Optional[Observability] = None
        # service-layer handles: an embedded server ('serve') and a
        # client connection to any server ('remote').
        self.service_thread = None
        self.remote_client = None
        self._commands: Dict[str, Callable[[List[str]], str]] = {
            "help": self.cmd_help,
            "load": self.cmd_load,
            "load-csv": self.cmd_load_csv,
            "rules": self.cmd_rules,
            "plan": self.cmd_plan,
            "run": self.cmd_run,
            "ingest": self.cmd_ingest,
            "delta-stats": self.cmd_delta_stats,
            "metrics": self.cmd_metrics,
            "explain": self.cmd_explain,
            "tighten": self.cmd_tighten,
            "relax": self.cmd_relax,
            "drop-rule": self.cmd_drop_rule,
            "drop-predicate": self.cmd_drop_predicate,
            "add-rule": self.cmd_add_rule,
            "suggest": self.cmd_suggest,
            "apply": self.cmd_apply,
            "refine": self.cmd_refine,
            "history": self.cmd_history,
            "memory": self.cmd_memory,
            "cache": self.cmd_cache,
            "stats": self.cmd_stats,
            "trace": self.cmd_trace,
            "profile": self.cmd_profile,
            "drift": self.cmd_drift,
            "simplify": self.cmd_simplify,
            "lint": self.cmd_lint,
            "report": self.cmd_report,
            "save": self.cmd_save,
            "restore": self.cmd_restore,
            "serve": self.cmd_serve,
            "remote": self.cmd_remote,
            "top": self.cmd_top,
        }

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
            raise WorkbenchError(
                f"unknown command {command!r}; try 'help'"
            )
        return handler(arguments)

    def _require_session(self) -> DebugSession:
        if self.session is None or self.session.state is None:
            raise WorkbenchError("no active run; use 'load <dataset>' then 'run'")
        return self.session

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------

    def cmd_help(self, arguments: List[str]) -> str:
        return "\n".join(
            [
                "commands:",
                "  load <dataset> [--scale S] [--rules N] [--seed K]",
                "  load-csv <a.csv> <b.csv> --block <attr> --rules '<DSL>'",
                "  run                          full matching run (orders rules first)",
                "  rules                        list current rules",
                "  plan                         compiled evaluation plan with",
                "                               cost/selectivity annotations",
                "  metrics                      P/R/F1 against gold",
                "  explain <a_id> <b_id>        per-rule, per-predicate trace",
                "  tighten <rule> <slot> <thr>  stricter threshold (Alg 7)",
                "  relax <rule> <slot> <thr>    looser threshold (Alg 8)",
                "  drop-predicate <rule> <slot> remove a predicate (Alg 8)",
                "  drop-rule <rule>             remove a rule (Alg 9)",
                "  add-rule <dsl text>          add a rule (Alg 10)",
                "  ingest <op> <side> <id> [attr=value ...]",
                "                               apply a record delta (op: insert|",
                "                               update|delete; side: a|b) and re-",
                "                               match only the affected pairs",
                "  delta-stats                  per-batch streaming counters",
                "  suggest [tighten|relax]      ranked edit proposals",
                "  apply <n>                    apply the n-th suggestion",
                "  refine [--budget N] [--beam W] [--depth D] [--seed K]",
                "         [--space]             automated edit search ->",
                "                               Pareto frontier (P, R, cost)",
                "  refine apply <n>             apply the n-th frontier entry",
                "  history                      applied edits with timings",
                "  memory                       materialized-state bytes",
                "  cache stats                  token-cache sizes, hit rates,",
                "                               and bound-skip counts",
                "  stats                        rule-set structure report",
                "                               (+ metrics digest once run)",
                "  trace [--json]               span tree of run/ingest timings",
                "  profile [on|off] [--sample N]",
                "                               sampled per-feature cost profile",
                "  drift                        observed vs estimated costs;",
                "                               flags stale rule ordering",
                "  simplify                     list subsumed (redundant) rules",
                "  lint                         static checks on the rule set",
                "  report                       per-rule precision table",
                "  save <dir> / restore <dir>   persist / reload the session state",
                "  serve start [port] [ckpt-dir] | status | stop",
                "                               run the matching service in-process",
                "  remote connect <host:port>   point 'remote' at a server",
                "  remote create <name> <dataset> [--scale S] [--seed K]",
                "  remote sessions | info <name> | close <name>",
                "  remote ingest <name> <op> <a|b> <id> [attr=value ...]",
                "  remote tighten|relax <name> <rule> <slot> <thr>",
                "  remote refine <name> [--budget N] [--apply best|<i>]",
                "  remote metrics <name> | trace <name>",
                "  top [--watch N] [--interval S]",
                "                               live dashboard from /metrics +",
                "                               /health (rates, p95s, SLOs)",
            ]
        )

    def cmd_load(self, arguments: List[str]) -> str:
        if not arguments:
            raise WorkbenchError("usage: load <dataset> [--scale S] [--rules N] [--seed K]")
        name = arguments[0]
        scale, max_rules, seed = 0.5, 80, 7
        iterator = iter(arguments[1:])
        for flag in iterator:
            try:
                if flag == "--scale":
                    scale = float(next(iterator))
                elif flag == "--rules":
                    max_rules = int(next(iterator))
                elif flag == "--seed":
                    seed = int(next(iterator))
                else:
                    raise WorkbenchError(f"unknown flag {flag!r}")
            except StopIteration:
                raise WorkbenchError(f"flag {flag!r} needs a value") from None
        from .learning.workload import default_blocker

        blocker = default_blocker(name)
        self.workload = build_workload(
            name, seed=seed, scale=scale, max_rules=max_rules, blocker=blocker
        )
        self.observability = Observability()
        self.session = DebugSession(
            self.workload.candidates,
            self.workload.function,
            gold=self.workload.gold,
            ordering="algorithm6",
            observability=self.observability,
        )
        self.suggestions = []
        self.refinement = None
        self.tables = (self.workload.dataset.table_a, self.workload.dataset.table_b)
        self.blocker = blocker
        self.streaming = None
        return f"loaded {self.workload.summary()}"

    def cmd_load_csv(self, arguments: List[str]) -> str:
        """Bring-your-own-data entry point.

        ``load-csv A.csv B.csv --block title [--overlap 1] [--gold g.csv]
        --rules 'R1: jaccard_ws(title, title) >= 0.7'``

        Loads two CSV tables (id column ``id``), blocks on the given
        attribute, and starts a session with the supplied DSL rules.
        """
        if len(arguments) < 2:
            raise WorkbenchError(
                "usage: load-csv <a.csv> <b.csv> --block <attr> "
                "[--overlap N] [--gold gold.csv] --rules '<DSL>'"
            )
        from .blocking import OverlapBlocker
        from .core.parser import parse_function
        from .data import load_gold, load_table

        path_a, path_b, *rest = arguments
        block_attribute = None
        overlap = 1
        gold_path = None
        rules_text = None
        iterator = iter(rest)
        for flag in iterator:
            try:
                if flag == "--block":
                    block_attribute = next(iterator)
                elif flag == "--overlap":
                    overlap = int(next(iterator))
                elif flag == "--gold":
                    gold_path = next(iterator)
                elif flag == "--rules":
                    rules_text = next(iterator)
                else:
                    raise WorkbenchError(f"unknown flag {flag!r}")
            except StopIteration:
                raise WorkbenchError(f"flag {flag!r} needs a value") from None
        if block_attribute is None or rules_text is None:
            raise WorkbenchError("--block and --rules are required")

        table_a = load_table(path_a)
        table_b = load_table(path_b)
        blocker = OverlapBlocker(block_attribute, min_overlap=overlap)
        candidates = blocker.block(table_a, table_b)
        gold = load_gold(gold_path) if gold_path else None
        self.workload = None  # no feature space; DSL resolves via registry
        self.observability = Observability()
        self.session = DebugSession(
            candidates,
            parse_function(rules_text),
            gold=gold,
            ordering="algorithm5",
            observability=self.observability,
        )
        self.suggestions = []
        self.refinement = None
        self.tables = (table_a, table_b)
        self.blocker = blocker
        self.streaming = None
        return (
            f"loaded {table_a.name} ({len(table_a)}) x {table_b.name} "
            f"({len(table_b)}): {len(candidates)} candidate pairs"
            + (f", {len(gold)} gold labels" if gold else "")
        )

    def cmd_plan(self, arguments: List[str]) -> str:
        """``plan`` — the compiled columnar evaluation plan of the current
        function: ordered predicate steps with kernel support (and *why*
        an unsupported step falls back — feature family, overridden
        compare), bound eligibility, and cost-model annotations, plus the
        cost model's engine decision and which engine the session would
        pick for it."""
        if arguments:
            raise WorkbenchError("usage: plan")
        if self.session is None:
            raise WorkbenchError("load a dataset first")
        session = self.session
        plan = (
            session.state.plan if session.state is not None
            else session.compile_plan()
        )
        resolved = plan.engine_for(session.engine)
        return plan.describe() + f"\nengine: {session.engine} -> {resolved}"

    def cmd_run(self, arguments: List[str]) -> str:
        if self.session is None:
            raise WorkbenchError("load a dataset first")
        if arguments:
            raise WorkbenchError(f"unknown flag {arguments[0]!r}")
        result = self.session.run()
        return f"ran: {result.stats.summary()}"

    def _require_streaming(self):
        """The lazily created streaming wrapper around the live session."""
        from .streaming import StreamingSession

        session = self._require_session()
        if self.tables is None or self.blocker is None:
            raise WorkbenchError(
                "no live tables; 'load' or 'load-csv' a dataset first"
            )
        if self.streaming is None or self.streaming.session is not session:
            self.streaming = StreamingSession.adopt(
                session, self.tables[0], self.tables[1], self.blocker
            )
        return self.streaming

    def cmd_ingest(self, arguments: List[str]) -> str:
        """``ingest <insert|update|delete> <a|b> <id> [attr=value ...]``"""
        from .streaming import Delta

        if len(arguments) < 3:
            raise WorkbenchError(
                "usage: ingest <insert|update|delete> <a|b> <record_id> "
                "[attr=value ...]"
            )
        op, side, record_id, *assignments = arguments
        values = {}
        for assignment in assignments:
            attribute, separator, value = assignment.partition("=")
            if not separator or not attribute:
                raise WorkbenchError(
                    f"expected attr=value, got {assignment!r}"
                )
            values[attribute] = value if value != "" else None
        try:
            if op == "delete":
                if values:
                    raise WorkbenchError("delete takes no attr=value arguments")
                delta = Delta.delete(side, record_id)
            elif op in ("insert", "update"):
                delta = Delta(op, side, record_id, values)
            else:
                raise WorkbenchError(
                    f"unknown delta op {op!r}; use insert, update, or delete"
                )
            streaming = self._require_streaming()
            result = streaming.ingest(delta)
        except ReproError as error:
            if isinstance(error, WorkbenchError):
                raise
            raise WorkbenchError(str(error)) from error
        return f"ingested: {result.summary()}"

    def cmd_delta_stats(self, arguments: List[str]) -> str:
        if self.streaming is None or not self.streaming.batch_history:
            return "no deltas ingested yet"
        lines = [
            f"{index + 1}. {result.summary()}"
            for index, result in enumerate(self.streaming.batch_history)
        ]
        total = self.streaming.total_batch_stats()
        lines.append(f"total: {total.delta_summary()}")
        return "\n".join(lines)

    def cmd_rules(self, arguments: List[str]) -> str:
        session = self._require_session()
        return "\n".join(format_rule(rule) for rule in session.function.rules)

    def cmd_metrics(self, arguments: List[str]) -> str:
        session = self._require_session()
        return session.metrics().summary()

    def cmd_explain(self, arguments: List[str]) -> str:
        if len(arguments) != 2:
            raise WorkbenchError("usage: explain <a_id> <b_id>")
        session = self._require_session()
        try:
            return session.explain(arguments[0], arguments[1]).render()
        except KeyError:
            raise WorkbenchError(
                f"({arguments[0]}, {arguments[1]}) is not a candidate pair"
            ) from None

    def _threshold_change(self, arguments: List[str], change_class) -> str:
        if len(arguments) != 3:
            raise WorkbenchError(
                f"usage: {change_class.__name__.lower()} <rule> <slot> <threshold>"
            )
        session = self._require_session()
        rule_name, slot, threshold_text = arguments
        try:
            threshold = float(threshold_text)
        except ValueError:
            raise WorkbenchError(f"{threshold_text!r} is not a number") from None
        change = change_class(rule_name, slot, threshold)
        change.validate(session.function)
        outcome = session.apply(change)
        return outcome.summary()

    def cmd_tighten(self, arguments: List[str]) -> str:
        return self._threshold_change(arguments, TightenPredicate)

    def cmd_relax(self, arguments: List[str]) -> str:
        return self._threshold_change(arguments, RelaxPredicate)

    def cmd_drop_rule(self, arguments: List[str]) -> str:
        if len(arguments) != 1:
            raise WorkbenchError("usage: drop-rule <rule>")
        session = self._require_session()
        change = RemoveRule(arguments[0])
        change.validate(session.function)
        return session.apply(change).summary()

    def cmd_drop_predicate(self, arguments: List[str]) -> str:
        if len(arguments) != 2:
            raise WorkbenchError("usage: drop-predicate <rule> <slot>")
        session = self._require_session()
        change = RemovePredicate(arguments[0], arguments[1])
        change.validate(session.function)
        return session.apply(change).summary()

    def cmd_add_rule(self, arguments: List[str]) -> str:
        if not arguments:
            raise WorkbenchError("usage: add-rule <rule DSL text>")
        session = self._require_session()
        resolver = self.workload.space.resolver() if self.workload else None
        rule = parse_rule(" ".join(arguments), resolver)
        change = AddRule(rule)
        change.validate(session.function)
        return session.apply(change).summary()

    def cmd_suggest(self, arguments: List[str]) -> str:
        session = self._require_session()
        if session.gold is None:
            raise WorkbenchError("suggestions need gold labels")
        kind = arguments[0] if arguments else "tighten"
        if kind == "tighten":
            self.suggestions = suggest_tightenings(session.state, session.gold)
        elif kind == "relax":
            self.suggestions = suggest_relaxations(session.state, session.gold)
        else:
            raise WorkbenchError("usage: suggest [tighten|relax]")
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
            raise WorkbenchError(
                f"no suggestion #{arguments[0]}; run 'suggest' first"
            )
        session = self._require_session()
        suggestion = self.suggestions.pop(position)
        outcome = session.apply(suggestion.change)
        return outcome.summary()

    def cmd_refine(self, arguments: List[str]) -> str:
        """Automated refinement search (see :mod:`repro.refine`):
        ``refine [--budget N] [--beam W] [--depth D] [--seed K] [--space]``
        searches and prints the Pareto frontier; ``refine apply <n>``
        applies the n-th frontier entry of the last search."""
        session = self._require_session()
        if arguments and arguments[0] == "apply":
            if len(arguments) != 2 or not arguments[1].isdigit():
                raise WorkbenchError("usage: refine apply <frontier number>")
            if self.refinement is None:
                raise WorkbenchError("no refinement result; run 'refine' first")
            position = int(arguments[1]) - 1
            frontier = self.refinement.frontier
            if not 0 <= position < len(frontier):
                raise WorkbenchError(
                    f"no frontier entry #{arguments[1]} "
                    f"(the frontier has {len(frontier)} point(s))"
                )
            candidate = frontier[position]
            self.refinement = None
            if not candidate.edits:
                return "that frontier point is the unedited baseline"
            outcomes = session.apply_many(candidate.edits)
            lines = [outcome.summary() for outcome in outcomes]
            if session.gold is not None:
                lines.append(session.metrics().summary())
            return "\n".join(lines)

        if session.gold is None:
            raise WorkbenchError("refinement needs gold labels")
        options = {}
        use_space = False
        iterator = iter(arguments)
        flag_names = {
            "--budget": "budget",
            "--beam": "beam_width",
            "--depth": "max_depth",
            "--seed": "seed",
        }
        for flag in iterator:
            if flag == "--space":
                use_space = True
                continue
            key = flag_names.get(flag)
            if key is None:
                raise WorkbenchError(f"unknown flag {flag!r}")
            try:
                options[key] = int(next(iterator))
            except (StopIteration, ValueError):
                raise WorkbenchError(f"{flag} needs an integer") from None
        feature_space = (
            self.workload.space if (use_space and self.workload) else None
        )
        report = session.refine(feature_space=feature_space, **options)
        self.refinement = report
        lines = [
            f"baseline: {report.baseline.summary()}",
            f"scored {report.candidates_scored} candidate(s) in "
            f"{report.rounds} round(s) "
            f"({report.incremental_evals} incremental evals, "
            f"{report.full_rematches} full re-matches)",
        ]
        for index, candidate in enumerate(report.frontier):
            marker = "*" if candidate is report.best else " "
            lines.append(f"{index + 1}.{marker} {candidate.summary()}")
        lines.append("apply one with: refine apply <n>")
        return "\n".join(lines)

    def cmd_history(self, arguments: List[str]) -> str:
        session = self._require_session()
        if not session.history:
            return "no edits applied yet"
        return "\n".join(
            f"{index + 1}. {result.summary()}"
            for index, result in enumerate(session.history)
        )

    def cmd_memory(self, arguments: List[str]) -> str:
        session = self._require_session()
        report = session.memory_report()
        return (
            f"memo {report['memo'] / 1e6:.2f}MB, "
            f"rule bitmaps {report['rule_bitmaps'] / 1e6:.2f}MB, "
            f"predicate bitmaps {report['predicate_bitmaps'] / 1e6:.2f}MB, "
            f"total {report['total'] / 1e6:.2f}MB"
        )

    def cmd_cache(self, arguments: List[str]) -> str:
        """``cache stats`` — per-(attribute, tokenizer) token-cache report.

        Folds the session's live kernel counters into the metrics
        registry first, so the printed totals match what ``stats`` and the
        rendered metrics show.
        """
        if arguments not in ([], ["stats"]):
            raise WorkbenchError("usage: cache stats")
        session = self._require_session()
        kernels = session.kernels
        if kernels is None:
            return "token caching is off (session built with use_kernels=False)"
        if self.observability is not None:
            kernels.report_metrics(self.observability.metrics)
        rows = kernels.cache.stats()
        if not rows:
            return "token cache is empty; 'run' something first"
        lines = [
            "cache (attribute:tokenizer)            entries      hits    misses  hit-rate"
        ]
        for row in rows:
            lines.append(
                f"{row['label']:<38}{row['entries']:>8}{row['hits']:>10}"
                f"{row['misses']:>10}{row['hit_rate']:>9.1%}"
            )
        total_accesses = kernels.cache.total_hits + kernels.cache.total_misses
        overall = (
            kernels.cache.total_hits / total_accesses if total_accesses else 0.0
        )
        lines.append(
            f"total: {len(kernels.cache)} entries, "
            f"{kernels.cache.total_hits} hits / {total_accesses} accesses "
            f"({overall:.1%}), {kernels.total_bound_skips} bound skips"
        )
        if kernels.bound_skips:
            lines.append("bound skips by predicate:")
            for pid, count in sorted(kernels.bound_skips.items()):
                lines.append(f"  {pid:<48}{count:>8}")
        return "\n".join(lines)

    def cmd_stats(self, arguments: List[str]) -> str:
        from .core.analysis import describe_function

        session = self._require_session()
        output = describe_function(session.function)
        if self.observability is not None and len(self.observability.metrics):
            output += "\n\nmetrics:\n" + self.observability.metrics.render()
        return output

    def cmd_trace(self, arguments: List[str]) -> str:
        """``trace [--json]`` — span tree of everything recorded so far."""
        if arguments and arguments != ["--json"]:
            raise WorkbenchError("usage: trace [--json]")
        if self.observability is None or not len(self.observability.tracer.log):
            return "no spans recorded yet; 'run' or 'ingest' something first"
        if arguments:
            return self.observability.tracer.log.to_json_lines()
        return self.observability.tracer.log.render()

    def cmd_profile(self, arguments: List[str]) -> str:
        """``profile [on|off] [--sample N]`` — toggle/show cost profiling.

        With no arguments, prints the observed-cost table collected so
        far.  ``on`` attaches a fresh profiler (sampling 1-of-every-N
        feature computations, default 1/{default}); subsequent ``run`` /
        ``ingest`` calls feed it.  ``off`` detaches it.
        """
        if self.observability is None:
            raise WorkbenchError("load a dataset first")
        sample_every = DEFAULT_SAMPLE_EVERY
        mode = None
        iterator = iter(arguments)
        for token in iterator:
            if token in ("on", "off"):
                mode = token
            elif token == "--sample":
                try:
                    sample_every = int(next(iterator))
                except StopIteration:
                    raise WorkbenchError("--sample needs a value") from None
                except ValueError:
                    raise WorkbenchError("--sample needs an integer") from None
                if sample_every < 1:
                    raise WorkbenchError("--sample must be >= 1")
            else:
                raise WorkbenchError("usage: profile [on|off] [--sample N]")
        if mode == "on":
            self.observability.enable_profiling(sample_every=sample_every)
            return (
                f"profiling on (sampling 1/{sample_every}); "
                "'run' to collect, 'profile' to inspect, 'drift' to compare"
            )
        if mode == "off":
            self.observability.disable_profiling()
            return "profiling off"
        profiler = self.observability.profiler
        if profiler is None:
            return "profiling is off; 'profile on' to enable"
        return profiler.render()

    cmd_profile.__doc__ = cmd_profile.__doc__.format(default=DEFAULT_SAMPLE_EVERY)

    def cmd_drift(self, arguments: List[str]) -> str:
        """Compare observed costs/selectivities against the estimates."""
        session = self._require_session()
        profiler = (
            self.observability.profiler if self.observability is not None else None
        )
        if profiler is None:
            raise WorkbenchError(
                "drift needs a profile; 'profile on' then 'run' first"
            )
        if session.estimates is None:
            raise WorkbenchError(
                "no cost estimates to compare against; 'run' first"
            )
        report = detect_drift(
            session.function,
            session.estimates,
            profiler,
            ordering_strategy=session.ordering_strategy,
        )
        return report.render()

    def cmd_simplify(self, arguments: List[str]) -> str:
        """Report (not apply) subsumption redundancy in the current rules.

        Applying removals mid-session would need one RemoveRule change per
        redundant rule; the command prints the exact commands to run.
        """
        from .learning.simplify import redundancy_report

        session = self._require_session()
        pairs = redundancy_report(session.function)
        if not pairs:
            return "no subsumed rules"
        lines = [
            f"{specific} is subsumed by {general}  ->  drop-rule {specific}"
            for general, specific in pairs
        ]
        return "\n".join(lines)

    def cmd_lint(self, arguments: List[str]) -> str:
        from .core.validation import lint_function

        session = self._require_session()
        findings = lint_function(session.function, session.estimates)
        if not findings:
            return "no findings — the rule set is clean"
        return "\n".join(finding.render() for finding in findings)

    def cmd_report(self, arguments: List[str]) -> str:
        from .evaluation.debug_report import build_report, render_report

        session = self._require_session()
        if session.gold is None:
            raise WorkbenchError("the report needs gold labels")
        return render_report(build_report(session.state, session.gold))

    def cmd_save(self, arguments: List[str]) -> str:
        if len(arguments) != 1:
            raise WorkbenchError("usage: save <directory>")
        session = self._require_session()
        path = save_state(session.state, arguments[0])
        return f"state saved to {path}"

    def cmd_restore(self, arguments: List[str]) -> str:
        if len(arguments) != 1:
            raise WorkbenchError("usage: restore <directory>")
        if self.session is None:
            raise WorkbenchError("load the same dataset first, then restore")
        resolver = self.workload.space.resolver() if self.workload else None
        state = load_state(arguments[0], self.session.candidates, resolver)
        self.session.state = state
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
        if action == "start":
            if self.service_thread is not None and self.service_thread.running:
                host, port = self.service_thread.address
                raise WorkbenchError(f"already serving on {host}:{port}")
            from .service import ServiceThread

            port = 0
            if len(arguments) > 1:
                try:
                    port = int(arguments[1])
                except ValueError:
                    raise WorkbenchError("serve start needs a numeric port") from None
            checkpoint_root = arguments[2] if len(arguments) > 2 else None
            self.service_thread = ServiceThread(
                port=port, checkpoint_root=checkpoint_root
            )
            host, bound = self.service_thread.start()
            restored = getattr(
                self.service_thread.service, "restored_sessions", []
            )
            suffix = (
                f", restored {len(restored)} session(s)" if restored else ""
            )
            durable = (
                f", checkpoints in {checkpoint_root}"
                if checkpoint_root
                else " (not durable)"
            )
            return f"serving on {host}:{bound}{durable}{suffix}"
        if action == "status":
            if self.service_thread is None or not self.service_thread.running:
                return "not serving"
            host, port = self.service_thread.address
            sessions = len(self.service_thread.service.registry)
            return f"serving on {host}:{port}, {sessions} session(s)"
        if action == "stop":
            if self.service_thread is None or not self.service_thread.running:
                raise WorkbenchError("not serving")
            report = self.service_thread.stop()
            self.service_thread = None
            return (
                f"stopped: drained={report['drained']} "
                f"checkpointed={report['checkpointed']} "
                f"flushed={report['flushed']}"
            )
        raise WorkbenchError("usage: serve start [port] [ckpt-dir] | status | stop")

    def _require_remote(self):
        if self.remote_client is None:
            raise WorkbenchError(
                "no server connection; use 'remote connect <host:port>'"
            )
        return self.remote_client

    def cmd_remote(self, arguments: List[str]) -> str:
        """Drive a running matching service over HTTP (see ``help``)."""
        from .service import ServiceClient, ServiceClientError

        if not arguments:
            raise WorkbenchError("usage: remote <connect|create|sessions|...>")
        action, *rest = arguments
        try:
            if action == "connect":
                if len(rest) != 1 or ":" not in rest[0]:
                    raise WorkbenchError("usage: remote connect <host:port>")
                host, _, port_text = rest[0].rpartition(":")
                try:
                    port = int(port_text)
                except ValueError:
                    raise WorkbenchError(f"bad port {port_text!r}") from None
                client = ServiceClient(host, port)
                health = client.health()
                self.remote_client = client
                return (
                    f"connected to {host}:{port} "
                    f"({health['sessions']} session(s), "
                    f"{'durable' if health['durable'] else 'not durable'})"
                )
            return self._remote_action(action, rest)
        except ServiceClientError as error:
            raise WorkbenchError(
                f"server error [{error.code}]: {error}"
            ) from error
        except (ConnectionError, OSError) as error:
            raise WorkbenchError(f"connection failed: {error}") from error

    def _remote_action(self, action: str, rest: List[str]) -> str:
        client = self._require_remote()
        if action == "create":
            if len(rest) < 2:
                raise WorkbenchError(
                    "usage: remote create <name> <dataset> [--scale S] "
                    "[--seed K]"
                )
            name, dataset, *flags = rest
            spec = {"name": dataset}
            iterator = iter(flags)
            for flag in iterator:
                try:
                    if flag == "--scale":
                        spec["scale"] = float(next(iterator))
                    elif flag == "--seed":
                        spec["seed"] = int(next(iterator))
                    else:
                        raise WorkbenchError(f"unknown flag {flag!r}")
                except (StopIteration, ValueError):
                    raise WorkbenchError(f"{flag} needs a value") from None
            created = client.create_session({"name": name, "dataset": spec})
            run = created["initial_run"]
            return (
                f"created {name!r}: "
                f"{created['session']['candidates']} candidates, "
                f"{run['match_count']} matches"
            )
        if action == "sessions":
            sessions = client.list_sessions()
            if not sessions:
                return "no sessions"
            return "\n".join(
                f"{info['name']}: {info['candidates']} candidates, "
                f"{info['batches_ingested']} batch(es), seq={info['seq']}"
                f"{' [dirty]' if info['dirty'] else ''}"
                for info in sessions
            )
        if action == "info":
            if len(rest) != 1:
                raise WorkbenchError("usage: remote info <name>")
            info = client.session_info(rest[0])
            return (
                f"{info['name']}: {info['candidates']} candidates, "
                f"{info['batches_ingested']} batch(es), "
                f"{info['edits_applied']} edit(s), "
                f"rules: {', '.join(info['rules'])}"
            )
        if action == "close":
            if len(rest) != 1:
                raise WorkbenchError("usage: remote close <name>")
            closed = client.close_session(rest[0])
            return f"closed {closed['closed']!r} (checkpoint: {closed['checkpoint']})"
        if action == "ingest":
            if len(rest) < 4:
                raise WorkbenchError(
                    "usage: remote ingest <name> <op> <a|b> <id> [attr=value ...]"
                )
            name, op, side, record_id, *assignments = rest
            values = {}
            for assignment in assignments:
                attribute, separator, value = assignment.partition("=")
                if not separator or not attribute:
                    raise WorkbenchError(f"expected attr=value, got {assignment!r}")
                values[attribute] = value if value != "" else None
            delta = {"op": op, "side": side, "id": record_id}
            if op != "delete":
                delta["values"] = values
            result = client.ingest(name, [delta])["batch"]
            return (
                f"ingested: affected={result['affected']} "
                f"+{len(result['gained'])}/-{len(result['lost'])} pairs, "
                f"matches={result['match_count']}"
            )
        if action in ("tighten", "relax"):
            if len(rest) != 4:
                raise WorkbenchError(
                    f"usage: remote {action} <name> <rule> <slot> <threshold>"
                )
            name, rule, slot, threshold = rest
            try:
                threshold_value = float(threshold)
            except ValueError:
                raise WorkbenchError(f"bad threshold {threshold!r}") from None
            result = client.edit_rule(
                name,
                {"kind": action, "rule": rule, "slot": slot,
                 "threshold": threshold_value},
            )
            return (
                f"{result['change']}: affected={result['affected_pairs']} "
                f"+{result['newly_matched']}/-{result['newly_unmatched']} matches"
            )
        if action == "refine":
            if not rest:
                raise WorkbenchError(
                    "usage: remote refine <name> [--budget N] [--beam W] "
                    "[--depth D] [--seed K] [--apply best|<index>]"
                )
            name, *flags = rest
            options = {}
            flag_names = {
                "--budget": "budget",
                "--beam": "beam_width",
                "--depth": "max_depth",
                "--seed": "seed",
            }
            iterator = iter(flags)
            for flag in iterator:
                try:
                    if flag == "--apply":
                        value = next(iterator)
                        options["apply"] = (
                            "best" if value == "best" else int(value)
                        )
                    elif flag in flag_names:
                        options[flag_names[flag]] = int(next(iterator))
                    else:
                        raise WorkbenchError(f"unknown flag {flag!r}")
                except (StopIteration, ValueError):
                    raise WorkbenchError(f"{flag} needs a value") from None
            result = client.refine(name, **options)
            report = result["report"]
            lines = [
                f"baseline: P={report['baseline']['precision']:.3f} "
                f"R={report['baseline']['recall']:.3f} "
                f"F1={report['baseline']['f1']:.3f}",
                f"scored {report['candidates_scored']} candidate(s), "
                f"frontier of {len(report['frontier'])}:",
            ]
            for index, point in enumerate(report["frontier"]):
                marker = "*" if index == report["best_index"] else " "
                lines.append(
                    f"{index + 1}.{marker} P={point['precision']:.3f} "
                    f"R={point['recall']:.3f} F1={point['f1']:.3f} "
                    f"cost={point['expected_cost'] * 1e6:.2f}us/pair "
                    f"[{'; '.join(point['edits']) or 'no edits'}]"
                )
            if result.get("applied"):
                lines.append(
                    f"applied: {'; '.join(result['applied']['edits'])}"
                )
            return "\n".join(lines)
        if action == "metrics":
            if len(rest) != 1:
                raise WorkbenchError("usage: remote metrics <name>")
            snapshot = client.metrics(rest[0])["snapshot"]
            lines = [f"{len(snapshot)} metric(s):"]
            for metric_name in sorted(snapshot):
                data = snapshot[metric_name]
                value = data.get("value", data.get("count", data))
                lines.append(f"  {metric_name} = {value}")
            return "\n".join(lines)
        if action == "trace":
            if len(rest) != 1:
                raise WorkbenchError("usage: remote trace <name>")
            trace = client.trace(rest[0])
            lines = [f"{trace['span_count']} span(s):"]
            for span in trace["spans"][-20:]:
                lines.append(
                    f"  {span['name']}: {span['duration'] * 1000:.2f}ms"
                )
            return "\n".join(lines)
        raise WorkbenchError(f"unknown remote action {action!r}; try 'help'")

    def cmd_top(self, arguments: List[str]) -> str:
        """Live service dashboard: polls ``GET /metrics`` (+ health SLO).

        ``top`` renders one frame; ``top --watch N [--interval S]`` polls
        N times, S seconds apart, returning every frame — the REPL's
        stand-in for a terminal dashboard (and directly testable, since
        each frame is plain text built from one scrape).
        """
        from .observability.export import histogram_quantile, parse_prometheus

        client = self._require_remote()
        frames_wanted, interval = 1, 2.0
        iterator = iter(arguments)
        for flag in iterator:
            try:
                if flag == "--watch":
                    frames_wanted = int(next(iterator))
                elif flag == "--interval":
                    interval = float(next(iterator))
                else:
                    raise WorkbenchError(f"unknown flag {flag!r}")
            except (StopIteration, ValueError):
                raise WorkbenchError(f"{flag} needs a value") from None
        if frames_wanted < 1:
            raise WorkbenchError("--watch needs a positive count")

        frames = []
        for frame_index in range(frames_wanted):
            if frame_index:
                time.sleep(interval)
            frames.append(
                self._render_top_frame(client, parse_prometheus, histogram_quantile)
            )
        return "\n\n".join(frames)

    @staticmethod
    def _render_top_frame(client, parse_prometheus, histogram_quantile) -> str:
        health = client.health()
        parsed = parse_prometheus(client.scrape_metrics())
        samples = parsed["samples"]

        def sample(name, **labels):
            return samples.get((name, tuple(sorted(labels.items()))))

        lines = [
            f"service: {health['status']}  sessions={health['sessions']}  "
            f"durable={'yes' if health['durable'] else 'no'}  "
            f"restore_failures={len(health['restore_failures'])}  "
            f"restore_fallbacks={len(health['restore_fallbacks'])}"
        ]
        window = sample("repro_http_window_seconds")
        endpoints = sorted(
            {
                dict(labels).get("endpoint")
                for (name, labels) in samples
                if name == "repro_http_requests" and labels
            }
            - {None}
        )
        if window is not None:
            lines.append(
                f"requests (last {window:g}s):  "
                f"{sample('repro_http_requests') or 0:g} total, "
                f"{(sample('repro_http_request_rate') or 0.0):.2f}/s, "
                f"{(sample('repro_http_error_rate') or 0.0):.1%} errors"
            )
            for endpoint in endpoints:
                p50 = histogram_quantile(
                    samples, "repro_http_request_seconds", 0.5,
                    labels={"endpoint": endpoint},
                )
                p95 = histogram_quantile(
                    samples, "repro_http_request_seconds", 0.95,
                    labels={"endpoint": endpoint},
                )
                lines.append(
                    f"  {endpoint}: "
                    f"n={sample('repro_http_requests', endpoint=endpoint) or 0:g} "
                    f"err={(sample('repro_http_error_rate', endpoint=endpoint) or 0.0):.1%} "
                    f"p50={(p50 or 0.0) * 1000:.1f}ms "
                    f"p95={(p95 or 0.0) * 1000:.1f}ms"
                )
        for state in health.get("sessions_state", []):
            lines.append(
                f"  session {state['name']}: seq={state['seq']} "
                f"pending={state['pending']}"
                f"{' [dirty]' if state['dirty'] else ''}"
            )
        slo = health.get("slo")
        if slo:
            for objective in slo["objectives"]:
                if objective["ok"] is None:
                    verdict = "no data"
                elif objective["ok"]:
                    verdict = "OK"
                else:
                    verdict = "BREACH"
                observed = objective["observed"]
                observed_text = (
                    f" observed={observed:.4g}" if observed is not None else ""
                )
                lines.append(
                    f"  slo {objective['name']}: {verdict} "
                    f"({objective['objective']}{observed_text})"
                )
            if slo["alerts"]:
                latest = slo["alerts"][-1]
                lines.append(
                    f"  alerts: {slo['alerts_total']} total, "
                    f"latest: {latest['message']}"
                )
        return "\n".join(lines)


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
