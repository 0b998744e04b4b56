"""service-mixed: mixed traffic against a live matching service.

A ``ServiceThread`` hosts two dataset sessions (products and restaurants
at scale 0.25).  Set-up — start the server, create both sessions over
HTTP (each builds its workload and runs cold) — happens three times
(median).  Then a closed loop of two client threads, each sending its
next request only after the previous reply, runs at least
``MIN_REQUESTS_PER_CLIENT`` requests each and until the time box closes.

Each client repeats a shuffled cycle of 20 requests: 12 reads
(``matches``/``stats``/``metrics``, 60%; nine on products, three on
restaurants), 4 ingests (20%, restaurants), 2 rule edits and 2 explains
(10% each, one per session).  Products is a read-mostly tenant beside a
write-heavy restaurants tenant: restaurants reads queue behind ingests on
the session's writer-preferring lock, products reads share only the
processor.  With about a fifth of the reads queueing, the read p50 falls
inside the fast mode and the p90 inside the queued one, not on the edge
between them, where run-to-run noise would flip it.  The clients own
disjoint records and rules, so concurrent writes never conflict.  Edits
tighten a threshold by a step of the paper's §7.6 and relax it back on
the client's next edit of that session.  Every reply must be an ``ok``
envelope.
"""

from __future__ import annotations

import random
import threading
import time
import traceback

import repro
from repro.observability.export import histogram_quantile, parse_prometheus
from repro.service import ServiceThread
from repro.service.client import ServiceClient, ServiceClientError

from common import median
from scripts import MAX_TRIES, THRESHOLD_DELTAS, DeltaScript, moved_threshold

SESSIONS = {
    # session name -> (scale, blocking attribute, non-blocking attributes)
    "products": (0.25, "title", ("brand", "price", "category")),
    "restaurants": (0.25, "name", ("address", "phone", "cuisine")),
}
DATA_SEED = 7
SETUPS = 3
CLIENTS = 2
MIN_REQUESTS_PER_CLIENT = 500
PROBE_REQUESTS_PER_CLIENT = 100
#: One client's cycle of 20 (kind, session) requests, shuffled per cycle.
CYCLE = (
    [(kind, "products") for kind in ("matches", "stats", "metrics")] * 3
    + [(kind, "restaurants") for kind in ("matches", "stats", "metrics")]
    + [("ingest", "restaurants")] * 4
    + [(kind, name) for kind in ("edit", "explain") for name in ("products", "restaurants")]
)
READS = ("matches", "stats", "metrics")
WRITES = ("ingest", "edit")
ENDPOINTS = {
    "matches": "GET /sessions/{name}/matches",
    "stats": "GET /sessions/{name}/stats",
    "metrics": "GET /sessions/{name}/metrics",
    "ingest": "POST /sessions/{name}/ingest",
    "edit": "POST /sessions/{name}/edit",
    "explain": "POST /sessions/{name}/explain",
}

NAMED = (
    ("setup_s", "setup_s", "median", "s"),
    ("service_req_per_s", "service_req_per_s", "median", "1/s"),
    ("read_p50_ms", "read_ms", 50, "ms"),
    ("read_p90_ms", "read_ms", 90, "ms"),
    ("write_p50_ms", "write_ms", 50, "ms"),
    ("write_p90_ms", "write_ms", 90, "ms"),
)
SLOTS = {
    "op_p50_ms": ("read_p50_ms", 1.0),
    "op_p90_ms": ("read_p90_ms", 1.0),
    "aux1_ms": ("write_p50_ms", 1.0),
    "aux2_ms": ("write_p90_ms", 1.0),
    "rate_per_s": ("service_req_per_s", 1.0),
}


class Client:
    """One closed-loop client: its own connection helper, scripts and RNG."""

    def __init__(self, index, seed, address, workloads, cycle, report, lock):
        self.index = index
        self.cycle = cycle
        self.rng = random.Random(seed * 101 + index)
        self.http = ServiceClient(*address)
        self.report = report
        self.lock = lock
        self.timings = []  # (kind, ms)
        self.sent = 0
        self.busy = 0
        #: set if the client loop itself crashed (not a failed request)
        self.error = None
        self.deltas, self.rules, self.pending_edit = {}, {}, {}
        self.explain_pool, self.untouched = {}, {}
        for name, workload in workloads.items():
            _, blocking, plain = SESSIONS[name]
            self.deltas[name] = DeltaScript(
                seed * 101 + index, workload.dataset.table_a, workload.dataset.table_b,
                blocking, plain, id_prefix=f"bench-c{index}-",
                owns=lambda position: position % 3 == index,
            )
            rules = sorted(workload.function.rules, key=lambda rule: rule.name)
            self.rules[name] = [
                rule for position, rule in enumerate(rules)
                if position % CLIENTS == index
                and any(p.op in (">=", "<=") for p in rule.predicates)
            ]
            self.pending_edit[name] = None
            # Pairs of records no client writes stay candidates all run.
            self.untouched[name] = {
                side: {
                    record.record_id
                    for position, record in enumerate(table)
                    if position % 3 == 2
                }
                for side, table in (
                    ("a", workload.dataset.table_a), ("b", workload.dataset.table_b)
                )
            }
            self.explain_pool[name] = []

    def _edit_payload(self, name):
        pending = self.pending_edit[name]
        if pending is not None:
            self.pending_edit[name] = None
            return pending
        for _ in range(MAX_TRIES):
            rule = self.rng.choice(self.rules[name])
            predicate = self.rng.choice(
                [p for p in rule.predicates if p.op in (">=", "<=")]
            )
            new = moved_threshold(predicate, "tighten", self.rng.choice(THRESHOLD_DELTAS))
            if (new > predicate.threshold) == (predicate.op == ">="):
                break
        self.pending_edit[name] = {
            "kind": "relax", "rule": rule.name, "slot": predicate.slot,
            "threshold": predicate.threshold,
        }
        return {"kind": "tighten", "rule": rule.name, "slot": predicate.slot,
                "threshold": new}

    def call(self, kind, name):
        http = self.http
        if kind == "matches":
            result = http.matches(name)
            untouched = self.untouched[name]
            self.explain_pool[name] = [
                pair for pair in result["matches"]
                if pair[0] in untouched["a"] and pair[1] in untouched["b"]
            ]
            return result
        if kind == "stats":
            return http.stats(name)
        if kind == "metrics":
            return http.metrics(name)
        if kind == "ingest":
            return http.ingest(name, [self.deltas[name].next()])
        if kind == "edit":
            return http.edit_rule(name, self._edit_payload(name))
        a_id, b_id = self.rng.choice(self.explain_pool[name])
        return http.explain(name, a_id, b_id)

    def request(self, kind, name):
        """One checked request; returns its latency in ms, None if it failed."""
        started = time.perf_counter()
        problem = None
        try:
            self.call(kind, name)
        except ServiceClientError as error:
            problem = f"{kind} {name}: {error.code}: {error}"
            if error.code == "busy":
                self.busy += 1
        except Exception as error:  # noqa: BLE001 — a failed request is data
            problem = f"{kind} {name}: {type(error).__name__}: {error}"
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.sent += 1
        with self.lock:
            self.report.check(problem is None, problem or "")
        return None if problem else elapsed_ms

    def run(self, deadline, min_requests):
        try:
            for name in self.explain_pool:  # untimed: fills the explain pools
                self.request("matches", name)
            while self.sent < min_requests or time.perf_counter() < deadline:
                cycle = list(self.cycle)
                self.rng.shuffle(cycle)
                for kind, name in cycle:
                    elapsed_ms = self.request(kind, name)
                    if elapsed_ms is not None:
                        self.timings.append((kind, elapsed_ms))
        except Exception:  # noqa: BLE001 — reported after join
            self.error = traceback.format_exc(limit=3)


def start_service():
    """Start a server and create both sessions; returns (thread, address)."""
    server = ServiceThread(telemetry_window_seconds=3600.0)
    address = server.start()
    client = ServiceClient(*address)
    for name, (scale, _, _) in sorted(SESSIONS.items()):
        client.create_session({
            "name": name,
            "dataset": {"name": name, "scale": scale, "seed": DATA_SEED},
        })
    return server, address


def drive(address, workloads, cycle, seed, seconds, min_requests, report):
    """Run the closed-loop clients; returns (clients, timings, elapsed)."""
    lock = threading.Lock()
    clients = [
        Client(index, seed, address, workloads, cycle, report, lock)
        for index in range(CLIENTS)
    ]
    started = time.perf_counter()
    deadline = started + seconds
    threads = [
        threading.Thread(
            target=client.run, args=(deadline, min_requests), name=f"client-{i}"
        )
        for i, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    for thread, client in zip(threads, clients):
        thread.join(timeout=170.0)
        report.check(not thread.is_alive(), f"{thread.name} did not finish")
        report.check(client.error is None, f"{thread.name} crashed: {client.error}")
        report.check(
            client.sent >= min_requests,
            f"{thread.name} sent {client.sent} of {min_requests} requests",
        )
    elapsed = time.perf_counter() - started
    timings = [row for client in clients for row in client.timings]
    report.note(f"{len(timings)} requests from {CLIENTS} clients in {elapsed:.2f}s")
    return clients, timings, elapsed


def report_service_layers(report, address, clients, timings) -> None:
    """Per-endpoint client p50 and, from one ``/metrics`` scrape, server p50."""
    scrape = parse_prometheus(ServiceClient(*address).scrape_metrics())["samples"]
    for kind, endpoint in ENDPOINTS.items():
        report.layer(
            f"service.{kind}_p50_ms",
            median([ms for k, ms in timings if k == kind]),
        )
        server_s = histogram_quantile(
            scrape, "repro_http_request_seconds", 0.5, {"endpoint": endpoint}
        )
        report.layer(f"service.{kind}_server_p50_ms", (server_s or 0.0) * 1000.0)
    report.layer("service.busy_rejections", sum(client.busy for client in clients))


def probe(streaming, workload, name, seed, seconds, report):
    """Serve an existing streaming session and drive one-session mixed
    traffic at it, for the service-layer metrics of another workload's
    traced run."""
    from repro.service.protocol import default_blocker_spec

    cycle = (
        [(kind, name) for kind in ("matches", "stats", "metrics")] * 4
        + [("ingest", name)] * 4
        + [("edit", name)] * 2
        + [("explain", name)] * 2
    )
    server = ServiceThread(telemetry_window_seconds=3600.0)
    try:
        address = server.start()
        server.service.registry.add(
            name, streaming, blocker_spec=default_blocker_spec(name)
        )
        clients, timings, _ = drive(
            address, {name: workload}, cycle, seed, seconds, PROBE_REQUESTS_PER_CLIENT,
            report,
        )
        report_service_layers(report, address, clients, timings)
    finally:
        server.stop()


def run(args, report):
    trace = args.trace == 1
    server = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            with report.operation("service set-up"):
                server, address = start_service()
            report.add("setup_s", time.perf_counter() - started, "s")

        # The clients' scripts need the tables and rules the server built;
        # workload construction is deterministic in (dataset, seed, scale).
        workloads, build_s = {}, 0.0
        for name, (scale, _, _) in SESSIONS.items():
            started = time.perf_counter()
            workloads[name] = repro.build_workload(name, seed=DATA_SEED, scale=scale)
            build_s += time.perf_counter() - started
            report.note(workloads[name].summary())

        clients, timings, elapsed = drive(
            address, workloads, CYCLE, args.seed, args.seconds,
            MIN_REQUESTS_PER_CLIENT, report,
        )
        report.add("service_req_per_s", len(timings) / elapsed, "1/s")
        for kind, elapsed_ms in timings:
            if kind in READS:
                report.add("read_ms", elapsed_ms, "ms")
            elif kind in WRITES:
                report.add("write_ms", elapsed_ms, "ms")
        if trace:
            report_service_layers(report, address, clients, timings)
    finally:
        if server is not None:
            server.stop()

    if trace:
        report.layer("learning.build_workload_s", build_s)
