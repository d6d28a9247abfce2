"""Section 5.2: migrating dashboard queries from Scuba to Puma.

"Overall, the migration project has been very successful. The Puma apps
consume approximate 14% of the CPU that was needed to run the same
queries in Scuba."

The experiment: a dashboard of three fixed panels refreshes every 60 s
over a 30-minute sliding window, for two simulated hours of a 2-event/s
stream. The Scuba arm aggregates at read time (re-scanning the raw rows
on every refresh); the Puma arm aggregates at write time (fixed windowed
apps) and serves refreshes from the pre-computed windows.

CPU accounting (documented in EXPERIMENTS.md): one unit per raw row
scanned (Scuba); eleven units per event for the write-time path (three
apps, each hashing a group key and folding aggregate state, which costs
several sequential-scan touches per update); one unit per result row
served.

The paper arm runs the row-scan engine on an all-tail table (a
``segment_rows`` above the stream length never seals), so its cost is
identical to the seed experiment. A third arm runs the same three panels
on the compiled engine with the incremental query cache, charging only
rows actually scanned — showing how far read-time aggregation itself
closes the gap before any migration to write-time. Cached per-segment
partials serve most of each sliding window, and zone maps refute whole
segments — the errors panel skips any segment whose status column never
reaches 500. The near-perfect plan-cache hit rate over two hours of
refreshes is the other point: fixed dashboard queries are exactly the
shapes a plan cache amortizes to nothing.
"""

from __future__ import annotations

from repro.monitoring.dashboards import Dashboard, DashboardPanel
from repro.puma.app import PumaApp
from repro.puma.parser import parse
from repro.puma.planner import plan
from repro.runtime.clock import SimClock
from repro.runtime.rng import make_rng
from repro.scribe.store import ScribeStore
from repro.scuba.ingest import ScubaIngester
from repro.scuba.query import ColumnFilter, ScubaQuery
from repro.scuba.table import ScubaTable
from repro.storage.hbase import HBaseTable

from benchmarks.conftest import print_table

DURATION = 7_200.0        # two simulated hours
RATE = 2.0                 # events per second
WINDOW = 1_800.0           # 30-minute sliding dashboard window
REFRESH = 60.0
UPDATE_UNITS = 11.0        # per event: three apps x ~3.7/update
SERVE_UNITS = 1.0          # per served result row

PUMA_SOURCE = """
CREATE APPLICATION dashboards;
CREATE INPUT TABLE requests(event_time, endpoint, status, latency_ms)
FROM SCRIBE("requests") TIME event_time;
CREATE TABLE by_endpoint AS
SELECT endpoint, count(*) AS n FROM requests [60 seconds];
CREATE TABLE errors AS
SELECT status, count(*) AS n FROM requests [60 seconds]
WHERE status >= 500;
CREATE TABLE latency AS
SELECT endpoint, avg(latency_ms) AS mean_ms FROM requests [60 seconds];
"""


def generate_stream(scribe):
    rng = make_rng(77, "sec52")
    count = int(DURATION * RATE)
    for i in range(count):
        scribe.write_record("requests", {
            "event_time": i / RATE,
            "endpoint": rng.choice(["/home", "/feed", "/msg", "/profile"]),
            "status": 500 if rng.random() < 0.02 else 200,
            "latency_ms": rng.expovariate(1 / 80.0),
        }, key=str(i))
    return count


def run_experiment():
    clock = SimClock()
    scribe = ScribeStore(clock=clock)
    scribe.create_category("requests", 2)
    events = generate_stream(scribe)

    # Scuba paper arm: all-tail storage + read-time row scans — the cost
    # model of the seed experiment, unchanged.
    scuba_table = ScubaTable("requests", segment_rows=events)
    ingest = ScubaIngester(scribe, "requests", scuba_table)
    ingest.pump(10 * events)

    def panel_specs(table, engine):
        return [
            ("by_endpoint", ScubaQuery(table, 0.0, WINDOW, engine=engine,
                                       group_by=("endpoint",))),
            ("errors", ScubaQuery(table, 0.0, WINDOW, engine=engine,
                                  group_by=("status",),
                                  filters=(ColumnFilter("status", ">=",
                                                        500),))),
            ("latency", ScubaQuery(table, 0.0, WINDOW, engine=engine,
                                   aggregation="avg",
                                   value_column="latency_ms",
                                   group_by=("endpoint",))),
        ]

    scuba_dashboard = Dashboard("ops-scuba", WINDOW, clock=clock)
    metrics_holder = []
    for name, query in panel_specs(scuba_table, "rows"):
        metrics_holder.append(query.metrics)
        scuba_dashboard.add_panel(DashboardPanel.from_scuba(name, query))

    # Compiled arm: same table contents, compiled engine + query cache.
    # Segments of 256 rows (~2 minutes at 2 events/s) keep most of the
    # 30-minute window fully covered by cacheable segments, so a refresh
    # only scans the sliding edges.
    compiled_table = ScubaTable("requests", segment_rows=256)
    compiled_ingest = ScubaIngester(scribe, "requests", compiled_table)
    compiled_ingest.pump(10 * events)
    compiled_table.seal_tail()
    compiled_dashboard = Dashboard("ops-scuba-compiled", WINDOW, clock=clock)
    compiled_metrics = []
    for name, query in panel_specs(compiled_table, "compiled"):
        compiled_metrics.append(query.metrics)
        compiled_dashboard.add_panel(DashboardPanel.from_scuba(name, query))

    # Puma arm: write-time aggregation, read from pre-computed windows.
    puma_app = PumaApp(plan(parse(PUMA_SOURCE)), scribe, HBaseTable("s"),
                       clock=clock)
    puma_app.pump(10 * events)
    puma_dashboard = Dashboard("ops-puma", WINDOW, clock=clock)
    puma_dashboard.add_panel(
        DashboardPanel.from_puma("by_endpoint", puma_app, "by_endpoint", "n"))
    puma_dashboard.add_panel(
        DashboardPanel.from_puma("errors", puma_app, "errors", "n"))
    puma_dashboard.add_panel(
        DashboardPanel.from_puma("latency", puma_app, "latency", "mean_ms"))

    served_rows = 0
    refreshes = 0
    while clock.now() + REFRESH <= DURATION:
        clock.advance(REFRESH)
        scuba_dashboard.refresh()
        compiled_dashboard.refresh()
        for panel_rows in puma_dashboard.refresh().values():
            served_rows += len(panel_rows)
        refreshes += 1

    scuba_cpu = sum(
        m.counter("scuba.requests.rows_scanned").value
        for m in metrics_holder
    )
    cache_hits = sum(
        m.counter("scuba.requests.cache.hits").value
        for m in compiled_metrics
    )
    assert cache_hits > 0, "compiled dashboard arm never hit the cache"
    compiled_cpu = sum(
        m.counter("scuba.requests.rows_scanned").value
        for m in compiled_metrics
    )
    plan_stats = compiled_table.query_cache.plans.stats()
    plan_requests = plan_stats["hits"] + plan_stats["misses"]
    plan_hit_rate = (plan_stats["hits"] / plan_requests
                     if plan_requests else 0.0)
    puma_cpu = (puma_app.metrics.counter("puma.dashboards.events").value
                * UPDATE_UNITS + served_rows * SERVE_UNITS)
    return (events, refreshes, scuba_cpu, compiled_cpu, plan_hit_rate,
            puma_cpu)


def test_sec52_dashboard_migration_cpu(benchmark):
    (events, refreshes, scuba_cpu, compiled_cpu, plan_hit_rate,
     puma_cpu) = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    ratio = puma_cpu / scuba_cpu
    compiled_ratio = compiled_cpu / scuba_cpu
    print_table(
        "Section 5.2: CPU to serve the same dashboard "
        f"({refreshes} refreshes over {DURATION / 3600:.0f}h, "
        "paper: Puma ~= 14% of Scuba)",
        ["arm", "CPU units", "relative"],
        [
            ["Scuba (read-time row scans)", round(scuba_cpu), "100%"],
            ["Scuba (compiled plans + cache)", round(compiled_cpu),
             f"{compiled_ratio:.1%} "
             f"({plan_hit_rate:.1%} plan-cache hits)"],
            ["Puma (write-time aggregation)", round(puma_cpu),
             f"{ratio:.1%}"],
        ],
    )

    assert 0.05 <= ratio <= 0.30  # the paper's ~14%, within a loose band
    # Cached partials and zone-map pruning must strictly reduce scans,
    # and the fixed panel shapes compile once across two hours of
    # refreshes.
    assert compiled_cpu < scuba_cpu
    assert plan_hit_rate > 0.95
    benchmark.extra_info["puma_over_scuba"] = round(ratio, 3)
    benchmark.extra_info["compiled_over_scuba"] = round(compiled_ratio, 3)
    benchmark.extra_info["plan_cache_hit_rate"] = round(plan_hit_rate, 3)
    benchmark.extra_info["paper_ratio"] = 0.14
