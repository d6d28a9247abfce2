"""Hot-path microbenchmarks: ingest, process, point reads, recovery.

Times the three loops the paper's evaluation is about — Scribe ingest
(Section 4.2.2), the Stylus per-event loop (Figure 9), and LSM point
reads (Figure 12) — plus WAL recovery replay (Figure 10), and persists
the results to ``BENCH_hotpath.json`` at the repo root.

Run directly::

    python benchmarks/bench_hotpath.py            # full run, write JSON
    python benchmarks/bench_hotpath.py --quick    # smaller sizes
    python benchmarks/bench_hotpath.py --output /tmp/bench.json

or as the perf smoke test (compares against the committed baseline)::

    PYTHONPATH=src python -m pytest benchmarks/bench_hotpath.py -m perf_smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
# The repo root, for the message-at-a-time Stylus oracle under tests/.
sys.path.insert(1, str(Path(__file__).resolve().parent.parent))

from perf_harness import (  # noqa: E402  (path bootstrap above)
    BASELINE_PATH,
    BenchResult,
    collect,
    diff_reports,
    load_report,
    timed,
    write_report,
)

from repro import serde  # noqa: E402
from repro.core.costs import CostModel  # noqa: E402
from repro.core.event import Event  # noqa: E402
from repro.puma.app import PumaApp  # noqa: E402
from repro.puma.compiler import PlanCache  # noqa: E402
from repro.puma.parser import parse  # noqa: E402
from repro.puma.planner import plan  # noqa: E402
from repro.runtime.clock import SimClock  # noqa: E402
from repro.runtime.cluster import Cluster  # noqa: E402
from repro.runtime.metrics import MetricsRegistry  # noqa: E402
from repro.runtime.topology import (  # noqa: E402
    ShardedTopology,
    stylus_worker_factory,
)
from repro.scribe.checkpoints import CheckpointStore  # noqa: E402
from repro.scribe.message import Message  # noqa: E402
from repro.scribe.reader import ScribeReader  # noqa: E402
from repro.scribe.store import ScribeStore  # noqa: E402
from repro.scribe.writer import ScribeWriter  # noqa: E402
from repro.storage.backup import BackupEngine  # noqa: E402
from repro.storage.hdfs import HdfsBlobStore  # noqa: E402
from repro.scuba.ingest import ScubaIngester  # noqa: E402
from repro.scuba.query import ColumnFilter, ScubaQuery  # noqa: E402
from repro.scuba.table import ScubaTable  # noqa: E402
from repro.storage.hbase import HBaseTable  # noqa: E402
from repro.storage.lsm import LsmStore  # noqa: E402
from repro.storage.merge import CounterMergeOperator  # noqa: E402
from repro.stylus.checkpointing import CheckpointPolicy  # noqa: E402
from repro.stylus.engine import StylusTask  # noqa: E402
from repro.stylus.processor import Output, StatelessProcessor  # noqa: E402
from repro.stylus.windowed import WindowedAggregator  # noqa: E402
from repro.swift.engine import SwiftApp  # noqa: E402

from tests.property.stylus_message_oracle import (  # noqa: E402
    MessageOracleStylusTask,
)


class _Passthrough(StatelessProcessor):
    """Minimal processor so the bench measures engine overhead."""

    def process(self, event: Event) -> list[Output]:
        return []


def _record(i: int) -> dict:
    return {"event_time": float(i), "seq": i, "user": f"user-{i % 997}",
            "action": "click", "weight": i % 13}


# -- microbenchmarks ---------------------------------------------------------


def bench_ingest(n: int) -> BenchResult:
    """Scribe write path: serialize + append via a cached writer handle."""

    def run() -> int:
        scribe = ScribeStore(clock=SimClock())
        scribe.create_category("in", num_buckets=4)
        writer = ScribeWriter(scribe, "in")
        write = writer.write
        for i in range(n):
            write(_record(i), key=str(i))
        return n

    wall, ops = timed(run)
    return BenchResult("ingest", wall, ops)


def bench_process(n: int) -> BenchResult:
    """Stylus per-event loop: read_batch + batched decode + process."""
    scribe = ScribeStore(clock=SimClock())
    scribe.create_category("in", num_buckets=1)
    writer = ScribeWriter(scribe, "in")
    for i in range(n):
        writer.write_to_bucket(_record(i), 0)

    def run() -> int:
        task = StylusTask("bench", scribe, "in", 0, _Passthrough(),
                          checkpoint_policy=CheckpointPolicy(
                              every_n_events=1000),
                          clock=SimClock())
        done = 0
        while True:
            pumped = task.pump(10_000)
            if pumped == 0:
                return done
            done += pumped

    wall, ops = timed(run)

    # Deterministic companion: the modeled (simulated-clock) cost of the
    # same loop under a fixed CostModel — catches engine-timeline
    # regressions that wall clocks are too noisy to see.
    costs = CostModel(receive_per_event=2e-6, deserialize_per_event=8e-6,
                      process_per_event=2e-6, checkpoint_sync=1e-3)
    modeled_task = StylusTask("modeled", scribe, "in", 0, _Passthrough(),
                              checkpoint_policy=CheckpointPolicy(
                                  every_n_events=1000),
                              clock=SimClock(), cost_model=costs)
    modeled = 0
    while True:
        pumped = modeled_task.pump(10_000)
        if pumped == 0:
            break
        modeled += pumped
    modeled_per_event = (modeled_task.timeline.elapsed() / modeled
                         if modeled else 0.0)
    return BenchResult("process", wall, ops, counters={
        "modeled_seconds_per_event": modeled_per_event,
    })


def bench_lsm_point_read(num_keys: int, num_reads: int) -> BenchResult:
    """LSM point reads: hit (cold/warm) and absent-key latency + scans.

    The store is built with several un-compacted runs so the bloom
    filters have work to do; the counters record how many runs an
    absent-key read actually probes versus the one-search-per-run cost
    the seed implementation paid.
    """
    store = LsmStore(name="bench", compaction_trigger=64,
                     memtable_flush_bytes=1 << 30,
                     row_cache_size=2 * num_keys)  # warm pass fits
    for i in range(num_keys):
        store.put(f"key:{i:08d}", {"seq": i, "weight": i % 13})
        if (i + 1) % (num_keys // 8) == 0:
            store.flush()
    store.flush()
    runs = store.num_sstables
    get = store.get

    def run_hits() -> int:
        for i in range(num_reads):
            get(f"key:{(i * 7919) % num_keys:08d}")
        return num_reads

    hit_cold_wall, _ = timed(run_hits, repeat=1)
    hit_warm_wall, _ = timed(run_hits)  # row cache + bloom already warm

    probes_before = store.stats.sstable_probes

    def run_absent() -> int:
        # Interleaved *inside* the stored key range so the min/max check
        # cannot reject them — the bloom filters do the work.
        for i in range(num_reads):
            get(f"key:{i:08d}x")
        return num_reads

    absent_wall, _ = timed(run_absent, repeat=1)
    absent_probes = store.stats.sstable_probes - probes_before
    naive_scans = num_reads * runs  # the seed probed every run per read
    reduction = naive_scans / max(1, absent_probes)

    wall = hit_cold_wall + hit_warm_wall + absent_wall
    ops = num_reads * 3
    stats = store.stats
    return BenchResult(
        "lsm_point_read", wall, ops,
        metrics={
            "hit_cold_us": hit_cold_wall / num_reads * 1e6,
            "hit_warm_us": hit_warm_wall / num_reads * 1e6,
            "absent_us": absent_wall / num_reads * 1e6,
        },
        counters={
            "sstable_runs": float(runs),
            "absent_reads": float(num_reads),
            "absent_probes": float(absent_probes),
            "naive_scans": float(naive_scans),
            "scan_reduction_factor": reduction,
            "probes_per_absent_read": absent_probes / num_reads,
            "cache_hit_rate": (stats.cache_hits
                               / max(1, stats.cache_hits
                                     + stats.cache_misses)),
        },
    )


def bench_recovery(n: int) -> BenchResult:
    """WAL replay after a process crash (Figure 10's fast rung)."""
    store = LsmStore(name="recover", memtable_flush_bytes=1 << 30)
    for i in range(n):
        store.put(f"key:{i:08d}", i)
    store.drop_memory()

    def run() -> int:
        return store.recover()

    wall, ops = timed(run)
    return BenchResult("recovery", wall, ops)


def bench_serde_batch(n: int) -> BenchResult:
    """Batched vs per-message deserialization (the Figure 9 bottleneck)."""
    payloads = serde.encode_batch([_record(i) for i in range(n)])

    def run_single() -> int:
        decode = serde.decode
        for payload in payloads:
            decode(payload)
        return n

    def run_batch() -> int:
        serde.decode_batch(payloads)
        return n

    single_wall, _ = timed(run_single)
    batch_wall, ops = timed(run_batch)
    return BenchResult(
        "serde_batch", batch_wall, ops,
        metrics={
            "single_us_per_op": single_wall / n * 1e6,
            "batch_speedup": single_wall / batch_wall if batch_wall else 0.0,
        },
    )


# -- batch-first dataflow: batched vs per-message, end to end ----------------


_PUMA_BENCH_SOURCE = """
CREATE APPLICATION bench;
CREATE INPUT TABLE events(event_time, page, user) FROM SCRIBE("puma_in")
TIME event_time;
CREATE TABLE by_page AS
SELECT page, count(*) AS n FROM events [1 minute];
"""


def _puma_record(i: int) -> dict:
    # Group-reuse shape of a real Puma app (clicks per page per minute):
    # a bounded page set and many events per window, so aggregation
    # cells are touched repeatedly rather than created once each.
    return {"event_time": i * 0.05, "page": f"p{i % 16}",
            "user": f"user-{i % 997}"}


def _speedup_result(name: str, single_wall: float, batch_wall: float,
                    ops: int) -> BenchResult:
    return BenchResult(name, batch_wall, ops, metrics={
        "single_us_per_op": single_wall / max(1, ops) * 1e6,
        "batched_speedup": single_wall / batch_wall if batch_wall else 0.0,
    })


def bench_puma_pump(n: int) -> BenchResult:
    """Puma end-to-end: batched decode + compiled table programs."""
    scribe = ScribeStore(clock=SimClock())
    scribe.create_category("puma_in", num_buckets=1)
    writer = ScribeWriter(scribe, "puma_in")
    for i in range(n):
        writer.write_to_bucket(_puma_record(i), 0)
    app_plan = plan(parse(_PUMA_BENCH_SOURCE))

    def go() -> int:
        app = PumaApp(app_plan, scribe, HBaseTable("bench-state"),
                      checkpoint_every_events=1000, clock=scribe.clock)
        done = 0
        while True:
            pumped = app.pump(10_000)
            if pumped == 0:
                return done
            done += pumped

    wall, ops = timed(go)
    return BenchResult("puma_pump", wall, ops)


_PUMA_COMPILED_SOURCE = """
CREATE APPLICATION delta;
CREATE INPUT TABLE events(event_time, page, user, ms) FROM
SCRIBE("puma_comp_in") TIME event_time;
CREATE TABLE timings AS
SELECT page, count(*) AS n, sum(ms) AS total, avg(ms) AS mean,
       max(ms) AS worst
FROM events [1 minute];
"""


def _timing_record(i: int) -> dict:
    return {"event_time": i * 0.05, "page": f"p{i % 16}",
            "user": f"user-{i % 997}", "ms": i % 250}


def bench_puma_compiled(n: int) -> BenchResult:
    """Plan execution only: the compiled ExecutablePlan over a chunk.

    Feeds pre-decoded rows straight into the app's processing path, so
    serde (measured by ``serde_batch``/``puma_pump``) does not dilute
    the number — this is the per-row cost of the aggregation program
    itself. Every repeat compiles through one shared PlanCache; the
    hit/miss counters land in the report.
    """
    rows = [_timing_record(i) for i in range(n)]
    scribe = ScribeStore(clock=SimClock())
    scribe.create_category("puma_comp_in", num_buckets=1)
    app_plan = plan(parse(_PUMA_COMPILED_SOURCE))
    cache = PlanCache()

    def go() -> int:
        app = PumaApp(app_plan, scribe, HBaseTable("bench-compiled"),
                      checkpoint_every_events=1 << 30,
                      clock=scribe.clock, plan_cache=cache)
        app._process_rows(rows)
        return n

    compiled_wall, ops = timed(go)
    stats = cache.stats()
    requests = stats["hits"] + stats["misses"]
    return BenchResult(
        "puma_compiled", compiled_wall, ops,
        metrics={
            "compiled_us_per_op": compiled_wall / max(1, ops) * 1e6,
        },
        counters={
            "plan_cache_hits": stats["hits"],
            "plan_cache_misses": stats["misses"],
            "plan_cache_hit_rate": (stats["hits"] / requests
                                    if requests else 0.0),
        },
    )


def bench_delta_checkpoint(n: int, restarts: int = 50) -> BenchResult:
    """Delta-based recovery vs the seed's full state scan.

    The delta runtime keeps only unflushed deltas in memory, so
    ``_recover`` reads nothing but per-bucket offsets; the seed's
    recovery re-loaded every state row for the app from HBase. Both are
    timed over ``restarts`` recoveries against the same populated store.
    The incremental-flush economy rides along as counters: after a
    second pump touching one window, the checkpoint writes only the
    dirty cells, not the whole state.
    """
    scribe = ScribeStore(clock=SimClock())
    scribe.create_category("puma_comp_in", num_buckets=1)
    writer = ScribeWriter(scribe, "puma_comp_in")
    for i in range(n):
        writer.write_to_bucket(_timing_record(i), 0)
    hbase = HBaseTable("bench-delta")
    app = PumaApp(plan(parse(_PUMA_COMPILED_SOURCE)), scribe, hbase,
                  checkpoint_every_events=1000, clock=scribe.clock)
    while app.pump(10_000):
        pass
    app.checkpoint()
    prefix = f"{app.name}|"
    total_cells = sum(1 for _ in hbase.scan(prefix, prefix + "￿"))
    flushes_before = app._flushes_counter.value
    for i in range(64):  # a trickle touching one window
        writer.write_to_bucket(_timing_record(n + i), 0)
    while app.pump(10_000):
        pass
    app.checkpoint()
    dirty_cells = app._flushes_counter.value - flushes_before

    def delta_restart():
        def go() -> int:
            for _ in range(restarts):
                app._recover()
            return restarts
        return timed(go)

    def legacy_restart():
        # The seed's _recover body: scan the app's whole state prefix
        # and materialize every cell before processing can resume.
        def go() -> int:
            for _ in range(restarts):
                loaded = {}
                for row_key, columns in hbase.scan(prefix, prefix + "￿"):
                    _, table_name, window_text, key_json = row_key.split(
                        "|", 3)
                    loaded[(table_name, float(window_text),
                            tuple(json.loads(key_json)))] = dict(columns)
            return restarts
        return timed(go)

    legacy_wall, _ = legacy_restart()
    delta_wall, ops = delta_restart()
    return BenchResult(
        "delta_checkpoint", delta_wall, ops,
        metrics={
            "legacy_ms_per_restart": legacy_wall / max(1, ops) * 1e3,
            "delta_ms_per_restart": delta_wall / max(1, ops) * 1e3,
            "restart_speedup": (legacy_wall / delta_wall
                                if delta_wall else 0.0),
        },
        counters={
            "state_cells": float(total_cells),
            "dirty_cells_flushed": float(dirty_cells),
            "checkpoint_write_fraction": (dirty_cells / total_cells
                                          if total_cells else 0.0),
        },
    )


class _NullBatchClient:
    """Swift batch client that models a zero-cost downstream app."""

    def on_batch(self, messages: list[Message]) -> None:
        pass


def bench_swift_pump(n: int, passes: int = 4) -> BenchResult:
    """Swift delivery loop: a batch client vs a per-message client.

    Both run the one segment loop; the per-message client is adapted to
    segments and pays one call per message.

    The batched path is almost pure list slicing, so a single drain is
    too fast to time reliably; each measurement drains the stream
    ``passes`` times with fresh apps. The reported wall covers *both*
    paths (the stable quantity); ``batched_speedup`` carries the ratio.
    """
    scribe = ScribeStore(clock=SimClock())
    scribe.create_category("swift_in", num_buckets=1)
    writer = ScribeWriter(scribe, "swift_in")
    for i in range(n):
        writer.write_to_bucket(_record(i), 0)

    def run(use_batch_client: bool):
        def go() -> int:
            done = 0
            for _ in range(passes):
                client = _NullBatchClient() if use_batch_client else (
                    lambda message: None)
                app = SwiftApp("bench", scribe, "swift_in", 0, client,
                               CheckpointStore(),
                               checkpoint_every_messages=1000)
                while True:
                    pumped = app.pump(10_000)
                    if pumped == 0:
                        break
                    done += pumped
            return done
        return timed(go)

    single_wall, ops = run(False)
    batch_wall, _ = run(True)
    return BenchResult(
        "swift_pump", single_wall + batch_wall, 2 * ops,
        metrics={
            "single_us_per_op": single_wall / max(1, ops) * 1e6,
            "batched_us_per_op": batch_wall / max(1, ops) * 1e6,
            "batched_speedup": (single_wall / batch_wall
                                if batch_wall else 0.0),
        },
    )


def bench_scuba_ingest(n: int) -> BenchResult:
    """Scuba ingest: one decode_batch + one add_rows per Scribe batch.

    Runs on an all-tail table (``segment_rows`` >= n never seals) so
    the number isolates decode and store: segment sealing is measured in
    ``bench_scuba_query``/``bench_dashboard_refresh``.
    """
    scribe = ScribeStore(clock=SimClock())
    scribe.create_category("scuba_in", num_buckets=1)
    writer = ScribeWriter(scribe, "scuba_in")
    for i in range(n):
        writer.write_to_bucket(_record(i), 0)

    def go() -> int:
        ingester = ScubaIngester(scribe, "scuba_in",
                                 ScubaTable("bench", segment_rows=n),
                                 metrics=MetricsRegistry())
        done = 0
        while True:
            pumped = ingester.pump(10_000)
            if pumped == 0 and ingester.lag_messages() == 0:
                return done
            done += pumped

    wall, ops = timed(go)
    return BenchResult("scuba_ingest", wall, ops)


def bench_windowed_agg(n: int) -> BenchResult:
    """Stylus windowed aggregation: process_batch chunks vs the
    message-at-a-time oracle loop."""
    scribe = ScribeStore(clock=SimClock())
    scribe.create_category("win_in", num_buckets=1)
    writer = ScribeWriter(scribe, "win_in")
    for i in range(n):
        writer.write_to_bucket(_record(i), 0)

    def run(task_class: type[StylusTask]):
        def go() -> int:
            processor = WindowedAggregator(
                window_seconds=60.0, operator=CounterMergeOperator(),
                extract=lambda event: [(event["user"], 1)],
                sample_size=256)
            task = task_class("bench", scribe, "win_in", 0, processor,
                              checkpoint_policy=CheckpointPolicy(
                                  every_n_events=1000),
                              clock=SimClock())
            done = 0
            while True:
                pumped = task.pump(10_000)
                if pumped == 0:
                    return done
                done += pumped
        return timed(go)

    single_wall, _ = run(MessageOracleStylusTask)
    batch_wall, ops = run(StylusTask)
    return _speedup_result("windowed_agg", single_wall, batch_wall, ops)


def _scuba_row(i: int) -> dict:
    return {"event_time": float(i), "page": f"p{i % 16}",
            "status": 500 if i % 11 == 0 else 200, "ms": float(i % 37) * 0.5}


def _scuba_tables(n: int) -> tuple[ScubaTable, ScubaTable]:
    """The same n rows in an all-tail table and a sealed columnar table."""
    row_table = ScubaTable("bench", segment_rows=n)
    col_table = ScubaTable("bench")
    for i in range(n):
        row_table.add(_scuba_row(i))
        col_table.add(_scuba_row(i))
    col_table.seal_tail()
    return row_table, col_table


def bench_scuba_query(n: int) -> BenchResult:
    """Compiled slice-and-dice vs the paper-faithful row scan.

    Each iteration runs a filtered grouped count and a grouped avg over
    the full range. The columnar (compiled) arm clears the query cache
    every iteration so this measures pure vectorized execution; the
    cache's own win is ``bench_dashboard_refresh``.
    """
    row_table, col_table = _scuba_tables(n)
    queries = [
        dict(group_by=("page",),
             filters=(ColumnFilter("status", "==", 200),)),
        dict(aggregation="avg", value_column="ms", group_by=("page",)),
    ]

    def make_run(table: ScubaTable, engine: str):
        def go() -> int:
            table.query_cache.clear()
            for spec in queries:
                ScubaQuery(table, 0.0, float(n), engine=engine,
                           limit=100, **spec).run()
            return len(queries)
        return go

    # Sanity: both engines agree before we time anything.
    for spec in queries:
        assert ScubaQuery(row_table, 0.0, float(n), engine="rows",
                          limit=100, **spec).run() == \
            ScubaQuery(col_table, 0.0, float(n), engine="compiled",
                       limit=100, **spec).run()

    rows_wall, _ = timed(make_run(row_table, "rows"))
    col_wall, ops = timed(make_run(col_table, "compiled"))
    return BenchResult(
        "scuba_query", rows_wall + col_wall, 2 * ops,
        metrics={
            "rows_ms_per_query": rows_wall / len(queries) * 1e3,
            "columnar_ms_per_query": col_wall / len(queries) * 1e3,
            "columnar_speedup": rows_wall / col_wall if col_wall else 0.0,
        },
    )


def bench_dashboard_refresh(n: int, refreshes: int = 10) -> BenchResult:
    """Repeated ``shifted()`` dashboard refreshes: cache vs full rescan.

    The window covers ten segments and slides by one segment per
    refresh, so consecutive windows overlap 90% — the Section 5.2
    dashboard pattern. The compiled arm serves the overlap from cached
    per-segment partials and only scans the freshly exposed edge. The
    geometry (segments per window, refreshes) is fixed relative to ``n``
    so ``cache_hits_per_refresh`` is size-independent and the quick
    checker run can diff it against the full-size baseline.
    """
    segment_rows = max(1, n // 20)
    row_table = ScubaTable("bench", segment_rows=n)
    col_table = ScubaTable("bench", segment_rows=segment_rows)
    for i in range(n):
        row_table.add(_scuba_row(i))
        col_table.add(_scuba_row(i))
    col_table.seal_tail()
    window = n * 0.5
    step = float(segment_rows)
    base = dict(aggregation="avg", value_column="ms", group_by=("page",),
                limit=100)

    def make_run(table: ScubaTable, engine: str, metrics: MetricsRegistry):
        def go() -> int:
            table.query_cache.clear()
            query = ScubaQuery(table, 0.0, window, engine=engine,
                               metrics=metrics, **base)
            for k in range(refreshes):
                query.shifted(k * step).run()
            return refreshes
        return go

    rows_wall, _ = timed(make_run(row_table, "rows", MetricsRegistry()))
    col_metrics = MetricsRegistry()
    col_wall, ops = timed(make_run(col_table, "compiled", col_metrics))
    hits = col_metrics.counter("scuba.bench.cache.hits").value
    assert hits > 0, "dashboard refreshes never hit the query cache"
    # timed() ran go() three times; normalize hits to one measured pass.
    hits_per_refresh = hits / (3 * refreshes)
    return BenchResult(
        "dashboard_refresh", rows_wall + col_wall, 2 * ops,
        metrics={
            "rows_ms_per_refresh": rows_wall / refreshes * 1e3,
            "cached_ms_per_refresh": col_wall / refreshes * 1e3,
            "cached_refresh_speedup": (rows_wall / col_wall
                                       if col_wall else 0.0),
        },
        counters={"cache_hits_per_refresh": hits_per_refresh},
    )


def bench_scuba_compiled(n: int) -> BenchResult:
    """Fused compiled plans on a filter-heavy query mix.

    Runs over a sealed table with ``use_cache=False``, so every query
    re-executes its per-segment program — the number isolates fused
    execution (inline float comparators, dictionary-domain filters,
    ``compress`` selection) from the partial-cache win measured by
    ``bench_dashboard_refresh``. The plan cache stays on: lowering a
    shape once and reusing the plan is part of the feature, and its
    hit rate over the whole bench lands in the counters.
    """
    table = ScubaTable("bench")
    for i in range(n):
        table.add(_scuba_row(i))
    table.seal_tail()
    queries = [
        dict(aggregation="avg", value_column="ms", group_by=("page",),
             filters=(ColumnFilter("ms", ">", 9.0),)),
        dict(group_by=("page",),
             filters=(ColumnFilter("ms", ">", 12.0),)),
        dict(group_by=("page", "status"),
             filters=(ColumnFilter("status", "==", 200),
                      ColumnFilter("ms", ">=", 10.0))),
        dict(group_by=("page",),
             filters=(ColumnFilter("status", "==", 200),)),
    ]

    def make_run(engine: str):
        def go() -> int:
            for spec in queries:
                ScubaQuery(table, 0.0, float(n), engine=engine,
                           use_cache=False, limit=100, **spec).run()
            return len(queries)
        return go

    # Sanity: the compiled engine matches the row-scan oracle.
    for spec in queries:
        assert ScubaQuery(table, 0.0, float(n), engine="rows",
                          use_cache=False, limit=100, **spec).run() == \
            ScubaQuery(table, 0.0, float(n), engine="compiled",
                       use_cache=False, limit=100, **spec).run()

    compiled_wall, ops = timed(make_run("compiled"))
    stats = table.query_cache.plans.stats()
    requests = stats["hits"] + stats["misses"]
    return BenchResult(
        "scuba_compiled", compiled_wall, ops,
        metrics={
            "compiled_ms_per_query": compiled_wall / len(queries) * 1e3,
        },
        counters={
            "plan_cache_hits": float(stats["hits"]),
            "plan_cache_misses": float(stats["misses"]),
            "plan_cache_hit_rate": (stats["hits"] / requests
                                    if requests else 0.0),
        },
    )


def bench_segment_pruning(n: int) -> BenchResult:
    """Zone-map pruning on a time-correlated column.

    Scuba segments are time-ordered and the ``value`` column here grows
    with time, so each sealed segment's min/max zone covers a narrow
    slice of the range — the layout the paper's time-partitioned tables
    have for any metric correlated with time. A filter selecting only
    the newest segment's values lets the compiled plan refute the other
    23 segments from their zones without touching a row. The row-scan
    engine is the oracle for its answer. The segment count is fixed
    relative to ``n`` so ``segments_pruned_per_query`` is
    size-independent and the quick checker run can compare it against
    the full-size baseline.
    """
    segments = 24
    segment_rows = max(1, n // segments)
    table = ScubaTable("bench", segment_rows=segment_rows)
    for i in range(n):
        table.add({"event_time": float(i), "value": float(i),
                   "page": f"p{i % 3}"})
    table.seal_tail()
    # Passes only in the last segment: prunes the other 23 entirely.
    spec = dict(group_by=("page",),
                filters=(ColumnFilter("value", ">",
                                      float(n - segment_rows) + 0.5),))

    def make_run(engine: str, metrics: MetricsRegistry):
        def go() -> int:
            ScubaQuery(table, 0.0, float(n), engine=engine,
                       use_cache=False, limit=100, metrics=metrics,
                       **spec).run()
            return 1
        return go

    probe = MetricsRegistry()
    expected = ScubaQuery(table, 0.0, float(n), engine="rows",
                          limit=100, **spec).run()
    assert make_run("compiled", probe)() == 1
    snapshot = probe.snapshot()
    pruned = snapshot.get("scuba.bench.segments_pruned", 0.0)
    rows_pruned = snapshot.get("scuba.bench.rows_pruned", 0.0)
    assert ScubaQuery(table, 0.0, float(n), engine="compiled",
                      use_cache=False, limit=100, **spec).run() == expected

    pruned_wall, ops = timed(make_run("compiled", MetricsRegistry()))
    return BenchResult(
        "segment_pruning", pruned_wall, ops,
        metrics={
            "pruned_ms_per_query": pruned_wall * 1e3,
        },
        counters={
            "segments_total": float(segments),
            "segments_pruned_per_query": float(pruned),
            "rows_pruned_fraction": rows_pruned / n if n else 0.0,
        },
    )


def bench_compaction(num_keys: int, num_runs: int) -> BenchResult:
    """Compaction pauses: one full-store merge vs bounded incremental steps.

    The deterministic counters are the point: ``max_step_entries`` (the
    most entries any single ``compact_step`` call merged) stays a bounded
    fraction of the store, while the legacy ``compact()`` rewrites
    everything in one stop-the-world call. The wall metrics record the
    worst pause a writer would actually see on each path.
    """
    per_run = max(1, num_keys // num_runs)
    total_entries = per_run * num_runs

    def fill_run(store: LsmStore, run: int) -> None:
        base = run * per_run
        for i in range(per_run):
            store.put(f"key:{base + i:08d}", i % 13)

    # Legacy path: accumulate every run, then one full-store merge.
    full = LsmStore(name="bench-full", compaction_trigger=10_000,
                    memtable_flush_bytes=1 << 30, row_cache_size=0)
    for run in range(num_runs):
        fill_run(full, run)
        full.flush()
    start = time.perf_counter()
    full.compact()
    full_wall = time.perf_counter() - start

    # Incremental path: flushes fold in bounded steps; drain the rest
    # the way Scheduler.every would, one step per tick.
    stepped = LsmStore(name="bench-step", compaction_trigger=4,
                       max_compact_runs=4, memtable_flush_bytes=1 << 30,
                       row_cache_size=0)
    max_pause = 0.0
    stepping_wall = 0.0
    for run in range(num_runs):
        fill_run(stepped, run)
        start = time.perf_counter()
        stepped.flush()  # may fold one bounded compaction step in
        elapsed = time.perf_counter() - start
        max_pause = max(max_pause, elapsed)
        stepping_wall += elapsed
    while True:
        start = time.perf_counter()
        merged = stepped.compact_step()
        elapsed = time.perf_counter() - start
        if merged == 0:
            break
        max_pause = max(max_pause, elapsed)
        stepping_wall += elapsed

    stats = stepped.stats
    return BenchResult(
        "compaction", stepping_wall, stats.compacted_entries,
        metrics={
            "full_compact_ms": full_wall * 1e3,
            "max_incremental_pause_ms": max_pause * 1e3,
            "pause_reduction": full_wall / max_pause if max_pause else 0.0,
        },
        counters={
            "total_entries": float(total_entries),
            "compact_steps": float(stats.compact_steps),
            "max_step_entries": float(stats.max_step_entries),
            "max_step_fraction": stats.max_step_entries / total_entries,
        },
    )


def bench_backup_restore(num_keys: int, steps: int = 8,
                         passes: int = 3) -> BenchResult:
    """Incremental HDFS backups of a growing store (Figure 10's slow rung).

    The store grows to ``steps`` times its first-backup size, one equal
    batch of new keys per step, with a backup after every step. A backup
    shares the store's immutable runs with the previous snapshot, so it
    pays for the step's flush and nothing for the state already backed
    up: ``backup_flatness`` (last backup / first backup) stays near 1
    where a copying engine reads ``steps``. Compaction is held off so a
    tier merge landing in one step's flush cannot pass for backup cost.
    Each position takes its best time over ``passes`` identical stores.
    """
    per_step = max(1, num_keys // steps)
    backup_walls = [float("inf")] * steps
    restore_wall = float("inf")
    for _ in range(passes):
        metrics = MetricsRegistry()
        engine = BackupEngine(HdfsBlobStore(clock=SimClock()),
                              metrics=metrics)
        store = LsmStore(name="bench-backup", compaction_trigger=10_000,
                         memtable_flush_bytes=1 << 30, row_cache_size=0)
        for step in range(steps):
            base = step * per_step
            for i in range(per_step):
                store.put(f"key:{base + i:08d}", {"n": i, "lat": i % 97})
            start = time.perf_counter()
            engine.create_backup(store)
            backup_walls[step] = min(backup_walls[step],
                                     time.perf_counter() - start)
        start = time.perf_counter()
        restored = engine.restore("bench-backup", {})
        restore_wall = min(restore_wall, time.perf_counter() - start)
        assert restored.num_sstables == steps
    return BenchResult(
        "backup_restore", sum(backup_walls), per_step * steps,
        metrics={
            "first_backup_ms": backup_walls[0] * 1e3,
            "last_backup_ms": backup_walls[-1] * 1e3,
            "restore_ms": restore_wall * 1e3,
            "backup_flatness": backup_walls[-1] / backup_walls[0],
        },
        counters={
            "runs_uploaded": metrics.counter("backup.runs.uploaded").value,
            "runs_reused": metrics.counter("backup.runs.reused").value,
        },
    )


def bench_shard_scaling(n: int) -> BenchResult:
    """Throughput scaling at 1/2/4/8 shards on the modeled timeline.

    The same pre-written input is drained by topologies of increasing
    shard counts; each shard's work is charged to its own process
    timeline, so the makespan is the busiest shard and the efficiency
    ratios are deterministic (consistent hashing's residual skew is the
    only thing between the measured ratio and the ideal N). Input is
    written through ``write_batch(keys=...)``, the vectorized
    ``shards_for_keys`` path.
    """
    clock = SimClock()
    scribe = ScribeStore(clock=clock)
    scribe.create_category("sharded", num_buckets=64)
    writer = ScribeWriter(scribe, "sharded")
    batch = 1000
    for start in range(0, n, batch):
        records = [_record(i) for i in range(start, min(start + batch, n))]
        writer.write_batch(records,
                           keys=[str(r["seq"]) for r in records])

    cost = CostModel()
    elapsed: dict[int, float] = {}

    def build(num_shards: int) -> ShardedTopology:
        cluster = Cluster()
        for i in range(8):
            cluster.add_machine(f"m{i}")
        factory = stylus_worker_factory(
            scribe, "sharded", _Passthrough,
            BackupEngine(HdfsBlobStore(clock=clock)),
            state_prefix=f"scale{num_shards}",
            checkpoint_policy=CheckpointPolicy(every_n_events=1 << 30),
            clock=clock)
        return ShardedTopology(
            f"scaling{num_shards}", cluster, scribe, "sharded",
            num_shards, factory, cost_model=cost, ring_replicas=128)

    # Time the drain alone (the hot path); topology construction is a
    # fixed cost that would otherwise dominate the quick-size run and
    # make us_per_op incomparable with the full-size baseline.
    total_wall = 0.0
    ops = 0
    for num_shards in (1, 2, 4, 8):
        best = float("inf")
        done = 0
        for _ in range(3):
            topology = build(num_shards)
            start = time.perf_counter()
            done = topology.drain()
            best = min(best, time.perf_counter() - start)
        elapsed[num_shards] = topology.modeled_elapsed()
        total_wall += best
        ops += done
    base = elapsed[1]
    return BenchResult(
        "shard_scaling", total_wall, ops,
        metrics={
            "scaling_efficiency_2x": base / elapsed[2],
            "scaling_efficiency_4x": base / elapsed[4],
            "scaling_efficiency_8x": base / elapsed[8],
        },
        counters={f"modeled_seconds_{c}shard": elapsed[c]
                  for c in (1, 2, 4, 8)},
    )


def bench_backpressure(n: int) -> BenchResult:
    """A 10x-faster producer against a credit-gated bucket.

    The producer attempts ten writes per consumer read; without flow
    control the bucket would grow toward 9n. With the credit gate the
    depth is capped at the credit limit: ``max_depth`` and the
    ``depth_within_bound`` flag are the acceptance counters, and
    ``credits_blocked`` proves the gate actually engaged.
    """
    limit = 64
    stats = {"max_depth": 0, "blocked": 0.0}

    def run() -> int:
        scribe = ScribeStore(clock=SimClock())
        scribe.create_category("bp", num_buckets=1)
        scribe.enable_backpressure("bp", max_outstanding=limit)
        writer = ScribeWriter(scribe, "bp")
        reader = ScribeReader(scribe, "bp", 0)
        end_offset = scribe.end_offset
        consumed = 0
        attempts = 0
        max_depth = 0
        while consumed < n:
            for _ in range(10):
                writer.try_write(_record(attempts))
                attempts += 1
            consumed += len(reader.read_batch(1))
            depth = end_offset("bp", 0) - reader.position
            if depth > max_depth:
                max_depth = depth
        stats["max_depth"] = max_depth
        stats["blocked"] = scribe.metrics.snapshot()[
            "scribe.credits.blocked"]
        return consumed

    wall, ops = timed(run)
    return BenchResult(
        "backpressure", wall, ops,
        metrics={"blocked_writes_per_event": stats["blocked"] / n},
        counters={
            "credits_blocked": stats["blocked"],
            "max_depth": float(stats["max_depth"]),
            "credit_limit": float(limit),
            "depth_within_bound":
                1.0 if stats["max_depth"] <= limit else 0.0,
        },
    )


# -- driver ------------------------------------------------------------------


def run_hotpath(quick: bool = False) -> dict:
    """Run every microbenchmark; return the persistable report."""
    scale = 4 if quick else 1
    results = [
        bench_ingest(20_000 // scale),
        bench_process(20_000 // scale),
        bench_lsm_point_read(8_000 // scale, 4_000 // scale),
        bench_recovery(20_000 // scale),
        bench_serde_batch(20_000 // scale),
        bench_puma_pump(12_000 // scale),
        bench_puma_compiled(12_000 // scale),
        bench_delta_checkpoint(24_000 // scale),
        bench_swift_pump(20_000 // scale),
        bench_scuba_ingest(20_000 // scale),
        bench_scuba_query(40_000 // scale),
        bench_scuba_compiled(40_000 // scale),
        bench_segment_pruning(24_000 // scale),
        bench_dashboard_refresh(40_000 // scale),
        bench_windowed_agg(12_000 // scale),
        bench_compaction(16_000 // scale, 32),
        bench_backup_restore(16_000 // scale),
        bench_shard_scaling(8_000 // scale),
        bench_backpressure(6_000 // scale),
    ]
    return collect(results, quick)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller sizes (finishes in a few seconds)")
    parser.add_argument("--output", type=Path, default=BASELINE_PATH,
                        help=f"where to write the JSON (default "
                             f"{BASELINE_PATH})")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    report = run_hotpath(quick=args.quick)
    elapsed = time.perf_counter() - start
    path = write_report(report, args.output)
    print(f"wrote {path} in {elapsed:.1f}s")
    for name, bench in sorted(report["benchmarks"].items()):
        print(f"  {name:16s} {bench['ops_per_sec']:>12,.0f} ops/s  "
              f"{bench['us_per_op']:>8.2f} us/op")
    counters = report["benchmarks"]["lsm_point_read"]["counters"]
    print(f"  absent-key scan reduction: "
          f"{counters['scan_reduction_factor']:.1f}x "
          f"({counters['naive_scans']:.0f} naive scans -> "
          f"{counters['absent_probes']:.0f} probes)")
    for name in ("swift_pump", "windowed_agg"):
        speedup = report["benchmarks"][name]["batched_speedup"]
        print(f"  {name} batched speedup: {speedup:.2f}x")
    compiled = report["benchmarks"]["puma_compiled"]
    print(f"  puma compiled plan: "
          f"{compiled['compiled_us_per_op']:.2f} us/row, "
          f"{compiled['counters']['plan_cache_hit_rate']:.0%} plan-cache "
          f"hit rate")
    delta = report["benchmarks"]["delta_checkpoint"]
    print(f"  delta recovery: {delta['restart_speedup']:.1f}x vs full "
          f"state scan ({delta['legacy_ms_per_restart']:.2f}ms -> "
          f"{delta['delta_ms_per_restart']:.2f}ms per restart; "
          f"incremental checkpoint rewrote "
          f"{delta['counters']['checkpoint_write_fraction']:.0%} of "
          f"{delta['counters']['state_cells']:.0f} cells)")
    scuba = report["benchmarks"]["scuba_query"]
    print(f"  scuba compiled vs row scan: {scuba['columnar_speedup']:.2f}x "
          f"({scuba['rows_ms_per_query']:.1f}ms -> "
          f"{scuba['columnar_ms_per_query']:.1f}ms per query)")
    scuba_compiled = report["benchmarks"]["scuba_compiled"]
    print(f"  scuba compiled plan: "
          f"{scuba_compiled['compiled_ms_per_query']:.2f} ms/query, "
          f"{scuba_compiled['counters']['plan_cache_hit_rate']:.0%} "
          f"plan-cache hit rate")
    pruning = report["benchmarks"]["segment_pruning"]
    print(f"  zone-map pruning: "
          f"{pruning['counters']['segments_pruned_per_query']:.0f}/"
          f"{pruning['counters']['segments_total']:.0f} segments pruned, "
          f"{pruning['pruned_ms_per_query']:.1f}ms per query")
    dash = report["benchmarks"]["dashboard_refresh"]
    print(f"  dashboard cached refresh: "
          f"{dash['cached_refresh_speedup']:.2f}x "
          f"({dash['rows_ms_per_refresh']:.1f}ms -> "
          f"{dash['cached_ms_per_refresh']:.1f}ms per refresh, "
          f"{dash['counters']['cache_hits_per_refresh']:.1f} cache "
          f"hits/refresh)")
    compaction = report["benchmarks"]["compaction"]
    print(f"  compaction: full merge {compaction['full_compact_ms']:.1f}ms "
          f"vs worst incremental pause "
          f"{compaction['max_incremental_pause_ms']:.1f}ms "
          f"(max step touches "
          f"{compaction['counters']['max_step_fraction']:.0%} of the store)")
    backup = report["benchmarks"]["backup_restore"]
    print(f"  incremental backup: first {backup['first_backup_ms']:.2f}ms, "
          f"last (store 8x larger) {backup['last_backup_ms']:.2f}ms, "
          f"restore {backup['restore_ms']:.3f}ms "
          f"({backup['counters']['runs_uploaded']:.0f} runs uploaded, "
          f"{backup['counters']['runs_reused']:.0f} reused)")
    scaling = report["benchmarks"]["shard_scaling"]
    print(f"  shard scaling: "
          f"{scaling['scaling_efficiency_2x']:.2f}x / "
          f"{scaling['scaling_efficiency_4x']:.2f}x / "
          f"{scaling['scaling_efficiency_8x']:.2f}x modeled throughput "
          f"at 2/4/8 shards")
    bp = report["benchmarks"]["backpressure"]
    print(f"  backpressure: 10x producer capped at depth "
          f"{bp['counters']['max_depth']:.0f} (limit "
          f"{bp['counters']['credit_limit']:.0f}, "
          f"{bp['counters']['credits_blocked']:.0f} writes blocked)")
    return 0


# -- perf smoke test (opt-in: pytest -m perf_smoke on this file) -------------

try:
    import pytest
except ImportError:  # script mode without pytest installed
    pytest = None

if pytest is not None:

    @pytest.mark.perf_smoke
    def test_hotpath_no_regression_vs_baseline():
        """Quick bench vs. the committed baseline; >25% rate drop fails.

        A flagged regression must survive a second run: transient load
        spikes flag random benchmarks, real regressions flag the same
        ones both times.
        """
        if not BASELINE_PATH.exists():
            pytest.skip("no committed BENCH_hotpath.json baseline")
        baseline = load_report()
        regressions = diff_reports(run_hotpath(quick=True), baseline,
                                   threshold=0.25)
        if regressions:
            repeated = {r.describe() for r in diff_reports(
                run_hotpath(quick=True), baseline, threshold=0.25)}
            regressions = [r for r in regressions
                           if r.describe() in repeated]
        assert not regressions, "\n".join(r.describe() for r in regressions)

    @pytest.mark.perf_smoke
    def test_absent_key_reads_skip_sstable_scans():
        """The acceptance bar: >= 5x fewer scans than the seed's."""
        result = bench_lsm_point_read(2_000, 1_000)
        assert result.counters["scan_reduction_factor"] >= 5.0

    @pytest.mark.perf_smoke
    def test_batched_dataflow_beats_per_message():
        """The acceptance bar: >= 2x events/sec on each batched path."""
        benches = {
            "swift_pump": lambda: bench_swift_pump(20_000),
            "windowed_agg": lambda: bench_windowed_agg(12_000),
        }
        slow = {}
        for name, bench in benches.items():
            # Wall-clock ratios under pytest wobble with machine load;
            # one retry absorbs the noise without softening the 2x bar.
            speedup = bench().metrics["batched_speedup"]
            if speedup < 2.0:
                speedup = max(speedup, bench().metrics["batched_speedup"])
            if speedup < 2.0:
                slow[name] = round(speedup, 2)
        assert not slow, f"batched paths under 2x: {slow}"

    @pytest.mark.perf_smoke
    def test_compiled_plan_cache_is_exercised():
        """Repeated app construction compiles once and hits the cache."""
        result = bench_puma_compiled(12_000)
        assert result.counters["plan_cache_hits"] > 0
        assert result.counters["plan_cache_misses"] == 1
        assert result.counters["plan_cache_hit_rate"] > 0.5

    @pytest.mark.perf_smoke
    def test_delta_recovery_beats_full_state_scan():
        """The acceptance bar: offset-only recovery >= 5x the seed's
        full state reload, and checkpoints only rewrite dirty cells."""
        result = bench_delta_checkpoint(24_000)
        assert result.counters["checkpoint_write_fraction"] < 0.5
        speedup = result.metrics["restart_speedup"]
        if speedup < 5.0:  # one retry absorbs machine-load noise
            speedup = max(speedup,
                          bench_delta_checkpoint(24_000).metrics[
                              "restart_speedup"])
        assert speedup >= 5.0, f"delta recovery speedup only {speedup:.2f}x"

    @pytest.mark.perf_smoke
    def test_columnar_scuba_beats_row_scan():
        """The acceptance bar: >= 3x on grouped slice-and-dice queries."""
        speedup = bench_scuba_query(40_000).metrics["columnar_speedup"]
        if speedup < 3.0:  # one retry absorbs machine-load noise
            speedup = max(speedup,
                          bench_scuba_query(40_000).metrics[
                              "columnar_speedup"])
        assert speedup >= 3.0, f"columnar speedup only {speedup:.2f}x"

    @pytest.mark.perf_smoke
    def test_compiled_scuba_reuses_plans():
        """The acceptance bar: the filter-heavy mix runs with the plan
        cache warm."""
        result = bench_scuba_compiled(40_000)
        assert result.counters["plan_cache_hit_rate"] >= 0.5

    @pytest.mark.perf_smoke
    def test_zone_maps_prune_segments():
        """The acceptance bar: the selective query must skip whole
        segments from zone maps alone."""
        result = bench_segment_pruning(24_000)
        assert result.counters["segments_pruned_per_query"] >= 1.0

    @pytest.mark.perf_smoke
    def test_dashboard_refresh_cache_beats_rescan():
        """The acceptance bar: >= 5x on repeated shifted() refreshes."""
        result = bench_dashboard_refresh(40_000)
        assert result.counters["cache_hits_per_refresh"] > 0
        speedup = result.metrics["cached_refresh_speedup"]
        if speedup < 5.0:  # one retry absorbs machine-load noise
            speedup = max(speedup,
                          bench_dashboard_refresh(40_000).metrics[
                              "cached_refresh_speedup"])
        assert speedup >= 5.0, f"cached refresh speedup only {speedup:.2f}x"

    @pytest.mark.perf_smoke
    def test_compaction_steps_stay_bounded():
        """No single compaction call may rewrite the whole store."""
        result = bench_compaction(8_000, 32)
        assert result.counters["compact_steps"] > 0
        assert result.counters["max_step_fraction"] <= 0.5

    @pytest.mark.perf_smoke
    def test_shard_scaling_efficiency():
        """The acceptance bar: >= 2.5x modeled throughput at 4 shards.

        The ratio is measured on the simulated timeline, so it is
        deterministic — no retry needed."""
        result = bench_shard_scaling(4_000)
        assert result.metrics["scaling_efficiency_4x"] >= 2.5

    @pytest.mark.perf_smoke
    def test_backpressure_caps_bucket_depth():
        """A 10x-faster producer must block, and the bucket depth must
        never exceed the credit limit."""
        result = bench_backpressure(3_000)
        assert result.counters["credits_blocked"] > 0
        assert result.counters["depth_within_bound"] == 1.0


if __name__ == "__main__":
    raise SystemExit(main())
