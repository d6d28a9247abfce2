"""Tests for plan lowering, the plan cache, and incremental views."""

import pytest

from repro.errors import ConfigError, PlanningError
from repro.laser.service import LaserTable
from repro.puma.app import PumaApp
from repro.puma.compiler import ExecutablePlan, PlanCache, compile_plan
from repro.puma.parser import parse
from repro.puma.planner import plan
from repro.puma.service import PumaService
from repro.runtime.metrics import MetricsRegistry
from repro.storage.hbase import HBaseTable

SOURCE = """
CREATE APPLICATION timings;
CREATE INPUT TABLE events(event_time, page, ms) FROM SCRIBE("events")
TIME event_time;
CREATE TABLE by_page AS
SELECT page, count(*) AS n, sum(ms) AS total, avg(ms) AS mean,
       max(ms) AS worst
FROM events [1 minute];
CREATE TABLE slow AS
SELECT page, ms FROM events WHERE ms > 100;
"""

REDEFINED_SOURCE = SOURCE.replace("ms > 100", "ms > 200")


@pytest.fixture
def app_plan():
    return plan(parse(SOURCE))


def make_rows(count):
    return [
        {"event_time": float(i), "page": f"p{i % 3}", "ms": 10 * i}
        for i in range(count)
    ]


class TestLowering:
    def test_fold_batch_matches_per_row_update_fold(self, app_plan):
        table = compile_plan(app_plan).table("by_page")
        rows = make_rows(50)
        deltas = table.fold_batch(rows)

        source = app_plan.table("by_page")
        expected = {}
        for row in rows:
            cell = ((row["event_time"] // 60) * 60.0, source.group_key(row))
            state = expected.setdefault(cell, {
                b.alias: b.function.create(b.extra_args)
                for b in source.aggregates
            })
            for b in source.aggregates:
                value = 1 if b.arg is None else b.arg(row)
                state[b.alias] = b.function.update(state[b.alias], value,
                                                   b.extra_args)
        assert deltas == expected

    def test_shared_argument_expressions_share_a_value_slot(self, app_plan):
        table = compile_plan(app_plan).table("by_page")
        # sum(ms), avg(ms), max(ms) read one column; count(*) reads none.
        assert len(table.arg_evaluators) == 1
        slots = [a.arg_slot for a in table.aggregates]
        assert slots == [None, 0, 0, 0]

    def test_project_batch_applies_predicate_and_projection(self, app_plan):
        table = compile_plan(app_plan).table("slow")
        out = table.project_batch(make_rows(20))
        assert all(record["ms"] > 100 for record, _ in out)
        assert [record["page"] for record, _ in out] == [
            f"p{i % 3}" for i in range(11, 20)
        ]
        # The scribe partition key is the first projection's value.
        assert all(key == record["page"] for record, key in out)

    def test_unknown_table_raises(self, app_plan):
        with pytest.raises(PlanningError):
            compile_plan(app_plan).table("nope")


class TestPlanCache:
    def test_same_plan_object_hits(self, app_plan):
        cache = PlanCache()
        first = cache.get(app_plan)
        assert cache.get(app_plan) is first
        assert cache.stats() == {"hits": 1, "misses": 1, "invalidations": 0}
        assert len(cache) == 1

    def test_redefinition_invalidates_and_recompiles(self, app_plan):
        cache = PlanCache()
        first = cache.get(app_plan)
        redefined = plan(parse(REDEFINED_SOURCE))
        second = cache.get(redefined)
        assert second is not first
        assert second.source is redefined
        assert cache.stats() == {"hits": 0, "misses": 2, "invalidations": 1}
        # The new program is now the cached one.
        assert cache.get(redefined) is second

    def test_explicit_invalidation(self, app_plan):
        cache = PlanCache()
        cache.get(app_plan)
        assert cache.invalidate(app_plan.name) is True
        assert cache.invalidate(app_plan.name) is False
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 1

    def test_invalidate_all(self, app_plan):
        cache = PlanCache()
        cache.get(app_plan)
        assert cache.invalidate_all() == 1
        assert len(cache) == 0

    def test_counters_live_in_the_registry(self, app_plan):
        registry = MetricsRegistry()
        cache = PlanCache(metrics=registry)
        cache.get(app_plan)
        cache.get(app_plan)
        assert registry.counter("puma.plan_cache.hits").value == 1
        assert registry.counter("puma.plan_cache.misses").value == 1


class TestAppIntegration:
    def test_app_compiles_through_shared_cache(self, scribe, app_plan):
        scribe.create_category("events", 1)
        cache = PlanCache()
        app = PumaApp(app_plan, scribe, HBaseTable("state"),
                      clock=scribe.clock, plan_cache=cache)
        assert app._executable.source is app_plan
        assert cache.stats()["misses"] == 1
        # A restart re-resolves the program: a cache hit, no recompile.
        executable = app._executable
        app.crash()
        app.restart()
        assert app._executable is executable
        assert cache.stats()["hits"] >= 1

    def test_service_delete_and_redeploy_recompiles(self, scribe):
        """Regression: redefinition under one name must not serve the
        stale compiled program."""
        scribe.create_category("events", 1)
        service = PumaService(scribe, clock=scribe.clock)
        service.deploy(SOURCE)
        assert len(service.plan_cache) == 1
        service.delete("timings")
        assert len(service.plan_cache) == 0
        app = service.deploy(REDEFINED_SOURCE)
        # The recompiled program carries the new predicate.
        for i in range(10):
            scribe.write_record("events", {
                "event_time": float(i), "page": "home", "ms": 150,
            }, key=str(i))
        app.pump()
        # ms=150 passes the old predicate (>100) but not the new (>200).
        assert service.metrics.counter("puma.timings.slow.out").value == 0
        stats = service.plan_cache.stats()
        assert stats["invalidations"] == 1
        assert stats["misses"] == 2


class TestIncrementalLaserViews:
    def make_app(self, scribe, **kwargs):
        scribe.create_category("events", 1)
        return PumaApp(plan(parse(SOURCE)), scribe, HBaseTable("state"),
                       clock=scribe.clock, **kwargs)

    def write(self, scribe, count, start=0.0):
        for i in range(count):
            scribe.write_record("events", {
                "event_time": start + i, "page": f"p{i % 3}", "ms": 10 * i,
            }, key=str(i))

    def test_view_converges_to_durable_query_results(self, scribe, clock):
        app = self.make_app(scribe, checkpoint_every_events=25)
        view = LaserTable("by_page_view", ["page", "window_start"],
                         ["n", "total", "mean", "worst"], clock=clock)
        app.attach_laser_view("by_page", view)
        self.write(scribe, 150)
        app.pump()
        app.checkpoint()
        for row in app.query("by_page"):
            served = view.get(row["page"], row["window_start"])
            assert served == {"n": row["n"], "total": row["total"],
                              "mean": row["mean"], "worst": row["worst"]}

    def test_view_updates_are_incremental(self, scribe, clock, metrics):
        app = self.make_app(scribe, metrics=metrics,
                            checkpoint_every_events=1_000_000)
        view = LaserTable("by_page_view", ["page", "window_start"],
                         ["n"], clock=clock, metrics=metrics)
        app.attach_laser_view("by_page", view)
        self.write(scribe, 60)
        app.pump()
        app.checkpoint()  # 3 pages x 1 window flushed
        updates = metrics.counter("puma.timings.view_updates")
        assert updates.value == 3
        # A second checkpoint with no new data touches the view not at all.
        app.checkpoint()
        assert updates.value == 3
        # New data for one window refreshes only that window's cells.
        self.write(scribe, 3, start=10.0)
        app.pump()
        app.checkpoint()
        assert updates.value == 6

    def test_eviction_flushes_through_the_view(self, scribe, clock):
        app = self.make_app(scribe, retain_windows=1,
                            checkpoint_every_events=1_000_000)
        view = LaserTable("by_page_view", ["page", "window_start"],
                         ["n"], clock=clock)
        app.attach_laser_view("by_page", view)
        self.write(scribe, 120)  # two windows; the first gets evicted
        app.pump()
        assert view.get("p0", 0.0) == {"n": 20}

    def test_view_key_columns_validated(self, scribe, clock):
        app = self.make_app(scribe)
        bad = LaserTable("bad_view", ["user"], ["n"], clock=clock)
        with pytest.raises(ConfigError):
            app.attach_laser_view("by_page", bad)
        with pytest.raises(PlanningError):
            app.attach_laser_view("slow", bad)
