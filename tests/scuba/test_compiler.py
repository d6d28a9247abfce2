"""Tests for the compiled Scuba engine: plans, zone maps, pruning."""

from repro.runtime.metrics import MetricsRegistry
from repro.scuba.columns import Segment
from repro.scuba.compiler import ScubaPlan, _zone_may_match
from repro.scuba.query import ColumnFilter, ScubaQuery
from repro.scuba.table import ScubaTable


def sealed_table(rows, segment_rows=8, name="t"):
    table = ScubaTable(name, segment_rows=segment_rows)
    table.add_rows(rows)
    table.seal_tail()
    return table


def monotonic_rows(n, start=0.0):
    """Time-correlated float metric: later segments hold larger values,
    which is what makes per-segment min/max ranges selective."""
    return [{"event_time": start + i, "value": float(i),
             "page": f"p{i % 3}"} for i in range(n)]


def all_engines_agree(table, **kwargs):
    # Compiled twice: the second run is served from cached partials.
    results = [
        ScubaQuery(table, engine=engine, **kwargs).run()
        for engine in ("rows", "compiled", "compiled")
    ]
    assert results[0] == results[1] == results[2]
    return results[0]


class TestMissingColumnSemantics:
    """A missing column fails the filter unless the op is negative —
    uniformly across engines and both entry points (the bugfix)."""

    def rows(self):
        # Segment 0 has "region" everywhere, segment 1 nowhere, and the
        # tail mixes presence, absence, and explicit None.
        sealed = [{"event_time": float(i), "region": "us"} for i in range(8)]
        sealed += [{"event_time": 8.0 + i} for i in range(8)]
        tail = [{"event_time": 16.0, "region": "eu"},
                {"event_time": 17.0},
                {"event_time": 18.0, "region": None}]
        return sealed, tail

    def build(self):
        sealed, tail = self.rows()
        table = ScubaTable("t", segment_rows=8)
        table.add_rows(sealed)
        table.seal_tail()
        table.add_rows(tail)
        return table

    def test_positive_ops_fail_missing_in_run(self):
        table = self.build()
        result = all_engines_agree(
            table, start=0.0, end=20.0,
            filters=(ColumnFilter("region", "==", "us"),))
        assert result == [{"value": 8}]

    def test_negative_ops_pass_missing_in_run(self):
        table = self.build()
        # != "us": the 8 region-less sealed rows, the "eu"/None/absent
        # tail rows — everything but the 8 "us" rows.
        result = all_engines_agree(
            table, start=0.0, end=20.0,
            filters=(ColumnFilter("region", "!=", "us"),))
        assert result == [{"value": 11}]

    def test_not_in_passes_missing_in_run(self):
        table = self.build()
        result = all_engines_agree(
            table, start=0.0, end=20.0,
            filters=(ColumnFilter("region", "not in", ("us", "eu")),))
        assert result == [{"value": 10}]

    def test_semantics_agree_in_time_series(self):
        table = self.build()
        for op, operand in (("==", "us"), ("!=", "us"),
                            ("not in", ("us",)), ("in", ("us", "eu"))):
            points = [
                ScubaQuery(table, start=0.0, end=20.0, bucket_seconds=4.0,
                           engine=engine,
                           filters=(ColumnFilter("region", op, operand),)
                           ).run_time_series()
                for engine in ("rows", "compiled", "compiled")
            ]
            assert points[0] == points[1] == points[2], (op, operand)
        # And the negative op genuinely counts the region-less buckets.
        series = ScubaQuery(
            table, start=0.0, end=20.0, bucket_seconds=4.0, engine="rows",
            filters=(ColumnFilter("region", "!=", "us"),)).run_time_series()
        by_bucket = {p.bucket_start: p.value for p in series}
        assert by_bucket[8.0] == 4 and by_bucket[12.0] == 4
        assert 0.0 not in by_bucket  # all-"us" buckets filtered out


class TestPlanCache:
    def test_repeat_runs_hit_the_plan_cache(self):
        table = sealed_table(monotonic_rows(64))
        metrics = MetricsRegistry()
        query = ScubaQuery(table, 0.0, 64.0, group_by=("page",),
                           metrics=metrics, engine="compiled")
        query.run()
        assert metrics.counter("scuba.t.plan_cache.misses").value == 1
        query.run()
        query.shifted(1.0).run()  # same shape, different window
        assert metrics.counter("scuba.t.plan_cache.hits").value == 2
        assert table.query_cache.plans.stats()["size"] == 1

    def test_run_and_time_series_share_one_plan(self):
        table = sealed_table(monotonic_rows(64))
        metrics = MetricsRegistry()
        query = ScubaQuery(table, 0.0, 64.0, group_by=("page",),
                           bucket_seconds=16.0, metrics=metrics,
                           engine="compiled")
        query.run()
        query.run_time_series()
        assert metrics.counter("scuba.t.plan_cache.misses").value == 1
        assert metrics.counter("scuba.t.plan_cache.hits").value == 1

    def test_plans_survive_use_cache_false(self):
        # Plans are pure functions of the shape: result caching off must
        # not force re-lowering (the bench arms rely on this).
        table = sealed_table(monotonic_rows(64))
        query = ScubaQuery(table, 0.0, 64.0, group_by=("page",),
                           engine="compiled", use_cache=False)
        query.run()
        query.run()
        assert table.query_cache.plans.stats()["hits"] == 1
        # ... while the result cache stays genuinely empty.
        assert len(table.query_cache) == 0

    def test_opaque_where_uses_cached_plan_and_caches_no_partials(self):
        table = sealed_table(monotonic_rows(64))
        # A tail whose values (0..3) pass the where: folded per row.
        table.add_rows(monotonic_rows(4, start=64.0))
        query = ScubaQuery(table, 0.0, 68.0, group_by=("page",),
                           bucket_seconds=16.0, engine="compiled",
                           where=lambda row: row["value"] < 10.0)
        for _ in range(2):
            assert {r["page"]: r["value"] for r in query.run()} == \
                   {"p0": 6, "p1": 4, "p2": 4}
            assert sum(p.value for p in query.run_time_series()) == 14
        assert table.query_cache.plans.stats() == \
            {"hits": 3, "misses": 1, "size": 1}
        assert len(table.query_cache) == 0

    def test_clear_drops_plans_with_partials(self):
        table = sealed_table(monotonic_rows(64))
        ScubaQuery(table, 0.0, 64.0, engine="compiled").run()
        assert len(table.query_cache.plans) == 1
        table.query_cache.clear()
        assert len(table.query_cache.plans) == 0

    def test_plan_cache_is_bounded_lru(self):
        table = sealed_table(monotonic_rows(16))
        cache = table.query_cache.plans
        cache.max_plans = 4
        for i in range(8):
            ScubaQuery(table, 0.0, 16.0, engine="compiled",
                       filters=(ColumnFilter("value", ">", float(i)),)).run()
        assert len(cache) == 4


class TestZonePruning:
    def test_selective_filter_prunes_segments(self):
        # 64 rows in 8 segments; values 0..63 track time, so value > 55
        # can only live in the last segment.
        table = sealed_table(monotonic_rows(64))
        metrics = MetricsRegistry()
        query = ScubaQuery(table, 0.0, 64.0, metrics=metrics,
                           engine="compiled",
                           filters=(ColumnFilter("value", ">", 55.0),))
        assert query.run() == [{"value": 8}]
        assert metrics.counter("scuba.t.segments_pruned").value == 7
        assert metrics.counter("scuba.t.rows_pruned").value == 56
        assert metrics.counter("scuba.t.rows_scanned").value == 8

    def test_pruned_equals_row_engine(self):
        table = sealed_table(monotonic_rows(64))
        for filters in (
            (ColumnFilter("value", ">=", 60.0),),
            (ColumnFilter("value", "<", 4.0),),
            (ColumnFilter("value", "==", 31.0),),
            (ColumnFilter("value", "in", (3.0, 59.0)),),
            (ColumnFilter("value", ">", 100.0),),  # prunes everything
            (ColumnFilter("page", "==", "nope"),),  # dict-domain prune
        ):
            all_engines_agree(table, start=0.0, end=64.0,
                              group_by=("page",), filters=filters)

    def test_dictionary_domain_prunes(self):
        rows = [{"event_time": float(i), "kind": "a" if i < 8 else "b"}
                for i in range(16)]
        table = sealed_table(rows, segment_rows=8)
        metrics = MetricsRegistry()
        query = ScubaQuery(table, 0.0, 16.0, metrics=metrics,
                           engine="compiled",
                           filters=(ColumnFilter("kind", "==", "b"),))
        assert query.run() == [{"value": 8}]
        assert metrics.counter("scuba.t.segments_pruned").value == 1

    def test_absent_column_pruning_respects_negative_ops(self):
        # Segment 0 lacks "flag" entirely: positive ops prune it,
        # negative ops must NOT (missing passes them).
        rows = [{"event_time": float(i)} for i in range(8)]
        rows += [{"event_time": 8.0 + i, "flag": "on"} for i in range(8)]
        table = sealed_table(rows, segment_rows=8)
        metrics = MetricsRegistry()
        positive = ScubaQuery(table, 0.0, 16.0, metrics=metrics,
                              engine="compiled",
                              filters=(ColumnFilter("flag", "==", "on"),))
        assert positive.run() == [{"value": 8}]
        assert metrics.counter("scuba.t.segments_pruned").value == 1
        negative = ScubaQuery(table, 0.0, 16.0, engine="compiled",
                              filters=(ColumnFilter("flag", "!=", "off"),))
        assert negative.run() == [{"value": 16}]

    def test_time_series_bucket_invalidated_by_pruned_segment_replacement(
            self):
        # A cached bucket must be stamped with pruned segments' seg_ids:
        # a deep insert into a pruned segment can add a passing row.
        table = sealed_table(monotonic_rows(64))
        query = ScubaQuery(table, 0.0, 64.0, bucket_seconds=32.0,
                           engine="compiled",
                           filters=(ColumnFilter("value", ">", 55.0),))
        assert [p.value for p in query.run_time_series()] == [8]
        # Deep out-of-order insert into the (pruned) first segment.
        table.add({"event_time": 0.5, "value": 99.0})
        assert sorted(p.value for p in query.run_time_series()) == [1, 8]

    def test_run_pruning_survives_segment_replacement(self):
        table = sealed_table(monotonic_rows(64))
        query = ScubaQuery(table, 0.0, 64.0, engine="compiled",
                           filters=(ColumnFilter("value", ">", 55.0),))
        assert query.run() == [{"value": 8}]
        table.add({"event_time": 0.5, "value": 99.0})
        assert query.run() == [{"value": 9}]

    def test_partial_coverage_still_prunes(self):
        # Zones summarize the whole segment, so a query overlapping only
        # part of it can still use them.
        table = sealed_table(monotonic_rows(64))
        metrics = MetricsRegistry()
        query = ScubaQuery(table, 3.0, 61.0, metrics=metrics,
                           engine="compiled",
                           filters=(ColumnFilter("value", "<", 2.0),))
        assert query.run() == []
        assert metrics.counter("scuba.t.segments_pruned").value >= 7


class TestZoneMaps:
    def test_nan_float_zone_claims_no_range(self):
        segment = Segment.seal(0, [0.0, 1.0], [{"v": float("nan")},
                                               {"v": 5.0}])
        zone = segment.zone("v")
        assert zone.min_value is None and zone.max_value is None
        assert _zone_may_match(ColumnFilter("v", ">", 1.0), zone)

    def test_nan_led_segment_is_not_pruned(self):
        nan = float("nan")
        rows = [{"event_time": float(i), "v": v}
                for i, v in enumerate([nan, 5.0, 6.0, 7.0] * 2)]
        rows.append({"event_time": 8.0, "v": nan, "k": "x"})  # dict column
        table = sealed_table(rows, segment_rows=4)
        for op in (">", ">=", "<", "<="):
            all_engines_agree(table, start=0.0, end=10.0,
                              filters=(ColumnFilter("v", op, 5.5),))
        assert ScubaQuery(table, 0.0, 10.0, engine="compiled",
                          filters=(ColumnFilter("v", ">", 1.0),)
                          ).run() == [{"value": 6}]

    def test_float_zone_has_min_max(self):
        segment = Segment.seal(0, [0.0, 1.0, 2.0],
                               [{"v": 5.0}, {"v": -1.5}, {"v": 3.0}])
        zone = segment.zone("v")
        assert (zone.min_value, zone.max_value) == (-1.5, 5.0)
        assert not zone.has_missing and zone.domain is None

    def test_dict_zone_has_domain_and_missing(self):
        segment = Segment.seal(0, [0.0, 1.0, 2.0],
                               [{"k": "a"}, {"k": None}, {}])
        zone = segment.zone("k")
        assert zone.has_missing
        assert set(zone.domain) == {"a", None}

    def test_absent_column_zone_is_none(self):
        segment = Segment.seal(0, [0.0], [{"v": 1.0}])
        assert segment.zone("other") is None

    def test_mixed_object_zone_claims_no_range(self):
        segment = Segment.seal(
            0, [float(i) for i in range(5)],
            [{"v": [i]} for i in range(5)])  # unhashable -> ObjectColumn
        zone = segment.zone("v")
        assert zone.min_value is None and zone.domain is None
        # With no sound claim, nothing may be pruned.
        assert _zone_may_match(ColumnFilter("v", "==", [2]), zone)

    def test_sliced_dict_domain_is_conservative_superset(self):
        rows = [{"event_time": float(i), "k": "old" if i < 4 else "new"}
                for i in range(8)]
        table = ScubaTable("t", retention_seconds=4.0, segment_rows=8)
        table.add_rows(rows)
        table.seal_tail()
        table.trim(now=8.0)  # slices the segment; "old" rows are gone
        [segment] = table._segments
        # The superset domain keeps "old" (sound: may only over-keep) ...
        assert "old" in segment.zone("k").domain
        plan = ScubaPlan(("count", None, (), (ColumnFilter("k", "==", "old"),)))
        assert not plan.prunes(segment)
        # ... and the scan itself returns the true (empty) answer.
        assert ScubaQuery(table, 0.0, 8.0, engine="compiled",
                          filters=(ColumnFilter("k", "==", "old"),)
                          ).run() == []


class TestQueryStatsPanel:
    def test_panel_surfaces_pruning_and_plan_counters(self):
        from repro.monitoring.dashboards import DashboardPanel

        table = sealed_table(monotonic_rows(64))
        metrics = MetricsRegistry()
        query = ScubaQuery(table, 0.0, 64.0, metrics=metrics,
                           engine="compiled",
                           filters=(ColumnFilter("value", ">", 55.0),))
        query.run()
        query.run()
        panel = DashboardPanel.from_query_stats("query-cost", query)
        stats = {row["metric"]: row["value"] for row in panel.runner(0, 64)}
        assert stats["segments_pruned"] == 14
        assert stats["rows_pruned"] == 112
        assert stats["plan_cache.hits"] == 1
        assert stats["plan_cache.misses"] == 1
        assert "rows_scanned" in stats and "queries" in stats
