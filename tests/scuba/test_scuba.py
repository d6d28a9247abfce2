"""Tests for the Scuba store, query engine, and ingestion tier."""

import pytest

from repro.errors import ConfigError, ScubaError
from repro.runtime.metrics import MetricsRegistry
from repro.scribe.store import ScribeStore
from repro.scuba.ingest import ScubaIngester
from repro.scuba.query import ColumnFilter, ScubaQuery
from repro.scuba.table import ScubaTable


def loaded_table(rows=100):
    table = ScubaTable("t")
    for i in range(rows):
        table.add({"event_time": float(i), "page": "home" if i % 2 else "about",
                   "ms": i % 10})
    return table


class TestScubaTable:
    def test_rows_between_is_half_open(self):
        table = loaded_table(10)
        rows = table.rows_between(2.0, 5.0)
        assert [r["event_time"] for r in rows] == [2.0, 3.0, 4.0]

    def test_out_of_order_insert_keeps_sort(self):
        table = ScubaTable("t")
        table.add({"event_time": 5.0})
        table.add({"event_time": 1.0})
        table.add({"event_time": 3.0})
        assert [r["event_time"] for r in table.rows_between(0, 10)] == \
               [1.0, 3.0, 5.0]

    def test_row_without_time_rejected(self):
        with pytest.raises(ScubaError):
            ScubaTable("t").add({"page": "home"})

    def test_trim_retention(self):
        table = ScubaTable("t", retention_seconds=50.0)
        for i in range(100):
            table.add({"event_time": float(i)})
        dropped = table.trim(now=100.0)
        assert dropped == 50
        assert table.min_time() == 50.0

    def test_min_max_time(self):
        table = loaded_table(10)
        assert table.min_time() == 0.0
        assert table.max_time() == 9.0
        assert ScubaTable("t").min_time() is None


class TestScubaQuery:
    def test_count_group_by(self):
        query = ScubaQuery(loaded_table(), start=0.0, end=100.0,
                           group_by=("page",))
        results = {r["page"]: r["value"] for r in query.run()}
        assert results == {"home": 50, "about": 50}

    def test_limit_defaults_to_seven(self):
        table = ScubaTable("t")
        for i in range(20):
            table.add({"event_time": float(i), "k": f"g{i}"})
        query = ScubaQuery(table, 0.0, 100.0, group_by=("k",))
        assert len(query.run()) == 7

    def test_where_filter(self):
        query = ScubaQuery(loaded_table(), 0.0, 100.0,
                           where=lambda r: r["ms"] >= 5)
        [row] = query.run()
        assert row["value"] == 50

    def test_aggregation_over_value_column(self):
        query = ScubaQuery(loaded_table(10), 0.0, 100.0,
                           aggregation="sum", value_column="ms")
        [row] = query.run()
        assert row["value"] == sum(i % 10 for i in range(10))

    def test_every_run_scans_and_charges_cpu(self):
        metrics = MetricsRegistry()
        query = ScubaQuery(loaded_table(), 0.0, 100.0, metrics=metrics)
        query.run()
        query.run()
        assert metrics.counter("scuba.t.rows_scanned").value == 200
        assert metrics.counter("scuba.t.queries").value == 2

    def test_shifted_models_dashboard_refresh(self):
        query = ScubaQuery(loaded_table(), start=0.0, end=50.0)
        slid = query.shifted(25.0)
        assert (slid.start, slid.end) == (25.0, 75.0)
        assert slid.table is query.table

    def test_time_series_buckets(self):
        query = ScubaQuery(loaded_table(100), 0.0, 100.0,
                           bucket_seconds=25.0)
        points = query.run_time_series()
        assert [p.bucket_start for p in points] == [0.0, 25.0, 50.0, 75.0]
        assert all(p.value == 25 for p in points)

    def test_time_series_requires_bucket(self):
        with pytest.raises(ScubaError):
            ScubaQuery(loaded_table(), 0.0, 1.0).run_time_series()

    def test_empty_range_rejected(self):
        with pytest.raises(ScubaError):
            ScubaQuery(loaded_table(), 5.0, 5.0).run()

    def test_unknown_engine_rejected(self):
        for engine in ("columnar", "compiledd", ""):
            with pytest.raises(ScubaError):
                ScubaQuery(loaded_table(), 0.0, 1.0, engine=engine)


class TestScubaIngester:
    def test_full_rate_ingests_everything(self, scribe):
        scribe.create_category("raw", 2)
        table = ScubaTable("t")
        ingester = ScubaIngester(scribe, "raw", table)
        for i in range(50):
            scribe.write_record("raw", {"event_time": float(i)}, key=str(i))
        assert ingester.pump(1000) == 50
        assert table.row_count() == 50

    def test_sampling_keeps_roughly_the_rate(self, scribe):
        scribe.create_category("raw", 1)
        table = ScubaTable("t")
        ingester = ScubaIngester(scribe, "raw", table, sample_rate=0.1,
                                 seed=5)
        for i in range(2000):
            scribe.write_record("raw", {"event_time": float(i)})
        ingester.pump(5000)
        assert 120 <= table.row_count() <= 280  # ~200 expected

    def test_sampling_is_deterministic(self, scribe):
        scribe.create_category("raw", 1)
        for i in range(100):
            scribe.write_record("raw", {"event_time": float(i)})
        counts = []
        for _ in range(2):
            table = ScubaTable("t")
            ingester = ScubaIngester(scribe, "raw", table, sample_rate=0.5,
                                     seed=7)
            ingester.pump(1000)
            counts.append(table.row_count())
        assert counts[0] == counts[1]

    def test_invalid_sample_rate(self, scribe):
        scribe.create_category("raw", 1)
        with pytest.raises(ConfigError):
            ScubaIngester(scribe, "raw", ScubaTable("t"), sample_rate=0.0)

    def test_at_most_once_never_redelivers(self, scribe):
        """Section 4.3.2: loss preferred to duplication."""
        scribe.create_category("raw", 1)
        table = ScubaTable("t")
        ingester = ScubaIngester(scribe, "raw", table)
        for i in range(10):
            scribe.write_record("raw", {"event_time": float(i)})
        ingester.pump(1000)
        ingester.pump(1000)  # nothing new: no duplicates
        assert table.row_count() == 10

    def test_ingest_health_metrics(self, scribe):
        """Lag gauge + rows counter + rows/sec gauge for dashboards."""
        scribe.create_category("raw", 1)
        metrics = MetricsRegistry()
        table = ScubaTable("t")
        ingester = ScubaIngester(scribe, "raw", table, metrics=metrics)
        for i in range(30):
            scribe.write_record("raw", {"event_time": float(i)})
        ingester.pump(10)  # partial drain: lag stays nonzero
        name = ingester.name
        assert metrics.counter(f"{name}.rows").value == 10
        assert metrics.gauge(f"{name}.ingest_lag").value == 20
        # On a SimClock the pump consumes zero modeled time, so the
        # rows/sec gauge must stay untouched (a rate over zero time is
        # undefined) — and, per R001, the ingester must not fall back to
        # the wall clock to fake one.
        assert metrics.gauge(f"{name}.rows_per_sec").value == 0
        ingester.pump(1000)
        assert metrics.gauge(f"{name}.ingest_lag").value == 0
        assert metrics.counter(f"{name}.rows").value == 30

    def test_row_without_time_is_poison_not_a_wedge(self, scribe):
        """One row lacking a usable time drops alone; its batch lands."""
        scribe.create_category("raw", 1)
        metrics = MetricsRegistry()
        table = ScubaTable("t")
        ingester = ScubaIngester(scribe, "raw", table, metrics=metrics)
        for record in ({"event_time": 1}, {"a": 2}, {"event_time": None},
                       {"event_time": "soon"}, {"event_time": 3}):
            scribe.write_record("raw", record)
        assert ingester.pump(1000) == 2
        assert [r["event_time"] for r in table.rows_between(0.0, 10.0)] == \
            [1, 3]
        assert ingester.lag_messages() == 0
        assert metrics.counter(f"{ingester.name}.poison").value == 3

    def test_rows_per_sec_on_wall_clock(self):
        """Under a real clock (the production-style default) the rate
        gauge reports rows over elapsed seconds."""
        scribe = ScribeStore()  # default WallClock
        scribe.create_category("raw", 1)
        metrics = MetricsRegistry()
        table = ScubaTable("t")
        ingester = ScubaIngester(scribe, "raw", table, metrics=metrics)
        for i in range(50):
            scribe.write_record("raw", {"event_time": float(i)})
        ingester.pump(1000)
        assert metrics.gauge(f"{ingester.name}.rows_per_sec").value > 0


class TestResultOrdering:
    def test_topk_ties_order_by_group_key(self):
        """Equal-valued groups must order deterministically, not by
        dict-insertion (== ingest) order."""
        for insertion_order in (range(12), reversed(range(12))):
            table = ScubaTable("t")
            for i in insertion_order:
                table.add({"event_time": float(i), "k": f"g{i % 4}"})
            query = ScubaQuery(table, 0.0, 100.0, group_by=("k",), limit=3)
            results = query.run()
            # All four groups count 3; the limit-3 cut must be stable.
            assert [r["k"] for r in results] == ["g0", "g1", "g2"]
            assert all(r["value"] == 3 for r in results)

    def test_topk_tie_order_same_under_both_engines(self):
        table = ScubaTable("t", segment_rows=4)
        for i in range(32):
            table.add({"event_time": float(i), "k": f"g{i % 8}"})
        table.seal_tail()
        rows = ScubaQuery(table, 0.0, 100.0, group_by=("k",),
                          engine="rows").run()
        cols = ScubaQuery(table, 0.0, 100.0, group_by=("k",),
                          engine="compiled").run()
        assert rows == cols

    def test_sortable_handles_mixed_type_aggregates(self):
        """min over a column holding strings in one group and numbers in
        another used to crash the result sort with TypeError."""
        table = ScubaTable("t")
        table.add({"event_time": 0.0, "g": "a", "v": "zebra"})
        table.add({"event_time": 1.0, "g": "b", "v": 3})
        table.add({"event_time": 2.0, "g": "c", "v": None})
        query = ScubaQuery(table, 0.0, 10.0, aggregation="min",
                           value_column="v", group_by=("g",))
        results = query.run()
        assert len(results) == 3
        # Deterministic: strings rank above numbers, None sorts last.
        assert [r["value"] for r in results] == ["zebra", 3, None]
        again = ScubaQuery(table, 0.0, 10.0, aggregation="min",
                           value_column="v", group_by=("g",),
                           engine="rows").run()
        assert results == again


class TestColumnarStorage:
    def test_tail_seals_into_segments(self):
        table = ScubaTable("t", segment_rows=8)
        for i in range(40):
            table.add({"event_time": float(i), "v": i})
        assert table.segment_count() >= 2
        assert table.row_count() == 40
        assert [r["v"] for r in table.rows_between(0.0, 100.0)] == \
            list(range(40))

    def test_materialized_rows_preserve_missing_keys_and_values(self):
        table = ScubaTable("t", segment_rows=2)
        rows = [
            {"event_time": 0.0, "a": 1, "b": "x"},
            {"event_time": 1.0, "a": None},          # explicit None kept
            {"event_time": 2.0, "b": "y", "c": 2.5},  # missing keys omitted
            {"event_time": 3.0, "a": 7},
        ]
        table.add_rows([dict(r) for r in rows])
        table.seal_tail()
        assert table.rows_between(0.0, 10.0) == rows

    def test_deep_out_of_order_insert_rebuilds_segment(self):
        table = ScubaTable("t", segment_rows=4)
        for i in range(20):
            table.add({"event_time": float(i * 2), "v": i * 2})
        table.seal_tail()
        ids_before = set(table.live_segment_ids())
        table.add({"event_time": 3.0, "v": 3})  # lands inside a sealed run
        assert set(table.live_segment_ids()) != ids_before
        times = [r["event_time"] for r in table.rows_between(0.0, 100.0)]
        assert times == sorted(times)
        assert 3.0 in times and table.row_count() == 21

    def test_trim_slices_boundary_segment(self):
        table = ScubaTable("t", retention_seconds=10.0, segment_rows=8)
        for i in range(32):
            table.add({"event_time": float(i)})
        table.seal_tail()
        dropped = table.trim(now=25.0)  # cutoff at t=15, mid-segment
        assert dropped == 15
        assert table.min_time() == 15.0
        assert table.row_count() == 17

    def test_segment_rows_above_input_never_seals(self):
        """The all-tail layout the row-scan baseline is charged against."""
        table = ScubaTable("t", segment_rows=50)
        for i in range(50):
            table.add({"event_time": float(i)})
        assert table.segment_count() == 0
        assert len(table.tail_between(0.0, 100.0)) == 50


class TestColumnFilter:
    def test_unknown_op_rejected(self):
        with pytest.raises(ScubaError):
            ColumnFilter("x", "~=", 1)

    def test_filters_match_where_lambda(self):
        table = loaded_table()
        by_filter = ScubaQuery(table, 0.0, 100.0,
                               filters=(ColumnFilter("ms", ">=", 5),)).run()
        by_where = ScubaQuery(table, 0.0, 100.0,
                              where=lambda r: r["ms"] >= 5).run()
        assert by_filter == by_where

    def test_null_and_missing_never_pass(self):
        table = ScubaTable("t", segment_rows=2)
        table.add({"event_time": 0.0, "v": None})
        table.add({"event_time": 1.0})
        table.add({"event_time": 2.0, "v": 5})
        table.seal_tail()
        for engine in ("rows", "compiled"):
            [row] = ScubaQuery(table, 0.0, 10.0,
                               filters=(ColumnFilter("v", ">=", 0),),
                               engine=engine).run()
            assert row["value"] == 1

    def test_incomparable_operand_never_passes(self):
        table = loaded_table(10)
        assert ScubaQuery(table, 0.0, 100.0,
                          filters=(ColumnFilter("page", ">=", 5),)).run() == []


class TestQueryCache:
    def sealed_table(self, rows=64, segment_rows=8):
        table = ScubaTable("t", segment_rows=segment_rows)
        for i in range(rows):
            table.add({"event_time": float(i), "page": f"p{i % 3}",
                       "ms": float(i % 5)})
        table.seal_tail()
        return table

    def test_repeat_run_hits_segment_partials(self):
        table = self.sealed_table()
        metrics = MetricsRegistry()
        query = ScubaQuery(table, 0.0, 64.0, group_by=("page",),
                           metrics=metrics)
        first = query.run()
        assert metrics.counter("scuba.t.cache.misses").value > 0
        assert metrics.counter("scuba.t.cache.hits").value == 0
        scanned = metrics.counter("scuba.t.rows_scanned").value
        assert first == query.run()
        assert metrics.counter("scuba.t.cache.hits").value > 0
        # The repeat scanned nothing: every segment came from the cache.
        assert metrics.counter("scuba.t.rows_scanned").value == scanned
        assert metrics.counter("scuba.t.rows_cached").value == 64

    def test_shifted_window_reuses_overlap(self):
        table = self.sealed_table(rows=80)
        metrics = MetricsRegistry()
        query = ScubaQuery(table, 0.0, 64.0, group_by=("page",),
                           metrics=metrics)
        query.run()
        shifted = query.shifted(8.0)
        shifted.run()
        assert metrics.counter("scuba.t.cache.hits").value > 0
        assert metrics.counter("scuba.t.cache.partial_reuse").value >= 1

    def test_trim_invalidates_only_affected_segments(self):
        table = self.sealed_table()
        query = ScubaQuery(table, 0.0, 64.0, group_by=("page",), limit=100)
        before = query.run()
        table.trim(now=20.0 + table.retention_seconds)  # drop t < 20
        after = query.run()
        fresh = ScubaQuery(table, 0.0, 64.0, group_by=("page",),
                           engine="rows", limit=100).run()
        assert after == fresh
        assert after != before

    def test_closed_buckets_cached_and_tail_appends_ignored(self):
        table = self.sealed_table()
        metrics = MetricsRegistry()
        query = ScubaQuery(table, 0.0, 64.0, bucket_seconds=8.0,
                           metrics=metrics)
        first = query.run_time_series()
        # Tail appends are newer than every closed bucket: no invalidation.
        table.add({"event_time": 100.0, "page": "p0", "ms": 1.0})
        assert query.run_time_series() == first
        assert metrics.counter("scuba.t.cache.hits").value > 0

    def test_where_lambda_disables_caching(self):
        table = self.sealed_table()
        metrics = MetricsRegistry()
        query = ScubaQuery(table, 0.0, 64.0, group_by=("page",),
                           where=lambda r: True, metrics=metrics)
        query.run()
        query.run()
        assert metrics.counter("scuba.t.cache.hits").value == 0
        assert metrics.counter("scuba.t.cache.misses").value == 0

    def test_use_cache_false_disables_caching(self):
        table = self.sealed_table()
        metrics = MetricsRegistry()
        query = ScubaQuery(table, 0.0, 64.0, group_by=("page",),
                           metrics=metrics, use_cache=False)
        assert query.run() == query.run()
        assert metrics.counter("scuba.t.cache.hits").value == 0
        assert len(table.query_cache) == 0
