"""Tests for the Puma app runtime: aggregation, filtering, recovery."""

import pytest

from repro.errors import PlanningError
from repro.puma.app import PumaApp, combine_partial_states
from repro.puma.parser import parse
from repro.puma.planner import plan
from repro.runtime.clock import SimClock
from repro.scribe.reader import CategoryReader
from repro.scribe.store import ScribeStore
from repro.storage.hbase import HBaseTable

from tests.property.puma_row_oracle import RowOraclePumaApp

AGG_SOURCE = """
CREATE APPLICATION counts;
CREATE INPUT TABLE clicks(event_time, page, user) FROM SCRIBE("clicks")
TIME event_time;
CREATE TABLE clicks_1min AS
SELECT page, count(*) AS n, approx_distinct(user) AS users
FROM clicks [1 minute];
"""

FILTER_SOURCE = """
CREATE APPLICATION only_home;
CREATE INPUT TABLE clicks(event_time, page, user) FROM SCRIBE("clicks")
TIME event_time;
CREATE TABLE home_clicks AS
SELECT user, page FROM clicks WHERE page = 'home';
"""


@pytest.fixture
def wired(scribe):
    scribe.create_category("clicks", 2)
    return scribe


def make_app(scribe, source=AGG_SOURCE, **kwargs):
    return PumaApp(plan(parse(source)), scribe, HBaseTable("state"),
                   clock=scribe.clock, **kwargs)


def write_clicks(scribe, count, pages=("home", "about"), start=0.0):
    for i in range(count):
        scribe.write_record("clicks", {
            "event_time": start + i,
            "page": pages[i % len(pages)],
            "user": f"u{i % 7}",
        }, key=str(i))


class TestAggregation:
    def test_windowed_group_counts(self, wired):
        app = make_app(wired)
        write_clicks(wired, 60)  # one event per second: one window
        app.pump()
        rows = app.query("clicks_1min", window_start=0.0)
        by_page = {row["page"]: row["n"] for row in rows}
        assert by_page == {"home": 30, "about": 30}

    def test_multiple_windows(self, wired):
        app = make_app(wired)
        write_clicks(wired, 120)
        app.pump()
        assert app.windows("clicks_1min") == [0.0, 60.0]

    def test_approx_distinct_in_query(self, wired):
        app = make_app(wired)
        write_clicks(wired, 60)
        app.pump()
        [home] = [r for r in app.query("clicks_1min", 0.0)
                  if r["page"] == "home"]
        # i % 7 cycles through all seven users on both pages (7 is odd, so
        # parity alternates); HLL is exact at this tiny cardinality.
        assert home["users"] == 7

    def test_query_top_k(self, wired):
        app = make_app(wired)
        write_clicks(wired, 90, pages=("home", "home", "about"))
        app.pump()
        top = app.query_top_k("clicks_1min", "n", 1, window_start=0.0)
        assert top[0]["page"] == "home"

    def test_query_top_k_by_group_column(self, wired):
        app = make_app(wired)
        write_clicks(wired, 30, pages=("home", "about", "shop"))
        app.pump()
        top = app.query_top_k("clicks_1min", "page", 2, window_start=0.0)
        assert [row["page"] for row in top] == ["shop", "home"]
        assert top[0]["n"] == 10

    def test_query_top_k_unknown_metric_rejected(self, wired):
        app = make_app(wired)
        write_clicks(wired, 10)
        app.pump()
        with pytest.raises(PlanningError, match="no column 'clicks'"):
            app.query_top_k("clicks_1min", "clicks", 3)

    def test_query_non_aggregation_table_rejected(self, wired):
        app = make_app(wired, FILTER_SOURCE)
        with pytest.raises(PlanningError):
            app.query("home_clicks")
        with pytest.raises(PlanningError):
            app.query_top_k("home_clicks", "user", 3)

    def test_fractional_window_is_one_cell(self, wired):
        """A ``[0.1 seconds]`` window starting at ``aligned_start(0.35,
        0.1) == 0.30000000000000004`` stays one cell across a checkpoint:
        in memory and in HBase it has the start its row key spells."""
        source = AGG_SOURCE.replace("[1 minute]", "[0.1 seconds]")
        for app_class in (PumaApp, RowOraclePumaApp):
            scribe = ScribeStore(clock=SimClock())
            scribe.create_category("clicks", 1)
            app = app_class(plan(parse(source)), scribe, HBaseTable("state"),
                            clock=scribe.clock)
            for i in range(5):
                scribe.write_record("clicks", {"event_time": 0.35,
                                               "page": "home", "user": "u"})
                app.pump()
                if i == 3:
                    app.checkpoint()
            assert app.windows("clicks_1min") == [0.3]
            [row] = app.query("clicks_1min")
            assert (row["window_start"], row["n"]) == (0.3, 5)
            for start in (0.3, 0.30000000000000004):
                assert app.query("clicks_1min", start) == [row]
                assert app.query_top_k("clicks_1min", "n", 1, start) == [row]

    def test_rows_without_event_time_are_skipped(self, wired):
        app = make_app(wired)
        wired.write_record("clicks", {"page": "home", "user": "u"})
        app.pump()
        assert app.query("clicks_1min") == []


class TestFiltering:
    def test_filter_writes_output_category(self, wired):
        app = make_app(wired, FILTER_SOURCE)
        write_clicks(wired, 10)
        app.pump()
        out = CategoryReader(wired, "home_clicks").read_all()
        records = [m.decode() for m in out]
        assert len(records) == 5
        assert all("event_time" in r for r in records)  # time propagates

    def test_filter_output_feeds_another_app(self, wired):
        """Section 2.2: output 'can then be the input to another Puma app'."""
        first = make_app(wired, FILTER_SOURCE)
        downstream_source = """
        CREATE APPLICATION downstream;
        CREATE INPUT TABLE home_clicks(event_time, user, page)
        FROM SCRIBE("home_clicks") TIME event_time;
        CREATE TABLE per_user AS
        SELECT user, count(*) AS n FROM home_clicks [1 minute];
        """
        write_clicks(wired, 10)
        first.pump()
        second = make_app(wired, downstream_source)
        second.pump()
        rows = second.query("per_user", 0.0)
        assert sum(r["n"] for r in rows) == 5


class TestCheckpointRecovery:
    def test_crash_without_checkpoint_replays_everything(self, wired):
        app = make_app(wired, checkpoint_every_events=10_000)
        write_clicks(wired, 20)
        app.pump()
        app.crash()
        app.restart()
        app.pump()
        rows = app.query("clicks_1min", 0.0)
        assert sum(r["n"] for r in rows) == 20  # replay rebuilt it exactly

    def test_crash_after_checkpoint_resumes(self, wired):
        app = make_app(wired)
        write_clicks(wired, 20)
        app.pump()
        app.checkpoint()
        app.crash()
        app.restart()
        rows = app.query("clicks_1min", 0.0)
        assert sum(r["n"] for r in rows) == 20

    def test_at_least_once_can_overcount_after_partial_checkpoint(self, wired):
        """State rows flushed but offsets not: replay double-counts.

        This is Puma's documented at-least-once guarantee (Section 4.3.2).
        """
        app = make_app(wired, checkpoint_every_events=10_000)
        write_clicks(wired, 10)
        app.pump()
        # Simulate the crash landing between the state writes and the
        # offset writes of the checkpoint: state rows are durable, offsets
        # are not.
        for state_key in sorted(app._dirty):
            table, window_start, group_key = state_key
            app.hbase.put(app._state_row(table, window_start, group_key),
                          dict(app._state[state_key]))
        app.crash()
        app.restart()
        app.pump()  # replays all 10 events on top of the saved state
        rows = app.query("clicks_1min", 0.0)
        assert sum(r["n"] for r in rows) == 20  # at-least-once: overcounted

    def test_crashed_app_pumps_nothing(self, wired):
        app = make_app(wired)
        write_clicks(wired, 5)
        app.crash()
        assert app.pump() == 0


class TestParallelism:
    def test_bucket_partitioned_instances_cover_stream(self, wired):
        left = make_app(wired, buckets=[0])
        right = PumaApp(plan(parse(AGG_SOURCE)), wired, left.hbase,
                        buckets=[1], clock=wired.clock)
        write_clicks(wired, 40)
        left.pump()
        right.pump()
        table = left.plan.table("clicks_1min")
        combined = combine_partial_states(table, [
            left.partial_states("clicks_1min"),
            right.partial_states("clicks_1min"),
        ])
        total = sum(state["n"] for state in combined.values())
        assert total == 40

    def test_combine_partials_matches_single_process(self, wired):
        whole = make_app(wired)
        write_clicks(wired, 30)
        whole.pump()
        table = whole.plan.table("clicks_1min")
        combined = combine_partial_states(
            table, [whole.partial_states("clicks_1min")])
        single = {key: state["n"]
                  for key, state in whole.partial_states("clicks_1min").items()}
        assert {k: v["n"] for k, v in combined.items()} == single


class TestGrowToBuckets:
    """A category resize extends only whole-category instances, and only
    by the buckets they do not already read."""

    def test_pinned_instance_does_not_grow(self, scribe):
        scribe.create_category("clicks", 4)
        app = make_app(scribe, buckets=[0, 2])
        write_clicks(scribe, 20)
        app.pump()
        positions = {bucket: app.bucket_position(bucket)
                     for bucket in (0, 2)}
        scribe.category("clicks").resize(6)
        assert app.grow_to_buckets() == 2
        assert app.buckets == [0, 2]
        # The live readers were not replaced by ones at the saved offset.
        assert {bucket: app.bucket_position(bucket)
                for bucket in (0, 2)} == positions

    def test_whole_category_instance_adopts_new_buckets(self, wired):
        app = make_app(wired)
        write_clicks(wired, 20)
        app.pump()
        positions = {bucket: app.bucket_position(bucket) for bucket in (0, 1)}
        wired.category("clicks").resize(4)
        assert app.grow_to_buckets() == 4
        assert app.buckets == [0, 1, 2, 3]
        assert {bucket: app.bucket_position(bucket)
                for bucket in (0, 1)} == positions

    def test_released_bucket_is_not_taken_back(self, wired):
        app = make_app(wired)
        app.release_bucket(1)
        wired.category("clicks").resize(4)
        assert app.grow_to_buckets() == 1
        assert app.buckets == [0]


class TestWindowEviction:
    """Long-running apps bound their memory: old windows are evicted to
    HBase and still served by the query API."""

    def test_memory_holds_only_retained_windows(self, wired):
        app = make_app(wired, retain_windows=2)
        write_clicks(wired, 300)  # five 1-minute windows
        app.pump(1000)
        in_memory = {start for (_, start, _) in app._state}
        assert len(in_memory) == 2
        assert in_memory == {180.0, 240.0}
        assert app.metrics.counter("puma.counts.windows_evicted").value >= 3

    def test_evicted_windows_still_queryable(self, wired):
        unbounded = make_app(wired)
        write_clicks(wired, 300)
        unbounded.pump(1000)
        expected = unbounded.query("clicks_1min")

        bounded = PumaApp(plan(parse(AGG_SOURCE)), wired,
                          HBaseTable("bounded_state"),
                          retain_windows=2, clock=wired.clock)
        bounded.pump(1000)
        assert bounded.query("clicks_1min") == expected
        assert bounded.windows("clicks_1min") == \
            unbounded.windows("clicks_1min")

    def test_eviction_never_loses_counts(self, wired):
        app = make_app(wired, retain_windows=1)
        write_clicks(wired, 240)
        app.pump(1000)
        total = sum(r["n"] for r in app.query("clicks_1min"))
        assert total == 240


class TestPoisonMessages:
    def test_undecodable_message_is_skipped_and_counted(self, wired):
        app = make_app(wired)
        write_clicks(wired, 5)
        wired.write("clicks", b"\xff\xfenot json", bucket=0)
        write_clicks(wired, 5, start=100.0)
        assert app.pump(1000) == 11
        assert app.metrics.counter("puma.counts.poison").value == 1
        total = sum(r["n"] for r in app.query("clicks_1min"))
        assert total == 10  # the good rows all made it
