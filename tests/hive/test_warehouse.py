"""Tests for the Hive warehouse."""

import pytest

from repro.errors import HiveError, PartitionNotReady
from repro.hive.warehouse import (
    SECONDS_PER_DAY,
    HiveTable,
    HiveWarehouse,
    day_of,
)


class TestDayPartitioning:
    def test_day_of(self):
        assert day_of(0.0) == 0
        assert day_of(SECONDS_PER_DAY - 1) == 0
        assert day_of(SECONDS_PER_DAY) == 1

    def test_rows_land_in_their_day(self):
        table = HiveTable("t")
        table.append({"event_time": 100.0, "v": 1})
        table.append({"event_time": SECONDS_PER_DAY + 5, "v": 2})
        assert table.days(landed_only=False) == [0, 1]

    def test_row_without_time_rejected(self):
        with pytest.raises(HiveError):
            HiveTable("t").append({"v": 1})


class TestLanding:
    def test_partition_unavailable_until_midnight(self):
        table = HiveTable("t")
        table.append({"event_time": 100.0})
        with pytest.raises(PartitionNotReady):
            table.partition(0)
        table.land_partitions_before(now=SECONDS_PER_DAY + 1)
        assert table.partition(0).row_count == 1

    def test_current_day_never_lands(self):
        table = HiveTable("t")
        table.append({"event_time": SECONDS_PER_DAY + 10})
        landed = table.land_partitions_before(now=SECONDS_PER_DAY + 20)
        assert landed == []

    def test_late_row_into_landed_partition_rejected(self):
        table = HiveTable("t")
        table.append({"event_time": 100.0})
        table.land_partitions_before(now=2 * SECONDS_PER_DAY)
        with pytest.raises(HiveError):
            table.append({"event_time": 200.0})

    def test_missing_partition_raises(self):
        with pytest.raises(PartitionNotReady):
            HiveTable("t").partition(7)

    def test_scan_reads_landed_partitions(self):
        table = HiveTable("t")
        for day in range(3):
            table.append({"event_time": day * SECONDS_PER_DAY + 1.0,
                          "day": day})
        table.land_partitions_before(now=2.5 * SECONDS_PER_DAY)
        assert [r["day"] for r in table.scan()] == [0, 1]
        assert [r["day"] for r in table.scan([1])] == [1]


class TestWarehouse:
    def test_ingest_from_scribe(self, scribe):
        scribe.create_category("raw", 2)
        warehouse = HiveWarehouse(scribe)
        warehouse.ingest_from_scribe("raw", "raw_events")
        for i in range(10):
            scribe.write_record("raw", {"event_time": float(i)}, key=str(i))
        assert warehouse.pump() == 10
        assert warehouse.table("raw_events").row_count() == 10

    def test_ingest_skips_and_counts_bad_payloads(self, scribe):
        """One undecodable payload or rejected row costs only itself."""
        scribe.create_category("raw", 1)
        warehouse = HiveWarehouse(scribe)
        warehouse.ingest_from_scribe("raw", "raw_events")
        scribe.write_record("raw", {"event_time": 1.0})
        scribe.write("raw", b"\xff{not json")
        scribe.write_record("raw", {"seq": 7})  # no time column
        scribe.write_record("raw", {"event_time": 2.0})
        assert warehouse.pump() == 2
        assert warehouse.table("raw_events").row_count() == 2
        poison = warehouse.metrics.counter("hive.raw_events.poison")
        assert poison.value == 2

    def test_land_partitions_runs_midnight(self, scribe, clock):
        scribe.create_category("raw", 1)
        warehouse = HiveWarehouse(scribe)
        warehouse.ingest_from_scribe("raw", "raw_events")
        scribe.write_record("raw", {"event_time": 10.0})
        warehouse.pump()
        clock.advance(2 * SECONDS_PER_DAY)
        landed = warehouse.land_partitions()
        assert landed["raw_events"] == [0]

    def test_duplicate_table_rejected(self, scribe):
        warehouse = HiveWarehouse(scribe)
        warehouse.create_table("t")
        with pytest.raises(HiveError):
            warehouse.create_table("t")

    def test_aggregate_query(self, scribe):
        warehouse = HiveWarehouse(scribe)
        table = warehouse.create_table("t")
        for i in range(10):
            table.append({"event_time": float(i), "k": "a" if i < 7 else "b"})
        table.land_partitions_before(now=SECONDS_PER_DAY + 1)
        totals = warehouse.aggregate("t", [0], key_fn=lambda r: r["k"])
        assert totals == {"a": 7, "b": 3}
