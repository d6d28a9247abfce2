"""Tests for the Laser key-value serving layer."""

import pytest

from repro.errors import ConfigError, LaserError
from repro.hive.warehouse import HiveTable
from repro.laser.service import LaserService, LaserTable


@pytest.fixture
def service(scribe):
    return LaserService(scribe, clock=scribe.clock)


class TestLaserTable:
    def test_point_lookup(self, clock):
        table = LaserTable("dims", ["dim_id"], ["language"], clock=clock)
        table.put_row({"dim_id": "d1", "language": "en", "noise": 1})
        assert table.get("d1") == {"language": "en"}
        assert table.get("missing") is None

    def test_composite_keys(self, clock):
        table = LaserTable("t", ["a", "b"], ["v"], clock=clock)
        table.put_row({"a": 1, "b": 2, "v": "x"})
        assert table.get(1, 2) == {"v": "x"}
        assert table.get(2, 1) is None

    def test_wrong_key_arity_raises(self, clock):
        table = LaserTable("t", ["a", "b"], ["v"], clock=clock)
        with pytest.raises(LaserError):
            table.get("only-one")

    def test_row_missing_key_column_raises(self, clock):
        table = LaserTable("t", ["a"], ["v"], clock=clock)
        with pytest.raises(LaserError):
            table.put_row({"v": 1})

    def test_lifetime_expiry(self, clock):
        table = LaserTable("t", ["k"], ["v"], lifetime_seconds=10.0,
                           clock=clock)
        table.put_row({"k": "a", "v": 1})
        assert table.get("a") == {"v": 1}
        clock.advance(11.0)
        assert table.get("a") is None

    def test_rewrite_refreshes_lifetime(self, clock):
        table = LaserTable("t", ["k"], ["v"], lifetime_seconds=10.0,
                           clock=clock)
        table.put_row({"k": "a", "v": 1})
        clock.advance(8.0)
        table.put_row({"k": "a", "v": 2})
        clock.advance(8.0)
        assert table.get("a") == {"v": 2}

    def test_config_validation(self, clock):
        with pytest.raises(ConfigError):
            LaserTable("t", [], ["v"], clock=clock)
        with pytest.raises(ConfigError):
            LaserTable("t", ["k"], [], clock=clock)
        with pytest.raises(ConfigError):
            LaserTable("t", ["k"], ["v"], lifetime_seconds=0, clock=clock)

    def test_multi_get(self, clock):
        table = LaserTable("t", ["k"], ["v"], clock=clock)
        table.put_row({"k": "a", "v": 1})
        result = table.multi_get([("a",), ("b",)])
        assert result == {("a",): {"v": 1}, ("b",): None}


class TestSources:
    def test_tail_scribe_realtime(self, scribe, clock):
        """Use case 1: a Puma/Stylus output stream served to products."""
        scribe.create_category("scores", 2)
        table = LaserTable("scores", ["topic"], ["score"], clock=clock)
        table.tail_scribe(scribe, "scores")
        scribe.write_record("scores", {"topic": "movies", "score": 9.5},
                            key="movies")
        assert table.pump() == 1
        assert table.get("movies") == {"score": 9.5}

    def test_tail_skips_and_counts_bad_payloads(self, scribe, clock):
        """One undecodable payload or keyless row costs only itself."""
        scribe.create_category("scores", 1)
        table = LaserTable("scores", ["topic"], ["score"], clock=clock)
        table.tail_scribe(scribe, "scores")
        scribe.write_record("scores", {"topic": "movies", "score": 9.5})
        scribe.write("scores", b"\xff{not json")
        scribe.write_record("scores", {"score": 1.0})  # no key column
        scribe.write_record("scores", {"topic": "books", "score": 7.0})
        assert table.pump() == 2
        assert table.get("movies") == {"score": 9.5}
        assert table.get("books") == {"score": 7.0}
        assert table.metrics.counter("laser.scores.poison").value == 2

    def test_load_from_hive_daily(self, clock):
        """Use case 2: a Hive result loaded for lookup joins."""
        hive_table = HiveTable("dims")
        for i in range(5):
            hive_table.append({"event_time": float(i), "dim_id": f"d{i}",
                               "lang": "en"})
        hive_table.land_partitions_before(now=90_000.0)
        table = LaserTable("dims", ["dim_id"], ["lang"], clock=clock)
        assert table.load_from_hive(hive_table) == 5
        assert table.get("d3") == {"lang": "en"}


class TestLaserService:
    def test_one_command_create_and_delete(self, service):
        service.create_table("t", ["k"], ["v"])
        assert service.tables() == ["t"]
        service.delete_table("t")
        assert service.tables() == []

    def test_duplicate_create_rejected(self, service):
        service.create_table("t", ["k"], ["v"])
        with pytest.raises(ConfigError):
            service.create_table("t", ["k"], ["v"])

    def test_unknown_table_raises(self, service):
        with pytest.raises(ConfigError):
            service.table("ghost")
        with pytest.raises(ConfigError):
            service.delete_table("ghost")

    def test_create_with_scribe_source_pumps(self, service, scribe):
        scribe.create_category("src", 1)
        service.create_table("t", ["k"], ["v"], scribe_category="src")
        scribe.write_record("src", {"k": "a", "v": 7})
        assert service.pump() == 1
        assert service.table("t").get("a") == {"v": 7}


class TestReplicatedTables:
    """Sections 4.2.2 / 6.3: one app in several data centers, each tier
    reading all of the stream's data for disaster recovery."""

    def make(self, service, scribe):
        scribe.create_category("scores", 2)
        table = service.create_replicated_table(
            "scores", ["topic"], ["score"],
            data_centers=["dc-east", "dc-west"],
            scribe_category="scores",
        )
        scribe.write_record("scores", {"topic": "movies", "score": 9.0},
                            key="movies")
        table.pump()
        return table

    def test_every_tier_ingests_all_data(self, service, scribe):
        table = self.make(service, scribe)
        assert table.get("movies", datacenter="dc-east") == {"score": 9.0}
        assert table.get("movies", datacenter="dc-west") == {"score": 9.0}

    def test_failover_between_datacenters(self, service, scribe):
        table = self.make(service, scribe)
        table.fail_datacenter("dc-east")
        # Reads preferring the dead DC silently fail over.
        assert table.get("movies", datacenter="dc-east") == {"score": 9.0}
        assert service.metrics.counter(
            f"laser.{table.name}.failover_reads").value == 1
        table.fail_datacenter("dc-west")
        # Every DC down: a key served before comes from the stale cache...
        assert table.get("movies") == {"score": 9.0}
        assert service.metrics.counter(
            f"laser.{table.name}.stale_reads").value == 1
        # ...and a key never served raises, visibly counted.
        with pytest.raises(LaserError):
            table.get("never-seen")
        assert service.metrics.counter(
            f"laser.{table.name}.unavailable_reads").value == 1
        table.restore_datacenter("dc-west")
        assert table.get("movies") == {"score": 9.0}

    def test_recovering_tier_catches_up_from_the_bus(self, service, scribe):
        table = self.make(service, scribe)
        table.fail_datacenter("dc-east")
        scribe.write_record("scores", {"topic": "sports", "score": 3.0},
                            key="sports")
        table.pump()  # both tiers keep tailing; "down" only affects reads
        table.restore_datacenter("dc-east")
        assert table.get("sports", datacenter="dc-east") == {"score": 3.0}

    def test_duplicate_names_rejected(self, service, scribe):
        self.make(service, scribe)
        with pytest.raises(ConfigError):
            service.create_replicated_table(
                "scores", ["k"], ["v"], ["dc"], scribe_category="scores")

    def test_service_pump_covers_replicated(self, service, scribe):
        table = self.make(service, scribe)
        scribe.write_record("scores", {"topic": "news", "score": 1.0},
                            key="news")
        assert service.pump() == 2  # both tiers ingested the new record


class TestFaultInjection:
    """Outages, latches, and retries on the serving tiers themselves."""

    def test_outage_window_blocks_reads_and_is_counted(self, clock):
        from repro.errors import StoreUnavailable

        table = LaserTable("t", ["k"], ["v"], clock=clock)
        table.put_row({"k": "a", "v": 1})
        table.add_outage(5.0, 10.0)
        clock.advance(6.0)
        with pytest.raises(StoreUnavailable):
            table.get("a")
        with pytest.raises(StoreUnavailable):
            table.multi_get([("a",)])
        assert table.metrics.counter(
            "laser.t.unavailable_errors").value == 2
        clock.advance(5.0)
        assert table.get("a") == {"v": 1}

    def test_latched_outage_until_restored(self, clock):
        from repro.errors import StoreUnavailable

        table = LaserTable("t", ["k"], ["v"], clock=clock)
        table.put_row({"k": "a", "v": 1})
        table.set_available(False)
        with pytest.raises(StoreUnavailable):
            table.get("a")
        table.set_available(True)
        assert table.get("a") == {"v": 1}

    def test_replicated_read_retries_through_transient_outage(self, service,
                                                              scribe, clock):
        from repro.runtime.retry import RetryPolicy

        scribe.create_category("scores", 1)
        table = service.create_replicated_table(
            "scores", ["topic"], ["score"],
            data_centers=["dc-east", "dc-west"],
            scribe_category="scores",
            retry=RetryPolicy(max_attempts=4, base_delay=1.0,
                              multiplier=2.0, jitter=0.0))
        scribe.write_record("scores", {"topic": "movies", "score": 9.0},
                            key="movies")
        table.pump()
        # Both tiers go dark briefly; the backoff (1s + 2s) outlives it.
        for tier in table.tiers.values():
            tier.add_outage(clock.now(), clock.now() + 2.5)
        assert table.get("movies") == {"score": 9.0}
        assert service.metrics.counter(
            "laser.scores.retry.recoveries").value >= 1
        assert service.metrics.counter(
            f"laser.{table.name}.stale_reads").value == 0
