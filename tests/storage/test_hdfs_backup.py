"""Tests for the HDFS blob store and the backup engine."""

import pytest

from repro.errors import BackupNotFound, StoreUnavailable
from repro.runtime.clock import SimClock
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.retry import RetryPolicy
from repro.storage.backup import BackupEngine
from repro.storage.hdfs import HdfsBlobStore
from repro.storage.lsm import LsmStore
from repro.storage.merge import CounterMergeOperator


@pytest.fixture
def hdfs(clock):
    return HdfsBlobStore(clock=clock)


class TestHdfsBlobStore:
    def test_put_get_delete(self, hdfs):
        hdfs.put("x", {"data": 1})
        assert hdfs.get("x") == {"data": 1}
        hdfs.delete("x")
        assert not hdfs.exists("x")

    def test_missing_blob_raises_key_error(self, hdfs):
        # The blob store itself knows nothing about backups; the backup
        # layers map KeyError to BackupNotFound.
        with pytest.raises(KeyError):
            hdfs.get("nope")

    def test_outage_blocks_operations(self, clock, hdfs):
        hdfs.add_outage(5.0, 10.0)
        hdfs.put("ok", 1)
        clock.advance(6.0)
        assert not hdfs.available()
        with pytest.raises(StoreUnavailable):
            hdfs.put("fail", 2)
        with pytest.raises(StoreUnavailable):
            hdfs.get("ok")
        clock.advance(5.0)
        assert hdfs.available()
        assert hdfs.get("ok") == 1

    def test_list_with_prefix(self, hdfs):
        hdfs.put("backups/a/1", 1)
        hdfs.put("backups/b/1", 2)
        hdfs.put("other", 3)
        assert hdfs.list("backups/") == ["backups/a/1", "backups/b/1"]

    def test_empty_outage_rejected(self, hdfs):
        with pytest.raises(ValueError):
            hdfs.add_outage(5.0, 5.0)


class TestBackupEngine:
    def make_store(self, disk=None):
        store = LsmStore(disk=disk if disk is not None else {},
                         name="app", merge_operator=CounterMergeOperator())
        store.put("a", 1)
        store.merge("count", 10)
        return store

    def test_backup_and_restore_round_trip(self, hdfs):
        engine = BackupEngine(hdfs)
        store = self.make_store()
        info = engine.create_backup(store)
        assert info.backup_id == 0
        restored = engine.restore("app", {}, merge_operator=CounterMergeOperator())
        assert restored.get("a") == 1
        assert restored.get("count") == 10

    def test_restore_is_a_snapshot_not_a_link(self, hdfs):
        engine = BackupEngine(hdfs)
        store = self.make_store()
        engine.create_backup(store)
        store.put("a", 999)
        restored = engine.restore("app", {},
                                  merge_operator=CounterMergeOperator())
        assert restored.get("a") == 1

    def test_backup_during_outage_is_skipped(self, clock, hdfs):
        hdfs.add_outage(0.0, 100.0)
        engine = BackupEngine(hdfs)
        store = self.make_store()
        assert engine.create_backup(store) is None
        with pytest.raises(StoreUnavailable):  # the listing is a remote call
            engine.latest_backup("app")
        clock.advance(100.0)
        assert engine.latest_backup("app") is None

    def test_recovery_uses_older_snapshot_after_outage(self, clock, hdfs):
        """Paper: 'If there is a failure, then recovery uses an older
        snapshot.'"""
        engine = BackupEngine(hdfs)
        store = self.make_store()
        engine.create_backup(store)          # snapshot 0: a=1
        hdfs.add_outage(clock.now(), clock.now() + 50.0)
        store.put("a", 2)
        assert engine.create_backup(store) is None  # snapshot skipped
        clock.advance(60.0)  # HDFS is back; the failure happens now
        restored = engine.restore("app", {},
                                  merge_operator=CounterMergeOperator())
        assert restored.get("a") == 1  # the older snapshot

    def test_restore_without_backups_raises(self, hdfs):
        engine = BackupEngine(hdfs)
        with pytest.raises(BackupNotFound):
            engine.restore("ghost", {})

    def test_multiple_backups_latest_wins(self, hdfs):
        engine = BackupEngine(hdfs)
        store = self.make_store()
        engine.create_backup(store)
        store.put("a", 2)
        engine.create_backup(store)
        assert engine.latest_backup("app").backup_id == 1
        restored = engine.restore("app", {},
                                  merge_operator=CounterMergeOperator())
        assert restored.get("a") == 2
        assert len(engine.backups("app")) == 2


class TestBackupEngineFailurePaths:
    def make_store(self, disk=None):
        store = LsmStore(disk=disk if disk is not None else {},
                         name="app", merge_operator=CounterMergeOperator())
        store.put("a", 1)
        return store

    def test_explicit_missing_backup_id_raises_backup_not_found(self, hdfs):
        engine = BackupEngine(hdfs)
        engine.create_backup(self.make_store())
        with pytest.raises(BackupNotFound):
            engine.restore("app", {}, backup_id=77)

    def test_restore_during_outage_raises_and_leaves_no_store(self, clock,
                                                              hdfs):
        engine = BackupEngine(hdfs)
        engine.create_backup(self.make_store())
        hdfs.add_outage(clock.now(), clock.now() + 50.0)
        new_disk = {}
        with pytest.raises(StoreUnavailable):
            engine.restore("app", new_disk,
                           merge_operator=CounterMergeOperator())
        # The blob fetch failed before the new store was created, so the
        # target namespace is untouched — no half-initialized store.
        assert new_disk == {}
        clock.advance(60.0)
        restored = engine.restore("app", new_disk,
                                  merge_operator=CounterMergeOperator())
        assert restored.get("a") == 1

    def test_backup_retries_through_a_short_outage(self, clock, hdfs):
        registry = MetricsRegistry()
        engine = BackupEngine(
            hdfs, retry=RetryPolicy(max_attempts=5, base_delay=1.0,
                                    multiplier=2.0, jitter=0.0),
            metrics=registry)
        hdfs.add_outage(0.0, 2.5)  # heals while the engine is backing off
        assert engine.create_backup(self.make_store()) is not None
        assert registry.counter("backup.retry.recoveries").value == 1
        assert registry.counter("backup.snapshot.skipped").value == 0

    def test_backup_exhausting_retries_is_counted_not_silent(self, clock,
                                                             hdfs):
        registry = MetricsRegistry()
        engine = BackupEngine(
            hdfs, retry=RetryPolicy(max_attempts=3, base_delay=0.1,
                                    jitter=0.0),
            metrics=registry)
        hdfs.add_outage(0.0, 1000.0)
        assert engine.create_backup(self.make_store()) is None
        assert registry.counter("backup.retry.give_ups").value == 1
        assert registry.counter("backup.snapshot.skipped").value == 1
        # Every StoreUnavailable the store raised is accounted for by the
        # retry layer: nothing was silently dropped.
        assert registry.counter("hdfs.unavailable_errors").value == 0  # separate registry


class TestIncrementalSnapshots:
    """Runs are shared by reference: a backup ships only the new ones."""

    def make_store(self):
        return LsmStore(disk={}, name="app",
                        merge_operator=CounterMergeOperator(),
                        compaction_trigger=100)

    def test_second_backup_uploads_only_the_new_run(self, hdfs):
        registry = MetricsRegistry()
        engine = BackupEngine(hdfs, metrics=registry)
        store = self.make_store()
        store.put("a", 1)
        first = engine.create_backup(store)
        assert (first.runs_uploaded, first.runs_reused) == (1, 0)
        store.put("b", 2)
        second = engine.create_backup(store)
        assert (second.runs_uploaded, second.runs_reused) == (1, 1)
        assert second.entry_count == 2
        idle = engine.create_backup(store)  # nothing new since `second`
        assert (idle.runs_uploaded, idle.runs_reused) == (0, 2)
        assert registry.counter("backup.runs.uploaded").value == 2
        assert registry.counter("backup.runs.reused").value == 3

    def test_skipped_backup_counts_no_runs_and_keeps_the_previous_one(
            self, clock, hdfs):
        registry = MetricsRegistry()
        engine = BackupEngine(hdfs, metrics=registry)
        store = self.make_store()
        store.put("a", 1)
        engine.create_backup(store)
        hdfs.add_outage(clock.now(), clock.now() + 10.0)
        store.put("a", 2)
        assert engine.create_backup(store) is None
        assert registry.counter("backup.runs.uploaded").value == 1
        clock.advance(20.0)
        assert [info.backup_id for info in engine.backups("app")] == [0]
        assert engine.restore(
            "app", {}, merge_operator=CounterMergeOperator()).get("a") == 1

    def test_restored_store_and_source_diverge_independently(self, hdfs):
        engine = BackupEngine(hdfs)
        store = self.make_store()
        store.put("a", 1)
        store.merge("n", 5)
        engine.create_backup(store)
        restored = engine.restore("app", {},
                                  merge_operator=CounterMergeOperator())
        restored.merge("n", 1)
        restored.delete("a")
        restored.compact()
        store.merge("n", 100)
        store.compact()
        again = engine.restore("app", {},
                               merge_operator=CounterMergeOperator())
        assert (again.get("a"), again.get("n")) == (1, 5)
        assert (restored.get("a"), restored.get("n")) == (None, 6)
        assert (store.get("a"), store.get("n")) == (1, 105)

    def test_restored_wal_continues_at_the_snapshot_sequence(self, hdfs):
        engine = BackupEngine(hdfs)
        store = self.make_store()
        store.put("a", 1)
        store.put("b", 2)
        engine.create_backup(store)
        restored = engine.restore("app", {},
                                  merge_operator=CounterMergeOperator())
        restored.put("c", 3)  # logged at a sequence >= flushed_seq
        restored.drop_memory()
        assert restored.recover() == 1
        assert restored.get("c") == 3

    def test_backup_of_a_crashed_unrecovered_store_keeps_its_wal_tail(
            self, hdfs):
        engine = BackupEngine(hdfs)
        store = self.make_store()
        store.put("a", 1)
        store.drop_memory()  # acknowledged write now lives only in the WAL
        engine.create_backup(store)
        assert engine.restore("app", {}).get("a") == 1


class TestEngineRestart:
    """Ids and history come from HDFS, not from the engine's memory."""

    def make_store(self):
        store = LsmStore(disk={}, name="app",
                         merge_operator=CounterMergeOperator())
        store.put("a", 1)
        return store

    def test_new_engine_sees_restores_and_never_overwrites(self, hdfs):
        store = self.make_store()
        old = BackupEngine(hdfs)
        old.create_backup(store)          # id 0: a=1
        store.put("a", 2)
        old.create_backup(store)          # id 1: a=2
        oldest = hdfs.get("backups/app/00000000")

        new = BackupEngine(hdfs)          # e.g. the process restarted
        assert new.latest_backup("app").backup_id == 1
        assert [info.backup_id for info in new.backups("app")] == [0, 1]
        assert new.restore(
            "app", {}, merge_operator=CounterMergeOperator()).get("a") == 2
        store.put("a", 3)
        info = new.create_backup(store)
        assert info.backup_id == 2
        assert (info.runs_uploaded, info.runs_reused) == (1, 2)
        assert hdfs.get("backups/app/00000000") is oldest
        assert new.restore("app", {}, backup_id=0).get("a") == 1
        assert hdfs.list("backups/app/") == [
            f"backups/app/{n:08d}" for n in range(3)]

    def test_numbering_is_per_store(self, hdfs):
        engine = BackupEngine(hdfs)
        engine.create_backup(self.make_store())
        other = LsmStore(disk={}, name="app2")
        other.put("z", 9)
        assert BackupEngine(hdfs).create_backup(other).backup_id == 0
        assert BackupEngine(hdfs).latest_backup("app").backup_id == 0

    def test_outage_during_the_listing_is_retried_and_counted(self, clock,
                                                              hdfs):
        BackupEngine(hdfs).create_backup(self.make_store())
        registry = MetricsRegistry()
        new = BackupEngine(
            hdfs, retry=RetryPolicy(max_attempts=5, base_delay=1.0,
                                    multiplier=2.0, jitter=0.0),
            metrics=registry)
        hdfs.add_outage(clock.now(), clock.now() + 2.5)
        assert new.latest_backup("app").backup_id == 0  # heals in backoff
        assert registry.counter("backup.retry.recoveries").value == 1
        hdfs.add_outage(clock.now(), clock.now() + 1000.0)
        assert new.create_backup(self.make_store()) is None
        assert registry.counter("backup.retry.give_ups").value == 1
        assert registry.counter("backup.snapshot.skipped").value == 1
        with pytest.raises(StoreUnavailable):
            new.restore("app", {})
        assert registry.counter("backup.retry.give_ups").value == 2
