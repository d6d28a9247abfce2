# lint: effect[watch]
"""Backup engine: incremental snapshots of a local LSM store to HDFS.

Models RocksDB's backup engine as used in the paper's Figure 10: the
local database is "copied asynchronously to HDFS at a larger interval".
A flushed :class:`~repro.storage.sstable.SSTable` never changes, so a
snapshot blob is ``(BackupInfo, runs, flushed_seq)`` with ``runs`` a
tuple of *references* to the store's runs, not a copy: a backup ships
only the runs the previous snapshot lacks (``backup.runs.uploaded`` vs
``backup.runs.reused``, compared by identity), and a restore links the
runs into a list of its own, so later flushes and compactions — which
only ever build new runs — of either store never touch the other. The
store is flushed first, so its WAL is empty and stays out of the blob.

The blob names in HDFS are the only record of which snapshots exist:
ids and history come from a listing, so a new engine (process restart,
another machine) continues its predecessor's numbering. HDFS outages
are first retried under a :class:`~repro.runtime.retry.RetryPolicy`;
when the retry budget is exhausted the backup is *skipped-and-counted*
(``backup.snapshot.skipped``) — the blob ``put`` is the commit point, so
the previous snapshot stays intact and recovery falls back to it,
losing the delta (which the at-least-once replay from Scribe
re-creates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import BackupNotFound, StoreUnavailable
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.retry import Retrier, RetryPolicy
from repro.storage.hdfs import HdfsBlobStore
from repro.storage.lsm import LsmStore
from repro.storage.wal import WriteAheadLog


@dataclass(frozen=True)
class BackupInfo:
    """Metadata for one stored snapshot (kept inside its blob)."""

    backup_id: int
    store_name: str
    taken_at: float
    entry_count: int    # summed over runs: an upper bound on live keys
    runs_uploaded: int  # runs the previous snapshot did not hold
    runs_reused: int    # runs shared with the previous snapshot


class BackupEngine:
    """Snapshot/restore bridge between an :class:`LsmStore` and HDFS."""

    def __init__(self, hdfs: HdfsBlobStore, prefix: str = "backups",
                 retry: RetryPolicy | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self.hdfs = hdfs
        self.prefix = prefix
        registry = metrics if metrics is not None else MetricsRegistry()
        policy = retry if retry is not None else RetryPolicy.no_retries()
        self._retrier = Retrier(policy, clock=hdfs.clock,
                                metrics=registry, scope="backup")
        self._skipped = registry.counter("backup.snapshot.skipped")
        self._uploaded = registry.counter("backup.runs.uploaded")
        self._reused = registry.counter("backup.runs.reused")

    def _blob_name(self, store_name: str, backup_id: int) -> str:
        return f"{self.prefix}/{store_name}/{backup_id:08d}"

    def _blob_names(self, store_name: str) -> list[str]:
        """The store's snapshot blobs in HDFS, oldest first."""
        return self._retrier.call(self.hdfs.list,
                                  f"{self.prefix}/{store_name}/")

    def _fetch(self, blob_name: str) -> tuple:
        return self._retrier.call(self.hdfs.get, blob_name)

    # -- snapshot -----------------------------------------------------------------

    def create_backup(self, store: LsmStore) -> BackupInfo | None:
        """Snapshot ``store`` to HDFS; returns None if HDFS stays unavailable.

        The store is flushed first so the snapshot is a consistent set of
        immutable runs (and an empty WAL), matching RocksDB behaviour.
        An outage is retried under the engine's policy; a final failure
        is counted in ``backup.snapshot.skipped`` and the engine moves
        on — the paper's "continue without remote backup copies" mode.
        """
        store.flush()
        state = store._disk_state()
        if len(state["wal"]):  # memtable lost in a crash, not yet recovered
            store.recover()
            store.flush()
        runs = tuple(state["sstables"])
        try:
            names = self._blob_names(store.name)
            backup_id, held = 0, ()
            if names:
                last, held, _ = self._fetch(names[-1])
                backup_id = last.backup_id + 1
            reused = len(set(held).intersection(runs))
            info = BackupInfo(backup_id, store.name, self.hdfs.clock.now(),
                              sum(map(len, runs)), len(runs) - reused, reused)
            self._retrier.call(
                self.hdfs.put, self._blob_name(store.name, backup_id),
                (info, runs, state["flushed_seq"]))
        except StoreUnavailable:
            self._skipped.increment()
            return None  # paper: continue without a remote copy
        self._uploaded.increment(info.runs_uploaded)
        self._reused.increment(info.runs_reused)
        return info

    # -- restore ------------------------------------------------------------------

    def backups(self, store_name: str) -> list[BackupInfo]:
        return [self._fetch(name)[0] for name in self._blob_names(store_name)]

    def latest_backup(self, store_name: str) -> BackupInfo | None:
        names = self._blob_names(store_name)
        return self._fetch(names[-1])[0] if names else None

    def restore(self, store_name: str, disk: dict[str, Any],
                backup_id: int | None = None,
                merge_operator: Any = None) -> LsmStore:
        """Materialize a store from a snapshot into a (new) disk namespace.

        Raises :class:`~repro.errors.BackupNotFound` when the snapshot
        does not exist (whether ``backup_id`` was explicit or inferred),
        and :class:`~repro.errors.StoreUnavailable` when HDFS stays down
        past the retry budget — the blob is fetched *before* the new
        store is created, so a failed restore never leaves a
        half-initialized store behind.
        """
        if backup_id is not None:
            blob_name = self._blob_name(store_name, backup_id)
        else:
            names = self._blob_names(store_name)
            if not names:
                raise BackupNotFound(f"no backups for store {store_name!r}")
            blob_name = names[-1]
        try:
            _, runs, flushed_seq = self._fetch(blob_name)
        except KeyError:
            raise BackupNotFound(f"no backup blob {blob_name!r}") from None
        store = LsmStore(disk=disk, name=store_name,
                         merge_operator=merge_operator)
        store._disk_state().update(
            sstables=list(runs), flushed_seq=flushed_seq,
            wal=WriteAheadLog(start_sequence=flushed_seq))
        return store
