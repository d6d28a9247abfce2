"""LsmStore: the embedded key-value engine standing in for RocksDB.

Architecture (a faithful miniature of RocksDB's write path):

- mutations append to a :class:`~repro.storage.wal.WriteAheadLog`, then
  apply to the :class:`~repro.storage.memtable.Memtable`;
- when the memtable exceeds ``memtable_flush_bytes`` it flushes to an
  immutable :class:`~repro.storage.sstable.SSTable` at level 0 — flush
  and compaction only ever *replace* runs in the store's own list, which
  is what lets backups and restored stores share them by reference;
- when the run count exceeds ``compaction_trigger``, one *bounded*
  :meth:`compact_step` merges a contiguous same-level group of at most
  ``max_compact_runs`` runs into a run one level up, folding
  merge-operand chains (monoid operand collapsing) and — when the group
  includes the oldest run — dropping dead tombstones. Repeated steps
  tier the store (size-tiered leveling) without the stop-the-world full
  merge the seed paid; :meth:`compact` remains as the "merge everything"
  path, itself built from bounded steps;
- reads consult memtable then runs newest-to-oldest, resolving merge
  chains with the configured :class:`~repro.storage.merge.MergeOperator`.

Read path: every run carries a bloom filter and key range, so a point
read probes only the runs that might hold the key — a read of an absent
key usually touches none (see :class:`LsmStats`, which counts probes and
skips). A bounded LRU row cache short-circuits repeated point reads of
hot keys; it is invalidated per key on writes and bypassed by scans so
range queries cannot evict the hot set.

Durability model: the WAL and SSTables live in a *disk namespace* — by
default a private dict, but a Stylus processor passes its machine's
``disk`` dict so that a **process crash** (in-memory memtable lost)
recovers from local disk via :meth:`recover`, while a **machine failure**
(disk wiped) must restore from an HDFS backup — the exact recovery ladder
of the paper's Figure 10.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import StoreClosed
from repro.storage.bloom import hash_pair
from repro.storage.memtable import Entry, EntryKind, Memtable
from repro.storage.merge import MergeOperator
from repro.storage.sstable import SSTable
from repro.storage.wal import WalOp, WriteAheadLog

_DISK_KEY = "lsm"

#: Row-cache sentinel distinguishing "cached absence" from "not cached".
_ABSENT = object()


@dataclass
class LsmStats:
    """Read-path counters (per store instance, reset with the process).

    ``sstable_probes`` counts binary searches actually performed inside
    runs; ``bloom_skips``/``range_skips`` count runs rejected without a
    search. The seed implementation probed every run on every read, so
    ``gets * num_sstables`` is the naive-scan baseline the perf harness
    compares against.
    """

    gets: int = 0
    sstable_probes: int = 0
    bloom_skips: int = 0
    range_skips: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    flushes: int = 0
    compactions: int = 0
    multi_gets: int = 0
    multi_get_keys: int = 0
    multi_get_run_walks: int = 0
    compact_steps: int = 0
    compacted_entries: int = 0
    max_step_entries: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "gets": self.gets,
            "sstable_probes": self.sstable_probes,
            "bloom_skips": self.bloom_skips,
            "range_skips": self.range_skips,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "flushes": self.flushes,
            "compactions": self.compactions,
            "multi_gets": self.multi_gets,
            "multi_get_keys": self.multi_get_keys,
            "multi_get_run_walks": self.multi_get_run_walks,
            "compact_steps": self.compact_steps,
            "compacted_entries": self.compacted_entries,
            "max_step_entries": self.max_step_entries,
        }


class _RowCache:
    """Bounded LRU of resolved point-read results (absence included)."""

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[str, Any] = OrderedDict()

    def lookup(self, key: str) -> Any:
        """The cached value, ``_ABSENT`` for a cached miss, or None."""
        entries = self._entries
        value = entries.get(key)
        if value is None and key not in entries:
            return None
        entries.move_to_end(key)
        return value

    def store(self, key: str, value: Any) -> None:
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        if len(entries) > self.capacity:
            entries.popitem(last=False)

    def invalidate(self, key: str) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class LsmStore:
    """Embedded LSM-tree key-value store with merge-operator support."""

    def __init__(self, disk: dict[str, Any] | None = None,
                 name: str = "lsm",
                 merge_operator: MergeOperator | None = None,
                 memtable_flush_bytes: int = 64 * 1024,
                 compaction_trigger: int = 4,
                 max_compact_runs: int = 4,
                 row_cache_size: int = 1024) -> None:
        if max_compact_runs < 2:
            raise ValueError("max_compact_runs must be >= 2")
        self.name = name
        self.merge_operator = merge_operator
        self.memtable_flush_bytes = memtable_flush_bytes
        self.compaction_trigger = compaction_trigger
        #: Upper bound on runs merged by one compaction step — the knob
        #: that bounds a single call's pause. ``compaction_trigger``
        #: doubles as the per-level fanout (size-tiered leveling).
        self.max_compact_runs = max_compact_runs
        self._disk = disk if disk is not None else {}
        self._memtable = Memtable()
        self._closed = False
        self.stats = LsmStats()
        self._row_cache = _RowCache(row_cache_size) if row_cache_size > 0 else None
        self._disk_state()  # initialize the namespace eagerly

    # -- disk namespace -------------------------------------------------------

    def _disk_state(self) -> dict[str, Any]:
        """The persistent structures, keyed under this store's name."""
        key = f"{_DISK_KEY}:{self.name}"
        if key not in self._disk:
            self._disk[key] = {
                "wal": WriteAheadLog(),
                "sstables": [],       # list[SSTable], oldest first
                "flushed_seq": 0,      # WAL records below this are flushed
            }
        return self._disk[key]

    @property
    def _wal(self) -> WriteAheadLog:
        return self._disk_state()["wal"]

    @property
    def _sstables(self) -> list[SSTable]:
        return self._disk_state()["sstables"]

    # -- mutations -------------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (``None`` values are reserved)."""
        self._check_open()
        if value is None:
            raise ValueError("None values are reserved; use delete()")
        self._wal.append(WalOp.PUT, key, value)
        self._memtable.put(key, value)
        if self._row_cache is not None:
            self._row_cache.invalidate(key)
        self._maybe_flush()

    def delete(self, key: str) -> None:
        self._check_open()
        self._wal.append(WalOp.DELETE, key)
        self._memtable.delete(key)
        if self._row_cache is not None:
            self._row_cache.invalidate(key)
        self._maybe_flush()

    def merge(self, key: str, operand: Any) -> None:
        """Append a merge operand (requires a merge operator)."""
        self._check_open()
        if self.merge_operator is None:
            raise ValueError(f"store {self.name!r} has no merge operator")
        self._wal.append(WalOp.MERGE, key, operand)
        self._memtable.merge(key, operand)
        if self._row_cache is not None:
            self._row_cache.invalidate(key)
        self._maybe_flush()

    def write_batch(self, puts: dict[str, Any] | None = None,
                    deletes: list[str] | None = None,
                    merges: list[tuple[str, Any]] | None = None) -> None:
        """Apply a group of mutations.

        Atomic at our failure granularity: simulated crashes happen between
        public calls, never inside one, so a batch is all-or-nothing.
        """
        self._check_open()
        cache = self._row_cache
        for key, value in (puts or {}).items():
            if value is None:
                raise ValueError("None values are reserved; use deletes")
            self._wal.append(WalOp.PUT, key, value)
            self._memtable.put(key, value)
            if cache is not None:
                cache.invalidate(key)
        for key in deletes or []:
            self._wal.append(WalOp.DELETE, key)
            self._memtable.delete(key)
            if cache is not None:
                cache.invalidate(key)
        for key, operand in merges or []:
            if self.merge_operator is None:
                raise ValueError(f"store {self.name!r} has no merge operator")
            self._wal.append(WalOp.MERGE, key, operand)
            self._memtable.merge(key, operand)
            if cache is not None:
                cache.invalidate(key)
        self._maybe_flush()

    # -- reads ----------------------------------------------------------------

    def get(self, key: str) -> Any:
        """Return the value for ``key``, or None if absent/deleted."""
        self._check_open()
        stats = self.stats
        stats.gets += 1
        cache = self._row_cache
        if cache is not None:
            cached = cache.lookup(key)
            if cached is not None:
                stats.cache_hits += 1
                return None if cached is _ABSENT else cached
            stats.cache_misses += 1
        value = self._lookup(key)
        if cache is not None:
            cache.store(key, _ABSENT if value is None else value)
        return value

    def _lookup(self, key: str) -> Any:
        """Resolve ``key`` against the memtable and filter-passing runs."""
        stats = self.stats
        pending: list[Any] = []  # newer-first merge operands awaiting a base

        entry = self._memtable.get(key)
        if entry is not None:
            resolved, done = self._absorb(entry, pending)
            if done:
                return resolved

        sstables = self._sstables
        if sstables:
            h1, h2 = hash_pair(key)
            for sstable in reversed(sstables):  # newest first
                min_key = sstable.min_key
                if min_key is None or key < min_key or key > sstable.max_key:
                    stats.range_skips += 1
                    continue
                if not sstable.bloom.may_contain_hashed(h1, h2):
                    stats.bloom_skips += 1
                    continue
                stats.sstable_probes += 1
                entry = sstable.get(key)
                if entry is None:
                    continue
                resolved, done = self._absorb(entry, pending)
                if done:
                    return resolved

        if pending:
            # Chain bottomed out: fold onto the operator's identity.
            return self.merge_operator.full_merge(None, reversed(pending))
        return None

    def multi_get(self, keys: list[str]) -> dict[str, Any]:
        """Resolve many keys, walking each SSTable run at most once.

        Cache-hitting keys are served first; the misses are sorted and
        probed as one monotone pass per run (:meth:`SSTable.get_sorted`),
        with the range/bloom pre-checks shared across the batch — instead
        of ``len(keys)`` independent :meth:`get` calls each restarting
        the run search from scratch.
        """
        self._check_open()
        stats = self.stats
        stats.multi_gets += 1
        stats.multi_get_keys += len(keys)
        stats.gets += len(keys)
        cache = self._row_cache
        results: dict[str, Any] = {}
        misses: set[str] = set()
        for key in keys:
            if key in results or key in misses:
                continue
            if cache is not None:
                cached = cache.lookup(key)
                if cached is not None:
                    stats.cache_hits += 1
                    results[key] = None if cached is _ABSENT else cached
                    continue
                stats.cache_misses += 1
            misses.add(key)

        if misses:
            resolved = self._lookup_sorted(sorted(misses))
            results.update(resolved)
            if cache is not None:
                for key, value in resolved.items():
                    cache.store(key, _ABSENT if value is None else value)
        return {key: results[key] for key in keys}

    def _lookup_sorted(self, sorted_keys: list[str]) -> dict[str, Any]:
        """Resolve an ascending, de-duplicated key list against all runs."""
        stats = self.stats
        results: dict[str, Any] = {}
        # key -> newest-first merge operands still awaiting a base value.
        pending: dict[str, list[Any]] = {}
        open_keys: list[str] = []  # still unresolved, kept sorted

        memtable_get = self._memtable.get
        for key in sorted_keys:
            entry = memtable_get(key)
            if entry is not None:
                chain: list[Any] = []
                value, done = self._absorb(entry, chain)
                if done:
                    results[key] = value
                    continue
                pending[key] = chain
            open_keys.append(key)

        hashes = {key: hash_pair(key) for key in open_keys}
        for sstable in reversed(self._sstables):  # newest first
            if not open_keys:
                break
            min_key = sstable.min_key
            if min_key is None:
                continue
            max_key = sstable.max_key
            lo = bisect_left(open_keys, min_key)
            hi = bisect_right(open_keys, max_key, lo)
            stats.range_skips += len(open_keys) - (hi - lo)
            if lo == hi:
                continue
            bloom = sstable.bloom
            candidates = []
            for key in open_keys[lo:hi]:
                h1, h2 = hashes[key]
                if bloom.may_contain_hashed(h1, h2):
                    candidates.append(key)
                else:
                    stats.bloom_skips += 1
            if not candidates:
                continue
            stats.multi_get_run_walks += 1
            stats.sstable_probes += len(candidates)
            closed: set[str] = set()
            for key, entry in zip(candidates, sstable.get_sorted(candidates)):
                if entry is None:
                    continue
                chain = pending.setdefault(key, [])
                value, done = self._absorb(entry, chain)
                if done:
                    results[key] = value
                    pending.pop(key, None)
                    closed.add(key)
            if closed:
                open_keys = [key for key in open_keys if key not in closed]

        operator = self.merge_operator
        for key in open_keys:
            chain = pending.get(key)
            if chain:
                results[key] = operator.full_merge(None, reversed(chain))
            else:
                results[key] = None
        return results

    def scan(self, start: str | None = None,
             end: str | None = None) -> Iterator[tuple[str, Any]]:
        """Yield (key, value) in key order over ``[start, end)``.

        Scans resolve keys via :meth:`_lookup` directly, bypassing the
        row cache so a large range read cannot evict the hot point-read
        set (the classic scan-pollution problem).
        """
        self._check_open()
        keys: set[str] = set()
        for key in self._memtable.keys():
            if _in_range(key, start, end):
                keys.add(key)
        for sstable in self._sstables:
            for key, _ in sstable.scan(start, end):
                keys.add(key)
        for key in sorted(keys):
            value = self._lookup(key)
            if value is not None:
                yield key, value

    def _absorb(self, entry: Entry, pending: list[Any]) -> tuple[Any, bool]:
        """Fold ``entry`` under the pending newer operands.

        Returns (value, done): done is False when the entry was merely a
        merge chain and the search must continue into older runs.
        """
        if entry.kind == EntryKind.MERGE:
            pending.extend(reversed(entry.operands))  # keep newest first
            return None, False
        if entry.kind == EntryKind.TOMBSTONE:
            if pending:
                return (self.merge_operator.full_merge(None, reversed(pending)),
                        True)
            return None, True
        # PUT: fold the entry's own trailing operands, then the newer ones.
        value = entry.value
        if entry.operands or pending:
            operands = list(entry.operands) + list(reversed(pending))
            value = self.merge_operator.full_merge(value, operands)
        return value, True

    # -- flush & compaction -----------------------------------------------------

    def _maybe_flush(self) -> None:
        if self._memtable.approximate_bytes >= self.memtable_flush_bytes:
            self.flush()

    def flush(self) -> None:
        """Flush the memtable to a new SSTable and truncate the WAL."""
        self._check_open()
        if len(self._memtable) == 0:
            return
        state = self._disk_state()
        entries = list(self._memtable.items())
        state["sstables"].append(SSTable(entries))
        state["flushed_seq"] = state["wal"].next_sequence
        state["wal"].truncate_before(state["flushed_seq"])
        self._memtable = Memtable()
        self.stats.flushes += 1
        if len(state["sstables"]) > self.compaction_trigger:
            self.compact_step()

    def compact_step(self, max_runs: int | None = None) -> int:
        """Merge one bounded group of runs; return how many were merged.

        Size-tiered selection: the runs list is age-ordered (oldest
        first) and levels are non-increasing along it. The step picks the
        newest contiguous same-level group that has reached the fanout
        (``compaction_trigger``) and merges its oldest ``max_runs`` runs
        into a single run one level up — so each call touches a bounded
        number of runs, never the whole store. Under run-count pressure
        with no full group, the cheapest relieving merge is taken
        instead (the newest mergeable group, or a fold of the newest
        singleton runs); tombstones are dropped only when the merged
        window includes the oldest run (nothing older can resurface the
        key).

        Returns 0 when there is nothing eligible, so recurring schedules
        (:meth:`schedule_compaction`) idle cheaply.
        """
        self._check_open()
        limit = self.max_compact_runs if max_runs is None else max_runs
        if limit < 2:
            raise ValueError("a compaction step needs at least 2 runs")
        state = self._disk_state()
        runs: list[SSTable] = state["sstables"]
        if len(runs) <= 1:
            return 0
        window = self._select_step(runs, limit)
        if window is None:
            return 0
        start, stop, promote = window
        self._merge_runs(state, start, stop, promote=promote)
        return stop - start

    def _select_step(self, runs: list[SSTable], limit: int
                     ) -> tuple[int, int, bool] | None:
        """The ``(start, stop, promote)`` window the next step should merge."""
        fanout = max(2, self.compaction_trigger)
        # Maximal contiguous same-level groups, newest (rightmost) first.
        groups: list[tuple[int, int]] = []
        stop = len(runs)
        while stop > 0:
            start = stop - 1
            level = runs[start].level
            while start > 0 and runs[start - 1].level == level:
                start -= 1
            groups.append((start, stop))
            stop = start
        for start, stop in groups:
            if stop - start >= fanout:
                return start, min(stop, start + limit), True
        if len(runs) > self.compaction_trigger:
            # Pressure fallback: no group filled its tier yet, but runs
            # keep piling up. Two candidate windows relieve pressure:
            # the newest same-level group of at least two runs (a real
            # tier merge, graduating one level up), or the suffix of
            # newest singleton groups — levels strictly decrease there,
            # so folding them (at the level of their largest input, no
            # graduation) keeps the non-increasing invariant and never
            # drags a half-empty deep tier into the step. Pick whichever
            # touches fewer entries: pauses stay proportional to the
            # *new* data, and the big bottom runs only merge when their
            # own tier genuinely fills (or via an explicit compact()).
            candidates: list[tuple[int, int, bool]] = []
            for start, stop in groups:
                if stop - start >= 2:
                    candidates.append((start, min(stop, start + limit), True))
                    break
            singletons = 0
            for start, stop in groups:
                if stop - start != 1:
                    break
                singletons += 1
            if singletons >= 2:
                candidates.append(
                    (len(runs) - min(singletons, limit), len(runs), False))
            if candidates:
                return min(candidates, key=lambda window: sum(
                    len(runs[i]) for i in range(window[0], window[1])))
        return None

    def _merge_runs(self, state: dict[str, Any], start: int, stop: int,
                    promote: bool = True) -> None:
        """Merge ``runs[start:stop]`` into one run, one level up when
        ``promote`` (a tier graduating) or at the largest input's level
        when not (a pressure fold of newest runs)."""
        runs: list[SSTable] = state["sstables"]
        window = runs[start:stop]
        operator = self.merge_operator
        merged: dict[str, Entry] = {}
        entries_in = 0
        for run in window:  # oldest first, so newer entries overwrite/fold
            entries_in += len(run)
            for key, entry in run.items():
                merged[key] = _fold(merged.get(key), entry, operator)
        bottom = start == 0
        survivors: list[tuple[str, Entry]] = []
        for key in sorted(merged):
            entry = merged[key]
            if bottom and entry.kind == EntryKind.TOMBSTONE:
                continue  # bottom level: drop dead keys
            if operator is not None:
                entry = _collapse(entry, operator)
            survivors.append((key, entry))
        level = max(run.level for run in window) + (1 if promote else 0)
        runs[start:stop] = [SSTable(survivors, level=level)] if survivors else []
        stats = self.stats
        stats.compact_steps += 1
        stats.compacted_entries += entries_in
        if entries_in > stats.max_step_entries:
            stats.max_step_entries = entries_in

    def compact(self) -> None:
        """Merge every run into one (the legacy full compaction).

        Built from bounded steps: each iteration merges the oldest
        ``max_compact_runs`` runs, so even the full merge never holds
        more than that many runs' entries as an in-flight dict.
        """
        self._check_open()
        state = self._disk_state()
        if len(state["sstables"]) <= 1:
            return
        while len(state["sstables"]) > 1:
            stop = min(len(state["sstables"]), self.max_compact_runs)
            self._merge_runs(state, 0, stop)
        self.stats.compactions += 1

    def schedule_compaction(self, scheduler, interval: float):
        """Run one :meth:`compact_step` every ``interval`` virtual seconds.

        ``scheduler`` is any object with a ``Scheduler.every``-shaped
        method. Each firing does one bounded step (a no-op when no tier
        is full), so maintenance cost is spread over virtual time instead
        of landing as one unbounded pause. Returns the timer handle;
        cancel it to stop, e.g. before closing the store.
        """

        def tick() -> None:
            if not self._closed:
                self.compact_step()

        return scheduler.every(interval, tick)

    # -- lifecycle & recovery ----------------------------------------------------

    def drop_memory(self) -> None:
        """Simulate a process crash: lose the memtable, keep the disk."""
        self._memtable = Memtable()
        # Unflushed writes are gone, so cached resolutions may be stale.
        if self._row_cache is not None:
            self._row_cache.clear()

    def recover(self) -> int:
        """Rebuild the memtable from unflushed WAL records; return count."""
        self._memtable = Memtable()
        if self._row_cache is not None:
            self._row_cache.clear()
        state = self._disk_state()
        count = 0
        for record in state["wal"].records_since(state["flushed_seq"]):
            if record.op == WalOp.PUT:
                self._memtable.put(record.key, record.value)
            elif record.op == WalOp.DELETE:
                self._memtable.delete(record.key)
            else:
                self._memtable.merge(record.key, record.value)
            count += 1
        return count

    def close(self) -> None:
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosed(f"store {self.name!r} is closed")

    # -- introspection ------------------------------------------------------------

    @property
    def num_sstables(self) -> int:
        return len(self._sstables)

    @property
    def levels(self) -> list[int]:
        """Per-run levels, oldest first (non-increasing by invariant)."""
        return [run.level for run in self._sstables]

    @property
    def memtable_size(self) -> int:
        return len(self._memtable)

    @property
    def row_cache_len(self) -> int:
        return len(self._row_cache) if self._row_cache is not None else 0

    def approximate_key_count(self) -> int:
        """Upper bound on live keys (duplicates across runs counted once)."""
        keys: set[str] = set(self._memtable.keys())
        for sstable in self._sstables:
            for key, _ in sstable.items():
                keys.add(key)
        return len(keys)


def _collapse(entry: Entry, operator: MergeOperator) -> Entry:
    """Collapse an entry's operand chain during a level merge.

    Monoid operand collapsing: a surviving MERGE chain of N operands
    becomes a single pre-folded operand, and a PUT with trailing
    operands folds them into its value — so reads through compacted
    levels pay one merge instead of replaying the whole chain. Safe
    because every operator is associative with a true identity.
    """
    if entry.kind == EntryKind.MERGE:
        if len(entry.operands) > 1:
            return Entry(EntryKind.MERGE,
                         operands=[operator.partial_merge(entry.operands)])
        return entry
    if entry.kind == EntryKind.PUT and entry.operands:
        return Entry(EntryKind.PUT,
                     value=operator.full_merge(entry.value, entry.operands))
    return entry


def _fold(older: Entry | None, newer: Entry,
          operator: MergeOperator | None) -> Entry:
    """Combine an older entry with a newer one during compaction."""
    if newer.kind != EntryKind.MERGE:
        return newer  # put/tombstone shadows everything older
    if older is None:
        return Entry(EntryKind.MERGE, operands=list(newer.operands))
    if older.kind == EntryKind.MERGE:
        return Entry(EntryKind.MERGE,
                     operands=list(older.operands) + list(newer.operands))
    if older.kind == EntryKind.TOMBSTONE:
        value = operator.full_merge(None, newer.operands)
        return Entry(EntryKind.PUT, value=value)
    # older is PUT: fold its trailing operands plus the newer chain now.
    value = operator.full_merge(older.value,
                                list(older.operands) + list(newer.operands))
    return Entry(EntryKind.PUT, value=value)


def _in_range(key: str, start: str | None, end: str | None) -> bool:
    if start is not None and key < start:
        return False
    if end is not None and key >= end:
        return False
    return True
