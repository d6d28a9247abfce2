"""Immutable sorted runs (SSTables) for the LSM store.

Each run carries the two structures a real SSTable file has for point
reads:

- a **bloom filter** over its keys, so a lookup of a key the run does
  not hold is (almost always) rejected without touching the data; and
- a **sparse index** — the first key of every block of
  ``INDEX_INTERVAL`` entries — which narrows a lookup to one block
  before the final binary search, the index-block → data-block shape of
  an on-disk table.

:meth:`get` is only called after the filter and key-range checks pass
(see :meth:`may_contain_hashed`), which is what the LSM's scan counters
measure.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator

from repro.storage.bloom import BloomFilter, hash_pair
from repro.storage.memtable import Entry

#: Entries per data block; the sparse index keeps one key per block.
INDEX_INTERVAL = 16


class SSTable:
    """An immutable, key-sorted sequence of entries.

    Built either by flushing a memtable or by compacting older runs.
    Lookups are filter-gated binary searches; range scans are slices.
    There is no mutator, and none may be added: the live store, its HDFS
    snapshots and every store restored from them share run objects
    (:mod:`repro.storage.backup`), and readers must not mutate the
    entries or values a run hands out.
    """

    def __init__(self, entries: list[tuple[str, Entry]], level: int = 0) -> None:
        keys = [key for key, _ in entries]
        if keys != sorted(keys):
            raise ValueError("SSTable entries must be in sorted key order")
        if len(set(keys)) != len(keys):
            raise ValueError("SSTable entries must have unique keys")
        self._keys = keys
        self._entries = [entry for _, entry in entries]
        self.level = level
        self.bloom = BloomFilter(keys)
        # Sparse index: first key of each INDEX_INTERVAL-sized block.
        self._index_keys = keys[::INDEX_INTERVAL]

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def min_key(self) -> str | None:
        return self._keys[0] if self._keys else None

    @property
    def max_key(self) -> str | None:
        return self._keys[-1] if self._keys else None

    # -- point reads ----------------------------------------------------------

    def may_contain(self, key: str) -> bool:
        """Cheap pre-check: False means ``get`` would surely return None."""
        return self.may_contain_hashed(key, *hash_pair(key))

    def may_contain_hashed(self, key: str, h1: int, h2: int) -> bool:
        """Pre-check with a shared :func:`~repro.storage.bloom.hash_pair`."""
        if not self._keys or key < self._keys[0] or key > self._keys[-1]:
            return False
        return self.bloom.may_contain_hashed(h1, h2)

    def get(self, key: str) -> Entry | None:
        # Sparse index narrows to one block, then a bounded bisect.
        block = bisect_right(self._index_keys, key) - 1
        if block < 0:
            return None
        lo = block * INDEX_INTERVAL
        hi = min(lo + INDEX_INTERVAL, len(self._keys))
        index = bisect_left(self._keys, key, lo, hi)
        if index < len(self._keys) and self._keys[index] == key:
            return self._entries[index]
        return None

    def get_sorted(self, keys: list[str]) -> list[Entry | None]:
        """Entries for an *ascending* key list in one forward walk.

        Each bisect is bounded below by the previous hit position, so a
        whole sorted probe set costs one monotone pass over the run
        instead of ``len(keys)`` independent full-range searches — the
        building block of :meth:`LsmStore.multi_get`.
        """
        run_keys = self._keys
        entries = self._entries
        n = len(run_keys)
        out: list[Entry | None] = []
        append = out.append
        lo = 0
        for key in keys:
            lo = bisect_left(run_keys, key, lo, n)
            if lo < n and run_keys[lo] == key:
                append(entries[lo])
            else:
                append(None)
        return out

    # -- scans ----------------------------------------------------------------

    def scan(self, start: str | None = None,
             end: str | None = None) -> Iterator[tuple[str, Entry]]:
        """Yield (key, entry) for keys in ``[start, end)``."""
        lo = 0 if start is None else bisect_left(self._keys, start)
        hi = len(self._keys) if end is None else bisect_left(self._keys, end)
        for index in range(lo, hi):
            yield self._keys[index], self._entries[index]

    def items(self) -> Iterator[tuple[str, Entry]]:
        yield from zip(self._keys, self._entries)
