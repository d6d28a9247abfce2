"""HBase stand-in: the ordered table store Puma checkpoints into.

Puma "aggregation apps store state in a shared HBase cluster" and
guarantee "at-least-once state and output semantics with checkpoints to
HBase" (Sections 2.2 and 4.3.2). What that requires of the store:

- row puts/gets addressed by (row key, column),
- atomic per-row batch puts (a Puma checkpoint writes the aggregation
  row and the stream offset together),
- ordered scans over a row-key range (serving windowed query results),
- no multi-row transactions — which is exactly why Puma cannot offer
  exactly-once semantics (Section 4.3.2).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator

from repro.errors import StorageError


class HBaseTable:
    """A sorted table of rows, each a column -> value mapping."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._rows: dict[str, dict[str, Any]] = {}
        # Row keys in order as of the last scan, plus keys created since;
        # replaced, never edited in place, so running scans stay valid.
        self._sorted_keys: list[str] = []
        self._added_keys: list[str] = []

    # -- writes --------------------------------------------------------------

    def put(self, row_key: str, columns: dict[str, Any]) -> None:
        """Merge ``columns`` into the row (atomic within the row)."""
        if not columns:
            raise StorageError("put requires at least one column")
        row = self._rows.get(row_key)
        if row is None:
            self._rows[row_key] = dict(columns)
            self._added_keys.append(row_key)
        else:
            row.update(columns)

    def increment(self, row_key: str, column: str, amount: float = 1) -> float:
        """Atomic counter increment; returns the new value."""
        if row_key not in self._rows:
            self._added_keys.append(row_key)
        row = self._rows.setdefault(row_key, {})
        row[column] = row.get(column, 0) + amount
        return row[column]

    def check_and_put(self, row_key: str, column: str, expected: Any,
                      columns: dict[str, Any]) -> bool:
        """Atomic compare-and-set on one column; True if applied."""
        row = self._rows.get(row_key, {})
        if row.get(column) != expected:
            return False
        self.put(row_key, columns)
        return True

    def delete_row(self, row_key: str) -> None:
        if self._rows.pop(row_key, None) is not None:
            self._sorted_keys = [key for key in self._sorted()
                                 if key != row_key]

    # -- reads ---------------------------------------------------------------

    def get(self, row_key: str) -> dict[str, Any] | None:
        row = self._rows.get(row_key)
        return dict(row) if row is not None else None

    def get_column(self, row_key: str, column: str, default: Any = None) -> Any:
        row = self._rows.get(row_key)
        if row is None:
            return default
        return row.get(column, default)

    def scan(self, start_row: str | None = None,
             end_row: str | None = None,
             limit: int | None = None) -> Iterator[tuple[str, dict[str, Any]]]:
        """Yield (row_key, columns) over ``[start_row, end_row)`` in order."""
        keys = self._sorted()
        lo = 0 if start_row is None else bisect_left(keys, start_row)
        hi = len(keys) if end_row is None else bisect_left(keys, end_row)
        count = 0
        for index in range(lo, hi):
            if limit is not None and count >= limit:
                return
            key = keys[index]
            yield key, dict(self._rows[key])
            count += 1

    def row_count(self) -> int:
        return len(self._rows)

    def _sorted(self) -> list[str]:
        if self._added_keys:  # timsort merges them into the sorted run
            self._sorted_keys = sorted(self._sorted_keys + self._added_keys)
            self._added_keys = []
        return self._sorted_keys
