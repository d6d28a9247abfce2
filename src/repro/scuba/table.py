"""Scuba's row store: time-ordered raw events, kept for a bounded window.

The store is columnar: older rows live in sealed, immutable, time-sorted
:class:`~repro.scuba.columns.Segment` objects (per-column arrays —
``array('d')`` floats, dictionary-encoded small-cardinality values),
while recent rows stay in a mutable row-dict *tail* that absorbs
out-of-order arrivals cheaply. The row-facing API (``add``,
``add_rows``, ``rows_between``, ``trim``) is unchanged; sealed rows are
materialized back into dicts lazily on demand.

Invariants:

- global time order: every tail row's time >= the last sealed segment's
  max time (``sealed_high``); segments are mutually time-sorted;
- a row arriving *below* ``sealed_high`` (deep out-of-order) is folded
  into the segment it belongs to by rebuilding that one segment under a
  fresh ``seg_id`` — which is also what invalidates cached partials
  computed from the old segment;
- ``trim`` drops whole expired segments and slices the boundary segment
  into a new ``seg_id``.

A ``segment_rows`` larger than the stream never seals on its own: the
whole table stays a row-dict tail, the paper-faithful layout the
Section 5.2 experiment charges one CPU unit per raw row against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice
from operator import le
from typing import Any, Iterator

from repro.errors import ScubaError
from repro.scuba.cache import ScubaQueryCache
from repro.scuba.columns import Segment

Row = dict[str, Any]


class ScubaTable:
    """Raw rows indexed by ingest-assigned timestamp.

    Scuba keeps recent raw data only (it is a trouble-shooting store);
    ``retention_seconds`` bounds the window and :meth:`trim` enforces it.
    Rows are kept sorted by their time column so time-range scans are
    binary-search slices.
    """

    def __init__(self, name: str, time_column: str = "event_time",
                 retention_seconds: float = 7 * 24 * 3600.0,
                 segment_rows: int = 2048) -> None:
        if retention_seconds <= 0:
            raise ScubaError("retention must be positive")
        if segment_rows < 1:
            raise ScubaError("segment_rows must be positive")
        self.name = name
        self.time_column = time_column
        self.retention_seconds = retention_seconds
        self.segment_rows = segment_rows
        self._segments: list[Segment] = []
        self._seg_maxes: list[float] = []  # per-segment max time, sorted
        self._live_seg_ids: set[int] = set()
        self._sealed_rows = 0
        self._next_seg_id = 0
        self._times: list[float] = []  # the tail
        self._rows: list[Row] = []
        self.query_cache = ScubaQueryCache()

    # -- writes ----------------------------------------------------------------

    def add(self, row: Row) -> None:
        time_value = row.get(self.time_column)
        if time_value is None:
            raise ScubaError(
                f"row lacks time column {self.time_column!r}"
            )
        time_value = float(time_value)
        if self._segments and time_value < self._seg_maxes[-1]:
            self._insert_sealed(time_value, row)
            return
        if self._times and time_value >= self._times[-1]:
            self._times.append(time_value)
            self._rows.append(row)
        else:
            index = bisect_right(self._times, time_value)
            self._times.insert(index, time_value)
            self._rows.insert(index, row)
        self._maybe_seal()

    def add_rows(self, rows: list[Row]) -> None:
        """Insert a batch of rows; equivalent to :meth:`add` in order.

        Live ingestion almost always delivers batches whose times are
        nondecreasing and at/after the current tail; that case is two
        list extends instead of per-row tail checks. Anything else falls
        back to the sequential inserts so ordering (including ties,
        which land after existing equal times) is identical.
        """
        if not rows:
            return
        column = self.time_column
        try:
            new_times = [float(row[column]) for row in rows]
        except (KeyError, TypeError):
            # Missing column or a None value; anything else (a string
            # that won't float, say) propagates exactly as add() would.
            for row in rows:
                if row.get(column) is None:
                    raise ScubaError(
                        f"row lacks time column {column!r}"
                    ) from None
            raise
        times = self._times
        tail_floor = (self._seg_maxes[-1] if self._segments
                      else float("-inf"))
        if ((not times or new_times[0] >= times[-1])
                and new_times[0] >= tail_floor
                and all(map(le, new_times, islice(new_times, 1, None)))):
            times.extend(new_times)
            self._rows.extend(rows)
            self._maybe_seal()
            return
        for time_value, row in zip(new_times, rows):
            if time_value < tail_floor:
                self._insert_sealed(time_value, row)
                tail_floor = self._seg_maxes[-1]
                continue
            if times and time_value >= times[-1]:
                times.append(time_value)
                self._rows.append(row)
            else:
                index = bisect_right(times, time_value)
                times.insert(index, time_value)
                self._rows.insert(index, row)
        self._maybe_seal()

    # -- sealing ---------------------------------------------------------------

    def _maybe_seal(self) -> None:
        # Keep a full segment's worth of recent rows mutable so ordinary
        # out-of-order arrivals stay cheap bisect inserts.
        while len(self._times) >= 2 * self.segment_rows:
            self._seal_prefix(self.segment_rows)

    def seal_tail(self) -> int:
        """Seal every tail row into a segment; returns rows sealed.

        Useful for benchmarks and maintenance ticks that want the whole
        table vectorizable/cacheable immediately instead of waiting for
        the tail to fill.
        """
        if not self._times:
            return 0
        count = len(self._times)
        self._seal_prefix(count)
        return count

    def _seal_prefix(self, count: int) -> None:
        segment = Segment.seal(self._next_seg_id, self._times[:count],
                               self._rows[:count])
        self._next_seg_id += 1
        del self._times[:count]
        del self._rows[:count]
        self._segments.append(segment)
        self._seg_maxes.append(segment.times[-1])
        self._live_seg_ids.add(segment.seg_id)
        self._sealed_rows += segment.length

    def _insert_sealed(self, time_value: float, row: Row) -> None:
        """Fold a deep out-of-order row into its sealed segment."""
        index = bisect_right(self._seg_maxes, time_value)
        old = self._segments[index]
        times = list(old.times)
        rows = old.rows(0, old.length)
        at = bisect_right(times, time_value)
        times.insert(at, time_value)
        rows.insert(at, row)
        rebuilt = Segment.seal(self._next_seg_id, times, rows)
        self._next_seg_id += 1
        self._segments[index] = rebuilt
        self._seg_maxes[index] = rebuilt.times[-1]
        self._live_seg_ids.discard(old.seg_id)
        self._live_seg_ids.add(rebuilt.seg_id)
        self._sealed_rows += 1
        self.query_cache.drop_segment(old.seg_id)

    # -- reads -----------------------------------------------------------------

    def rows_between(self, start: float, end: float) -> list[Row]:
        """Rows with time in ``[start, end)``."""
        out: list[Row] = []
        for segment, lo, hi, _ in self.segments_overlapping(start, end):
            out.extend(segment.rows(lo, hi))
        lo = bisect_left(self._times, start)
        hi = bisect_left(self._times, end)
        out.extend(self._rows[lo:hi])
        return out

    def segments_overlapping(
            self, start: float,
            end: float) -> Iterator[tuple[Segment, int, int, bool]]:
        """Yield ``(segment, lo, hi, fully_covered)`` for the range.

        ``fully_covered`` means every row of the segment falls inside
        ``[start, end)`` — the condition under which a cached whole-
        segment partial is usable.
        """
        index = bisect_left(self._seg_maxes, start)
        while index < len(self._segments):
            segment = self._segments[index]
            if segment.times[0] >= end:
                break
            lo = bisect_left(segment.times, start)
            hi = bisect_left(segment.times, end)
            if hi > lo:
                yield segment, lo, hi, (lo == 0 and hi == segment.length)
            index += 1

    def tail_between(self, start: float, end: float) -> list[Row]:
        """The mutable-tail slice of ``[start, end)`` (newest rows)."""
        lo = bisect_left(self._times, start)
        hi = bisect_left(self._times, end)
        return self._rows[lo:hi]

    def sealed_high(self) -> float:
        """Max time of the sealed region; tail rows are all at/after it."""
        return self._seg_maxes[-1] if self._seg_maxes else float("-inf")

    def live_segment_ids(self) -> set[int]:
        return self._live_seg_ids

    def segment_count(self) -> int:
        return len(self._segments)

    def row_count(self) -> int:
        return self._sealed_rows + len(self._rows)

    # -- retention -------------------------------------------------------------

    def trim(self, now: float) -> int:
        """Drop rows older than the retention window; return count."""
        cutoff = now - self.retention_seconds
        dropped = 0
        while self._segments and self._segments[0].times[-1] < cutoff:
            segment = self._segments.pop(0)
            self._seg_maxes.pop(0)
            self._live_seg_ids.discard(segment.seg_id)
            self._sealed_rows -= segment.length
            dropped += segment.length
            self.query_cache.drop_segment(segment.seg_id)
        if self._segments:
            first = self._segments[0]
            cut = bisect_left(first.times, cutoff)
            if cut:
                sliced = first.sliced(cut, self._next_seg_id)
                self._next_seg_id += 1
                self._segments[0] = sliced
                self._live_seg_ids.discard(first.seg_id)
                self._live_seg_ids.add(sliced.seg_id)
                self._sealed_rows -= cut
                dropped += cut
                self.query_cache.drop_segment(first.seg_id)
        drop = bisect_left(self._times, cutoff)
        if drop:
            del self._times[:drop]
            del self._rows[:drop]
            dropped += drop
        return dropped

    # -- bounds ----------------------------------------------------------------

    def min_time(self) -> float | None:
        if self._segments:
            return self._segments[0].times[0]
        return self._times[0] if self._times else None

    def max_time(self) -> float | None:
        if self._times:
            return self._times[-1]
        return self._seg_maxes[-1] if self._seg_maxes else None
