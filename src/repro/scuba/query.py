"""Scuba's read-time slice-and-dice query engine.

"Scuba was designed for interactive, slice-and-dice queries. It does
aggregation at query time by reading all of the raw event data"
(Section 5.2). A :class:`ScubaQuery` is a time range, optional filters,
optional group-by columns, and aggregations.

Two engines share one semantics (property-tested identical):

- ``engine="compiled"`` (default) — the query *shape* is lowered once
  into an immutable :class:`~repro.scuba.compiler.ScubaPlan` (cached per
  table) whose fused per-segment programs run over the table's sealed
  segments: group-by runs on dictionary codes, float filters are inline
  comparators, whole segments are refuted against zone maps before any
  scan, and count/sum/avg/min/max fold whole column slices through the
  shared columnar kernels in :mod:`repro.core.kernels`. Per-segment
  partial aggregates and closed time-series buckets are monoid states,
  so repeated dashboard refreshes over ``shifted()`` windows reuse them
  through the table's :class:`~repro.scuba.cache.ScubaQueryCache`
  instead of rescanning. The mutable tail is folded row by row.
- ``engine="rows"`` — the paper-faithful baseline and the oracle: scan
  every raw row in range as a dict, one CPU unit per row examined. This
  is the currency the Section 5.2 dashboard-migration experiment
  compares against Puma's write-time cost.

Filters come in two shapes: declarative :class:`ColumnFilter` predicates
(vectorizable, participate in the plan and cache shape) and an opaque
``where`` callable (evaluated per materialized row after the column
filters, and disables result caching because its identity cannot be
part of a shape key).

Queries carry a ``limit`` defaulting to 7: "Most Scuba queries have a
limit of 7: it only makes sense to visualize up to 7 lines in a chart."
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import Any, Callable

from repro.errors import ScubaError
from repro.puma.functions import AggregateFunction, get_aggregate
from repro.runtime.metrics import MetricsRegistry
from repro.scuba.compiler import ScubaPlan
from repro.scuba.filters import ColumnFilter  # noqa: F401  (re-export —
# ColumnFilter's historical import path; it moved to repro.scuba.filters
# so the compiler can lower predicates without a circular import)
from repro.scuba.table import Row, ScubaTable

_ENGINES = ("compiled", "rows")


@dataclass(frozen=True)
class TimeSeriesPoint:
    """One bucket of a time-series query result."""

    bucket_start: float
    group: tuple
    value: Any


@dataclass
class ScubaQuery:
    """A compiled dashboard-style query, runnable repeatedly."""

    table: ScubaTable
    start: float
    end: float
    aggregation: str = "count"
    value_column: str | None = None
    group_by: tuple[str, ...] = ()
    where: Callable[[Row], bool] | None = None
    limit: int = 7
    bucket_seconds: float | None = None
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    filters: tuple[ColumnFilter, ...] = ()
    engine: str = "compiled"  # "compiled" | "rows"
    use_cache: bool = True

    def __post_init__(self) -> None:
        if self.engine not in _ENGINES:
            raise ScubaError(f"unknown Scuba engine {self.engine!r}; "
                             f"expected one of {_ENGINES}")

    def shifted(self, delta: float) -> "ScubaQuery":
        """The same query over a slid time window (dashboard refresh)."""
        return replace(self, start=self.start + delta, end=self.end + delta)

    # -- execution -------------------------------------------------------------

    def run(self) -> list[Row]:
        """Aggregate over the range; returns up to ``limit`` group rows."""
        if self.end <= self.start:
            raise ScubaError("query range is empty")
        function = get_aggregate(self.aggregation)
        if self.engine == "rows":
            states = self._run_rows(function)
        else:
            states = self._run_compiled(function, self._plan())
        results = [
            {**{c: g for c, g in zip(self.group_by, group)},
             "value": function.result(state)}
            for group, state in states.items()
        ]
        # Two stable passes: group key ascending, then value descending —
        # equal-valued groups therefore order deterministically by key
        # instead of by dict insertion (i.e. ingest) order.
        results.sort(key=lambda r: tuple(_sortable(r[c])
                                         for c in self.group_by))
        results.sort(key=lambda r: _sortable(r["value"]), reverse=True)
        return results[:self.limit]

    def run_time_series(self) -> list[TimeSeriesPoint]:
        """The same aggregation bucketed by ``bucket_seconds``."""
        if self.bucket_seconds is None or self.bucket_seconds <= 0:
            raise ScubaError("time-series queries need bucket_seconds")
        function = get_aggregate(self.aggregation)
        if self.engine == "rows":
            states = self._run_rows_time_series(function)
        else:
            states = self._run_compiled_time_series(function, self._plan())
        return sorted(
            (TimeSeriesPoint(bucket, group, function.result(state))
             for (bucket, group), state in states.items()),
            key=lambda p: (p.bucket_start, repr(p.group)),
        )

    # -- the per-row fold: the row-scan engine and the mutable tail -------------

    def _row_passes(self, row: Row) -> bool:
        for column_filter in self.filters:
            if not column_filter.passes(row.get(column_filter.column)):
                return False
        return self.where is None or bool(self.where(row))

    def _fold_rows(self, rows: list[Row], states: dict[tuple, Any],
                   function: AggregateFunction) -> int:
        """Fold ``rows`` into per-group ``states``; returns rows scanned."""
        value_column = self.value_column
        for row in rows:
            if not self._row_passes(row):
                continue
            group = tuple(row.get(c) for c in self.group_by)
            state = states.get(group)
            if state is None:
                state = function.create()
            value = row.get(value_column) if value_column is not None else 1
            states[group] = function.update(state, value)
        return len(rows)

    def _run_rows(self, function: AggregateFunction) -> dict[tuple, Any]:
        states: dict[tuple, Any] = {}
        self._charge(self._fold_rows(
            self.table.rows_between(self.start, self.end), states, function))
        return states

    def _run_rows_time_series(
            self, function: AggregateFunction) -> dict[tuple, Any]:
        rows = self.table.rows_between(self.start, self.end)
        bucket_seconds = self.bucket_seconds
        time_column = self.table.time_column
        states: dict[tuple[float, tuple], Any] = {}
        # Rows come time-sorted, so each bucket is one contiguous run.
        for bucket, bucket_rows in groupby(rows, key=lambda row: (
                float(row[time_column]) // bucket_seconds) * bucket_seconds):
            bucket_states: dict[tuple, Any] = {}
            self._fold_rows(list(bucket_rows), bucket_states, function)
            for group, state in bucket_states.items():
                states[(bucket, group)] = state
        self._charge(len(rows))
        return states

    # -- the compiled engine -----------------------------------------------------

    def _plan_shape(self) -> tuple:
        """This query's fixed part: what a plan is lowered from and what
        cached partials are keyed by. Never includes ``where``."""
        return (self.aggregation, self.value_column, self.group_by,
                self.filters)

    def _cache_shape(self) -> tuple | None:
        """The result-cache key, or None when this query's results must
        not be cached (caching disabled, opaque ``where``, unhashable
        filter operand)."""
        if not self.use_cache or self.where is not None:
            return None
        shape = self._plan_shape()
        try:
            hash(shape)
        except TypeError:
            return None
        return shape

    def _plan(self) -> ScubaPlan:
        """The compiled plan for this query: from the table's plan cache
        when the shape is hashable, else lowered uncached. Independent
        of ``use_cache`` and ``where``: plans are pure functions of the
        shape."""
        shape = self._plan_shape()
        try:
            plan, hit = self.table.query_cache.plans.get(shape)
        except TypeError:  # unhashable operand, e.g. a list for "in"
            return ScubaPlan(shape)
        prefix = f"scuba.{self.table.name}"
        if hit:
            self.metrics.counter(f"{prefix}.plan_cache.hits").increment()
        else:
            self.metrics.counter(f"{prefix}.plan_cache.misses").increment()
        return plan

    def _run_compiled(self, function: AggregateFunction,
                      plan: ScubaPlan) -> dict[tuple, Any]:
        shape = self._cache_shape()
        cache = self.table.query_cache
        where = self.where
        totals: dict[tuple, Any] = {}
        scanned = 0
        cached_rows = 0
        hits = misses = 0
        segments_pruned = rows_pruned = 0
        for segment, lo, hi, full in self.table.segments_overlapping(
                self.start, self.end):
            if plan.prunes(segment):
                # The zone maps prove no row of this segment passes the
                # filters, so its partial is {}: nothing to merge, and
                # nothing worth caching (replacement = fresh seg_id).
                segments_pruned += 1
                rows_pruned += hi - lo
                continue
            if shape is not None and full:
                partial = cache.get_run_partial(shape, segment.seg_id)
                if partial is None:
                    partial = plan.segment_states(segment, 0, segment.length)
                    cache.put_run_partial(shape, segment.seg_id, partial)
                    scanned += segment.length
                    misses += 1
                else:
                    cached_rows += segment.length
                    hits += 1
            else:
                partial = plan.segment_states(segment, lo, hi, where)
                scanned += hi - lo
            _merge_states(totals, partial, function)
        scanned += self._fold_rows(
            self.table.tail_between(self.start, self.end), totals, function)
        self._charge(scanned, cached_rows=cached_rows, hits=hits,
                     misses=misses, segments_pruned=segments_pruned,
                     rows_pruned=rows_pruned)
        return totals

    def _run_compiled_time_series(self, function: AggregateFunction,
                                  plan: ScubaPlan) -> dict[tuple, Any]:
        bucket_seconds = self.bucket_seconds
        shape = self._cache_shape()
        if shape is not None:
            shape = shape + (bucket_seconds,)
        cache = self.table.query_cache
        where = self.where
        live_ids = self.table.live_segment_ids()
        sealed_high = self.table.sealed_high()
        states: dict[tuple[float, tuple], Any] = {}
        scanned = 0
        cached_rows = 0
        hits = misses = 0
        segments_pruned = rows_pruned = 0

        bucket = (self.start // bucket_seconds) * bucket_seconds
        while bucket < self.end:
            bucket_end = bucket + bucket_seconds
            lo = max(bucket, self.start)
            hi = min(bucket_end, self.end)
            # A bucket is "closed" when it lies entirely inside both the
            # query range and the sealed region: its contents can only
            # change by segment replacement, which the seg-id stamp sees.
            closed = (shape is not None and lo == bucket and hi == bucket_end
                      and bucket_end <= sealed_high)
            if closed:
                cached = cache.get_bucket(shape, bucket, live_ids)
                if cached is not None:
                    for group, state in cached.items():
                        states[(bucket, group)] = state
                    cached_rows += sum(
                        seg_hi - seg_lo for _, seg_lo, seg_hi, _ in
                        self.table.segments_overlapping(lo, hi))
                    hits += 1
                    bucket = bucket_end
                    continue
            bucket_states: dict[tuple, Any] = {}
            seg_ids = set()
            for segment, seg_lo, seg_hi, _ in self.table.segments_overlapping(
                    lo, hi):
                # A pruned segment still stamps the bucket with its
                # seg_id: the cached "nothing from this segment" claim
                # depends on its contents, and replacement (a deep
                # insert that might add a passing row) must invalidate.
                seg_ids.add(segment.seg_id)
                if plan.prunes(segment):
                    segments_pruned += 1
                    rows_pruned += seg_hi - seg_lo
                    continue
                partial = plan.segment_states(segment, seg_lo, seg_hi, where)
                scanned += seg_hi - seg_lo
                _merge_states(bucket_states, partial, function)
            scanned += self._fold_rows(self.table.tail_between(lo, hi),
                                       bucket_states, function)
            if closed:
                cache.put_bucket(shape, bucket, frozenset(seg_ids),
                                 bucket_states)
                misses += 1
            for group, state in bucket_states.items():
                states[(bucket, group)] = state
            bucket = bucket_end
        self._charge(scanned, cached_rows=cached_rows, hits=hits,
                     misses=misses, segments_pruned=segments_pruned,
                     rows_pruned=rows_pruned)
        return states

    # -- accounting ------------------------------------------------------------

    def _charge(self, scanned: int, cached_rows: int = 0, hits: int = 0,
                misses: int = 0, segments_pruned: int = 0,
                rows_pruned: int = 0) -> None:
        prefix = f"scuba.{self.table.name}"
        self.metrics.counter(f"{prefix}.rows_scanned").increment(scanned)
        self.metrics.counter(f"{prefix}.queries").increment()
        if cached_rows:
            self.metrics.counter(f"{prefix}.rows_cached").increment(
                cached_rows)
        if hits:
            self.metrics.counter(f"{prefix}.cache.hits").increment(hits)
        if misses:
            self.metrics.counter(f"{prefix}.cache.misses").increment(misses)
        if hits and (scanned or misses):
            # The signature dashboard-refresh pattern: part of the window
            # was served from cached partials, the rest scanned fresh.
            self.metrics.counter(f"{prefix}.cache.partial_reuse").increment()
        if segments_pruned:
            self.metrics.counter(f"{prefix}.segments_pruned").increment(
                segments_pruned)
        if rows_pruned:
            self.metrics.counter(f"{prefix}.rows_pruned").increment(
                rows_pruned)


def _merge_states(totals: dict[tuple, Any], partial: dict[tuple, Any],
                  function: AggregateFunction) -> None:
    """Monoid-merge ``partial`` into ``totals`` (never mutates states)."""
    for group, state in partial.items():
        existing = totals.get(group)
        totals[group] = (state if existing is None
                         else function.merge(existing, state))


# -- result ordering ----------------------------------------------------------

#: Category order for values that raise TypeError when compared directly.
_TYPE_RANKS: list[type] = [bool, int, float, str, bytes, tuple, list, dict]


class _SortKey:
    """Total order over arbitrary aggregate values.

    Comparable values (numbers with numbers, strings with strings) keep
    their natural order; ``None`` sorts below everything; a mixed-type
    comparison that raises ``TypeError`` falls back to ``(type rank,
    repr)`` so ordering stays deterministic instead of crashing — e.g. a
    ``min`` whose groups yield both strings and numbers.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def _rank(self) -> tuple[int, str]:
        value = self.value
        for index, kind in enumerate(_TYPE_RANKS):
            if isinstance(value, kind):
                return index + 1, repr(value)
        return len(_TYPE_RANKS) + 1, f"{type(value).__name__}:{value!r}"

    def __lt__(self, other: "_SortKey") -> bool:
        a, b = self.value, other.value
        if a is None:
            return b is not None
        if b is None:
            return False
        try:
            return bool(a < b)
        except TypeError:
            return self._rank() < other._rank()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _SortKey):
            return NotImplemented
        try:
            return bool(self.value == other.value)
        except TypeError:
            return False

    def __hash__(self) -> int:  # pragma: no cover - keys aren't hashed
        return hash(id(self))


def _sortable(value: Any) -> _SortKey:
    if isinstance(value, list):
        value = value[0] if value else None
    return _SortKey(value)
