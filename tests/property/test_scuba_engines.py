"""Property: Scuba's compiled engine matches the row-scan oracle.

Feeds identical randomized row streams — out-of-order times, Nones,
NaNs, missing keys, high- and low-cardinality groups, interleaved
``trim`` calls — into a plain sorted-list row model and a table with a
tiny ``segment_rows`` (so every schedule exercises sealing, deep
out-of-order segment rebuilds, and boundary-segment trims). The model
pins the table's row-facing API (``rows_between``, ``trim``) and with it
the seal/materialize round trip. Every aggregate then runs through the
row-scan engine (the oracle) and the compiled engine — for both
``run()`` and ``run_time_series()``, twice so the second pass is served
from the incremental cache.

Float results are compared with ``isclose``: merging per-segment monoid
partials re-associates floating-point addition, which is allowed to
differ in the last ulp (count/min/max/topk/groups must match exactly).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right

from repro.puma.functions import get_aggregate, get_columnar_kernel
from repro.scuba.query import ColumnFilter, ScubaQuery
from repro.scuba.table import ScubaTable

AGGREGATES = ["count", "sum", "avg", "min", "max", "topk", "stddev",
              "approx_distinct"]

GROUP_CHOICES = [
    (),                      # global aggregate
    ("page",),               # low cardinality, dictionary-encoded
    ("user",),               # high cardinality
    ("page", "status"),      # multi-column group
    ("absent",),             # column no row has
]

FILTER_CHOICES = [
    (),
    (ColumnFilter("status", ">=", 500),),
    (ColumnFilter("page", "==", "p1"),),
    (ColumnFilter("status", "<", 500), ColumnFilter("ms", ">", 2.0)),
    (ColumnFilter("page", "in", ("p0", "p2")),),
    # Negative ops: null/missing values pass these (and only these) —
    # "user" is absent from most rows, "ms" mixes Nones and floats.
    (ColumnFilter("user", "!=", "u3"),),
    (ColumnFilter("ms", "not in", (0.5, 1.0, -2.0)),),
    (ColumnFilter("ms", "!=", 2.0), ColumnFilter("status", "==", 200)),
    (ColumnFilter("absent", "not in", ("x",)),),
    (ColumnFilter("absent", "<", 5),),  # absent column: nothing passes
    # "load" is an all-float column holding NaNs: NaN-led segments must
    # not be pruned by their zone's range.
    (ColumnFilter("load", ">", 3.0),),
    (ColumnFilter("load", "<=", -3.0), ColumnFilter("page", "!=", "p1")),
]


def _random_row(rng: random.Random, clock: float) -> dict:
    row = {
        "event_time": clock + rng.choice([0.0, 0.5, 1.0, 2.0, -3.0, -40.0]),
        "page": f"p{rng.randrange(4)}",
        "status": rng.choice([200, 200, 200, 500, 503]),
    }
    if rng.random() < 0.85:
        # Halves only: segment-partial merges must re-add exactly.
        row["ms"] = rng.choice([None, rng.randrange(-40, 40) * 0.5])
    # Filter-only: NaN makes min/max/topk order-dependent, so it never
    # feeds an aggregate here.
    row["load"] = rng.choice([math.nan, rng.randrange(-20, 20) * 0.5])
    if rng.random() < 0.3:
        row["user"] = f"u{rng.randrange(200)}"
    return row


class _RowModel:
    """Raw rows in one time-sorted list: the layout Scuba's row API
    promises. Inserts are stable (ties land after existing equal
    times) and ``trim`` returns the count dropped."""

    def __init__(self, retention_seconds: float) -> None:
        self.retention_seconds = retention_seconds
        self._times: list[float] = []
        self._rows: list[dict] = []

    def add(self, row: dict) -> None:
        time_value = float(row["event_time"])
        index = bisect_right(self._times, time_value)
        self._times.insert(index, time_value)
        self._rows.insert(index, row)

    def add_rows(self, rows: list[dict]) -> None:
        for row in rows:
            self.add(row)

    def trim(self, now: float) -> int:
        drop = bisect_left(self._times, now - self.retention_seconds)
        del self._times[:drop]
        del self._rows[:drop]
        return drop

    def rows_between(self, start: float, end: float) -> list[dict]:
        return self._rows[bisect_left(self._times, start):
                          bisect_left(self._times, end)]


def _build_tables(rng: random.Random, n: int):
    row_table = _RowModel(retention_seconds=500.0)
    col_table = ScubaTable("t", retention_seconds=500.0, segment_rows=16)
    clock = 100.0
    pending: list[dict] = []
    for _ in range(n):
        clock += rng.random() * 2.0
        pending.append(_random_row(rng, clock))
        roll = rng.random()
        if roll < 0.25 and pending:
            batch = list(pending)
            pending.clear()
            row_table.add_rows([dict(r) for r in batch])
            col_table.add_rows([dict(r) for r in batch])
        elif roll < 0.35:
            for r in pending:
                row_table.add(dict(r))
                col_table.add(dict(r))
            pending.clear()
        elif roll < 0.42:
            assert row_table.trim(clock) == col_table.trim(clock)
    for r in pending:
        row_table.add(dict(r))
        col_table.add(dict(r))
    return row_table, col_table, clock


def _same_rows(expected: list[dict], actual: list[dict]) -> bool:
    """Row-list equality where NaN equals NaN (sealed float columns
    hand back fresh NaN objects, which ``==`` never equates)."""
    return len(expected) == len(actual) and all(
        left.keys() == right.keys() and all(
            _close(left[key], right[key]) for key in left)
        for left, right in zip(expected, actual))


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return (math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
                or math.isnan(a) and math.isnan(b))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def _assert_rows_match(expected, actual, context, group_by=()):
    # Order rows by their (exactly-matching) group key before comparing:
    # float aggregate values may differ in the last ulp between engines,
    # which must not be allowed to reorder the value-sorted output.
    def by_group(rows):
        return sorted(rows, key=lambda r: repr(tuple(r.get(c)
                                                     for c in group_by)))

    expected, actual = by_group(expected), by_group(actual)
    assert len(expected) == len(actual), (context, expected, actual)
    for left, right in zip(expected, actual):
        assert set(left) == set(right), (context, left, right)
        for key in left:
            assert _close(left[key], right[key]), (context, key, left, right)


def _assert_points_match(expected, actual, context):
    assert len(expected) == len(actual), (context, expected, actual)
    for left, right in zip(expected, actual):
        assert left.bucket_start == right.bucket_start, (context, left, right)
        assert left.group == right.group, (context, left, right)
        assert _close(left.value, right.value), (context, left, right)


def test_columnar_engines_match_row_engine_exhaustively():
    for seed in range(12):
        rng = random.Random(seed)
        row_table, col_table, clock = _build_tables(rng, 300)
        assert col_table.segment_count() > 0
        assert _same_rows(row_table.rows_between(0.0, 1e9),
                          col_table.rows_between(0.0, 1e9))
        lo = clock - 400.0 + rng.random() * 100.0
        hi = lo + 50.0 + rng.random() * 300.0
        for index, aggregation in enumerate(AGGREGATES):
            group_by = rng.choice(GROUP_CHOICES)
            filters = rng.choice(FILTER_CHOICES)
            value_column = rng.choice(["ms", "status", None])
            common = dict(aggregation=aggregation, value_column=value_column,
                          group_by=group_by, filters=filters, limit=10_000)
            context = (seed, aggregation, group_by, filters, value_column)
            expected = ScubaQuery(col_table, lo, hi, engine="rows",
                                  **common).run()
            arm = ScubaQuery(col_table, lo, hi, **common)
            _assert_rows_match(expected, arm.run(), context, group_by)
            # Second run reuses cached per-segment partials.
            _assert_rows_match(expected, arm.run(), context + ("cache",),
                               group_by)

            series_common = dict(common, bucket_seconds=30.0)
            expected_ts = ScubaQuery(col_table, lo, hi, engine="rows",
                                     **series_common).run_time_series()
            arm_ts = ScubaQuery(col_table, lo, hi, **series_common)
            _assert_points_match(expected_ts, arm_ts.run_time_series(),
                                 context)
            _assert_points_match(expected_ts, arm_ts.run_time_series(),
                                 context + ("cache",))


def test_cache_stays_correct_across_trim_and_append():
    """Cached partials must be precisely invalidated, never stale."""
    for seed in range(6):
        rng = random.Random(1000 + seed)
        row_table, col_table, clock = _build_tables(rng, 250)
        query = ScubaQuery(col_table, clock - 450.0, clock + 100.0,
                           aggregation="sum", value_column="ms",
                           group_by=("page",), limit=100)
        query.run()  # populate the cache
        # Mutate: trim old rows, append new ones (some out-of-order).
        clock += 50.0
        assert row_table.trim(clock) == col_table.trim(clock)
        late = [_random_row(rng, clock - 300.0) for _ in range(40)]
        fresh = [_random_row(rng, clock) for _ in range(40)]
        for batch in (late, fresh):
            row_table.add_rows([dict(r) for r in batch])
            col_table.add_rows([dict(r) for r in batch])
        assert _same_rows(row_table.rows_between(0.0, 1e9),
                          col_table.rows_between(0.0, 1e9))
        expected = ScubaQuery(col_table, clock - 450.0, clock + 100.0,
                              aggregation="sum", value_column="ms",
                              group_by=("page",), engine="rows",
                              limit=100).run()
        _assert_rows_match(expected, query.run(),
                           ("post-mutation", seed), ("page",))
        _assert_rows_match(expected, query.run(),
                           ("post-mutation-2", seed), ("page",))


def test_columnar_kernels_match_per_row_updates():
    """fold() == a create/update loop, for every kernel-backed aggregate."""
    rng = random.Random(7)
    for name in ("count", "sum", "avg", "min", "max"):
        function = get_aggregate(name)
        kernel = get_columnar_kernel(name)
        assert kernel is not None
        for trial in range(20):
            n = rng.randrange(0, 40)
            codes = [rng.randrange(5) for _ in range(n)]
            values = [rng.choice([None, rng.randrange(-20, 20) * 0.5])
                      for _ in range(n)]
            if trial % 3 == 0:
                values_arg = None  # count(*) shape: the literal 1
                per_row_values = [1] * n
            else:
                values_arg = values
                per_row_values = values
            expected: dict[int, object] = {}
            for code, value in zip(codes, per_row_values):
                state = expected.get(code)
                if state is None:
                    state = function.create()
                expected[code] = function.update(state, value)
            folded = kernel.fold(codes, values_arg, n)
            assert set(folded) == set(expected), (name, trial)
            for code in expected:
                assert _close(function.result(folded[code]),
                              function.result(expected[code])), \
                    (name, trial, code)
        # The no-group shape: codes is None, one implicit group.
        folded = kernel.fold(None, [1.0, None, 2.5], 3)
        state = function.create()
        for value in (1.0, None, 2.5):
            state = function.update(state, value)
        assert _close(function.result(folded[0]), function.result(state))
