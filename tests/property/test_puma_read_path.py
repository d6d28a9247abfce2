"""Property tests: window-addressed Puma reads equal the full-scan read.

``PumaApp.query`` reads one window's HBase row range plus that window's
dirty deltas, and ``query_top_k`` picks its winners with a heap. The
oracle below is the earlier algorithm, kept verbatim: scan every window
of the table, decode every row key, merge the delta of every resident
cell, filter to the window, sort by a per-row JSON key, then sort the
whole result by the metric and slice.

Both are called at random points *between* checkpoints — so dirty
deltas, clean cells, flushed-only cells and not-yet-flushed cells are
all in play — per window and for the whole table, with k in {1, 3,
all}, over forced ties, ``topk()`` list metrics, ``None`` metrics, a
fractional window size, a global (unwindowed) table, ``retain_windows``
eviction, crash/restart, and two instances over one ``HBaseTable``
where each reads what the other flushed.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.errors import PlanningError
from repro.puma.app import PumaApp
from repro.puma.parser import parse
from repro.puma.planner import plan
from repro.runtime.clock import SimClock
from repro.scribe.store import ScribeStore
from repro.storage.hbase import HBaseTable

SOURCE = """
CREATE APPLICATION reads;
CREATE INPUT TABLE events(event_time, page, user, ms)
FROM SCRIBE("events") TIME event_time;
CREATE TABLE agg AS
SELECT page, user, count(*) AS n, max(ms) AS hi, topk(ms, 2) AS top2,
       avg(ms) AS mean
FROM events [10 seconds];
CREATE TABLE fine AS
SELECT page, count(*) AS n, sum(ms) AS total FROM events [0.3 seconds];
CREATE TABLE totals AS
SELECT page, count(*) AS n, min(ms) AS lo FROM events;
"""

#: Ranking columns per table: every aggregate alias plus a group column.
METRICS = {
    "agg": ("n", "hi", "top2", "mean", "user"),
    "fine": ("n", "total", "page"),
    "totals": ("n", "lo", "page"),
}


# -- the oracle: the full-scan read path --------------------------------------

def oracle_query(app, table_name, window_start=None):
    table = app.plan.table(table_name)
    if table.kind != "aggregation":
        raise PlanningError(f"table {table_name!r} is not an aggregation")
    ctable = app._compiled_tables[table_name]
    aggregates = ctable.aggregates
    cells = {}
    prefix = f"{app.name}|{table_name}|"
    for row_key, columns in app.hbase.scan(prefix, prefix + "￿"):
        _, _, window_text, key_json = row_key.split("|", 3)
        cells[(float(window_text), tuple(json.loads(key_json)))] = columns
    for (name, start, group_key), delta in app._state.items():
        if name != table_name:
            continue
        saved = cells.get((start, group_key))
        if saved is None:
            cells[(start, group_key)] = delta
        else:
            cells[(start, group_key)] = {
                aggregate.alias: (
                    aggregate.merge(saved[aggregate.alias],
                                    delta[aggregate.alias])
                    if aggregate.alias in saved
                    else delta[aggregate.alias])
                for aggregate in aggregates
            }
    rows = []
    for (start, group_key), state in cells.items():
        if window_start is not None and start != window_start:
            continue
        row = {"window_start": start}
        for column, value in zip(ctable.group_columns, group_key):
            row[column] = value
        for aggregate in aggregates:
            row[aggregate.alias] = aggregate.result(state[aggregate.alias])
        rows.append(row)
    rows.sort(key=lambda r: (r["window_start"],
                             json.dumps([r[c]
                                         for c in ctable.group_columns])))
    return rows


def oracle_top_k(app, table_name, metric, k, window_start=None):
    rows = oracle_query(app, table_name, window_start)

    def sort_value(row):
        value = row.get(metric)
        if isinstance(value, list):
            return value[0] if value else float("-inf")
        return value if value is not None else float("-inf")

    rows.sort(key=sort_value, reverse=True)
    return rows[:k]


# -- the driver ------------------------------------------------------------------

class CountingHBase(HBaseTable):
    """Records every row key a scan hands out."""

    def __init__(self, name):
        super().__init__(name)
        self.scanned = []

    def scan(self, start_row=None, end_row=None, limit=None):
        for row_key, columns in super().scan(start_row, end_row, limit):
            self.scanned.append(row_key)
            yield row_key, columns


def check_reads(app, hbase):
    """Every read the app serves equals the oracle's, right now."""
    for table, metrics in METRICS.items():
        windows = app.windows(table)
        assert windows == sorted({row["window_start"]
                                  for row in oracle_query(app, table)})
        assert app.query(table) == oracle_query(app, table)
        for start in windows + [999.0]:
            expected = oracle_query(app, table, start)
            hbase.scanned.clear()
            assert app.query(table, start) == expected
            # The range read touched that window's rows and no others.
            prefix = f"{app.name}|{table}|{start:020.6f}|"
            assert all(key.startswith(prefix) for key in hbase.scanned)
            assert len(hbase.scanned) == sum(
                1 for key in hbase._rows if key.startswith(prefix))
        for start in {None, *windows[:1], *windows[-1:]}:
            size = len(oracle_query(app, table, start))
            for metric in metrics:
                for k in {1, 3, size}:
                    assert app.query_top_k(table, metric, k, start) == \
                        oracle_top_k(app, table, metric, k, start)


records = st.fixed_dictionaries({
    # Negative times give windows whose row-key text sorts out of
    # numeric order, so whole-table reads must re-order by window.
    "event_time": st.floats(min_value=-25, max_value=40,
                            allow_nan=False, allow_infinity=False),
    "page": st.sampled_from(["home", "shop", "about"]),
    "user": st.sampled_from(["u1", "u2", "u3"]),
    # Few values force ties; None gives None maxima/averages and
    # empty topk() lists.
    "ms": st.one_of(st.none(), st.integers(0, 3)),
})

STEPS = st.lists(st.one_of(
    st.tuples(st.just("pump"), st.integers(0, 1), st.integers(1, 7)),
    st.tuples(st.just("checkpoint"), st.integers(0, 1), st.just(0)),
    st.tuples(st.just("crash"), st.integers(0, 1), st.just(0)),
    st.tuples(st.just("read"), st.integers(0, 1), st.just(0)),
), min_size=1, max_size=25)


@settings(max_examples=60, deadline=None)
@given(items=st.lists(records, min_size=1, max_size=50), steps=STEPS,
       retain=st.one_of(st.none(), st.integers(1, 2)),
       checkpoint_every=st.integers(2, 30))
def test_window_reads_match_full_scan_oracle(items, steps, retain,
                                             checkpoint_every):
    scribe = ScribeStore(clock=SimClock())
    scribe.create_category("events", num_buckets=2)
    for i, item in enumerate(items):
        scribe.write_record("events", item, key=str(i))
    hbase = CountingHBase("shared")
    # Two instances, one bucket each, over one HBase namespace: each
    # one's queries see the other's flushed cells, never its deltas.
    apps = [PumaApp(plan(parse(SOURCE)), scribe, hbase, buckets=[bucket],
                    checkpoint_every_events=checkpoint_every,
                    retain_windows=retain, clock=scribe.clock)
            for bucket in (0, 1)]
    for action, which, size in steps + [("read", 0, 0), ("read", 1, 0)]:
        app = apps[which]
        if action == "pump":
            app.pump(size)
        elif action == "checkpoint":
            app.checkpoint()
        elif action == "crash":
            app.crash()
            app.restart()
        else:
            check_reads(app, hbase)
    for app in apps:
        while app.pump(100):
            pass
        check_reads(app, hbase)
        app.checkpoint()
    for app in apps:
        check_reads(app, hbase)
    # Once both have flushed everything, the two serve identical reads.
    for table in METRICS:
        assert apps[0].query(table) == apps[1].query(table)
