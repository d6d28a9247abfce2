"""Property tests: the compiled executor is a pure optimization.

Randomized PQL programs — every aggregate, filters, UDFs in aggregate
arguments and predicates, windowed and global tables — run through the
production ``PumaApp`` (the compiled ``ExecutablePlan``) and through
``RowOraclePumaApp`` (one message, one row, one per-row
``AggregateFunction.update`` at a time) over the same randomized stream
(out-of-order event times, poison mixed in, randomized pump sizes and
checkpoint cadence). Both must produce identical query results,
identical durable HBase state, byte-identical filter output, and
identical counters.

Crash injection at the checkpoint fault point (between the state-flush
and offset-save phases) extends the claim to recovery under all three
``StateSemantics`` policies: production stays identical to the oracle,
and the totals sit where the semantics lattice says — at-least-once ≥
the no-crash reference, at-most-once ≤ it, exactly-once == it (its two
phases have no fault point between them).

Float caveat: ``stddev``'s Chan merge is exact in expectation but not
bit-exact against an update fold, so it is excluded from the exact
suites and checked separately under ``math.isclose``.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core.semantics import StateSemantics
from repro.errors import ProcessCrashed
from repro.puma.app import PumaApp
from repro.puma.parser import parse
from repro.puma.planner import plan
from repro.runtime.clock import SimClock
from repro.runtime.metrics import MetricsRegistry
from repro.scribe.reader import CategoryReader
from repro.scribe.store import ScribeStore
from repro.storage.hbase import HBaseTable

from tests.property.puma_row_oracle import RowOraclePumaApp

POISON = "<poison>"

APPS = (PumaApp, RowOraclePumaApp)  # production, oracle

# Every aggregate except stddev (float-exactness; see module docstring),
# including UDFs inside aggregate arguments and shared argument
# expressions (sum/avg/max all read ms).
AGGREGATE_CLAUSES = (
    "count(*) AS n",
    "sum(ms) AS total",
    "avg(ms) AS mean",
    "min(ms) AS lo",
    "max(ms) AS hi",
    "sum(ms + weight) AS shifted",
    "max(abs(weight)) AS magnitude",
    "topk(ms, 3) AS top3",
    "approx_distinct(user) AS users",
    "approx_percentile(ms, 90) AS p90",
)

WHERE_CLAUSES = (
    None,
    "page != 'spam'",
    "ms >= 40",
    "contains(page, 'o')",
    "mod(ms, 2) = 0 AND weight > -3",
)

FILTER_CLAUSES = (
    "SELECT user, page FROM events WHERE page = 'home'",
    "SELECT upper(page) AS loud, ms FROM events WHERE ms > 50",
)


def build_source(agg_indices, where_index, windowed, grouped, filter_index):
    where = WHERE_CLAUSES[where_index]
    projections = (["page"] if grouped else []) + [
        AGGREGATE_CLAUSES[i] for i in agg_indices
    ]
    agg_sql = "SELECT " + ", ".join(projections) + " FROM events"
    if windowed:
        agg_sql += " [1 minute]"
    if where is not None:
        agg_sql += f" WHERE {where}"
    return f"""
CREATE APPLICATION equivalence;
CREATE INPUT TABLE events(event_time, page, user, ms, weight)
FROM SCRIBE("events") TIME event_time;
CREATE TABLE agg AS {agg_sql};
CREATE TABLE filt AS {FILTER_CLAUSES[filter_index]};
"""


puma_records = st.fixed_dictionaries({
    "event_time": st.floats(min_value=0, max_value=300,
                            allow_nan=False, allow_infinity=False),
    "page": st.sampled_from(["home", "about", "spam", "shop"]),
    "user": st.sampled_from(["u1", "u2", "u3", "u4"]),
    "ms": st.integers(0, 100),
    "weight": st.integers(-5, 5),
})

puma_streams = st.lists(st.one_of(puma_records, st.just(POISON)),
                        min_size=1, max_size=40)

programs = st.builds(
    build_source,
    agg_indices=st.lists(
        st.integers(0, len(AGGREGATE_CLAUSES) - 1),
        min_size=1, max_size=4, unique=True),
    where_index=st.integers(0, len(WHERE_CLAUSES) - 1),
    windowed=st.booleans(),
    grouped=st.booleans(),
    filter_index=st.integers(0, len(FILTER_CLAUSES) - 1),
)

batch_plans = st.lists(st.integers(1, 13), min_size=1, max_size=4)


def _run(source, items, batch_plan, checkpoint_every, app_class,
         retain=None, semantics=StateSemantics.AT_LEAST_ONCE,
         crash_at_checkpoint=None):
    scribe = ScribeStore(clock=SimClock())
    scribe.create_category("events", num_buckets=1)
    for i, item in enumerate(items):
        if item == POISON:
            scribe.write("events", b"\xff{not json")
        else:
            scribe.write_record("events", item, key=str(i))

    hbase = HBaseTable("state")
    metrics = MetricsRegistry()
    app = app_class(plan(parse(source)), scribe, hbase,
                    checkpoint_every_events=checkpoint_every,
                    retain_windows=retain, clock=scribe.clock,
                    metrics=metrics, semantics=semantics)
    if crash_at_checkpoint is not None:
        calls = [0]

        def fault_hook():
            calls[0] += 1
            if calls[0] == crash_at_checkpoint:
                raise ProcessCrashed("puma-checkpoint", 0.0)

        app.checkpoint_fault_hook = fault_hook

    plan_index = 0
    while True:
        if app.crashed:
            app.restart()
        size = batch_plan[plan_index % len(batch_plan)]
        plan_index += 1
        if app.pump(size) == 0 and not app.crashed:
            break
    while True:
        try:
            app.checkpoint()
            break
        except ProcessCrashed:
            app.crash()
            app.restart()
            while app.pump(100) or app.crashed:
                if app.crashed:
                    app.restart()

    emitted = [(m.bucket, m.offset, m.payload)
               for m in CategoryReader(scribe, "filt").read_all()]
    return {
        "query": app.query("agg"),
        "hbase": sorted(((key, dict(cols))
                         for key, cols in hbase.scan("", "￿")),
                        key=lambda kv: kv[0]),
        "emitted": emitted,
        "events": app._events_counter.value,
        "poison": app._poison_counter.value,
        "checkpoints": app._checkpoints_counter.value,
        "out": app._out_counters["filt"].value,
    }


@settings(max_examples=40, deadline=None)
@given(source=programs, items=puma_streams, batch_plan=batch_plans,
       checkpoint_every=st.integers(1, 9),
       retain=st.one_of(st.none(), st.integers(1, 3)))
def test_compiled_matches_oracle(source, items, batch_plan,
                                 checkpoint_every, retain):
    compiled, oracle = (
        _run(source, items, batch_plan, checkpoint_every, app_class,
             retain=retain)
        for app_class in APPS
    )
    assert compiled == oracle


@settings(max_examples=15, deadline=None)
@given(items=puma_streams, batch_plan=batch_plans,
       checkpoint_every=st.integers(1, 6),
       crash_at_checkpoint=st.integers(1, 6),
       semantics=st.sampled_from(list(StateSemantics)))
def test_checkpoint_crash_equivalence_under_all_semantics(
        items, batch_plan, checkpoint_every, crash_at_checkpoint,
        semantics):
    """A crash between the checkpoint phases hits production and the
    oracle at the same event offset, so they must stay *identical* — and
    the surviving counts must respect the semantics lattice."""
    source = build_source((0, 1), 0, windowed=True, grouped=True,
                          filter_index=0)
    crashed_runs = [
        _run(source, items, batch_plan, checkpoint_every, app_class,
             semantics=semantics, crash_at_checkpoint=crash_at_checkpoint)
        for app_class in APPS
    ]
    assert crashed_runs[0] == crashed_runs[1]

    reference = _run(source, items, batch_plan, checkpoint_every,
                     RowOraclePumaApp, semantics=semantics)
    total = sum(row["n"] for row in crashed_runs[0]["query"])
    expected = sum(row["n"] for row in reference["query"])
    if semantics is StateSemantics.AT_LEAST_ONCE:
        assert total >= expected
    elif semantics is StateSemantics.AT_MOST_ONCE:
        assert total <= expected
    else:
        # EXACTLY_ONCE has no fault point between the phases: the hook
        # never fires, nothing crashes, and the run matches exactly.
        assert crashed_runs[0] == reference


@settings(max_examples=20, deadline=None)
@given(items=st.lists(puma_records, min_size=2, max_size=30),
       batch_plan=batch_plans, checkpoint_every=st.integers(1, 9))
def test_stddev_matches_oracle_within_float_tolerance(items, batch_plan,
                                                      checkpoint_every):
    source = """
CREATE APPLICATION spread;
CREATE INPUT TABLE events(event_time, page, user, ms, weight)
FROM SCRIBE("events") TIME event_time;
CREATE TABLE agg AS
SELECT page, stddev(ms) AS spread, count(*) AS n FROM events [1 minute];
CREATE TABLE filt AS SELECT user, page FROM events WHERE page = 'home';
"""
    compiled, oracle = (
        _run(source, items, batch_plan, checkpoint_every, app_class)
        for app_class in APPS)
    assert len(compiled["query"]) == len(oracle["query"])
    for left, right in zip(compiled["query"], oracle["query"]):
        assert (left["window_start"], left["page"], left["n"]) == \
            (right["window_start"], right["page"], right["n"])
        if left["spread"] is None:
            assert right["spread"] is None
        else:
            assert math.isclose(left["spread"], right["spread"],
                                rel_tol=1e-9, abs_tol=1e-9)
