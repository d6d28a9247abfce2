"""Property tests: batched execution paths match per-message oracles.

Batch-at-a-time is the ecosystem's only execution mode; every batched
path (Stylus, Puma, Swift, Scuba) must be a pure optimization —
byte-identical output streams, identical checkpoint offsets, identical
counters — under every semantics policy, with poison messages mixed in.
None of them keeps a per-message path in production; the references
live here: ``MessageOracleStylusTask`` (``stylus_message_oracle.py``),
``PerMessageOracleSwiftApp`` (``swift_message_oracle.py``),
``RowOraclePumaApp`` (``puma_row_oracle.py``) and the per-message loop
in ``_run_scuba``. Stylus and a per-message Swift client stay exact
under crash injection too (Stylus down to the modeled timeline); a
Puma or Swift batch crash lands at a coarser point, which relaxes
those comparisons to *semantic* equivalence: after a restart and a full
drain, the recovered durable state and delivered sets must match.

Incremental leveled compaction gets the same treatment: bounded
``compact_step`` sequences (manual or scheduler-driven) and the full
``compact`` must all resolve every key to the same value as an
uncompacted store.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import serde
from repro.core.costs import CostModel
from repro.core.semantics import SemanticsPolicy
from repro.errors import ProcessCrashed
from repro.puma.app import PumaApp
from repro.puma.parser import parse
from repro.puma.planner import plan
from repro.runtime.clock import SimClock
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.scheduler import Scheduler
from repro.scribe.checkpoints import Checkpoint, CheckpointStore
from repro.scribe.reader import CategoryReader, ScribeReader
from repro.scribe.store import ScribeStore
from repro.scribe.writer import ScribeWriter
from repro.scuba.ingest import ScubaIngester
from repro.scuba.table import ScubaTable
from repro.storage.hbase import HBaseTable
from repro.storage.lsm import LsmStore
from repro.storage.merge import CounterMergeOperator
from repro.stylus.checkpointing import (
    CheckpointPolicy,
    CrashInjector,
    CrashPoint,
)
from repro.stylus.engine import Strategy, StylusTask
from repro.stylus.state import InMemoryStateBackend
from repro.stylus.windowed import WindowedAggregator
from repro.swift.engine import SwiftApp

from tests.property.puma_row_oracle import RowOraclePumaApp
from tests.property.stylus_message_oracle import MessageOracleStylusTask
from tests.property.swift_message_oracle import PerMessageOracleSwiftApp
from tests.stylus.helpers import (
    CountingProcessor,
    DimensionCounter,
    EchoProcessor,
)

POISON = "<poison>"

records = st.fixed_dictionaries(
    {
        "event_time": st.floats(min_value=0, max_value=1e6,
                                allow_nan=False, allow_infinity=False),
        "seq": st.integers(0, 10_000),
    },
    optional={
        "tag": st.text(max_size=8),
        "weight": st.integers(-5, 5),
    },
)

#: An input stream: decodable records with poison bytes mixed in.
streams = st.lists(st.one_of(records, st.just(POISON)),
                   min_size=1, max_size=40)

batch_plans = st.lists(st.integers(1, 9), min_size=1, max_size=8)

POLICIES = {
    "at_least_once": SemanticsPolicy.at_least_once,
    "at_most_once": SemanticsPolicy.at_most_once,
    "exactly_once": SemanticsPolicy.exactly_once,
}


def _windowed_processor():
    return WindowedAggregator(
        window_seconds=30.0, operator=CounterMergeOperator(),
        extract=lambda e: [(f"g{int(e['seq']) % 3}", 1)],
        confidence=0.9, sample_size=16,
    )


PROCESSORS = {
    "echo": EchoProcessor,
    "counting": CountingProcessor,
    "windowed": _windowed_processor,
    "monoid": DimensionCounter,
}

#: Checkpoint triggers: (every_n_events, interval_seconds).
triggers = st.one_of(
    st.tuples(st.integers(1, 7), st.none()),
    st.tuples(st.none(), st.sampled_from([0.5, 2.0, 5.0])),
    st.tuples(st.integers(1, 7), st.sampled_from([0.5, 2.0, 5.0])),
)

#: Up to three armed kill points, each at one checkpoint index.
crash_plans = st.lists(
    st.tuples(st.sampled_from(list(CrashPoint)), st.integers(1, 5)),
    max_size=3, unique=True,
)

#: Large enough per-event costs that modeled time triggers checkpoints.
COST_MODEL = CostModel(receive_per_event=0.3, deserialize_per_event=0.2,
                       process_per_event=0.1, checkpoint_sync=0.5)


def _run_stylus(task_class, items, batch_plan, trigger, policy_name,
                processor_name="echo", strategy=Strategy.OVERLAPPED,
                cost_model=None, crashes=(), advances=(0.0,)):
    """Write ``items`` to Scribe, drain them through a task, fingerprint.

    A crashed task is restarted from its checkpoint and draining goes
    on; ``advances`` moves the task's clock between pumps, so time
    triggers fire at different points of the stream.
    """
    scribe = ScribeStore(clock=SimClock())
    scribe.create_category("in", num_buckets=1)
    scribe.create_category("out", num_buckets=1)
    writer = ScribeWriter(scribe, "in")
    for item in items:
        if item == POISON:
            scribe.write("in", b"\xff{not json")
        else:
            writer.write_to_bucket(item, 0)

    every_n, interval = trigger
    injector = CrashInjector()
    for point, index in crashes:
        injector.arm(point, index)
    clock = SimClock()
    backend = InMemoryStateBackend("task")
    task = task_class("task", scribe, "in", 0,
                      PROCESSORS[processor_name](),
                      semantics=POLICIES[policy_name](),
                      state_backend=backend,
                      checkpoint_policy=CheckpointPolicy(
                          every_n_events=every_n,
                          interval_seconds=interval),
                      output_category="out", clock=clock,
                      crash_injector=injector, cost_model=cost_model,
                      strategy=strategy)

    step = 0
    while True:
        if task.crashed:
            task.restart()
        size = batch_plan[step % len(batch_plan)]
        clock.advance(advances[step % len(advances)])
        step += 1
        if task.pump(size) == 0 and not task.crashed:
            break
    task.checkpoint_now()

    out_reader = ScribeReader(scribe, "out", 0)
    emitted = [(m.offset, m.payload) for m in out_reader.read_batch(100_000)]
    state, offset = backend.load()
    timeline = task.timeline
    return {
        "emitted": emitted,
        "committed": backend.committed_outputs(),
        "state": state,
        "live_state": task.state,
        "partials": task.partials,
        "checkpoint_offset": offset,
        "checkpoint_index": task._checkpoint_index,
        "next_offset": task._next_offset,
        "crashed": task.crashed,
        "crashes_fired": injector.crashes_fired,
        "counters": {name: value
                     for name, value in task.metrics.snapshot().items()
                     if name.startswith("stylus.")},
        "low_watermark": task.low_watermark(),
        "timeline": (None if timeline is None
                     else (timeline.resources, timeline.busy)),
    }


def _assert_matches_oracle(**kwargs):
    production = _run_stylus(StylusTask, **kwargs)
    oracle = _run_stylus(MessageOracleStylusTask, **kwargs)
    assert production == oracle


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@settings(max_examples=25, deadline=None)
@given(items=streams, batch_plan=batch_plans,
       checkpoint_every=st.integers(1, 7))
def test_batched_and_per_message_paths_are_equivalent(
        policy_name, items, batch_plan, checkpoint_every):
    _assert_matches_oracle(items=items, batch_plan=batch_plan,
                           trigger=(checkpoint_every, None),
                           policy_name=policy_name)


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("strategy", list(Strategy))
@settings(max_examples=60, deadline=None)
@given(items=streams, batch_plan=batch_plans, trigger=triggers,
       processor_name=st.sampled_from(sorted(PROCESSORS)),
       with_cost_model=st.booleans(), crashes=crash_plans,
       advances=st.lists(st.sampled_from([0.0, 0.0, 1.0, 3.0]),
                         min_size=1, max_size=4))
def test_stylus_matches_message_oracle_under_crashes_and_time(
        policy_name, strategy, items, batch_plan, trigger, processor_name,
        with_cost_model, crashes, advances):
    """Every execution knob at once: buffered or overlapped, count and
    time triggers with the clock moving between pumps, a cost model's
    modeled timeline, and armed kill points (mid-processing included)."""
    _assert_matches_oracle(
        items=items, batch_plan=batch_plan, trigger=trigger,
        policy_name=policy_name, processor_name=processor_name,
        strategy=strategy,
        cost_model=COST_MODEL if with_cost_model else None,
        crashes=crashes, advances=advances)


@settings(max_examples=60, deadline=None)
@given(recs=st.lists(records, max_size=50))
def test_decode_batch_matches_single_decode(recs):
    payloads = [serde.encode(r) for r in recs]
    assert serde.encode_batch(recs) == payloads
    assert serde.decode_batch(payloads) == [serde.decode(p)
                                            for p in payloads]


@settings(max_examples=60, deadline=None)
@given(items=streams)
def test_decode_batch_none_policy_marks_poison(items):
    payloads = [b"\xff{not json" if item == POISON else serde.encode(item)
                for item in items]
    decoded = serde.decode_batch(payloads, errors="none")
    assert len(decoded) == len(items)
    for item, got in zip(items, decoded):
        if item == POISON:
            assert got is None
        else:
            assert got == serde.decode(serde.encode(item))


def test_decode_batch_strict_raises_on_poison():
    payloads = [serde.encode({"seq": 1}), b"\xff{not json"]
    with pytest.raises(serde.SerdeError):
        serde.decode_batch(payloads)


# -- Stylus windowed aggregation ------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(items=streams, batch_plan=batch_plans,
       checkpoint_every=st.integers(1, 7))
def test_windowed_batched_matches_per_message(items, batch_plan,
                                              checkpoint_every):
    _assert_matches_oracle(items=items, batch_plan=batch_plan,
                           trigger=(checkpoint_every, None),
                           policy_name="at_least_once",
                           processor_name="windowed")


# -- Puma -----------------------------------------------------------------------

PUMA_SOURCE = """
CREATE APPLICATION eq;
CREATE INPUT TABLE clicks(event_time, page, user) FROM SCRIBE("clicks")
TIME event_time;
CREATE TABLE agg AS
SELECT page, count(*) AS n FROM clicks [1 minute];
CREATE TABLE filt AS
SELECT user, page FROM clicks WHERE page = 'home';
"""

puma_records = st.fixed_dictionaries(
    {
        "page": st.sampled_from(["home", "about", "news"]),
        "user": st.sampled_from(["u1", "u2", "u3"]),
    },
    optional={
        "event_time": st.floats(min_value=0, max_value=300,
                                allow_nan=False, allow_infinity=False),
    },
)

puma_streams = st.lists(st.one_of(puma_records, st.just(POISON)),
                        min_size=1, max_size=40)


def _crashing_plan(app_plan, crash_on_call):
    """Wrap the filter table's predicate to crash once, mid-processing."""
    countdown = [crash_on_call]

    filt = app_plan.tables[1]
    inner = filt.predicate

    def crashing(row):
        countdown[0] -= 1
        if countdown[0] == 0:
            raise ProcessCrashed("puma-predicate", 0.0)
        return inner(row)

    return dataclasses.replace(
        app_plan,
        tables=(app_plan.tables[0],
                dataclasses.replace(filt, predicate=crashing)),
    )


def _run_puma(items, batch_plan, checkpoint_every, retain, app_class,
              crash_on_call=None):
    scribe = ScribeStore(clock=SimClock())
    scribe.create_category("clicks", num_buckets=1)
    for item in items:
        if item == POISON:
            scribe.write("clicks", b"\xff{not json")
        else:
            scribe.write_record("clicks", item, key=item["user"])

    app_plan = plan(parse(PUMA_SOURCE))
    if crash_on_call is not None:
        app_plan = _crashing_plan(app_plan, crash_on_call)
    hbase = HBaseTable("state")
    app = app_class(app_plan, scribe, hbase,
                    checkpoint_every_events=checkpoint_every,
                    retain_windows=retain, clock=scribe.clock)

    plan_index = 0
    while True:
        if app.crashed:
            app.restart()
        size = batch_plan[plan_index % len(batch_plan)]
        plan_index += 1
        if app.pump(size) == 0 and not app.crashed:
            break
    app.checkpoint()

    out = CategoryReader(scribe, "filt")
    emitted = [(m.bucket, m.offset, m.payload) for m in out.read_all()]
    return {
        "query": app.query("agg"),
        "hbase": sorted((key, dict(cols))
                        for key, cols in hbase.scan("", "￿")),
        "emitted": emitted,
        "events": app._events_counter.value,
        "poison": app._poison_counter.value,
        "checkpoints": app._checkpoints_counter.value,
        "out": app._out_counters["filt"].value,
    }


@settings(max_examples=40, deadline=None)
@given(items=puma_streams, batch_plan=batch_plans,
       checkpoint_every=st.integers(1, 9),
       retain=st.one_of(st.none(), st.integers(1, 3)))
def test_puma_batched_matches_per_message(items, batch_plan,
                                          checkpoint_every, retain):
    batched = _run_puma(items, batch_plan, checkpoint_every, retain, PumaApp)
    single = _run_puma(items, batch_plan, checkpoint_every, retain,
                       RowOraclePumaApp)
    assert batched == single


@settings(max_examples=25, deadline=None)
@given(items=puma_streams, batch_plan=batch_plans,
       checkpoint_every=st.integers(1, 9),
       crash_on_call=st.integers(1, 20))
def test_puma_crash_recovery_is_semantically_equivalent(
        items, batch_plan, checkpoint_every, crash_on_call):
    """A mid-processing crash lands at a coarser point on the batched
    path (table-major chunks), so byte equivalence of the at-least-once
    output stream is off the table — but after restart + drain, the
    recovered aggregate state and the *set* of delivered filter rows
    must match exactly."""
    results = [
        _run_puma(items, batch_plan, checkpoint_every, None, app_class,
                  crash_on_call=crash_on_call)
        for app_class in (PumaApp, RowOraclePumaApp)
    ]
    batched, single = results
    assert batched["query"] == single["query"]
    assert batched["hbase"] == single["hbase"]
    assert ({payload for _, _, payload in batched["emitted"]}
            == {payload for _, _, payload in single["emitted"]})


# -- Swift ----------------------------------------------------------------------


class _LoggingCheckpointStore(CheckpointStore):
    """Records every saved offset, in order."""

    def __init__(self):
        super().__init__()
        self.offset_log = []

    def save(self, consumer, category, bucket, checkpoint: Checkpoint):
        self.offset_log.append(checkpoint.offset)
        super().save(consumer, category, bucket, checkpoint)


class _Recorder:
    """Per-message Swift client; optionally crashes once after N calls."""

    def __init__(self, sink, crash_at=None):
        self.sink = sink
        self.countdown = crash_at

    def _maybe_crash(self, weight):
        if self.countdown is None:
            return
        self.countdown -= weight
        if self.countdown <= 0:
            self.countdown = None
            raise ProcessCrashed("swift-client", 0.0)

    def __call__(self, message):
        self._maybe_crash(1)
        self.sink.append((message.offset, message.payload))


class _BatchRecorder(_Recorder):
    """Batch Swift client; a crash drops the whole in-flight segment."""

    def on_batch(self, messages):
        self._maybe_crash(len(messages))
        self.sink.extend((m.offset, m.payload) for m in messages)


def _run_swift(payloads, batch_plan, every_messages, every_bytes,
               use_batch_client, crash_at=None, app_class=SwiftApp):
    scribe = ScribeStore(clock=SimClock())
    scribe.create_category("in", num_buckets=1)
    for payload in payloads:
        scribe.write("in", payload)

    checkpoints = _LoggingCheckpointStore()
    delivered = []
    client_cls = _BatchRecorder if use_batch_client else _Recorder
    client = client_cls(delivered, crash_at)
    app = app_class("app", scribe, "in", 0, client, checkpoints,
                    checkpoint_every_messages=every_messages,
                    checkpoint_every_bytes=every_bytes)

    plan_index = 0
    while True:
        if app.crashed:
            app.restart()
        size = batch_plan[plan_index % len(batch_plan)]
        plan_index += 1
        if app.pump(size) == 0 and not app.crashed:
            break
    return delivered, checkpoints


swift_payloads = st.lists(st.binary(min_size=0, max_size=30),
                          min_size=1, max_size=40)


@settings(max_examples=40, deadline=None)
@given(payloads=swift_payloads, batch_plan=batch_plans,
       every_messages=st.one_of(st.none(), st.integers(1, 9)),
       every_bytes=st.one_of(st.none(), st.integers(1, 120)),
       crash_at=st.one_of(st.none(), st.integers(1, 20)))
def test_swift_batch_client_matches_per_message(payloads, batch_plan,
                                                every_messages, every_bytes,
                                                crash_at):
    """Production delivery equals the per-message oracle: a batch client
    (crash-free) and a per-message client (crashing or not) see the same
    messages and save the same offsets, in the same order."""
    if every_messages is None and every_bytes is None:
        every_messages = 3
    oracle_seen, oracle_ckpt = _run_swift(
        payloads, batch_plan, every_messages, every_bytes,
        use_batch_client=False, crash_at=crash_at,
        app_class=PerMessageOracleSwiftApp)
    arms = [False] if crash_at is not None else [False, True]
    for use_batch_client in arms:
        seen, ckpt = _run_swift(payloads, batch_plan, every_messages,
                                every_bytes, use_batch_client, crash_at)
        assert seen == oracle_seen
        assert ckpt.offset_log == oracle_ckpt.offset_log
        assert ckpt.load("app", "in", 0) == oracle_ckpt.load("app", "in", 0)


@settings(max_examples=25, deadline=None)
@given(payloads=swift_payloads, batch_plan=batch_plans,
       every_messages=st.integers(1, 9), crash_at=st.integers(1, 20))
def test_swift_crash_recovery_is_semantically_equivalent(
        payloads, batch_plan, every_messages, crash_at):
    """A batch client loses the whole crashed segment instead of a
    suffix, so the replayed duplicates differ from the per-message
    oracle — but at-least-once delivery of everything, and the final
    checkpoint, must hold on both."""
    runs = [
        _run_swift(payloads, batch_plan, every_messages, None,
                   use_batch_client=True, crash_at=crash_at),
        _run_swift(payloads, batch_plan, every_messages, None,
                   use_batch_client=False, crash_at=crash_at,
                   app_class=PerMessageOracleSwiftApp),
    ]
    all_offsets = set(range(len(payloads)))
    finals = []
    for delivered, checkpoints in runs:
        assert {offset for offset, _ in delivered} == all_offsets
        saved = checkpoints.load("app", "in", 0)
        finals.append(saved.offset if saved is not None else None)
    assert finals[0] == finals[1]


# -- Scuba ----------------------------------------------------------------------


def _run_scuba(items, batch_plan, sample_rate, per_message=False):
    scribe = ScribeStore(clock=SimClock())
    scribe.create_category("events", num_buckets=1)
    for item in items:
        if item == POISON:
            scribe.write("events", b"\xff{not json")
        else:
            scribe.write_record("events", item, key="k")

    table = ScubaTable("t")
    metrics = MetricsRegistry()
    ingester = ScubaIngester(scribe, "events", table,
                             sample_rate=sample_rate, seed=7,
                             metrics=metrics)
    if per_message:
        # The per-message reference: RNG draw, then decode, then add, one
        # message at a time, through the ingester's own reader, RNG and
        # counters.
        def store_per_message(messages):
            stored = 0
            for message in messages:
                if (sample_rate < 1.0
                        and ingester._rng.random() >= sample_rate):
                    ingester._sampled_out_counter.increment()
                    continue
                try:
                    row = message.decode()
                except serde.SerdeError:
                    ingester._poison_counter.increment()
                    continue
                table.add(row)
                stored += 1
            return stored

        ingester._store_batched = store_per_message
    plan_index = 0
    while True:
        size = batch_plan[plan_index % len(batch_plan)]
        plan_index += 1
        if ingester.pump(size) == 0 and ingester.lag_messages() == 0:
            break
    name = ingester.name
    return {
        "times": list(table._times),
        "rows": list(table._rows),
        "rows_counter": metrics.counter(f"{name}.rows").value,
        "poison": metrics.counter(f"{name}.poison").value,
        "sampled_out": metrics.counter(f"{name}.sampled_out").value,
    }


@settings(max_examples=40, deadline=None)
@given(items=streams, batch_plan=batch_plans,
       sample_rate=st.sampled_from([1.0, 0.7, 0.3]))
def test_scuba_batched_matches_per_message(items, batch_plan, sample_rate):
    batched = _run_scuba(items, batch_plan, sample_rate)
    single = _run_scuba(items, batch_plan, sample_rate, per_message=True)
    assert batched == single


# -- incremental compaction ------------------------------------------------------

_LSM_KEYS = [f"k{i:02d}" for i in range(12)]

lsm_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(_LSM_KEYS),
                  st.integers(0, 100)),
        st.tuples(st.just("delete"), st.sampled_from(_LSM_KEYS)),
        st.tuples(st.just("merge"), st.sampled_from(_LSM_KEYS),
                  st.integers(-3, 3)),
    ),
    min_size=1, max_size=80,
)


def _apply_ops(store, ops, flush_every):
    for index, op in enumerate(ops, start=1):
        if op[0] == "put":
            store.put(op[1], op[2])
        elif op[0] == "delete":
            store.delete(op[1])
        else:
            store.merge(op[1], op[2])
        if index % flush_every == 0:
            store.flush()
    store.flush()


def _snapshot(store):
    return {
        "gets": {key: store.get(key) for key in _LSM_KEYS},
        "multi_get": store.multi_get(_LSM_KEYS),
        "scan": list(store.scan()),
    }


@settings(max_examples=40, deadline=None)
@given(ops=lsm_ops, flush_every=st.integers(1, 7),
       trigger=st.integers(2, 5), max_runs=st.integers(2, 5))
def test_compact_step_preserves_reads(ops, flush_every, trigger, max_runs):
    """Bounded steps, scheduled steps, and the full merge all resolve
    every key exactly like an uncompacted store."""
    def build(**kwargs):
        store = LsmStore(merge_operator=CounterMergeOperator(),
                         memtable_flush_bytes=1 << 30, **kwargs)
        _apply_ops(store, ops, flush_every)
        return store

    # compaction_trigger doubles as the tier fanout, so a huge trigger
    # with no flush pressure never compacts: the uncompacted baseline.
    baseline = build(compaction_trigger=10_000)
    expected = _snapshot(baseline)

    stepped = build(compaction_trigger=trigger, max_compact_runs=max_runs)
    while stepped.compact_step():
        levels = stepped.levels
        assert levels == sorted(levels, reverse=True), \
            "levels must stay non-increasing oldest-to-newest"
    assert _snapshot(stepped) == expected

    scheduled = build(compaction_trigger=trigger, max_compact_runs=max_runs)
    scheduler = Scheduler()
    scheduled.schedule_compaction(scheduler, interval=1.0)
    scheduler.run_until(200.0)
    assert _snapshot(scheduled) == expected

    full = build(compaction_trigger=trigger, max_compact_runs=max_runs)
    full.compact()
    assert full.num_sstables <= 1
    assert _snapshot(full) == expected
