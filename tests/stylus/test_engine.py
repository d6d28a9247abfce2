"""Tests for the Stylus task/job engine: processing, output, watermarks."""

from types import SimpleNamespace

import pytest

from repro.core.semantics import SemanticsPolicy
from repro.runtime import clock as clock_module
from repro.runtime.clock import WallClock
from repro.scribe.reader import CategoryReader
from repro.stylus.checkpointing import CheckpointPolicy
from repro.stylus.engine import StylusJob, StylusTask
from repro.stylus.state import InMemoryStateBackend

from tests.conftest import write_events
from tests.stylus.helpers import CountingProcessor, DimensionCounter, DropEvens, EchoProcessor


@pytest.fixture
def wired(scribe):
    scribe.create_category("in", 1)
    scribe.create_category("out", 1)
    return scribe


def make_task(scribe, processor, **kwargs):
    kwargs.setdefault("checkpoint_policy", CheckpointPolicy(every_n_events=10))
    kwargs.setdefault("output_category", "out")
    return StylusTask("t", scribe, "in", 0, processor,
                      clock=scribe.clock, **kwargs)


class TestStatelessProcessing:
    def test_filter_drops_events(self, wired):
        write_events(wired, "in", 10)
        task = make_task(wired, DropEvens())
        assert task.pump() == 10
        out = CategoryReader(wired, "out").read_all()
        assert [m.decode()["seq"] for m in out] == [1, 3, 5, 7, 9]

    def test_pump_on_empty_input_is_zero(self, wired):
        task = make_task(wired, DropEvens())
        assert task.pump() == 0

    def test_pump_respects_max_messages(self, wired):
        write_events(wired, "in", 50)
        task = make_task(wired, EchoProcessor())
        assert task.pump(max_messages=20) == 20
        assert task.lag_messages() == 30


class TestStatefulProcessing:
    def test_counter_accumulates(self, wired):
        write_events(wired, "in", 25)
        task = make_task(wired, CountingProcessor())
        task.pump()
        assert task.state == {"count": 25}

    def test_periodic_output_at_checkpoints(self, wired):
        write_events(wired, "in", 25)
        task = make_task(wired, CountingProcessor())
        task.pump()
        counts = [m.decode()["count"]
                  for m in CategoryReader(wired, "out").read_all()]
        assert counts == [10, 20]  # two checkpoints at 10-event intervals


class TestMonoidProcessing:
    def test_partials_accumulate_in_memory(self, wired):
        write_events(wired, "in", 10)
        task = make_task(wired, DimensionCounter(),
                         checkpoint_policy=CheckpointPolicy(
                             every_n_events=1000))
        task.pump()
        assert task.partials["dim0"]["count"] == 1
        assert len(task.partials) == 10

    def test_checkpoint_flushes_partials_to_backend(self, wired):
        write_events(wired, "in", 20)
        task = make_task(wired, DimensionCounter(),
                         checkpoint_policy=CheckpointPolicy(every_n_events=5))
        task.pump()
        assert task.partials == {}  # flushed
        assert task.state_backend.read_value("dim0")["count"] == 2


class TestCheckpointPolicy:
    def test_event_count_trigger(self, wired):
        write_events(wired, "in", 30)
        task = make_task(wired, CountingProcessor(),
                         checkpoint_policy=CheckpointPolicy(every_n_events=7))
        task.pump()
        assert task.metrics.counter("stylus.t.checkpoints").value == 4

    def test_time_trigger(self, wired):
        task = make_task(wired, CountingProcessor(),
                         checkpoint_policy=CheckpointPolicy(
                             interval_seconds=5.0))
        write_events(wired, "in", 3)
        task.pump()
        assert task.metrics.counter("stylus.t.checkpoints").value == 0
        wired.clock.advance(6.0)
        write_events(wired, "in", 1, start_time=100.0)
        task.pump()
        assert task.metrics.counter("stylus.t.checkpoints").value == 1

    def test_wall_clock_time_trigger_lands_at_chunk_end(self, wired,
                                                          monkeypatch):
        """Wall time moving mid-chunk defers a due time-triggered
        checkpoint to the end of that chunk (one read batch, here), no
        later."""
        wall = [0.0]
        monkeypatch.setattr(clock_module, "time",
                            SimpleNamespace(monotonic=lambda: wall[0]))

        class SlowCounter(CountingProcessor):
            def process(self, event, state):
                wall[0] += 1.0  # one wall second per event
                return super().process(event, state)

        saved = []

        class LoggingBackend(InMemoryStateBackend):
            def save_offset(self, offset):
                saved.append(offset)
                super().save_offset(offset)

        task = StylusTask("t", wired, "in", 0, SlowCounter(),
                          state_backend=LoggingBackend("t"),
                          checkpoint_policy=CheckpointPolicy(
                              interval_seconds=2.5),
                          clock=WallClock())
        write_events(wired, "in", 10)
        task.pump()
        # Due after the third event, taken at the chunk's end.
        assert saved == [10]
        write_events(wired, "in", 150, start_time=10.0)
        task.pump()
        # Read batches hold at most 100 messages: chunks end at 110, 160.
        assert saved == [10, 110, 160]

    def test_checkpoint_now_forces(self, wired):
        write_events(wired, "in", 3)
        task = make_task(wired, CountingProcessor())
        task.pump()
        task.checkpoint_now()
        state, offset = task.state_backend.load()
        assert state == {"count": 3}
        assert offset == 3


class TestWatermarks:
    def test_task_watermark_tracks_event_times(self, wired):
        for i in range(100):
            wired.write_record("in", {"event_time": float(i), "seq": i})
        task = make_task(wired, EchoProcessor())
        task.pump()
        mark = task.low_watermark(0.9)
        assert mark is not None
        assert mark <= 99.0

    def test_job_watermark_is_min_over_tasks(self, scribe):
        scribe.create_category("multi", 2)
        scribe.create_category("out", 1)
        scribe.write_record("multi", {"event_time": 5.0, "seq": 0}, bucket=0)
        scribe.write_record("multi", {"event_time": 50.0, "seq": 1}, bucket=1)
        job = StylusJob.create("j", scribe, "multi", EchoProcessor,
                               output_category="out", clock=scribe.clock)
        job.pump()
        assert job.low_watermark(0.99) == 5.0


class TestStylusJob:
    def test_one_task_per_bucket(self, scribe):
        scribe.create_category("multi", 4)
        scribe.create_category("out", 1)
        job = StylusJob.create("j", scribe, "multi", CountingProcessor,
                               output_category="out", clock=scribe.clock)
        assert len(job.tasks) == 4
        write_events(scribe, "multi", 40)
        assert job.pump() == 40
        total = sum(task.state["count"] for task in job.tasks)
        assert total == 40

    def test_job_lag(self, scribe):
        scribe.create_category("multi", 2)
        scribe.create_category("out", 1)
        job = StylusJob.create("j", scribe, "multi", EchoProcessor,
                               output_category="out", clock=scribe.clock)
        write_events(scribe, "multi", 10)
        assert job.lag_messages() == 10
        job.pump()
        assert job.lag_messages() == 0


class TestPoisonMessages:
    def test_undecodable_message_skipped_and_counted(self, wired):
        write_events(wired, "in", 3)
        wired.write("in", b"\xff\xfegarbage", bucket=0)
        wired.write("in", b'{"no_event_time": true}', bucket=0)
        write_events(wired, "in", 3, start_time=50.0)
        task = make_task(wired, CountingProcessor())
        assert task.pump() == 8
        assert task.state == {"count": 6}
        assert task.metrics.counter("stylus.t.poison").value == 2

    def test_poison_messages_advance_the_checkpoint_offset(self, wired):
        """A skipped message must not be replayed forever."""
        wired.write("in", b"\xff\xfegarbage", bucket=0)
        task = make_task(wired, CountingProcessor(),
                         checkpoint_policy=CheckpointPolicy(every_n_events=1))
        task.pump()
        _, offset = task.state_backend.load()
        assert offset == 1
