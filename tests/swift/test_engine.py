"""Tests for the Swift engine: checkpoints and at-least-once replay."""

import pytest

from repro.errors import ConfigError
from repro.scribe.checkpoints import CheckpointStore
from repro.swift.engine import SwiftApp

from tests.conftest import write_events
from tests.swift.helpers import crash_after


@pytest.fixture
def wired(scribe):
    scribe.create_category("in", 1)
    return scribe


def make_app(scribe, client, **kwargs):
    kwargs.setdefault("checkpoint_every_messages", 10)
    return SwiftApp("app", scribe, "in", 0, client,
                    CheckpointStore(), **kwargs)


class TestDelivery:
    def test_delivers_everything_in_order(self, wired):
        seen = []
        app = make_app(wired, lambda m: seen.append(m.decode()["seq"]))
        write_events(wired, "in", 25)
        assert app.pump() == 25
        assert seen == list(range(25))

    def test_checkpoint_every_n_messages(self, wired):
        checkpoints = CheckpointStore()
        app = SwiftApp("app", wired, "in", 0, lambda m: None, checkpoints,
                       checkpoint_every_messages=10)
        write_events(wired, "in", 25)
        app.pump()
        saved = checkpoints.load("app", "in", 0)
        assert saved.offset == 20  # checkpoints at 10 and 20

    def test_checkpoint_every_b_bytes(self, wired):
        checkpoints = CheckpointStore()
        app = SwiftApp("app", wired, "in", 0, lambda m: None, checkpoints,
                       checkpoint_every_messages=None,
                       checkpoint_every_bytes=100)
        write_events(wired, "in", 20)
        app.pump()
        assert checkpoints.load("app", "in", 0) is not None

    def test_requires_a_trigger(self, wired):
        with pytest.raises(ConfigError):
            make_app(wired, lambda m: None, checkpoint_every_messages=None,
                     checkpoint_every_bytes=None)


class TestAtLeastOnceReplay:
    def test_crash_replays_from_last_checkpoint(self, wired):
        seen = []
        client = crash_after(25, lambda m: seen.append(m.decode()["seq"]),
                             wired)
        app = make_app(wired, client)
        write_events(wired, "in", 40)
        app.pump()
        assert app.crashed
        # 25 delivered; last checkpoint at 20 -> replay 20..39
        replay = []
        app.client = lambda m: replay.append(m.decode()["seq"])
        app.restart()
        app.pump()
        assert replay[0] == 20
        assert seen + replay == list(range(25)) + list(range(20, 40))

    def test_mid_segment_crash_counts_only_whole_segments(self, wired):
        """A per-message client that crashes inside a segment has seen
        the segment's prefix, but ``pump`` counts only the segments
        that completed; the torn one's offset is never saved."""
        checkpoints = CheckpointStore()
        seen = []
        client = crash_after(25, lambda m: seen.append(m.decode()["seq"]),
                             wired)
        app = SwiftApp("app", wired, "in", 0, client, checkpoints,
                       checkpoint_every_messages=10)
        write_events(wired, "in", 40)
        assert app.pump() == 20
        assert app.crashed
        assert seen == list(range(25))
        assert checkpoints.load("app", "in", 0).offset == 20

    def test_every_message_seen_at_least_once(self, wired):
        """The Swift guarantee: union of deliveries covers the stream."""
        seen = []
        client = crash_after(13, lambda m: seen.append(m.decode()["seq"]),
                             wired)
        app = make_app(wired, client, checkpoint_every_messages=5)
        write_events(wired, "in", 30)
        app.pump()
        app.client = lambda m: seen.append(m.decode()["seq"])
        app.restart()
        app.pump()
        assert set(seen) == set(range(30))
        assert len(seen) >= 30  # duplicates allowed, loss is not

    def test_crashed_app_pumps_nothing(self, wired):
        app = make_app(wired, crash_after(0, lambda m: None, wired))
        write_events(wired, "in", 5)
        app.pump()
        assert app.crashed
        assert app.pump() == 0

    def test_resume_picks_up_existing_checkpoint(self, wired):
        checkpoints = CheckpointStore()
        first = SwiftApp("app", wired, "in", 0, lambda m: None, checkpoints,
                         checkpoint_every_messages=10)
        write_events(wired, "in", 20)
        first.pump()
        # A new instance of the same app resumes from the checkpoint.
        seen = []
        second = SwiftApp("app", wired, "in", 0,
                          lambda m: seen.append(m.decode()["event_time"]),
                          checkpoints, checkpoint_every_messages=10)
        write_events(wired, "in", 5, start_time=100.0)
        second.pump()
        assert seen == [100.0, 101.0, 102.0, 103.0, 104.0]  # not the backlog

    def test_lag_reporting(self, wired):
        app = make_app(wired, lambda m: None)
        write_events(wired, "in", 7)
        assert app.lag_messages() == 7
        app.pump()
        assert app.lag_messages() == 0


class TestRestartAfterRetention:
    def test_restart_without_checkpoint_resumes_at_first_retained(
            self, scribe, clock):
        scribe.create_category("in", 1, retention_seconds=10.0)
        app = make_app(scribe, lambda m: None)
        write_events(scribe, "in", 5)
        # Everything written so far ages out of the retention window.
        clock.advance(100.0)
        assert scribe.run_retention() == 5
        first = scribe.first_retained_offset("in", 0)
        assert first == 5
        # No checkpoint was ever saved; a restart must not rewind to the
        # absolute offset 0, which no longer exists.
        app.restart()
        assert app.position == first
        assert app.lag_messages() == 0

    def test_restart_interleaved_with_retention_counts_lag_correctly(
            self, scribe, clock):
        scribe.create_category("in", 1, retention_seconds=10.0)
        app = make_app(scribe, lambda m: None)
        write_events(scribe, "in", 8)
        clock.advance(100.0)
        scribe.run_retention()
        write_events(scribe, "in", 3, start_time=clock.now())
        app.restart()
        # Only the 3 retained messages are pending; seeking to 0 would
        # report a lag of 11 and trip lag-based alerting/autoscaling.
        assert app.lag_messages() == 3
        assert app.pump() == 3
