"""Tests for checkpoint policies and the crash injector."""

import pytest

from repro.errors import ConfigError, ProcessCrashed
from repro.stylus.checkpointing import (
    CheckpointPolicy,
    CrashInjector,
    CrashPoint,
    NoCrashes,
)


class TestCheckpointPolicy:
    def test_requires_some_trigger(self):
        with pytest.raises(ConfigError):
            CheckpointPolicy()

    def test_event_trigger(self):
        policy = CheckpointPolicy(every_n_events=10)
        assert not policy.due(now=0.0, last_checkpoint_at=0.0, events_since=9)
        assert policy.due(now=0.0, last_checkpoint_at=0.0, events_since=10)

    def test_time_trigger(self):
        policy = CheckpointPolicy(interval_seconds=2.0)
        assert not policy.due(now=1.9, last_checkpoint_at=0.0, events_since=0)
        assert policy.due(now=2.0, last_checkpoint_at=0.0, events_since=0)

    def test_either_trigger_fires(self):
        policy = CheckpointPolicy(interval_seconds=10.0, every_n_events=5)
        assert policy.due(now=1.0, last_checkpoint_at=0.0, events_since=5)
        assert policy.due(now=11.0, last_checkpoint_at=0.0, events_since=0)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            CheckpointPolicy(interval_seconds=0.0)
        with pytest.raises(ConfigError):
            CheckpointPolicy(every_n_events=0)


class TestCrashInjector:
    def test_fires_only_at_armed_point_and_index(self):
        injector = CrashInjector()
        injector.arm(CrashPoint.AFTER_FIRST_SAVE, 3)
        injector.fire(CrashPoint.AFTER_FIRST_SAVE, 2, "t", 0.0)  # wrong index
        injector.fire(CrashPoint.BEFORE_CHECKPOINT, 3, "t", 0.0)  # wrong point
        with pytest.raises(ProcessCrashed):
            injector.fire(CrashPoint.AFTER_FIRST_SAVE, 3, "t", 1.5)
        assert injector.crashes_fired == 1

    def test_armed_crash_fires_once(self):
        injector = CrashInjector()
        injector.arm(CrashPoint.AFTER_CHECKPOINT, 1)
        with pytest.raises(ProcessCrashed):
            injector.fire(CrashPoint.AFTER_CHECKPOINT, 1, "t", 0.0)
        injector.fire(CrashPoint.AFTER_CHECKPOINT, 1, "t", 0.0)  # disarmed

    def test_crash_carries_context(self):
        injector = CrashInjector()
        injector.arm(CrashPoint.DURING_PROCESSING, 1)
        with pytest.raises(ProcessCrashed) as exc:
            injector.fire(CrashPoint.DURING_PROCESSING, 1, "scorer", 7.5)
        assert "scorer" in str(exc.value)
        assert exc.value.at_time == 7.5

    def test_no_crashes_never_fires(self):
        injector = NoCrashes()
        injector.arm(CrashPoint.AFTER_FIRST_SAVE, 1)
        injector.fire(CrashPoint.AFTER_FIRST_SAVE, 1, "t", 0.0)  # no raise

    def test_armed_count(self):
        injector = CrashInjector()
        injector.arm(CrashPoint.AFTER_FIRST_SAVE, 1)
        injector.arm(CrashPoint.AFTER_FIRST_SAVE, 2)
        assert injector.armed_count() == 2

    @pytest.mark.parametrize("point", list(CrashPoint))
    def test_armed_agrees_with_fire(self, point):
        injector = CrashInjector()
        injector.arm(point, 2)
        for other in CrashPoint:
            for index in (1, 2, 3):
                expected = (other, index) == (point, 2)
                assert injector.armed(other, index) is expected
                if expected:
                    with pytest.raises(ProcessCrashed):
                        injector.fire(other, index, "t", 0.0)
                else:
                    injector.fire(other, index, "t", 0.0)  # no raise
        # Fired once, so disarmed.
        assert not injector.armed(point, 2)

    @pytest.mark.parametrize("point", list(CrashPoint))
    def test_no_crashes_is_never_armed(self, point):
        injector = NoCrashes()
        injector.arm(point, 1)
        assert not injector.armed(point, 1)
        injector.fire(point, 1, "t", 0.0)  # no raise
