"""Checkpoint policy and deterministic crash injection.

The semantics differences of Figure 7 only become visible when a failure
lands at a specific point in the checkpoint procedure (e.g. after the
state write but before the offset write). :class:`CrashInjector` lets an
experiment arm a crash at a named :class:`CrashPoint` of a specific
checkpoint, deterministically; property tests arm random points and
check the semantics invariants always hold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError, ProcessCrashed


class CrashPoint(enum.Enum):
    """Named vulnerable points in the processing/checkpoint cycle."""

    BEFORE_CHECKPOINT = "before_checkpoint"
    AFTER_FIRST_SAVE = "after_first_save"    # between the two-phase writes
    AFTER_CHECKPOINT = "after_checkpoint"    # saved, output not yet emitted
    AFTER_EMIT = "after_emit"                 # everything done for this cycle
    DURING_PROCESSING = "during_processing"   # mid-batch, no checkpoint near


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to checkpoint: every N seconds, every N events, or both.

    Whichever trigger fires first wins (both reset after a checkpoint).
    """

    interval_seconds: float | None = None
    every_n_events: int | None = None

    def __post_init__(self) -> None:
        if self.interval_seconds is None and self.every_n_events is None:
            raise ConfigError("checkpoint policy needs a time or event trigger")
        if self.interval_seconds is not None and self.interval_seconds <= 0:
            raise ConfigError("interval_seconds must be positive")
        if self.every_n_events is not None and self.every_n_events < 1:
            raise ConfigError("every_n_events must be >= 1")

    def due(self, now: float, last_checkpoint_at: float,
            events_since: int) -> bool:
        if (self.every_n_events is not None
                and events_since >= self.every_n_events):
            return True
        if (self.interval_seconds is not None
                and now - last_checkpoint_at >= self.interval_seconds):
            return True
        return False


class CrashInjector:
    """Arms crashes at (crash point, checkpoint index) pairs.

    The engine calls :meth:`fire` at each vulnerable point; if a crash is
    armed there for the current checkpoint index, :class:`ProcessCrashed`
    is raised — which the engine treats as the process dying on the spot.
    """

    def __init__(self) -> None:
        self._armed: dict[tuple[CrashPoint, int], bool] = {}
        self.crashes_fired = 0

    def arm(self, point: CrashPoint, checkpoint_index: int) -> None:
        self._armed[(point, checkpoint_index)] = True

    def fire(self, point: CrashPoint, checkpoint_index: int,
             task_name: str, now: float) -> None:
        if self._armed.pop((point, checkpoint_index), None):
            self.crashes_fired += 1
            raise ProcessCrashed(f"{task_name} ({point.value})", now)

    def armed(self, point: CrashPoint, checkpoint_index: int) -> bool:
        """Whether :meth:`fire` would raise at this point right now."""
        return (point, checkpoint_index) in self._armed

    def armed_count(self) -> int:
        return len(self._armed)


class NoCrashes(CrashInjector):
    """An injector that never fires (the default); arming it is a no-op."""

    def arm(self, point: CrashPoint, checkpoint_index: int) -> None:
        return None
