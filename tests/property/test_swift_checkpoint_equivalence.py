"""Property: Swift's segment delivery checkpoints exactly like the
per-message oracle, including under crashes at every segment boundary.

Segment delivery exists purely to cut per-message call overhead; it must
be observationally equivalent where it matters for correctness — the
sequence of checkpoint offsets it saves. We derive the segment
boundaries from a crash-free run of the per-message oracle
(``PerMessageOracleSwiftApp``, which also makes the byte-threshold
configs self-calibrating), then crash the oracle and production — with
a batch client and with a per-message client behind its adapter — at
each boundary and compare every offset any of them ever saved.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import ProcessCrashed
from repro.runtime.clock import SimClock
from repro.scribe.checkpoints import CheckpointStore
from repro.scribe.store import ScribeStore
from repro.swift.engine import SwiftApp

from tests.conftest import write_events
from tests.property.swift_message_oracle import PerMessageOracleSwiftApp


class RecordingCheckpoints(CheckpointStore):
    """A checkpoint store that also records every offset ever saved."""

    def __init__(self):
        super().__init__()
        self.offsets = []

    def save(self, consumer, category, bucket, checkpoint):
        self.offsets.append(checkpoint.offset)
        super().save(consumer, category, bucket, checkpoint)


class PerMessageClient:
    def __init__(self, clock, crash_at=None):
        self.clock = clock
        self.seen = []
        self.crash_at = crash_at  # crash once, after this many deliveries

    def __call__(self, message):
        if self.crash_at is not None and len(self.seen) >= self.crash_at:
            self.crash_at = None
            raise ProcessCrashed("swift-client", self.clock.now())
        self.seen.append(message.decode()["seq"])


class BatchClient:
    """Same crash schedule, expressed at segment granularity: the call
    that would carry delivery past ``crash_at`` fails whole."""

    def __init__(self, clock, crash_at=None):
        self.clock = clock
        self.seen = []
        self.crash_at = crash_at

    def on_batch(self, messages):
        if (self.crash_at is not None
                and len(self.seen) + len(messages) > self.crash_at):
            self.crash_at = None
            raise ProcessCrashed("swift-client", self.clock.now())
        self.seen.extend(m.decode()["seq"] for m in messages)


#: The ways to run one stream: label -> (app class, client class).
ARMS = {
    "oracle": (PerMessageOracleSwiftApp, PerMessageClient),
    "per_message": (SwiftApp, PerMessageClient),
    "batched": (SwiftApp, BatchClient),
}


def run(total, every_messages, every_bytes, arm, crash_at=None):
    clock = SimClock()
    scribe = ScribeStore(clock=clock)
    scribe.create_category("in", 1)
    write_events(scribe, "in", total)
    checkpoints = RecordingCheckpoints()
    app_class, client_class = ARMS[arm]
    client = client_class(clock, crash_at)
    app = app_class("app", scribe, "in", 0, client, checkpoints,
                    checkpoint_every_messages=every_messages,
                    checkpoint_every_bytes=every_bytes)
    app.pump(10_000)
    crashed = app.crashed
    if crashed:
        app.restart()
        app.pump(10_000)
    assert not app.crashed and app.lag_messages() == 0
    return checkpoints.offsets, client.seen, crashed


@settings(max_examples=20, deadline=None)
@given(total=st.integers(10, 40),
       every_messages=st.integers(1, 12),
       every_bytes=st.one_of(st.none(), st.integers(30, 500)))
def test_batched_path_checkpoints_identically_under_boundary_crashes(
        total, every_messages, every_bytes):
    reference, seen, _ = run(total, every_messages, every_bytes, "oracle")
    assert sorted(seen) == list(range(total))

    # Crash-free equivalence first.
    for arm in ("per_message", "batched"):
        offsets, seen, _ = run(total, every_messages, every_bytes, arm)
        assert offsets == reference
        assert sorted(seen) == list(range(total))

    # Then a crash at every segment boundary the reference run revealed
    # (offsets are absolute; bucket history starts at 0, so the offset IS
    # the delivered-message count at that checkpoint).
    for boundary in reference:
        if boundary >= total:
            continue  # no delivery follows the final checkpoint
        results = {}
        for arm in ARMS:
            offsets, seen, crashed = run(total, every_messages, every_bytes,
                                         arm, crash_at=boundary)
            assert crashed
            # At-least-once: after restart + drain, everything was seen.
            assert sorted(set(seen)) == list(range(total))
            results[arm] = offsets
        assert results["oracle"] == results["per_message"] \
            == results["batched"], (
            f"checkpoint sequences diverged for crash at {boundary}")


@settings(max_examples=10, deadline=None)
@given(total=st.integers(10, 30), every_messages=st.integers(2, 8),
       offset_in_segment=st.integers(1, 7))
def test_mid_segment_crashes_never_diverge_saved_offsets(
        total, every_messages, offset_in_segment):
    """A crash strictly inside a segment delivers the torn segment's
    prefix to a per-message client and none of it to a batch client —
    but no arm saves a checkpoint for the torn segment, so the offset
    logs still match, and a per-message client sees exactly what the
    oracle shows it."""
    crash_at = min(every_messages * 2 - 1,
                   every_messages + (offset_in_segment % every_messages))
    reference, oracle_seen, _ = run(total, every_messages, None, "oracle",
                                    crash_at=crash_at)
    offsets, seen, _ = run(total, every_messages, None, "per_message",
                           crash_at=crash_at)
    assert offsets == reference
    assert seen == oracle_seen
    offsets, batch_seen, _ = run(total, every_messages, None, "batched",
                                 crash_at=crash_at)
    assert offsets == reference
    assert (sorted(set(oracle_seen)) == sorted(set(batch_seen))
            == list(range(total)))
