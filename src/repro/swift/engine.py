"""The Swift engine: checkpointed at-least-once delivery to a client app.

The division of labour mirrors the paper: Swift owns reading the Scribe
bucket and checkpointing the offset every N messages or B bytes; the
client (historically a Python script across a system pipe) owns all
processing. A crash before the next checkpoint means the client sees
everything since the last checkpoint again — at-least-once delivery.
"""

from __future__ import annotations

from typing import Protocol

from repro.errors import ConfigError, ProcessCrashed
from repro.scribe.checkpoints import Checkpoint, CheckpointStore
from repro.scribe.message import Message
from repro.scribe.reader import ScribeReader
from repro.scribe.store import ScribeStore


class SwiftClient(Protocol):
    """The app on the other side of the pipe: one call per message."""

    def __call__(self, message: Message) -> None: ...


class SwiftBatchClient(Protocol):
    """A batch-capable client: one call per delivery segment.

    Swift delivers segments that end exactly at its checkpoint offsets.
    A client exposing ``on_batch`` receives each segment whole; a plain
    :class:`SwiftClient` is adapted to receive it one message at a time.
    """

    def on_batch(self, messages: list[Message]) -> None: ...


class _PerMessageClient:
    """Adapts a one-call-per-message :class:`SwiftClient` to segments."""

    def __init__(self, client: SwiftClient) -> None:
        self.client = client

    def on_batch(self, messages: list[Message]) -> None:
        client = self.client
        for message in messages:
            client(message)


class SwiftApp:  # lint: effect[state=at_least_once, output=at_least_once]
    """One Swift consumer: a bucket tailer plus an offset checkpointer.

    ``checkpoint_every_messages`` / ``checkpoint_every_bytes``: whichever
    threshold is crossed first triggers an offset save (the paper's
    "every N strings or B bytes"). The offset is saved only *after* the
    client has seen every message below it, so delivery is at-least-once.
    """

    def __init__(self, name: str, scribe: ScribeStore, category: str,
                 bucket: int, client: SwiftClient,
                 checkpoints: CheckpointStore,
                 checkpoint_every_messages: int | None = 100,
                 checkpoint_every_bytes: int | None = None) -> None:
        if checkpoint_every_messages is None and checkpoint_every_bytes is None:
            raise ConfigError("need a message- or byte-based checkpoint trigger")
        self.name = name
        self.scribe = scribe
        self.category = category
        self.bucket = bucket
        self.client = client
        self.checkpoints = checkpoints
        self.every_messages = checkpoint_every_messages
        self.every_bytes = checkpoint_every_bytes
        self.crashed = False
        self._reader = ScribeReader(scribe, category, bucket)
        self._since_messages = 0
        self._since_bytes = 0
        self._resume()

    def _resume(self) -> None:
        saved = self.checkpoints.load(self.name, self.category, self.bucket)
        if saved is not None:
            self._reader.seek(saved.offset)

    # -- the consumption loop ----------------------------------------------------

    def pump(self, max_messages: int = 1000) -> int:
        """Deliver up to ``max_messages`` to the client; return count.

        Messages go to the client in segments that end exactly where a
        checkpoint threshold is crossed; the offset is saved after each
        such segment. A client exception is treated as the app crashing
        mid-stream: the torn segment counts as undelivered and its
        offset is never saved, so a restart replays from the last
        checkpoint.
        """
        if self.crashed:
            return 0
        # Resolved per pump, not at construction: callers may swap
        # ``client`` between pumps (e.g. a replacement after a crash).
        on_batch = getattr(self.client, "on_batch", None)
        if on_batch is None:
            on_batch = _PerMessageClient(self.client).on_batch
        delivered = 0
        while delivered < max_messages:
            batch = self._reader.read_batch(
                min(1000, max_messages - delivered)
            )
            if not batch:
                break
            start = 0
            while start < len(batch):
                end = self._segment_end(batch, start)
                segment = batch[start:end]
                try:
                    on_batch(segment)  # lint: effect[publish]
                except ProcessCrashed:
                    self.crashed = True
                    return delivered
                delivered += end - start
                self._since_messages += end - start
                if self.every_bytes is not None:
                    self._since_bytes += sum(m.size for m in segment)
                if self._checkpoint_due():
                    self._save_checkpoint(segment[-1].offset + 1)
                start = end
        return delivered

    def _segment_end(self, batch: list[Message], start: int) -> int:
        """End of the segment at ``batch[start]``: just past the message
        crossing a checkpoint threshold, or the batch end. Arithmetic for
        a message trigger alone; a byte trigger walks message sizes."""
        since_messages = self._since_messages
        every_messages = self.every_messages
        if self.every_bytes is None:
            return min(len(batch),
                       start + max(1, every_messages - since_messages))
        since_bytes = self._since_bytes
        for index in range(start, len(batch)):
            since_messages += 1
            since_bytes += batch[index].size
            if ((every_messages is not None
                 and since_messages >= every_messages)
                    or since_bytes >= self.every_bytes):
                return index + 1
        return len(batch)

    def _checkpoint_due(self) -> bool:
        if (self.every_messages is not None
                and self._since_messages >= self.every_messages):
            return True
        if (self.every_bytes is not None
                and self._since_bytes >= self.every_bytes):
            return True
        return False

    def _save_checkpoint(self, offset: int) -> None:
        self.checkpoints.save(
            self.name, self.category, self.bucket,
            Checkpoint(offset=offset, saved_at=self.scribe.clock.now()),
        )
        self._since_messages = 0
        self._since_bytes = 0

    # -- failure handling ---------------------------------------------------------

    def restart(self) -> None:
        """Restart the app from the latest checkpoint (at-least-once)."""
        self.crashed = False
        self._since_messages = 0
        self._since_bytes = 0
        saved = self.checkpoints.load(self.name, self.category, self.bucket)
        if saved is not None:
            self._reader.seek(saved.offset)
        else:
            # Offset 0 may already be trimmed by retention; an absolute
            # seek there would overstate lag until the first read skips
            # forward. Resume from the first retained offset instead.
            self._reader.seek_to_start()

    def lag_messages(self) -> int:
        return self._reader.lag_messages()

    @property
    def position(self) -> int:
        return self._reader.position
