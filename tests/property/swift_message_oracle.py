"""The message-at-a-time Swift delivery loop, kept as a test oracle.

:class:`PerMessageOracleSwiftApp` is a :class:`~repro.swift.engine.SwiftApp`
whose ``pump`` hands the client one message per call and checks both
checkpoint thresholds after every message. It always calls the client
itself (never ``on_batch``), so it is the reference for any client
style. Reading, checkpoint saving and restart are the production code,
so any difference the property suites find is in the delivery loop.
"""

from repro.errors import ProcessCrashed
from repro.scribe.message import Message
from repro.swift.engine import SwiftApp


class PerMessageOracleSwiftApp(SwiftApp):
    """SwiftApp delivering and checkpointing one message at a time."""

    def pump(self, max_messages: int = 1000) -> int:
        if self.crashed:
            return 0
        delivered = 0
        while delivered < max_messages:
            batch = self._reader.read_batch(
                min(1000, max_messages - delivered)
            )
            if not batch:
                break
            delivered += self._deliver_per_message(batch)
            if self.crashed:
                break
        return delivered

    def _deliver_per_message(self, batch: list[Message]) -> int:
        delivered = 0
        client = self.client
        for message in batch:
            try:
                client(message)
            except ProcessCrashed:
                self.crashed = True
                return delivered
            delivered += 1
            self._since_messages += 1
            self._since_bytes += message.size
            if self._checkpoint_due():
                self._save_checkpoint(message.offset + 1)
        return delivered
