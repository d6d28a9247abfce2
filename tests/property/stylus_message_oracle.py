"""The message-at-a-time Stylus loop, kept as a test oracle.

:class:`MessageOracleStylusTask` is a :class:`~repro.stylus.engine.StylusTask`
whose ``_pump`` walks each Scribe batch one message at a time: it charges
the receive, decodes the message on its own, observes its event time,
runs the processor on that one event, fires the ``DURING_PROCESSING``
kill point and asks the checkpoint policy after every message. The
buffered drain decodes and processes its buffer the same way.
Checkpointing, routing, recovery and cost accounting are the production
code, so any difference the property suites find is in the processing
loop alone.
"""

from repro.core.event import Event
from repro.errors import ProcessingError
from repro.scribe.message import Message
from repro.serde import SerdeError
from repro.stylus.checkpointing import CrashPoint
from repro.stylus.engine import Strategy, StylusTask
from repro.stylus.processor import (
    Output,
    StatefulProcessor,
    StatelessProcessor,
)


class MessageOracleStylusTask(StylusTask):
    """StylusTask processing one message, one event at a time."""

    def _pump(self, max_messages: int) -> int:
        processed = 0
        while processed < max_messages:
            batch = self._reader.read_batch(
                min(100, max_messages - processed),
                max_bytes=self.max_batch_bytes,
            )
            if not batch:
                break
            for message in batch:
                self._charge_receive(message)
                if self.strategy == Strategy.BUFFERED:
                    self._raw_buffer.append(message)
                else:
                    self._handle_message(message)
                self._next_offset = message.offset + 1
                self._events_since_checkpoint += 1
                processed += 1
                self.injector.fire(CrashPoint.DURING_PROCESSING,
                                   self._checkpoint_index + 1,
                                   self.name, self._now())
                if self.checkpoint_policy.due(
                        self._now(), self._last_checkpoint_at,
                        self._events_since_checkpoint):
                    self._checkpoint()
        self._lag_gauge.set(self.lag_messages())
        return processed

    def _handle_message(self, message: Message) -> None:
        try:
            event = self._decode(message)
        except (SerdeError, ProcessingError):
            # A poison message must not wedge the consumer: count it,
            # skip it, keep draining (hundreds of pipelines cannot page
            # a human for every malformed log line).
            self._poison_counter.increment()
            return
        outputs = self._process_event(event)
        self._route(outputs)

    def _decode(self, message: Message) -> Event:
        self._charge_cpu(self.cost_model.deserialize_per_event
                         if self.cost_model else 0.0)
        event = Event.from_message(message, self.time_field)
        self.watermarks.observe(event.event_time)
        self._events_counter.increment()
        self._bytes_counter.increment(message.size)
        return event

    def _process_event(self, event: Event) -> list[Output]:
        self._charge_cpu(self.cost_model.process_per_event
                         if self.cost_model else 0.0)
        if isinstance(self.processor, StatelessProcessor):
            return self.processor.process(event)
        if isinstance(self.processor, StatefulProcessor):
            return self.processor.process(event, self._state)
        operator = self.processor.merge_operator()
        for key, delta in self.processor.extract(event):
            base = self._partials.get(key)
            self._partials[key] = (delta if base is None
                                   else operator.merge(base, delta))
        return []

    def _drain_buffer_for_checkpoint(self) -> None:
        buffered, self._raw_buffer = self._raw_buffer, []
        if self.timeline is not None:
            # The burst cannot start before receiving finished.
            self.timeline.barrier("receive", "cpu")
        for message in buffered:
            self._handle_message(message)

    def _charge_receive(self, message: Message) -> None:
        if self.cost_model is None:
            return
        self.timeline.charge("receive", self.cost_model.receive_per_event)
