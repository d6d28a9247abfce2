"""The Stylus execution engine.

A :class:`StylusTask` consumes one Scribe bucket with one processor and
one semantics policy. The checkpoint procedure implements Section 4.3.1
literally — the *order* of the state/offset/output saves is what defines
the semantics:

- at-least-once state: save state, then offset;
- at-most-once state: save offset, then state;
- exactly-once: save both (plus pending output) atomically;
- at-least-once output: emit while processing (before the checkpoint);
- at-most-once output: hold output, checkpoint, then emit;
- exactly-once output: output rides in the checkpoint transaction.

Crashes can be injected at every vulnerable point
(:class:`~repro.stylus.checkpointing.CrashInjector`), which is how the
Figure 7 experiment and the semantics property tests exercise failures.

Tasks optionally account their work against a
:class:`~repro.core.costs.CostModel` on a
:class:`~repro.core.costs.ResourceTimeline`, in one of two execution
strategies:

- ``overlapped`` — the Stylus way: side-effect-free work (deserialization)
  proceeds concurrently with receiving and with checkpoint waits;
- ``buffered`` — the Swift-implementation way of Figure 9: buffer raw
  input between checkpoints, then deserialize/process/emit in a burst.

Both strategies produce identical *results*; they differ only in the
modeled timeline — which is exactly the paper's point.
"""

from __future__ import annotations

import enum
from typing import Any

from repro import serde
from repro.core.costs import CostModel, ResourceTimeline
from repro.core.event import Event
from repro.core.semantics import SemanticsPolicy, StateSemantics
from repro.core.watermark import WatermarkEstimator
from repro.errors import CheckpointError, ProcessCrashed, ProcessingError
from repro.runtime.clock import Clock, WallClock
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.retry import RETRYABLE, Retrier, RetryPolicy
from repro.scribe.message import Message
from repro.scribe.reader import ScribeReader
from repro.scribe.store import ScribeStore
from repro.scribe.writer import ScribeWriter
from repro.stylus.checkpointing import (
    CheckpointPolicy,
    CrashInjector,
    CrashPoint,
    NoCrashes,
)
from repro.stylus.processor import (
    MonoidProcessor,
    Output,
    StatefulProcessor,
    StatelessProcessor,
)
from repro.stylus.state import InMemoryStateBackend, StateBackend

Processor = StatelessProcessor | StatefulProcessor | MonoidProcessor


class Strategy(enum.Enum):
    """Execution strategy for cost accounting (see module docstring)."""

    OVERLAPPED = "overlapped"
    BUFFERED = "buffered"


class StylusTask:
    """One processor instance bound to one input bucket."""

    def __init__(self, name: str, scribe: ScribeStore, input_category: str,
                 bucket: int, processor: Processor,
                 semantics: SemanticsPolicy | None = None,
                 state_backend: StateBackend | None = None,
                 checkpoint_policy: CheckpointPolicy | None = None,
                 output_category: str | None = None,
                 clock: Clock | None = None,
                 crash_injector: CrashInjector | None = None,
                 time_field: str = "event_time",
                 cost_model: CostModel | None = None,
                 strategy: Strategy = Strategy.OVERLAPPED,
                 metrics: MetricsRegistry | None = None,
                 max_batch_bytes: int | None = None,
                 retry_policy: RetryPolicy | None = None) -> None:
        self.name = name
        self.scribe = scribe
        self.processor = processor
        self.semantics = semantics or SemanticsPolicy.at_least_once()
        self.state_backend = state_backend or InMemoryStateBackend(name)
        self.checkpoint_policy = checkpoint_policy or CheckpointPolicy(
            every_n_events=100
        )
        self.clock = clock if clock is not None else WallClock()
        self.injector = crash_injector or NoCrashes()
        self.time_field = time_field
        self.cost_model = cost_model
        self.strategy = strategy
        self.timeline = ResourceTimeline() if cost_model else None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.watermarks = WatermarkEstimator()
        self.max_batch_bytes = max_batch_bytes

        # Metric handles resolved once: the registry returns the same
        # object for a name forever, so re-resolving through its dicts
        # (plus an f-string) on every event is pure per-event tax.
        registry = self.metrics
        self._events_counter = registry.counter(f"stylus.{name}.events")
        self._bytes_counter = registry.counter(f"stylus.{name}.bytes")
        self._poison_counter = registry.counter(f"stylus.{name}.poison")
        self._outputs_counter = registry.counter(f"stylus.{name}.outputs")
        self._checkpoints_counter = registry.counter(
            f"stylus.{name}.checkpoints")
        self._crashes_counter = registry.counter(f"stylus.{name}.crashes")
        self._lag_gauge = registry.gauge(f"stylus.{name}.lag")
        self._deferred_counter = registry.counter(
            f"stylus.{name}.checkpoints_deferred")
        self._dropped_counter = registry.counter(
            f"stylus.{name}.partials_dropped")
        # State saves go through a retrier; backoff charges the sim clock.
        # A second no-retry retrier (same scope, same counters) covers the
        # one save that must not be re-driven after a partial failure.
        policy = retry_policy if retry_policy is not None \
            else RetryPolicy.no_retries()
        scope = f"stylus.{name}.state"
        self._retrier = Retrier(policy, clock=self.clock,
                                metrics=registry, scope=scope)
        self._once = Retrier(RetryPolicy.no_retries(), clock=self.clock,
                             metrics=registry, scope=scope)

        self._reader = ScribeReader(scribe, input_category, bucket)
        self._writer = (ScribeWriter(scribe, output_category)
                        if output_category else None)

        if isinstance(processor, StatefulProcessor):
            self._state: Any = processor.initial_state()
        else:
            self._state = None
        self._partials: dict[str, Any] = {}
        self._pending_output: list[Output] = []
        self._raw_buffer: list[Message] = []
        self._events_since_checkpoint = 0
        self._last_checkpoint_at = self._now()
        self._checkpoint_index = 0
        self.crashed = False
        self._start_offset = self._reader.position
        # The offset just past the last message consumed by the processor.
        # This — not the reader's batch position, which runs ahead — is
        # what checkpoints record, so a crash mid-batch replays correctly.
        self._next_offset = self._reader.position

    # -- time --------------------------------------------------------------

    def _now(self) -> float:
        """Checkpoint-relevant time: modeled when a cost model is attached."""
        if self.timeline is not None:
            return self.timeline.elapsed()
        return self.clock.now()

    # -- public surface ------------------------------------------------------

    @property
    def state(self) -> Any:
        """The live in-memory state (stateful processors)."""
        return self._state

    @property
    def partials(self) -> dict[str, Any]:
        """The live in-memory partial states (monoid processors)."""
        return self._partials

    @property
    def position(self) -> int:
        return self._reader.position

    def lag_messages(self) -> int:
        return self._reader.lag_messages()

    def low_watermark(self, confidence: float = 0.99) -> float | None:
        """Stylus's event-time low-watermark estimate (Section 2.4)."""
        return self.watermarks.low_watermark(confidence)

    def pump(self, max_messages: int = 1000) -> int:
        """Process up to ``max_messages`` pending inputs; return count.

        An injected crash stops the task mid-cycle; it stays down until
        :meth:`restart`.
        """
        if self.crashed:
            return 0
        try:
            return self._pump(max_messages)
        except ProcessCrashed:
            self._die()
            return 0

    def checkpoint_now(self) -> None:
        """Force a checkpoint immediately (tests and shutdown paths)."""
        if self.crashed:
            raise CheckpointError(f"task {self.name!r} is down")
        try:
            self._checkpoint()
        except ProcessCrashed:
            self._die()

    # -- the processing loop ------------------------------------------------------

    def _pump(self, max_messages: int) -> int:
        """Process read batches chunk by chunk; return messages consumed.

        A chunk ends at the batch end, at the next count-triggered
        checkpoint, or after one message when a cost model is attached,
        the next ``DURING_PROCESSING`` kill point is armed, or a
        checkpoint is already due: every point where a one-message loop
        could act, so results and the modeled timeline match it exactly.
        Without a cost model, time on a ``SimClock`` cannot move
        mid-pump; on a ``WallClock`` a time trigger that comes due
        mid-chunk checkpoints at the chunk's end (<= 100 messages later).
        """
        processed = 0
        buffered = self.strategy == Strategy.BUFFERED
        policy = self.checkpoint_policy
        injector = self.injector
        while processed < max_messages:
            batch = self._reader.read_batch(
                min(100, max_messages - processed),
                max_bytes=self.max_batch_bytes,
            )
            if not batch:
                break
            # Decoding is side-effect-free (the overlapped strategy's
            # defining property), so the whole batch goes through one
            # serde pass; its effects are applied chunk by chunk.
            events = None if buffered else self._decode_batch(batch)
            total = len(batch)
            start = 0
            while start < total:
                end = self._chunk_end(start, total)
                chunk = batch[start:end]
                if self.timeline is not None:  # then the chunk is 1 long
                    self.timeline.charge("receive",
                                         self.cost_model.receive_per_event)
                if buffered:
                    self._raw_buffer.extend(chunk)
                else:
                    self._apply(chunk, events[start:end])
                self._next_offset = chunk[-1].offset + 1
                self._events_since_checkpoint += end - start
                start = end
                injector.fire(CrashPoint.DURING_PROCESSING,
                              self._checkpoint_index + 1,
                              self.name, self._now())
                if policy.due(self._now(), self._last_checkpoint_at,
                              self._events_since_checkpoint):
                    self._checkpoint()
            processed += total
        self._lag_gauge.set(self.lag_messages())
        return processed

    def _chunk_end(self, start: int, total: int) -> int:
        """Where the chunk starting at batch index ``start`` must end."""
        policy = self.checkpoint_policy
        if (self.cost_model is not None
                or self.injector.armed(CrashPoint.DURING_PROCESSING,
                                       self._checkpoint_index + 1)
                or policy.due(self._now(), self._last_checkpoint_at,
                              self._events_since_checkpoint)):
            return start + 1
        if policy.every_n_events is None:
            return total
        return min(total, start + policy.every_n_events
                   - self._events_since_checkpoint)

    def _apply(self, messages: list[Message],
               events: list[Event | None]) -> None:
        """All per-chunk work; ``events[i]`` decodes ``messages[i]``
        (``None`` marks a poison message: counted, then skipped)."""
        cost = self.cost_model
        if cost is not None:
            # Deserialization is charged for every message, processing
            # only for the ones that decoded.
            for event in events:
                self._charge_cpu(cost.deserialize_per_event)
                if event is not None:
                    self._charge_cpu(cost.process_per_event)
        good = [event for event in events if event is not None]
        if len(good) < len(events):
            self._poison_counter.increment(len(events) - len(good))
        if not good:
            return
        self.watermarks.observe_batch([event.event_time for event in good])
        self._events_counter.increment(len(good))
        self._bytes_counter.increment(sum(
            message.size for message, event in zip(messages, events)
            if event is not None))
        self._route(self._process_events(good))

    def _process_events(self, events: list[Event]) -> list[Output]:
        """Run a chunk through the processor with per-chunk dispatch."""
        processor = self.processor
        if isinstance(processor, StatefulProcessor):
            return processor.process_batch(events, self._state)
        if isinstance(processor, StatelessProcessor):
            outputs: list[Output] = []
            extend = outputs.extend
            process = processor.process
            for event in events:
                extend(process(event))
            return outputs
        operator = processor.merge_operator()
        merge = operator.merge
        extract = processor.extract
        partials = self._partials
        get = partials.get
        for event in events:
            for key, delta in extract(event):
                base = get(key)
                partials[key] = (delta if base is None
                                 else merge(base, delta))
        return []

    def _decode_batch(self, messages: list[Message]) -> list[Event | None]:
        """Decode a batch in one pass; ``None`` marks a poison message.

        Pure, so a crash mid-batch has observed nothing past its point:
        :meth:`_apply` counts and observes each chunk as it runs.
        """
        records = serde.decode_batch(
            [message.payload for message in messages], errors="none"
        )
        from_record = Event.from_record
        time_field = self.time_field
        events: list[Event | None] = []
        append = events.append
        for record in records:
            if record is None:
                append(None)
                continue
            try:
                append(from_record(record, time_field))
            except ProcessingError:
                append(None)
        return events

    def _route(self, outputs: list[Output]) -> None:
        if not outputs:
            return
        if self.semantics.emits_before_checkpoint:
            self._emit(outputs)
        else:  # at-most-once or exactly-once output: hold until checkpoint
            self._pending_output.extend(outputs)

    def _emit(self, outputs: list[Output]) -> None:
        writer = self._writer
        outputs_counter = self._outputs_counter
        for output in outputs:
            if writer is not None:
                writer.write(output.record, key=output.key)
            outputs_counter.increment()

    # -- checkpointing --------------------------------------------------------------

    def _checkpoint(self) -> None:
        index = self._checkpoint_index + 1
        now = self._now()
        self.injector.fire(CrashPoint.BEFORE_CHECKPOINT, index,
                           self.name, now)

        if self.strategy == Strategy.BUFFERED:
            self._drain_buffer_for_checkpoint()

        # Periodic processor output (e.g. the Figure 6 counter emission).
        periodic = self._periodic_outputs(now)
        if self.semantics.emits_before_checkpoint:
            self._emit(periodic)
        else:
            self._pending_output.extend(periodic)

        offset = self._next_offset
        try:
            if self.semantics.state == StateSemantics.EXACTLY_ONCE:
                self._retrier.call(self._save_exactly_once, offset, index)
            elif self.semantics.state == StateSemantics.AT_LEAST_ONCE:
                self._retrier.call(self._save_payload)
                self.injector.fire(CrashPoint.AFTER_FIRST_SAVE, index,
                                   self.name, now)
                self._retrier.call(self.state_backend.save_offset, offset)
            else:  # at-most-once: offset first, then state
                self._retrier.call(self.state_backend.save_offset, offset)
                self.injector.fire(CrashPoint.AFTER_FIRST_SAVE, index,
                                   self.name, now)
                self._save_payload_at_most_once()
        except RETRYABLE:
            self._defer_checkpoint()
            return

        self._checkpoint_index = index
        self.injector.fire(CrashPoint.AFTER_CHECKPOINT, index,
                           self.name, now)

        if self.semantics.emits_after_checkpoint and self._pending_output:
            self._emit(self._pending_output)
            self._pending_output = []
        self.injector.fire(CrashPoint.AFTER_EMIT, index, self.name, now)

        self._charge_checkpoint_sync()
        self._events_since_checkpoint = 0
        self._last_checkpoint_at = self._now()
        self._checkpoints_counter.increment()

    def _periodic_outputs(self, now: float) -> list[Output]:
        if isinstance(self.processor, StatefulProcessor):
            return self.processor.on_checkpoint(self._state, now)
        if isinstance(self.processor, MonoidProcessor):
            return self.processor.on_checkpoint(self._partials, now)
        return []

    def _save_payload(self) -> None:
        """Persist the semantic payload: state, or monoid partials."""
        if isinstance(self.processor, StatefulProcessor):
            self.state_backend.save_state(self._state)
        elif isinstance(self.processor, MonoidProcessor):
            if self._partials:
                self.state_backend.flush_partials(
                    self._partials, self.processor.merge_operator()
                )
                self._partials = {}

    def _save_payload_at_most_once(self) -> None:
        """The at-most-once payload save, with its special failure rule.

        A monoid flush that fails may have applied some deltas; driving
        it again could double-count keys that did land, which at-most-once
        forbids. So the flush gets exactly one attempt, and on failure the
        partials are *dropped* and counted (``partials_dropped``) —
        undercounting is the direction this policy is allowed to err in.
        Stateful saves are absolute snapshots (idempotent), so they retry
        normally.
        """
        if isinstance(self.processor, MonoidProcessor):
            if not self._partials:
                return
            try:
                self._once.call(self.state_backend.flush_partials,
                                self._partials,
                                self.processor.merge_operator())
            except RETRYABLE:
                self._partials = {}
                self._dropped_counter.increment()
                return
            self._partials = {}
        else:
            self._retrier.call(self._save_payload)

    def _defer_checkpoint(self) -> None:
        """Degraded mode: the durable save stayed down past the retry budget.

        Nothing was lost — pending output, monoid partials, and the
        unadvanced checkpoint index all stay queued, and the next
        checkpoint folds this interval in (queue-and-drain). Only the
        cadence counters reset, so processing continues instead of
        re-triggering a doomed checkpoint on the very next event.
        """
        self._deferred_counter.increment()
        self._events_since_checkpoint = 0
        self._last_checkpoint_at = self._now()

    def _save_exactly_once(self, offset: int, index: int) -> None:
        if isinstance(self.processor, MonoidProcessor):
            self.state_backend.flush_partials_atomic(
                self._partials, self.processor.merge_operator(), offset,
                self._pending_output, index,
            )
            self._partials = {}
        else:
            self.state_backend.save_atomic_with_outputs(
                self._state, offset, self._pending_output, index
            )
        # Output is now durable in the transactional receiver.
        self._outputs_counter.increment(len(self._pending_output))
        self._pending_output = []

    # -- buffered (Swift-style) strategy ------------------------------------------------

    def _drain_buffer_for_checkpoint(self) -> None:
        """Deserialize and process everything buffered since last time.

        This is the Figure 9 Swift implementation: all CPU work for the
        interval happens here, in a burst, after idling while buffering.
        """
        buffered, self._raw_buffer = self._raw_buffer, []
        if self.timeline is not None:
            # The burst cannot start before receiving finished.
            self.timeline.barrier("receive", "cpu")
        self._apply(buffered, self._decode_batch(buffered))

    # -- failure handling ------------------------------------------------------------------

    def _die(self) -> None:
        """The process is gone: all in-memory artifacts are lost."""
        self.crashed = True
        self._state = None
        self._partials = {}
        self._pending_output = []
        self._raw_buffer = []
        self._crashes_counter.increment()

    def crash(self) -> None:
        """Kill the task from outside (chaos schedules use this)."""
        if not self.crashed:
            self._die()

    def restart(self) -> None:
        """Come back up from the last checkpoint (same machine).

        The checkpoint load is retried under the task's policy; if the
        backing store stays down past the budget, the task stays crashed
        and the caller retries the restart later.
        """
        state, offset = self._retrier.call(self.state_backend.load)
        # The backend is the source of truth for checkpoint numbering:
        # an adopted or failed-over task that restarted at index 0 would
        # overwrite the previous owner's committed output rows.
        self._checkpoint_index = self._retrier.call(
            self.state_backend.last_checkpoint_index
        )
        if isinstance(self.processor, StatefulProcessor):
            self._state = (state if state is not None
                           else self.processor.initial_state())
        self._partials = {}
        self._pending_output = []
        self._raw_buffer = []
        resume_at = offset if offset is not None else self._start_offset
        self._reader.seek(resume_at)
        self._next_offset = resume_at
        self._events_since_checkpoint = 0
        self._last_checkpoint_at = self._now()
        self.crashed = False

    # -- cost accounting ---------------------------------------------------------------------

    def _charge_cpu(self, seconds: float) -> None:
        if self.cost_model is None or seconds == 0.0:
            return
        not_before = (self.timeline.resources.get("receive", 0.0)
                      if self.strategy == Strategy.OVERLAPPED else 0.0)
        self.timeline.charge("cpu", seconds, not_before=not_before)

    def _charge_checkpoint_sync(self) -> None:
        if self.cost_model is None:
            return
        if self.strategy == Strategy.OVERLAPPED:
            # Side-effect-free work continues; only the emit path waits.
            self.timeline.charge("checkpoint", self.cost_model.checkpoint_sync)
        else:
            # The buffered processor stalls completely during the sync.
            self.timeline.barrier("receive", "cpu")
            self.timeline.charge("cpu", self.cost_model.checkpoint_sync)
            self.timeline.barrier("receive", "cpu")


class StylusJob:
    """A named set of tasks, one per input bucket, driven together.

    Implements the :class:`~repro.core.dag.Pumpable` protocol so a job is
    directly a DAG node. Factory classmethods build the per-bucket tasks
    with shared configuration.
    """

    def __init__(self, name: str, tasks: list[StylusTask],
                 scribe: ScribeStore | None = None,
                 input_category_name: str | None = None,
                 processor_factory=None,
                 task_kwargs: dict[str, Any] | None = None) -> None:
        self.name = name
        self.tasks = tasks
        self._scribe = scribe
        self._input_category = input_category_name
        self._processor_factory = processor_factory
        self._task_kwargs = task_kwargs or {}

    @classmethod
    def create(cls, name: str, scribe: ScribeStore, input_category: str,
               processor_factory, **task_kwargs: Any) -> "StylusJob":
        """One task per bucket; ``processor_factory()`` builds each processor."""
        num_buckets = scribe.category(input_category).num_buckets
        tasks = [
            StylusTask(f"{name}[{bucket}]", scribe, input_category, bucket,
                       processor_factory(), **task_kwargs)
            for bucket in range(num_buckets)
        ]
        return cls(name, tasks, scribe=scribe,
                   input_category_name=input_category,
                   processor_factory=processor_factory,
                   task_kwargs=task_kwargs)

    # -- the autoscaler contract (paper Sections 6.4 and 7) ------------------

    def input_category(self) -> str:
        if self._input_category is None:
            raise CheckpointError(
                f"job {self.name!r} was not built via StylusJob.create"
            )
        return self._input_category

    def grow_to_buckets(self) -> int:
        """Create tasks for buckets added by a category resize.

        This is how "changing the parallelism is often just changing the
        number of Scribe buckets and restarting the nodes" plays out: the
        category grows, new tasks attach to the new buckets, existing
        tasks keep their positions.
        """
        category = self._scribe.category(self.input_category())
        for bucket in range(len(self.tasks), category.num_buckets):
            self.tasks.append(StylusTask(
                f"{self.name}[{bucket}]", self._scribe,
                self._input_category, bucket, self._processor_factory(),
                **self._task_kwargs,
            ))
        return len(self.tasks)

    def pump(self, max_messages: int = 1000) -> int:
        return sum(task.pump(max_messages) for task in self.tasks)

    def lag_messages(self) -> int:
        return sum(task.lag_messages() for task in self.tasks)

    def checkpoint_now(self) -> None:
        for task in self.tasks:
            task.checkpoint_now()

    def low_watermark(self, confidence: float = 0.99) -> float | None:
        """The job-wide low watermark: the min across tasks."""
        marks = [task.low_watermark(confidence) for task in self.tasks]
        marks = [mark for mark in marks if mark is not None]
        return min(marks) if marks else None
