"""The three parts of one run: set-up, drain phase, paced phase.

One run of a workload is one fresh process and one thread. All wall-clock
reads live here (``benchmarks/`` is exempt from the no-wall-clock lint)
and are raw ``time.perf_counter`` seconds; the pipelines themselves run
on ``SimClock``, which follows event time, so every count is a pure
function of the seed.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from benchmarks.e2e.gen import Inputs, Record
from benchmarks.e2e.workload import (PROBE_EVERY, Failures, Pipeline,
                                     Workload, digest)

#: A probe visible later than this (the paper's "seconds") has failed.
FRESHNESS_LIMIT_S = 2.0
#: The paced loop starts a round every millisecond, as a tailer polling
#: Scribe a thousand times a second would; a round that takes longer is
#: followed by the next at once. Without it a round is as short as the
#: few events that came due during the last one, and what the probes of a
#: cheap pipeline measure is the loop's own overhead (50-100 us on
#: ``scuba_adhoc``, differing by 2x between identical runs).
ROUND_S = 0.001
WARMUP_EVENTS = 10_000
PROBE_TAIL_EVENTS = 4_000
#: The paced phase never shrinks below this many events, so that scaled-
#: down runs still see (twenty) probes published.
MIN_PACED_EVENTS = PROBE_TAIL_EVENTS + 2_000
#: Consumer lag is sampled every this many paced-loop rounds.
LAG_SAMPLE_ROUNDS = 64
PUMP_MESSAGES = 10_000


@dataclass
class Prepared:
    """Everything set-up produces for the timed phases."""

    inputs: Inputs
    #: ``newest[i]`` is the largest event time in ``events[:i + 1]``;
    #: SimClock follows it.
    newest: list[float]
    paced_events: list[Record]
    paced_keys: list[str]
    probe_until: int


@dataclass
class DrainPass:
    """One pass of the drain phase over a fresh pipeline."""

    #: Back-to-back wall seconds, one per slice (write, drain, hooks,
    #: refresh) and a last one for the final checkpoint: they add up to
    #: the pass's wall time.
    segment_s: list[float]
    events: int
    refresh_s: list[float]
    failures: Failures
    counts: dict[str, float]
    refresh_digest: str
    recovery_s: list[float]

    @property
    def wall_s(self) -> float:
        return sum(self.segment_s)


@dataclass
class PacedResult:
    freshness_s: list[float]
    late_s: list[float]
    events: int
    probes: int
    missed: int
    refreshes: int
    rounds: int
    elapsed_s: float
    backlog_peak: int
    backlog_end: int
    lag_peak: dict[str, int] = field(default_factory=dict)


def sub_inputs(inputs: Inputs, count: int) -> Inputs:
    return Inputs(inputs.events[:count], inputs.keys[:count],
                  inputs.dimension_rows)


def set_up(workload: Workload, seed: int, drain_events: int,
           paced_events: int) -> Prepared:
    """Part 1: generate, build, load dimensions, warm up, collect."""
    inputs = workload.generate(seed, max(drain_events, paced_events))
    newest: list[float] = []
    high = 0.0
    for event in inputs.events:
        if event["event_time"] > high:
            high = event["event_time"]
        newest.append(high)
    warm = workload.build(sub_inputs(inputs, WARMUP_EVENTS))
    # No probes in the tail: a probe needs later traffic to trigger the
    # checkpoint that publishes it (500 more events on its own bucket).
    probe_until = paced_events - max(paced_events // 10, PROBE_TAIL_EVENTS)
    events = inputs.events[:paced_events]
    keys = inputs.keys[:paced_events]
    for index in range(0, probe_until, PROBE_EVERY):
        events[index], keys[index] = warm.make_probe(index, events[index])
    prepared = Prepared(inputs, newest, events, keys, probe_until)
    drain(workload, warm, prepared, min(WARMUP_EVENTS, drain_events))
    del warm
    gc.collect()
    return prepared


def drain(workload: Workload, pipeline: Pipeline, prepared: Prepared,
          count: int, verify: bool = False) -> DrainPass:
    """Part 2, closed loop with one client: slices of events in, each
    drained to quiescence, a dashboard refresh every few slices, a forced
    final checkpoint. Timed from the first write to durable and caught up.
    """
    events, keys = prepared.inputs.events, prepared.inputs.keys
    newest = prepared.newest
    write_batch = pipeline.writer.write_batch
    advance_to = pipeline.clock.advance_to
    quiesce = pipeline.dag.run_until_quiescent
    refresh_every = workload.refresh_every
    step = workload.slice_events
    segment_s: list[float] = []
    refresh_s: list[float] = []
    refresh_log: list[tuple[int, Any]] = []
    recovery_s: list[float] = []
    recoveries = 0
    now = time.perf_counter
    mark = now()
    for index, start in enumerate(range(0, count, step)):
        end = min(start + step, count)
        write_batch(events[start:end], keys=keys[start:end])
        advance_to(newest[end - 1])
        quiesce()
        before = now()
        pipeline.after_slice(end)
        if getattr(pipeline, "recoveries", 0) > recoveries:
            recoveries += 1
            recovery_s.append(now() - before)
        if (index + 1) % refresh_every == 0:
            asked = now()
            result = pipeline.refresh()
            refresh_s.append(now() - asked)
            refresh_log.append((end, result))
        ended = now()
        segment_s.append(ended - mark)
        mark = ended
    pipeline.finish()
    behind = sum(pipeline.lags().values())
    segment_s.append(now() - mark)
    failures = Failures()
    if behind:
        failures.add(f"{behind} messages unread after the final checkpoint",
                     behind)
    counts = pipeline.counts()  # before verification adds its own reads
    if verify:
        failures.extend(pipeline.verify(events[:count], refresh_log))
    return DrainPass(
        segment_s, count, refresh_s, failures, counts,
        digest([result for _, result in refresh_log]), recovery_s)


def quiet_wall_s(passes: list[DrainPass]) -> float:
    """The drain wall with each segment at its quietest over the passes.

    Every pass does the same work slice for slice (all counts are a pure
    function of the seed), so the passes differ only by what the machine
    did to them, and that only ever adds time. This shared 2-core box
    slows by 1.5x for ten or twenty seconds several times an hour, and by
    more for shorter spells; one pass's wall time moves 10-20% with that,
    while a spell has to hit the same slice in every pass to move this
    sum. What the code does - a checkpoint, a seal, a compaction, a
    recovery - falls into the same slice of every pass and stays in.
    """
    return sum(min(times)
               for times in zip(*(one.segment_s for one in passes)))


def quiet_refresh_s(passes: list[DrainPass]) -> list[float]:
    """Each drain-phase refresh at its quietest over the passes."""
    return [min(times) for times in zip(*(one.refresh_s for one in passes))]


def paced(workload: Workload, pipeline: Pipeline, prepared: Prepared,
          rate: float, duration_s: float) -> PacedResult:
    """Part 3, open loop: event *i* is due at ``i / rate`` wall seconds
    whatever the pipeline is doing, and freshness counts from that due
    time, so a stall charges every event it delays.
    """
    events, keys = prepared.paced_events, prepared.paced_keys
    newest = prepared.newest
    total = len(events)
    probe_until = prepared.probe_until
    write = pipeline.writer.write
    pump = pipeline.dag.pump_once
    advance_to = pipeline.clock.advance_to
    visible = pipeline.probe_visible
    clock = time.perf_counter
    outstanding: list[tuple[float, Record]] = []
    result = PacedResult([], [], total, 0, 0, 0, 0, 0.0, 0, 0)
    fresh, late = result.freshness_s, result.late_s
    lag_peak = result.lag_peak
    next_refresh = 1.0
    written = 0
    deadline = duration_s + FRESHNESS_LIMIT_S
    started = clock()
    next_round = 0.0
    while True:
        now = clock() - started
        if now < next_round:
            time.sleep(next_round - now)
            now = clock() - started
        next_round = max(next_round + ROUND_S, now)
        due = min(total, int(now * rate) + 1)
        if written < due:
            late.append(now - written / rate)
            for index in range(written, due):
                record = events[index]
                write(record, key=keys[index])
                if index % PROBE_EVERY == 0 and index < probe_until:
                    outstanding.append((index / rate, record))
            written = due
            advance_to(newest[due - 1])
        result.rounds += 1
        if result.rounds % LAG_SAMPLE_ROUNDS == 0:
            # Sampled before the pump: the queue this round has to clear.
            lags = pipeline.lags()
            for layer, lag in lags.items():
                if lag > lag_peak.get(layer, 0):
                    lag_peak[layer] = lag
            result.backlog_peak = max(result.backlog_peak,
                                      sum(lags.values()))
        pump(PUMP_MESSAGES)
        if outstanding:
            seen = clock() - started
            waiting = []
            for due_at, record in outstanding:
                if visible(record):
                    age = seen - due_at
                    fresh.append(age)
                    if age > FRESHNESS_LIMIT_S:
                        result.missed += 1
                else:
                    waiting.append((due_at, record))
            outstanding = waiting
        if now >= next_refresh and written < total:
            pipeline.refresh()
            result.refreshes += 1
            next_refresh += 1.0
        if written >= total and not outstanding:
            break
        if now > deadline:
            break
    result.elapsed_s = clock() - started
    result.probes = len(fresh) + len(outstanding)
    result.missed += len(outstanding)
    result.backlog_end = sum(pipeline.lags().values())
    return result


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0
