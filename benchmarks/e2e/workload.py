"""What the driver needs from a workload, and the registry of the four.

A *workload* generates inputs from a seed and builds fresh pipeline
instances over them; a *pipeline* is one assembled Figure-1 topology the
driver writes to, pumps, queries and finally verifies. Everything a
pipeline touches is a public API of a ``repro`` layer — the harness adds
no timer, switch or environment variable to ``src/``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Protocol

from benchmarks.e2e.gen import Inputs, Record

#: Events written per ``write_batch`` call in the drain phase, unless the
#: workload sets its own.
SLICE = 2_000
#: One event in this many is a probe in the paced phase.
PROBE_EVERY = 100
#: ``--seconds`` the per-workload sizes below are quoted for (the
#: ``run_seconds`` of BENCHMARK.json).
REFERENCE_SECONDS = 20


class Failures:
    """Failed operations found while checking a run.

    ``count`` is how many operations (events, probes, refreshes) failed
    and goes into the result line; ``lines`` name them — one per kind or
    key — for the ``MISMATCH`` printout.
    """

    def __init__(self) -> None:
        self.count = 0
        self.lines: list[str] = []

    def add(self, line: str, count: int = 1) -> None:
        self.count += count
        self.lines.append(line)

    def extend(self, other: "Failures") -> None:
        self.count += other.count
        self.lines.extend(other.lines)


class Pipeline(Protocol):
    """One assembled topology (see each ``wl_*`` module)."""

    clock: Any            # repro.runtime.clock.SimClock
    writer: Any           # repro.scribe.writer.ScribeWriter on the input
    dag: Any              # repro.core.dag.Dag over every consumer

    def refresh(self) -> Any:
        """Run the fixed dashboard query set once; return its results."""

    def after_slice(self, written: int) -> None:
        """Drain-phase hook after each slice is drained (scripted
        backups and machine failures live here)."""

    def finish(self) -> None:
        """Force the final checkpoint so every effect is durable."""

    def lags(self) -> dict[str, int]:
        """Unread messages per consuming layer."""

    def make_probe(self, index: int, record: Record) -> tuple[Record, str]:
        """A copy of ``record`` carrying a unique key; returns it with
        its shard key."""

    def probe_visible(self, probe: Record) -> bool:
        """Whether the serving store returns the probe via public read."""

    def verify(self, events: list[Record],
               refreshes: list[tuple[int, Any]]) -> Failures:
        """Compare outputs with the reference fold over ``events`` and
        each logged ``(events_written, refresh_result)``; every event,
        key or refresh that is missing or wrong is one failure."""

    def counts(self) -> dict[str, float]:
        """Deterministic counters (a pure function of the seed)."""


@dataclass(frozen=True)
class Workload:
    """A named input generator plus pipeline factory."""

    name: str
    #: Drain-phase input size at ``REFERENCE_SECONDS``.
    drain_events: int
    #: Paced-phase open-loop rate (events per wall second): about half
    #: the seed's drain throughput on the 2-core box this was written
    #: on, rounded to one significant figure and then fixed.
    paced_rate: int
    #: Drain slices between two dashboard refreshes.
    refresh_every: int
    generate: Callable[[int, int], Inputs]
    build: Callable[[Inputs], Pipeline]
    slice_events: int = SLICE


def digest(value: Any) -> str:
    """Short stable fingerprint of a refresh result (for determinism
    checks between the untraced and traced runs)."""
    return hashlib.blake2b(repr(value).encode("utf-8"),
                           digest_size=8).hexdigest()


def registry_counts(metrics: Any, prefixes: tuple[str, ...]
                    ) -> dict[str, float]:
    """Counter values under ``prefixes`` from a ``MetricsRegistry``.

    Gauges that follow the wall clock or lag are not counts; callers pass
    only prefixes whose entries are pure functions of the input. Timer
    totals (retry scopes; SimClock seconds) are dropped for that reason.
    """
    return {name: value
            for prefix in prefixes
            for name, value in metrics.find(prefix).items()
            if not name.endswith(".total_seconds")}


def user_probe(index: int, record: Record) -> tuple[Record, str]:
    """A request-stream probe: the record under a unique ``user``."""
    user = f"probe{index:07d}"
    return {**record, "user": user}, user


def load_workloads() -> dict[str, Workload]:
    """The four workloads, in the order BENCHMARK.json lists them."""
    from benchmarks.e2e import (wl_puma, wl_recovery, wl_scuba,
                                wl_trending)
    workloads = (wl_puma.WORKLOAD, wl_scuba.WORKLOAD,
                 wl_trending.WORKLOAD, wl_recovery.WORKLOAD)
    return {workload.name: workload for workload in workloads}
