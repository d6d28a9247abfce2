"""``trending_dag``: Figure 3's four-node DAG plus the Figure 1 sinks.

Every surviving event crosses Scribe four times with re-sharding
(input -> filtered -> joined -> scored), so ``serde`` + ``scribe`` +
``stylus`` engine overhead dominate and ``puma``/``scuba`` barely run:
transport and per-batch engine work show here or nowhere. Out-of-order
input exercises watermarks, and the Joiner's 128-entry cache is smaller
than the 2 000-key dimension space.
"""

from __future__ import annotations

from typing import Any

from repro.apps.trending import TrendingPipeline
from repro.hive.warehouse import HiveWarehouse
from repro.laser.service import LaserTable
from repro.runtime.clock import SimClock
from repro.runtime.metrics import MetricsRegistry
from repro.scribe.checkpoints import CheckpointStore
from repro.scribe.message import Message
from repro.scribe.store import ScribeStore
from repro.scribe.writer import ScribeWriter
from repro.swift.engine import SwiftApp
from repro.workloads.events import TOPICS

from benchmarks.e2e.gen import Inputs, Record, trending_events
from benchmarks.e2e.workload import Failures, Workload, registry_counts

NUM_BUCKETS = 4
#: The twenty hottest dimensions, point-read from the tail every refresh.
PANEL_DIMS = tuple(f"dim{i}" for i in range(20))


class CountingClient:
    """A Swift batch client that only counts what it is handed."""

    def __init__(self) -> None:
        self.messages = 0

    def __call__(self, message: Message) -> None:
        self.messages += 1

    def on_batch(self, messages: list[Message]) -> None:
        self.messages += len(messages)


class TrendingDag:
    """TrendingPipeline + Laser tail + Hive ingest + Swift tailers."""

    def __init__(self, inputs: Inputs) -> None:
        self.clock = SimClock()
        self.metrics = MetricsRegistry()
        self.scribe = ScribeStore(clock=self.clock, metrics=self.metrics)
        self.dimensions = LaserTable(
            "dims", ["dim_id"], ["language", "country"], clock=self.clock,
            metrics=self.metrics)
        self.dimensions.put_rows(inputs.dimension_rows)
        self.languages = {row["dim_id"]: row["language"]
                          for row in inputs.dimension_rows}
        self.pipeline = TrendingPipeline(
            self.scribe, self.dimensions, clock=self.clock,
            num_buckets=NUM_BUCKETS, checkpoint_interval=10.0)
        self.tail = LaserTable(
            "joined_by_dim", ["dim_id"], ["topic", "language", "event_time"],
            clock=self.clock, metrics=self.metrics)
        self.tail.tail_scribe(self.scribe, "trend_joined")
        self.hive = HiveWarehouse(self.scribe)
        self.hive.ingest_from_scribe("trend_joined", "trend_joined")
        self.clients = [CountingClient() for _ in range(NUM_BUCKETS)]
        self.swifts = [
            SwiftApp(f"swift_tail_{bucket}", self.scribe, "trend_filtered",
                     bucket, client, CheckpointStore())
            for bucket, client in enumerate(self.clients)
        ]
        self.dag = self.pipeline.dag
        self.dag.add(self.tail, reads=["trend_joined"])
        self.dag.add(self.hive, reads=["trend_joined"])
        for swift in self.swifts:
            self.dag.add(swift, reads=["trend_filtered"])
        self.writer = ScribeWriter(self.scribe, "trend_input")

    # -- driving ------------------------------------------------------------

    def refresh(self) -> Any:
        return (self.pipeline.ranker.top_events(5),
                [self.tail.get(dim) for dim in PANEL_DIMS])

    def after_slice(self, written: int) -> None:
        pass

    def finish(self) -> None:
        # The Scorer emits on checkpoint, so its forced checkpoint puts
        # new messages on the bus: drain them before the Ranker's flush.
        self.pipeline.checkpoint_all()
        self.dag.run_until_quiescent()
        self.pipeline.ranker.checkpoint()

    def _written(self, category: str) -> int:
        return int(self.metrics.find(f"scribe.{category}.messages").get(
            f"scribe.{category}.messages", 0))

    def lags(self) -> dict[str, int]:
        pipeline = self.pipeline
        # The Laser tail and the Hive ingest expose no lag of their own:
        # what they still owe is what was written minus what they stored.
        joined = self._written("trend_joined")
        tailed = int(self.metrics.find("laser.joined_by_dim.writes").get(
            "laser.joined_by_dim.writes", 0))
        return {
            "stylus": (pipeline.filterer.lag_messages()
                       + pipeline.joiner.lag_messages()
                       + pipeline.scorer.lag_messages()),
            "puma": pipeline.ranker.lag_messages(),
            "swift": sum(swift.lag_messages() for swift in self.swifts),
            "laser": joined - tailed,
            "hive": joined - self.hive.table("trend_joined").row_count(),
        }

    def make_probe(self, index: int, record: Record) -> tuple[Record, str]:
        dim_id = f"probe{index:07d}"
        return {**record, "dim_id": dim_id, "event_type": "post"}, dim_id

    def probe_visible(self, probe: Record) -> bool:
        return self.tail.get(probe["dim_id"]) is not None

    # -- verification ---------------------------------------------------------

    def verify(self, events: list[Record],
               refreshes: list[tuple[int, Any]]) -> Failures:
        failures = Failures()
        posts: dict[str, set[str]] = {}
        expected = 0
        for event in events:
            if event["event_type"] == "post":
                expected += 1
                posts.setdefault(event["dim_id"], set()).add(
                    _topic_of(event["text"]))
        sinks = {
            "trend_filtered messages": self._written("trend_filtered"),
            "trend_joined messages": self._written("trend_joined"),
            "laser tail writes": int(self.metrics.find(
                "laser.joined_by_dim.writes")["laser.joined_by_dim.writes"]),
            "hive rows": self.hive.table("trend_joined").row_count(),
            "swift messages": sum(c.messages for c in self.clients),
        }
        for sink, got in sinks.items():
            if got != expected:
                failures.add(f"{sink}: {got}, reference {expected}",
                             abs(got - expected))
        for dim_id, topics in posts.items():
            row = self.tail.get(dim_id)
            if (row is None or row["topic"] not in topics
                    or row["language"] != self.languages.get(dim_id)):
                failures.add(f"laser tail {dim_id}: {row}")
        for upto, (top, _) in refreshes:
            if len(top) > 5 or any(row["event"] not in TOPICS
                                   and row["event"] != "other"
                                   for row in top):
                failures.add(f"refresh@{upto}: ranker rows {top}")
        if not self.pipeline.ranker.top_events(5):
            failures.add("ranker serves no scores after the final flush")
        return failures

    def counts(self) -> dict[str, float]:
        pipeline = self.pipeline
        found = registry_counts(self.metrics, ("scribe.", "laser."))
        for job in (pipeline.filterer, pipeline.joiner, pipeline.scorer):
            for task in job.tasks:
                found.update(registry_counts(task.metrics, ("stylus.",)))
        found.update(registry_counts(pipeline.ranker.metrics, ("puma.",)))
        found["apps.classifier_calls"] = pipeline.classifier.calls
        processors = [task.processor for task in pipeline.joiner.tasks]
        found["apps.joiner_cache_hits"] = sum(
            p.cache_hits for p in processors)
        found["apps.joiner_cache_misses"] = sum(
            p.cache_misses for p in processors)
        found["hive.rows"] = self.hive.table("trend_joined").row_count()
        found["swift.messages"] = sum(c.messages for c in self.clients)
        return found


def _topic_of(text: str) -> str:
    lowered = text.lower()
    for topic in TOPICS:
        if topic in lowered:
            return topic
    return "other"


# 10k/s is a third of the drain throughput, not half: written record by
# record, an event's four hops fill the paced loop's rounds at 15k/s
# already (2.9 ms a round on a 1 ms tick), which leaves nothing for a
# slow spell of the machine.
WORKLOAD = Workload(
    name="trending_dag", drain_events=100_000, paced_rate=10_000,
    refresh_every=2, generate=trending_events, build=TrendingDag,
)
