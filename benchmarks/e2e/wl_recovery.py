"""``stateful_recovery``: monoid state saved to a local LSM, backed up to
HDFS, and rebuilt after three scripted machine failures (Section 4.4).

Four ``StylusTask``s fold three keys per event through a merge-operator
LSM under exactly-once semantics. ``storage`` (LSM, WAL, merge operands,
backup/restore) and ``stylus`` state saving do most of the work;
``puma``, ``scuba`` and ``laser`` do none. Where ``puma_dashboard`` uses
the LSM as Laser's put/get serving store, this uses it as a
merge-operator state store and checks state equality through the
failures.
"""

from __future__ import annotations

from typing import Any

from repro.core.dag import Dag
from repro.core.event import Event
from repro.core.semantics import SemanticsPolicy
from repro.runtime.clock import SimClock
from repro.runtime.metrics import MetricsRegistry
from repro.scribe.store import ScribeStore
from repro.scribe.writer import ScribeWriter
from repro.storage.backup import BackupEngine
from repro.storage.hdfs import HdfsBlobStore
from repro.storage.merge import DictSumMergeOperator, MergeOperator
from repro.stylus.checkpointing import CheckpointPolicy
from repro.stylus.engine import StylusTask
from repro.stylus.processor import MonoidProcessor
from repro.stylus.state import LocalDbStateBackend

from benchmarks.e2e.gen import Inputs, Record, request_events
from benchmarks.e2e.workload import (Failures, Workload, registry_counts,
                                     user_probe)

NUM_BUCKETS = 4
#: Backups after each quarter of the drain; machine failures at these
#: fractions of it (37k/62k/87k of the 100k events of a full run).
BACKUP_FRACTION = 0.25
FAILURE_FRACTIONS = (0.375, 0.625, 0.875)
PANEL_USERS = tuple(f"u{i:05d}" for i in range(60))
PANEL_SHARED = tuple(f"e:/api/e{i:02d}|200" for i in range(10))


class RequestMonoid(MonoidProcessor):
    """Three dict-sum keys per event: user, endpoint|status, country."""

    def merge_operator(self) -> MergeOperator:
        return DictSumMergeOperator()

    def extract(self, event: Event) -> list[tuple[str, Any]]:
        latency = event["latency_ms"]
        return [
            (f"u:{event['user']}", {"n": 1, "lat": latency}),
            (f"e:{event['endpoint']}|{event['status']}", {"n": 1}),
            (f"c:{event['country']}", {"n": 1, "lat": latency}),
        ]


class StatefulRecovery:
    """Scribe ``in`` -> 4 x StylusTask(monoid) -> LSM -> HDFS backups."""

    def __init__(self, inputs: Inputs) -> None:
        self.clock = SimClock()
        self.metrics = MetricsRegistry()
        self.scribe = ScribeStore(clock=self.clock, metrics=self.metrics)
        self.scribe.create_category("in", NUM_BUCKETS)
        self.hdfs = HdfsBlobStore(clock=self.clock)
        engine = BackupEngine(self.hdfs, metrics=self.metrics)
        self.backends = [
            LocalDbStateBackend(f"agg{bucket}", {}, backup_engine=engine,
                                merge_operator=DictSumMergeOperator())
            for bucket in range(NUM_BUCKETS)
        ]
        self.tasks = [
            StylusTask(f"agg{bucket}", self.scribe, "in", bucket,
                       RequestMonoid(),
                       semantics=SemanticsPolicy.exactly_once(),
                       state_backend=backend,
                       checkpoint_policy=CheckpointPolicy(every_n_events=500),
                       clock=self.clock, metrics=self.metrics)
            for bucket, backend in enumerate(self.backends)
        ]
        self.dag = Dag("stateful_recovery")
        for task in self.tasks:
            self.dag.add(task, reads=["in"])
        self.writer = ScribeWriter(self.scribe, "in")
        total = len(inputs.events)
        self._backup_every = max(1, int(total * BACKUP_FRACTION))
        self._failures = [int(total * f) for f in FAILURE_FRACTIONS]
        self._next_backup = self._backup_every
        #: Scripted failures recovered so far; the driver times the
        #: ``after_slice`` call that raises it (crash() to restored,
        #: replayed and caught up).
        self.recoveries = 0
        self.replayed_events = 0

    # -- driving ------------------------------------------------------------

    def refresh(self) -> Any:
        bucket_of = self.writer.bucket_for_key
        values = [self.backends[bucket_of(user)].read_value(f"u:{user}")
                  for user in PANEL_USERS]
        values.extend(backend.read_value(key) for key in PANEL_SHARED
                      for backend in self.backends)
        return values

    def after_slice(self, written: int) -> None:
        if written >= self._next_backup:
            self._next_backup += self._backup_every
            for backend in self.backends:
                backend.maybe_backup()
        if self._failures and written >= self._failures[0]:
            self._failures.pop(0)
            self._fail_and_recover()

    def _processed(self) -> int:
        return int(sum(self.metrics.find("stylus.agg").get(
            f"stylus.{task.name}.events", 0) for task in self.tasks))

    def _fail_and_recover(self) -> None:
        before = self._processed()
        for task in self.tasks:
            task.crash()
        for task, backend in zip(self.tasks, self.backends):
            backend.recover_after_machine_failure({})
            task.restart()
        self.dag.run_until_quiescent()
        if self.lags()["stylus"]:
            raise RuntimeError("replay after restore left unread input")
        self.recoveries += 1
        self.replayed_events += self._processed() - before

    def finish(self) -> None:
        for task in self.tasks:
            task.checkpoint_now()

    def lags(self) -> dict[str, int]:
        return {"stylus": sum(task.lag_messages() for task in self.tasks)}

    make_probe = staticmethod(user_probe)

    def probe_visible(self, probe: Record) -> bool:
        backend = self.backends[self.writer.bucket_for_key(probe["user"])]
        return backend.read_value(f"u:{probe['user']}") is not None

    # -- verification ---------------------------------------------------------

    def _merged(self, key: str) -> dict[str, int] | None:
        total: dict[str, int] | None = None
        for backend in self.backends:
            value = backend.read_value(key)
            if value is not None:
                total = total or {}
                for name, amount in value.items():
                    total[name] = total.get(name, 0) + amount
        return total

    def verify(self, events: list[Record],
               refreshes: list[tuple[int, Any]]) -> Failures:
        expected: dict[str, dict[str, int]] = {}
        points = {upto for upto, _ in refreshes}
        at_refresh: dict[int, list[Any]] = {}
        for count, event in enumerate(events, 1):
            latency = event["latency_ms"]
            for key, with_latency in (
                    (f"u:{event['user']}", True),
                    (f"e:{event['endpoint']}|{event['status']}", False),
                    (f"c:{event['country']}", True)):
                cell = expected.setdefault(key, {"n": 0})
                cell["n"] += 1
                if with_latency:
                    cell["lat"] = cell.get("lat", 0) + latency
            if count in points:
                at_refresh[count] = [
                    dict(expected[f"u:{user}"])
                    if f"u:{user}" in expected else None
                    for user in PANEL_USERS]
        failures = Failures()
        for upto, values in refreshes:
            # Durable state trails the input by under one checkpoint
            # interval per task, so panel reads may not run ahead of it.
            ahead = [user for user, got, want
                     in zip(PANEL_USERS, values, at_refresh[upto])
                     if got is not None
                     and (want is None or got["n"] > want["n"])]
            if ahead:
                failures.add(f"refresh@{upto}: {ahead} ahead of the input")
        for key, want in expected.items():
            got = self._merged(key)
            if got != want:
                failures.add(f"state {key}: {got}, reference {want}")
        if self.recoveries != len(FAILURE_FRACTIONS):
            failures.add(f"{self.recoveries} recoveries ran, "
                         f"{len(FAILURE_FRACTIONS)} scripted")
        return failures

    def counts(self) -> dict[str, float]:
        found = registry_counts(self.metrics,
                                ("scribe.", "stylus.", "backup."))
        found["stylus.replayed_events"] = self.replayed_events
        found["storage.state_keys"] = sum(
            backend.store.approximate_key_count()
            for backend in self.backends)
        return found


def _generate(seed: int, count: int) -> Inputs:
    return request_events(seed, count, with_country=True)


WORKLOAD = Workload(
    name="stateful_recovery", drain_events=100_000, paced_rate=15_000,
    refresh_every=2, generate=_generate, build=StatefulRecovery,
)
