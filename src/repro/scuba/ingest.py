"""Scuba's Scribe ingestion tier.

"Most data sent to Scuba is sampled and Scuba is a best-effort query
system ... a small amount of data loss is preferred to any data
duplication. Exactly-once semantics are not possible because Scuba does
not support transactions, so at-most-once output semantics are the best
choice" (Section 4.3.2). The ingester therefore samples rows and never
re-delivers: its position always moves forward, even across restarts.
Malformed payloads, and rows without a usable time value, are counted
as poison and dropped — best effort extends to poison messages, which
must not wedge the ingestion loop.

Ingestion is batch-at-a-time: the sampling decisions are made first
(consuming the RNG stream in message order, one draw per message), then
only the sampled-in payloads are decoded in one
:func:`repro.serde.decode_batch` call and stored with one
:meth:`ScubaTable.add_rows` call.
"""

from __future__ import annotations

import random

from repro import serde
from repro.errors import ConfigError, ScubaError
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.rng import make_rng
from repro.scribe.message import Message
from repro.scribe.reader import CategoryReader
from repro.scribe.store import ScribeStore
from repro.scuba.table import ScubaTable


class ScubaIngester:
    """Samples a Scribe category into a Scuba table, at-most-once."""

    def __init__(self, scribe: ScribeStore, category: str, table: ScubaTable,
                 sample_rate: float = 1.0, seed: int = 0,
                 metrics: MetricsRegistry | None = None) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ConfigError("sample_rate must be in (0, 1]")
        self.name = f"scuba.ingest.{table.name}"
        self.table = table
        self.sample_rate = sample_rate
        # Rates and lag are measured on the bus's clock, never the wall
        # clock: a SimClock run is a pure function of its seed (R001),
        # so the rows/sec gauge only updates when modeled time passes.
        self.clock = scribe.clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._reader = CategoryReader(scribe, category)
        self._rng: random.Random = make_rng(seed, f"scuba:{category}")
        self._rows_counter = self.metrics.counter(f"{self.name}.rows")
        self._poison_counter = self.metrics.counter(f"{self.name}.poison")
        self._sampled_out_counter = self.metrics.counter(
            f"{self.name}.sampled_out")
        # Ingestion-health metrics so dashboards can plot ingest lag and
        # throughput next to query cost (Section 6.4's "built-in
        # monitoring"): a lag gauge refreshed every pump and a rows/sec
        # gauge over the most recent pump's wall time.
        self._lag_gauge = self.metrics.gauge(f"{self.name}.ingest_lag")
        self._rate_gauge = self.metrics.gauge(f"{self.name}.rows_per_sec")

    def pump(self, max_messages: int = 1000) -> int:
        """Ingest up to ``max_messages``; returns rows actually stored."""
        started = self.clock.now()
        messages = self._reader.read_batch(max_messages)
        stored = self._store_batched(messages)
        self._rows_counter.increment(stored)
        elapsed = self.clock.now() - started
        self._lag_gauge.set(float(self._reader.lag_messages()))
        if stored and elapsed > 0:
            self._rate_gauge.set(stored / elapsed)
        return stored

    def _store_batched(self, messages: list[Message]) -> int:
        sample_rate = self.sample_rate
        if sample_rate < 1.0:
            rng_random = self._rng.random
            sampled = []
            keep = sampled.append
            sampled_out = 0
            for message in messages:
                if rng_random() >= sample_rate:
                    sampled_out += 1
                else:
                    keep(message)
            if sampled_out:
                self._sampled_out_counter.increment(sampled_out)
        else:
            sampled = messages
        if not sampled:
            return 0
        decoded = serde.decode_batch(
            [message.payload for message in sampled], errors="none")
        rows = [row for row in decoded if row is not None]
        poison = len(decoded) - len(rows)
        try:
            self.table.add_rows(rows)
        except (ScubaError, TypeError, ValueError):
            # add_rows converts every time before inserting anything, so
            # the table is untouched: drop the rows it cannot place.
            timed = [row for row in rows if self._has_time(row)]
            poison += len(rows) - len(timed)
            rows = timed
            self.table.add_rows(rows)
        if poison:
            self._poison_counter.increment(poison)
        return len(rows)

    def _has_time(self, row) -> bool:
        try:
            float(row[self.table.time_column])
        except (KeyError, TypeError, ValueError):
            return False
        return True

    def lag_messages(self) -> int:
        return self._reader.lag_messages()
