"""``scuba_adhoc``: read-time aggregation of the same request stream.

The paper's Section 5.2 contrast to ``puma_dashboard``: rows are ingested
raw and aggregated when the dashboard asks. Reads run beside writes on
one thread, so an ingest gain paid for in sealing, zone maps or cache
hits shows in ``query_p50_ms`` and a query gain that slows ``add_rows``
shows in ``throughput_eps``. ``puma``, ``stylus`` and ``storage`` do
nothing here.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any

from repro.core.dag import Dag
from repro.runtime.clock import SimClock
from repro.runtime.metrics import MetricsRegistry
from repro.scribe.store import ScribeStore
from repro.scribe.writer import ScribeWriter
from repro.scuba.ingest import ScubaIngester
from repro.scuba.query import ColumnFilter, ScubaQuery
from repro.scuba.table import ScubaTable

from benchmarks.e2e.gen import Inputs, Record, request_events
from benchmarks.e2e.workload import (Failures, Workload, registry_counts,
                                     user_probe)

#: A third of the event time the reference drain spans (900 s), so the
#: panels' window slides off the oldest segments for most of a run.
PANEL_SECONDS = 300.0
BUCKET_SECONDS = 60.0
#: The newest event sits exactly at ``clock.now()``; ranges are
#: half-open, so the panels end one generator tick after it.
TICK = 0.005
ERRORS = (ColumnFilter("status", ">=", 500),)


class ScubaAdhoc:
    """Scribe ``requests`` -> ScubaIngester -> ScubaTable + 3 panels."""

    def __init__(self, inputs: Inputs) -> None:
        self.clock = SimClock()
        self.metrics = MetricsRegistry()
        self.scribe = ScribeStore(clock=self.clock, metrics=self.metrics)
        self.scribe.create_category("requests", 4)
        self.table = ScubaTable("requests")
        self.ingester = ScubaIngester(self.scribe, "requests", self.table,
                                      metrics=self.metrics)
        self.dag = Dag("scuba_adhoc")
        self.dag.add(self.ingester, reads=["requests"])
        self.writer = ScribeWriter(self.scribe, "requests")

    # -- driving ------------------------------------------------------------

    def _panels(self, start: float, end: float, engine: str
                ) -> tuple[ScubaQuery, ScubaQuery, ScubaQuery]:
        common = {"table": self.table, "start": start, "end": end,
                  "metrics": self.metrics, "engine": engine}
        return (
            ScubaQuery(aggregation="count", group_by=("endpoint",),
                       **common),
            ScubaQuery(aggregation="count", filters=ERRORS, **common),
            ScubaQuery(aggregation="avg", value_column="latency_ms",
                       bucket_seconds=BUCKET_SECONDS, **common),
        )

    def _run_panels(self, end: float, engine: str = "compiled") -> Any:
        grouped, filtered, series = self._panels(
            max(0.0, end - PANEL_SECONDS), end, engine)
        return (end, grouped.run(), filtered.run(),
                [(point.bucket_start, point.value)
                 for point in series.run_time_series()])

    def refresh(self) -> Any:
        return self._run_panels(self.clock.now() + TICK)

    def after_slice(self, written: int) -> None:
        pass

    def finish(self) -> None:
        # Ingestion is at-most-once with no deferred state: nothing to
        # flush beyond what pump() already stored.
        pass

    def lags(self) -> dict[str, int]:
        return {"scuba": self.ingester.lag_messages()}

    make_probe = staticmethod(user_probe)

    def probe_visible(self, probe: Record) -> bool:
        when = probe["event_time"]
        query = ScubaQuery(
            self.table, when, when + 0.001, aggregation="count",
            filters=(ColumnFilter("user", "==", probe["user"]),),
            metrics=self.metrics)
        return bool(query.run())

    # -- verification ---------------------------------------------------------

    def verify(self, events: list[Record],
               refreshes: list[tuple[int, Any]]) -> Failures:
        failures = Failures()
        if self.table.row_count() != len(events):
            failures.add(f"table holds {self.table.row_count()} rows, "
                         f"input had {len(events)}",
                         abs(self.table.row_count() - len(events)))
        times = [event["event_time"] for event in events]
        # About ten refreshes, first and last among them, get the full
        # independent fold; folding all of them would outlast the
        # measurement.
        sample = sorted({*range(0, len(refreshes),
                                max(1, len(refreshes) // 8)),
                         len(refreshes) - 1}) if refreshes else []
        for index in sample:
            upto, got = refreshes[index]
            expected = _reference_panels(events, times, upto, got[0])
            differing = [panel for panel, have, want
                         in zip(("grouped", "filtered", "series"), got[1:],
                                expected) if have != want]
            if differing:
                failures.add(f"refresh@{upto}: panels {differing} differ "
                             "from reference")
        if refreshes:
            # The paper-faithful row-scan engine as a second oracle, on
            # the final table state.
            end = refreshes[-1][1][0]
            if self._run_panels(end) != self._run_panels(end, "rows"):
                failures.add("final panels differ from engine='rows'")
        return failures

    def counts(self) -> dict[str, float]:
        found = registry_counts(self.metrics, (
            "scribe.", "scuba.ingest.requests.rows",
            "scuba.ingest.requests.poison", "scuba.requests."))
        found["scuba.segments"] = self.table.segment_count()
        found["scuba.rows"] = self.table.row_count()
        return found


def _reference_panels(events: list[Record], times: list[float], upto: int,
                      end: float) -> tuple[Any, Any, Any]:
    """The three panels folded straight from the first ``upto`` events."""
    start = max(0.0, end - PANEL_SECONDS)
    lo = bisect_left(times, start, 0, upto)
    hi = bisect_left(times, end, 0, upto)
    by_endpoint: dict[str, int] = {}
    errors = 0
    buckets: dict[float, list[int]] = {}
    for event in events[lo:hi]:
        endpoint = event["endpoint"]
        by_endpoint[endpoint] = by_endpoint.get(endpoint, 0) + 1
        if event["status"] >= 500:
            errors += 1
        bucket = (event["event_time"] // BUCKET_SECONDS) * BUCKET_SECONDS
        cell = buckets.setdefault(bucket, [0, 0])
        cell[0] += event["latency_ms"]
        cell[1] += 1
    grouped = [{"endpoint": endpoint, "value": count}
               for endpoint, count in sorted(by_endpoint.items())]
    grouped.sort(key=lambda row: row["value"], reverse=True)
    filtered = [{"value": errors}] if errors else []
    series = [(bucket, total / count)
              for bucket, (total, count) in sorted(buckets.items())]
    return grouped[:7], filtered, series


WORKLOAD = Workload(
    name="scuba_adhoc", drain_events=180_000, paced_rate=30_000,
    refresh_every=1, generate=request_events, build=ScubaAdhoc,
    # A refresh per 500 events: JSON encode + decode alone cost ~4x what
    # Scuba's ingest does per row, so only a query-heavy cadence makes
    # `scuba` the layer that owns this workload's wall time.
    slice_events=500,
)
