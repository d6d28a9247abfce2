"""``puma_dashboard``: write-time aggregation served from Laser views.

Section 5.2's request stream feeds a compiled ``PumaApp`` with three
60-second tables — low-cardinality ``by_endpoint`` and ``errors`` beside
high-cardinality ``by_user`` — and two incrementally maintained Laser
views. ``puma`` (fold + checkpoint flush), ``storage`` (HBase state rows,
the views' LSM) and ``laser`` do most of the work; ``scuba`` and
``stylus`` do none.
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.core.dag import Dag
from repro.laser.service import LaserTable
from repro.puma.app import PumaApp
from repro.puma.parser import parse
from repro.puma.planner import plan
from repro.runtime.clock import SimClock
from repro.runtime.metrics import MetricsRegistry
from repro.scribe.store import ScribeStore
from repro.scribe.writer import ScribeWriter
from repro.storage.hbase import HBaseTable

from benchmarks.e2e.gen import Inputs, Record, request_events
from benchmarks.e2e.workload import (Failures, Workload, registry_counts,
                                     user_probe)

WINDOW = 60.0

PQL = """
CREATE APPLICATION dashboard;
CREATE INPUT TABLE requests(event_time, endpoint, status, latency_ms, user)
FROM SCRIBE("requests") TIME event_time;
CREATE TABLE by_endpoint AS
SELECT endpoint, count(*) AS n, avg(latency_ms) AS mean_ms
FROM requests [60 seconds];
CREATE TABLE errors AS
SELECT endpoint, count(*) AS n FROM requests [60 seconds]
WHERE status >= 500;
CREATE TABLE by_user AS
SELECT user, count(*) AS n, max(latency_ms) AS worst_ms
FROM requests [60 seconds];
"""

#: The ten endpoints whose view rows every refresh reads from Laser.
PANEL_ENDPOINTS = tuple(f"/api/e{i:02d}" for i in range(10))
#: Share of ``by_user`` view cells point-read at verification.
VIEW_SAMPLE_EVERY = 20


def window_of(event_time: float) -> float:
    return math.floor(event_time / WINDOW) * WINDOW


class PumaDashboard:
    """Scribe ``requests`` -> PumaApp -> HBase + two Laser views."""

    def __init__(self, inputs: Inputs) -> None:
        self.clock = SimClock()
        self.metrics = MetricsRegistry()
        self.scribe = ScribeStore(clock=self.clock, metrics=self.metrics)
        self.scribe.create_category("requests", 4)
        self.hbase = HBaseTable("dashboard_state")
        self.app = PumaApp(plan(parse(PQL)), self.scribe, self.hbase,
                           clock=self.clock, metrics=self.metrics)
        self.endpoint_view = LaserTable(
            "by_endpoint_view", ["window_start", "endpoint"],
            ["n", "mean_ms"], clock=self.clock, metrics=self.metrics)
        self.user_view = LaserTable(
            "by_user_view", ["window_start", "user"], ["n", "worst_ms"],
            clock=self.clock, metrics=self.metrics)
        self.app.attach_laser_view("by_endpoint", self.endpoint_view)
        self.app.attach_laser_view("by_user", self.user_view)
        self.dag = Dag("puma_dashboard")
        self.dag.add(self.app, reads=["requests"])
        self.writer = ScribeWriter(self.scribe, "requests")

    # -- driving ------------------------------------------------------------

    def refresh(self) -> Any:
        window = window_of(self.clock.now())
        gets = [self.endpoint_view.get(window, endpoint)
                for endpoint in PANEL_ENDPOINTS]
        return (window, gets,
                self.app.query("by_endpoint", window),
                self.app.query_top_k("by_user", "n", 10, window))

    def after_slice(self, written: int) -> None:
        pass

    def finish(self) -> None:
        self.app.checkpoint()

    def lags(self) -> dict[str, int]:
        return {"puma": self.app.lag_messages()}

    make_probe = staticmethod(user_probe)

    def probe_visible(self, probe: Record) -> bool:
        return self.user_view.get(window_of(probe["event_time"]),
                                  probe["user"]) is not None

    # -- verification ---------------------------------------------------------

    def verify(self, events: list[Record],
               refreshes: list[tuple[int, Any]]) -> Failures:
        reference = _Reference(events, [upto for upto, _ in refreshes])
        failures = Failures()
        for upto, (window, gets, endpoint_rows, top_users) in refreshes:
            expected_rows, expected_top = reference.at_refresh[upto]
            # Views converge to the *durable* state, which trails the
            # in-memory deltas by less than one checkpoint interval.
            totals = {row["endpoint"]: row["n"] for row in expected_rows}
            ahead = [endpoint for endpoint, got in zip(PANEL_ENDPOINTS, gets)
                     if got is not None
                     and got["n"] > totals.get(endpoint, 0)]
            wrong = [what for what, differs in (
                ("by_endpoint differs from reference",
                 endpoint_rows != expected_rows),
                ("top by_user differs from reference",
                 top_users != expected_top),
                (f"views {ahead} ahead of the input", bool(ahead)),
            ) if differs]
            if wrong:
                failures.add(f"refresh@{upto} window {window}: "
                             + "; ".join(wrong))
        for table, expected in (("by_endpoint", reference.endpoint_rows()),
                                ("errors", reference.error_rows()),
                                ("by_user", reference.user_rows())):
            _diff_rows(failures, table, self.app.query(table), expected)
        for row in reference.endpoint_rows():
            got = self.endpoint_view.get(row["window_start"],
                                         row["endpoint"])
            if got != {"n": row["n"], "mean_ms": row["mean_ms"]}:
                failures.add("by_endpoint_view "
                             f"{row['window_start']}/{row['endpoint']}")
        for row in reference.user_rows()[::VIEW_SAMPLE_EVERY]:
            got = self.user_view.get(row["window_start"], row["user"])
            if got != {"n": row["n"], "worst_ms": row["worst_ms"]}:
                failures.add("by_user_view "
                             f"{row['window_start']}/{row['user']}")
        return failures

    def counts(self) -> dict[str, float]:
        found = registry_counts(self.metrics, ("puma.", "laser.", "scribe."))
        found["storage.state_keys"] = self.hbase.row_count()
        return found


def _group_order(row: Record, column: str) -> tuple[float, str]:
    return (row["window_start"], json.dumps([row[column]]))


def _diff_rows(failures: Failures, table: str, got: list[Record],
               expected: list[Record]) -> None:
    """One failure per reference row the table lacks or has wrong, and
    per row it holds beyond the reference."""
    if got == expected:
        return
    keyed = {json.dumps(row, sort_keys=True) for row in got}
    missing = [row for row in expected
               if json.dumps(row, sort_keys=True) not in keyed]
    for row in missing:
        failures.add(f"{table}: {row}")
    extra = len(got) - (len(expected) - len(missing))
    if extra > 0:
        failures.add(f"{table}: {extra} unexpected rows", extra)
    if not missing and extra <= 0:
        failures.add(f"{table}: row order differs from reference")


class _Reference:
    """Independent per-window fold of the input (no ``repro`` code)."""

    def __init__(self, events: list[Record], refresh_points: list[int]
                 ) -> None:
        self.by_endpoint: dict[float, dict[str, list[int]]] = {}
        self.errors: dict[float, dict[str, int]] = {}
        self.by_user: dict[float, dict[str, list[int]]] = {}
        self.at_refresh: dict[int, tuple[list[Record], list[Record]]] = {}
        points = set(refresh_points)
        for count, event in enumerate(events, 1):
            window = window_of(event["event_time"])
            latency = event["latency_ms"]
            cell = self.by_endpoint.setdefault(window, {}).setdefault(
                event["endpoint"], [0, 0])
            cell[0] += 1
            cell[1] += latency
            if event["status"] >= 500:
                errors = self.errors.setdefault(window, {})
                errors[event["endpoint"]] = errors.get(
                    event["endpoint"], 0) + 1
            cell = self.by_user.setdefault(window, {}).setdefault(
                event["user"], [0, latency])
            cell[0] += 1
            if latency > cell[1]:
                cell[1] = latency
            if count in points:
                top = self.user_rows(window)
                top.sort(key=lambda row: row["n"], reverse=True)
                self.at_refresh[count] = (self.endpoint_rows(window),
                                          top[:10])

    def _windows(self, table: dict, only: float | None) -> list[float]:
        return sorted(table) if only is None else [only]

    def endpoint_rows(self, only: float | None = None) -> list[Record]:
        rows = [
            {"window_start": window, "endpoint": endpoint, "n": n,
             "mean_ms": total / n}
            for window in self._windows(self.by_endpoint, only)
            for endpoint, (n, total) in self.by_endpoint[window].items()
        ]
        rows.sort(key=lambda row: _group_order(row, "endpoint"))
        return rows

    def error_rows(self) -> list[Record]:
        rows = [
            {"window_start": window, "endpoint": endpoint, "n": n}
            for window in sorted(self.errors)
            for endpoint, n in self.errors[window].items()
        ]
        rows.sort(key=lambda row: _group_order(row, "endpoint"))
        return rows

    def user_rows(self, only: float | None = None) -> list[Record]:
        rows = [
            {"window_start": window, "user": user, "n": n,
             "worst_ms": worst}
            for window in self._windows(self.by_user, only)
            for user, (n, worst) in self.by_user[window].items()
        ]
        rows.sort(key=lambda row: _group_order(row, "user"))
        return rows


def _generate(seed: int, count: int) -> Inputs:
    # 1 000 events per simulated second: a 60 s window holds 60k events
    # and ~12k distinct users, and the drain spans two windows.
    # PumaApp.query scans every window of a table, so at the stream's
    # default density (5x the windows) the refreshes alone would outlast
    # the run.
    return request_events(seed, count, rate=1_000.0)


WORKLOAD = Workload(
    name="puma_dashboard", drain_events=100_000, paced_rate=15_000,
    refresh_every=4, generate=_generate, build=PumaDashboard,
)
