"""Seeded input generation: the pipelines receive only these records.

Two streams feed the four workloads. The *request stream* (Section 5.2's
dashboard input) is in event-time order with Zipf-skewed users and
endpoints and server errors that come in incidents; all numeric fields are integers so every aggregate the
reference recomputes is exact, not float-order dependent. The *trending
stream* is ``repro.workloads.events.TrendingEventsWorkload`` (Figure 3's
input, with bounded event-time disorder).

Every generator draws from ``make_rng(seed, stream)``, so the same seed
gives byte-identical inputs in every process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any

from repro.runtime.rng import make_rng
from repro.workloads.events import TrendingEventsWorkload

Record = dict[str, Any]

#: Event-time density of the request stream when a workload does not
#: choose its own: 200 events per simulated second.
REQUEST_EVENTS_PER_SECOND = 200.0
NUM_ENDPOINTS = 40
NUM_USERS = 20_000
STATUSES = (200, 404, 500, 503)
#: Inside an incident; outside one a drawn 5xx is served as a 200.
STATUS_WEIGHTS = (80, 5, 9, 6)
#: Server errors come in incidents, not evenly: the first 20 s of every
#: simulated minute. Stretches without a single 5xx are what lets a
#: ``status >= 500`` panel skip whole Scuba segments by their zone maps.
INCIDENT_EVERY_S = 60.0
INCIDENT_LASTS_S = 20.0
COUNTRIES = ("US", "BR", "IN", "GB", "ID", "MX", "DE", "FR", "JP", "NG",
             "TR", "VN")

#: Event-time density of the trending stream (events per simulated s).
TRENDING_EVENTS_PER_SECOND = 200.0
TRENDING_DIMENSIONS = 2_000


@dataclass
class Inputs:
    """One workload's generated input, ready to be written to Scribe."""

    events: list[Record]
    keys: list[str]                      # shard key per event
    #: Side table rows loaded before the stream starts (trending only).
    dimension_rows: list[Record] = field(default_factory=list)


def _zipf_cum_weights(n: int, exponent: float) -> list[float]:
    return list(accumulate(1.0 / (i + 1) ** exponent for i in range(n)))


def request_events(seed: int, count: int, with_country: bool = False,
                   rate: float = REQUEST_EVENTS_PER_SECOND) -> Inputs:
    """``count`` request-log records in event-time order, keyed by user,
    ``rate`` of them per simulated second."""
    rng = make_rng(seed, "e2e-requests")
    users = [f"u{i:05d}" for i in range(NUM_USERS)]
    endpoints = [f"/api/e{i:02d}" for i in range(NUM_ENDPOINTS)]
    user_col = rng.choices(users, cum_weights=_zipf_cum_weights(
        NUM_USERS, 1.05), k=count)
    endpoint_col = rng.choices(endpoints, cum_weights=_zipf_cum_weights(
        NUM_ENDPOINTS, 1.0), k=count)
    status_col = [
        status if status < 500
        or (i / rate) % INCIDENT_EVERY_S < INCIDENT_LASTS_S else 200
        for i, status in enumerate(
            rng.choices(STATUSES, weights=STATUS_WEIGHTS, k=count))
    ]
    expovariate = rng.expovariate
    latency_col = [5 + int(expovariate(0.02)) for _ in range(count)]
    if with_country:
        country_col = rng.choices(COUNTRIES, k=count)
        events = [
            {"event_time": round(i / rate, 3), "endpoint": endpoint,
             "status": status, "latency_ms": latency, "user": user,
             "country": country}
            for i, (endpoint, status, latency, user, country) in enumerate(
                zip(endpoint_col, status_col, latency_col, user_col,
                    country_col))
        ]
    else:
        events = [
            {"event_time": round(i / rate, 3), "endpoint": endpoint,
             "status": status, "latency_ms": latency, "user": user}
            for i, (endpoint, status, latency, user) in enumerate(
                zip(endpoint_col, status_col, latency_col, user_col))
        ]
    return Inputs(events, user_col)


def trending_events(seed: int, count: int) -> Inputs:
    """``count`` Figure 3 events (2 s disorder, 60% pass the filter)."""
    workload = TrendingEventsWorkload(
        seed=seed, num_dimensions=TRENDING_DIMENSIONS,
        rate_per_second=TRENDING_EVENTS_PER_SECOND,
        max_disorder_seconds=2.0, interesting_fraction=0.6)
    events = list(workload.generate(count / TRENDING_EVENTS_PER_SECOND))
    # Floating-point truncation in generate() can drop the last event.
    del events[count:]
    return Inputs(events, [event["dim_id"] for event in events],
                  workload.dimension_rows())
