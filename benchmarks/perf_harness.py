"""Perf-regression harness: run, persist, and diff hot-path benchmarks.

This is the trajectory-tracking side of the benchmark suite: the figure
benchmarks reproduce the paper's *plots*, while this module measures our
*implementation* — wall-clock microbenchmarks plus deterministic work
counters — and persists them to ``BENCH_hotpath.json`` at the repo root
so every future PR can be judged against the committed baseline.

Two kinds of metric, diffed with different strictness:

- ``*_per_sec`` / ``*_us`` wall-clock rates: noisy, so regressions are
  flagged only past a configurable threshold (default 25%);
- ``counters``: deterministic work counts (SSTable probes per absent
  read, modeled per-event seconds). These do not jitter with scheduler
  noise — only with algorithm changes — so they get their own tolerance.

Entry points: ``benchmarks/bench_hotpath.py`` (run + write the JSON) and
``benchmarks/check_regression.py`` (diff a fresh run against the
committed baseline; nonzero exit on regression).
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_hotpath.json"
SCHEMA_VERSION = 1

#: Work counters are compared with their own tolerance, independent of
#: the wall-clock threshold. It is loose enough to absorb bloom-filter
#: false-positive-rate differences between the quick checker run and the
#: full-size committed baseline, but still catches structural regressions
#: (e.g. absent-key probes reverting to one-scan-per-run is a >10x jump).
COUNTER_TOLERANCE = 0.5

if str(REPO_ROOT / "src") not in sys.path:  # script-mode convenience
    sys.path.insert(0, str(REPO_ROOT / "src"))


@dataclass
class BenchResult:
    """One microbenchmark: wall time, op count, and derived metrics."""

    name: str
    wall_seconds: float
    ops: int
    metrics: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def us_per_op(self) -> float:
        return self.wall_seconds / self.ops * 1e6 if self.ops else 0.0

    def as_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "wall_seconds": round(self.wall_seconds, 6),
            "ops": self.ops,
            "ops_per_sec": round(self.ops_per_sec, 1),
            "us_per_op": round(self.us_per_op, 3),
        }
        payload.update({k: round(v, 6) for k, v in self.metrics.items()})
        if self.counters:
            payload["counters"] = {
                k: round(v, 6) for k, v in self.counters.items()
            }
        return payload


def timed(func: Callable[[], int], *, repeat: int = 3) -> tuple[float, int]:
    """Best-of-``repeat`` wall time for ``func`` (returns its op count).

    Best-of is the standard defense against scheduler noise: the minimum
    is the run with the least interference, and it is what a regression
    should be judged on.
    """
    best = float("inf")
    ops = 0
    for _ in range(repeat):
        start = time.perf_counter()
        ops = func()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, ops


def collect(results: list[BenchResult], quick: bool) -> dict[str, Any]:
    """Assemble the persistable report."""
    return {
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "benchmarks": {result.name: result.as_dict() for result in results},
    }


def write_report(report: dict[str, Any], path: Path = BASELINE_PATH) -> Path:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path: Path = BASELINE_PATH) -> dict[str, Any]:
    return json.loads(path.read_text())


@dataclass(frozen=True)
class Regression:
    """One metric that regressed past its tolerance."""

    benchmark: str
    metric: str
    baseline: float
    current: float
    threshold: float

    @property
    def change(self) -> float:
        if self.baseline == 0:
            return float("inf")
        return self.current / self.baseline - 1.0

    def describe(self) -> str:
        return (f"{self.benchmark}.{self.metric}: {self.baseline:g} -> "
                f"{self.current:g} ({self.change:+.1%}, "
                f"threshold {self.threshold:.0%})")


#: metric-name suffix -> direction ("higher"/"lower" is better). Metrics
#: not matching any rule are informational and never flagged.
_RATE_RULES: list[tuple[str, str]] = [
    ("ops_per_sec", "higher"),
    ("us_per_op", "lower"),
]
#: Only size-independent (per-op) counters participate in the diff —
#: totals like ``naive_scans`` scale with the run size, and the quick
#: checker run is smaller than the committed full-size baseline.
_COUNTER_RULES: list[tuple[str, str]] = [
    ("probes_per_absent_read", "lower"),
    ("modeled_seconds_per_event", "lower"),
    ("cache_hits_per_refresh", "higher"),
]
#: (benchmark, metric, floor): absolute acceptance bars checked on the
#: *current* run alone. Speedup ratios are size-dependent (a quick run's
#: ratio is legitimately smaller than the full-size baseline's), so a
#: relative diff would misfire — but dropping below the bar the feature
#: was accepted at is a regression at any size. Metrics are looked up
#: top-level first, then under ``counters``.
_FLOOR_RULES: list[tuple[str, str, float]] = [
    ("scuba_query", "columnar_speedup", 3.0),
    ("scuba_compiled", "plan_cache_hit_rate", 0.5),
    ("segment_pruning", "segments_pruned_per_query", 1.0),
    ("dashboard_refresh", "cached_refresh_speedup", 5.0),
    ("dashboard_refresh", "cache_hits_per_refresh", 1.0),
    ("puma_compiled", "plan_cache_hit_rate", 0.5),
    ("delta_checkpoint", "restart_speedup", 5.0),
    ("shard_scaling", "scaling_efficiency_4x", 2.5),
    ("backpressure", "credits_blocked", 1.0),
    ("backpressure", "depth_within_bound", 1.0),
    ("backup_restore", "runs_reused", 1.0),
    # Macro scenarios (BENCH_macro.json, benchmarks/bench_macro.py):
    # every acceptance check green, and the headline behaviors — the
    # flash crowd sheds and triggers scaling, the hot key shows up in
    # the imbalance gauge, the join is exact, the noisy tenant is the
    # one that blocks — hold at any scale.
    ("macro_ad_click_join", "checks_passed_fraction", 1.0),
    ("macro_diurnal_flash_crowd", "checks_passed_fraction", 1.0),
    ("macro_hot_key_skew", "checks_passed_fraction", 1.0),
    ("macro_multi_tenant", "checks_passed_fraction", 1.0),
    ("macro_session_trending", "checks_passed_fraction", 1.0),
    ("macro_ad_click_join", "join_exactness", 1.0),
    ("macro_diurnal_flash_crowd", "events_shed", 1.0),
    ("macro_diurnal_flash_crowd", "scaling_actions", 2.0),
    ("macro_hot_key_skew", "shard_cost_imbalance", 1.5),
    ("macro_multi_tenant", "b_shed", 1.0),
    ("macro_session_trending", "joiner_cache_hit_rate", 0.8),
]
#: (benchmark, metric, ceiling): the same, for a ratio that must stay
#: *under* its bar — a backup of a store 8x larger may cost at most 3x
#: the first one (a copying backup engine reads 8x).
_CEILING_RULES: list[tuple[str, str, float]] = [
    ("backup_restore", "backup_flatness", 3.0),
]


def _check(benchmark: str, metric: str, base: float, cur: float,
           direction: str, threshold: float) -> Regression | None:
    if base <= 0:
        # A zero baseline has no ratio; for lower-is-better counters any
        # value past the tolerance is still a regression (e.g. absent-key
        # probes going from 0 back to one-per-run).
        if direction == "lower" and cur > threshold:
            return Regression(benchmark, metric, base, cur, threshold)
        return None
    if direction == "higher":
        regressed = cur < base * (1.0 - threshold)
    else:
        regressed = cur > base * (1.0 + threshold)
    if regressed:
        return Regression(benchmark, metric, base, cur, threshold)
    return None


def diff_reports(current: dict[str, Any], baseline: dict[str, Any],
                 threshold: float = 0.25) -> list[Regression]:
    """Compare two reports; return the metrics that regressed.

    Wall-clock rates use ``threshold``; deterministic counters use
    ``COUNTER_TOLERANCE``. Benchmarks present in only one report are
    ignored (adding a benchmark must not fail the checker).
    """
    regressions: list[Regression] = []
    base_benches = baseline.get("benchmarks", {})
    for name, bench in current.get("benchmarks", {}).items():
        base = base_benches.get(name)
        if base is None:
            continue
        for suffix, direction in _RATE_RULES:
            if suffix in bench and suffix in base:
                found = _check(name, suffix, base[suffix], bench[suffix],
                               direction, threshold)
                if found:
                    regressions.append(found)
        base_counters = base.get("counters", {})
        for key, value in bench.get("counters", {}).items():
            if key not in base_counters:
                continue
            for suffix, direction in _COUNTER_RULES:
                if key == suffix:
                    found = _check(name, key, base_counters[key], value,
                                   direction, COUNTER_TOLERANCE)
                    if found:
                        regressions.append(found)
    for rules, sign in ((_FLOOR_RULES, 1), (_CEILING_RULES, -1)):
        for bench_name, metric, bar in rules:
            bench = current.get("benchmarks", {}).get(bench_name)
            if bench is None:
                continue
            value = bench.get(metric, bench.get("counters", {}).get(metric))
            if value is not None and sign * value < sign * bar:
                regressions.append(Regression(bench_name, metric,
                                              baseline=bar, current=value,
                                              threshold=0.0))
    return regressions
