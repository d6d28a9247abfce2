"""``--profile``: cProfile's view of the drain phase, folded by package.

A cross-check on the span ledger, not a second source of numbers: the
profiler taxes every Python call but not time inside C, so proportions
shift. What it is good for is spotting a mis-attributed layer — a package
whose ``tottime`` share is far from its span share means a wrapper is
missing or sits on the wrong boundary.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Any

from benchmarks.e2e import driver
from benchmarks.e2e.workload import Pipeline, Workload


def _package_of(filename: str) -> str:
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        if "/benchmarks/e2e/" in filename:
            return "driver"
        if "/json/" in filename:
            return "serde"  # the stdlib codec serde.py delegates to
        return "(python)"
    head = filename[at + len(marker):].split("/", 1)[0]
    return head[:-3] if head.endswith(".py") else head


def profile_drain(workload: Workload, pipeline: Pipeline,
                  prepared: driver.Prepared, count: int,
                  span_shares: dict[str, float]) -> None:
    """Run one more drain under cProfile and print both attributions."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        driver.drain(workload, pipeline, prepared, count)
    finally:
        profiler.disable()
    stats: Any = pstats.Stats(profiler)
    by_package: dict[str, float] = {}
    for (filename, _, _), (_, _, tottime, _, _) in stats.stats.items():
        package = _package_of(filename)
        by_package[package] = by_package.get(package, 0.0) + tottime
    total = sum(by_package.values())
    print(f"\n{workload.name}: cProfile tottime by package next to the "
          "span self-time shares")
    print(f"  {'package':<10} {'cProfile':>9} {'spans':>9}")
    names = sorted(set(by_package) | set(span_shares),
                   key=lambda name: -by_package.get(name, 0.0))
    for name in names:
        print(f"  {name:<10} {by_package.get(name, 0.0) / total:>9.2%} "
              f"{span_shares.get(name, 0.0):>9.2%}")
