"""Macro benchmark: persist the scenario pack's measures as a baseline.

The hotpath benchmark tracks microseconds; this one tracks *behavior*.
Each end-to-end scenario in :mod:`repro.scenarios` yields deterministic
measures (events shed under backpressure, autoscaler actions, shard-cost
imbalance, join exactness, cache hit rates) that depend only on the code
— not the machine — so the committed ``BENCH_macro.json`` is exactly
reproducible and any drift is a real behavior change.

The report deliberately carries **no wall-clock metrics**: the diff in
``perf_harness.diff_reports`` only applies rate rules when the keys are
present, so macro entries are judged by the absolute floor rules
(``_FLOOR_RULES``) — the bars each scenario was accepted at — and by
``check_regression.py --macro``'s exact match on each scenario's
``digest``.

Usage::

    python benchmarks/bench_macro.py                  # run + print
    python benchmarks/check_regression.py --macro     # diff vs baseline
    python benchmarks/check_regression.py --macro --update
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent
MACRO_BASELINE_PATH = REPO_ROOT / "BENCH_macro.json"

if str(REPO_ROOT / "src") not in sys.path:  # script-mode convenience
    sys.path.insert(0, str(REPO_ROOT / "src"))

from perf_harness import SCHEMA_VERSION  # noqa: E402

from repro.scenarios import run_scenario, scenario_names  # noqa: E402


def run_macro(quick: bool = True, seed: int = 0,
              only: str | None = None) -> dict[str, Any]:
    """Run the scenarios and assemble a perf-harness-shaped report.

    ``only`` restricts the run to one scenario (the CI smoke job runs
    just the cheapest one; the floor rules skip absent benchmarks).
    """
    scale = "smoke" if quick else "full"
    names = [only] if only is not None else scenario_names()
    benchmarks: dict[str, Any] = {}
    for name in names:
        result = run_scenario(name, scale=scale, seed=seed)
        entry: dict[str, Any] = {
            "events_in": result.events_in,
            "events_processed": result.events_processed,
            "modeled_elapsed": round(result.modeled_elapsed, 6),
            "final_lag": result.final_lag,
            "checks_passed_fraction": (
                sum(result.checks.values()) / len(result.checks)
                if result.checks else 0.0),
            "digest": result.digest(),
        }
        for metric, value in sorted(result.measures.items()):
            entry[metric] = round(float(value), 6)
        benchmarks[f"macro_{name}"] = entry
    return {
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "benchmarks": benchmarks,
    }


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", default=None,
                        help="run a single scenario")
    args = parser.parse_args(argv)
    report = run_macro(quick=not args.full, seed=args.seed, only=args.only)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
