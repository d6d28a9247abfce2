"""CI entry point: fail the build on hot-path perf regressions.

Runs the hotpath microbenchmarks (quick mode by default, well under the
60-second budget) and diffs them against the committed
``BENCH_hotpath.json``. Exits nonzero if any wall-clock rate regressed
past the threshold (default 25%) or any deterministic work counter
regressed past its tight tolerance.

Usage::

    python benchmarks/check_regression.py             # quick run, 25%
    python benchmarks/check_regression.py --threshold 0.10
    python benchmarks/check_regression.py --full      # full-size run
    python benchmarks/check_regression.py --update    # rewrite baseline
    python benchmarks/check_regression.py --macro     # scenario pack
    python benchmarks/check_regression.py --macro --only hot_key_skew

``--macro`` switches to the end-to-end scenario pack: it diffs a fresh
``benchmarks/bench_macro.py`` run against ``BENCH_macro.json``. The
absolute floor rules apply (macro reports carry no wall-clock metrics),
and each scenario's behavior ``digest`` must match the committed one
exactly — the measures are deterministic, so any drift is a behavior
change; ``--update`` records a deliberate one. ``--only`` restricts the
macro run to one scenario — the CI smoke job runs the cheapest one;
floors and digests skip absent benchmarks.

The same check is available as a pytest marker::

    PYTHONPATH=src python -m pytest benchmarks/bench_hotpath.py -m perf_smoke
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from perf_harness import (  # noqa: E402  (path bootstrap above)
    BASELINE_PATH,
    diff_reports,
    load_report,
    write_report,
)


def digest_drift(current: dict, baseline: dict) -> list[str]:
    """Describe every scenario whose digest differs from the baseline's.

    Digests depend on the run's scale, so a report at another scale
    than the baseline (``--full`` against a quick baseline) has none to
    compare.
    """
    if current.get("quick") != baseline.get("quick"):
        return []
    committed = baseline.get("benchmarks", {})
    return [
        f"{name}: digest {entry['digest']} != committed "
        f"{committed.get(name, {}).get('digest')}"
        for name, entry in sorted(current.get("benchmarks", {}).items())
        if "digest" in entry
        and committed.get(name, {}).get("digest") != entry["digest"]
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH,
                        help="baseline JSON to compare against")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed wall-clock regression (default 0.25)")
    parser.add_argument("--full", action="store_true",
                        help="full-size run instead of quick mode")
    parser.add_argument("--update", action="store_true",
                        help="write the fresh run to the baseline and exit")
    parser.add_argument("--macro", action="store_true",
                        help="check the macro scenario pack instead")
    parser.add_argument("--only", default=None,
                        help="with --macro: run a single scenario")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    if args.macro:
        from bench_macro import MACRO_BASELINE_PATH, run_macro

        if args.baseline == BASELINE_PATH:  # not overridden on the CLI
            args.baseline = MACRO_BASELINE_PATH
        current = run_macro(quick=not args.full, only=args.only)
    else:
        from bench_hotpath import run_hotpath

        current = run_hotpath(quick=not args.full)
    elapsed = time.perf_counter() - start

    if args.update:
        path = write_report(current, args.baseline)
        print(f"baseline updated: {path} ({elapsed:.1f}s)")
        return 0

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; run with --update first",
              file=sys.stderr)
        return 2

    baseline = load_report(args.baseline)
    regressions = diff_reports(current, baseline, threshold=args.threshold)
    if regressions:
        print(f"PERF REGRESSION ({len(regressions)} metric(s), "
              f"bench took {elapsed:.1f}s):", file=sys.stderr)
        for regression in regressions:
            print(f"  {regression.describe()}", file=sys.stderr)
        return 1
    drift = digest_drift(current, baseline) if args.macro else []
    if drift:
        print(f"BEHAVIOR DRIFT ({len(drift)} scenario(s)):", file=sys.stderr)
        for line in drift:
            print(f"  {line}", file=sys.stderr)
        return 1
    digests = ", digests match" if args.macro else ""
    print(f"perf ok: no regression past {args.threshold:.0%}{digests} "
          f"(bench took {elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
