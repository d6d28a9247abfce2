"""Command line of bench_e2e (see README.md in this directory).

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
is one run of one workload in this process; its last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` carrying the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``). Without ``--workload`` it runs all four workloads, each
in a fresh process, and prints one table; ``--selfcheck`` runs two such
sets back to back and compares them against the bounds.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402  (the clock above must start first)
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]

#: (name, unit, better, bound): the end-to-end metrics of BENCHMARK.json.
END_TO_END = (
    ("throughput_eps", "events/s", "higher", 0.25),
    ("freshness_p50_ms", "ms", "lower", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)
WORKLOADS = ("puma_dashboard", "scuba_adhoc", "trending_dag",
             "stateful_recovery")
#: Set-up and the drain phase run this many times per ``--trace 0`` run,
#: each drain pass on a fresh pipeline over the same input: ``setup_s``
#: is the median set-up, the drain-phase metrics take each slice and
#: refresh at its quietest (see ``driver.quiet_wall_s``).
REPEATS = 3
#: Share of ``--seconds`` the paced phase takes; the drain input is
#: sized so that the passes together take about the rest.
PACED_SHARE = 0.4


def bootstrap_path() -> None:
    """Make ``repro`` and ``benchmarks.e2e`` importable from a checkout.

    Run as a script, ``sys.path[0]`` is this directory, whose module
    names would shadow nothing useful — replace it with the repo root.
    """
    if not (REPO / "src" / "repro").is_dir():
        sys.stderr.write(f"bench_e2e: no src/repro under {REPO}: this "
                         "benchmark measures the repository it sits in\n")
        raise SystemExit(2)
    if sys.path and Path(sys.path[0]).resolve() == HERE:
        del sys.path[0]
    for entry in (str(REPO), str(REPO / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench_e2e", description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="wall seconds one run measures (default: "
                             "run_seconds of BENCHMARK.json): the paced "
                             "phase takes two fifths, the drain input is "
                             "sized so that three passes take the rest")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the spans here (JSON)")
    parser.add_argument("--phase", choices=("all", "drain", "paced"),
                        default="all", help="run only one timed phase")
    parser.add_argument("--profile", action="store_true",
                        help="fold cProfile tottime by repro.<package> "
                             "next to the span shares")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per workload and set for --selfcheck")
    parser.add_argument("--distinct-seeds", action="store_true",
                        help="--selfcheck repeats use seeds 1..repeats "
                             "instead of seed 1 (what the benchmark "
                             "driver's acceptance check does)")
    parser.add_argument("--report", help="write the --selfcheck report "
                                         "here (JSON)")
    return parser.parse_args(argv)


def sizes(workload, seconds: float) -> tuple[int, float]:
    """(drain events, paced seconds) for a run measuring ``seconds``."""
    from benchmarks.e2e.workload import REFERENCE_SECONDS
    scale = seconds / REFERENCE_SECONDS
    # At least eight slices, so that scaled-down runs still refresh and
    # stateful_recovery's three failures fall into different slices.
    slices = max(8, workload.refresh_every, round(
        workload.drain_events * scale / workload.slice_events))
    return slices * workload.slice_events, seconds * PACED_SHARE


@dataclass
class RunResult:
    """What one run measured, before it is printed."""

    end_to_end: dict[str, float]
    per_layer: dict[str, float] | None
    failures: Any                 # workload.Failures
    attempted: int
    passes: list[Any]             # driver.DrainPass, untraced
    paced: Any = None             # driver.PacedResult
    traced_wall_s: float = 0.0
    traced_events: int = 0


def measure(args: argparse.Namespace) -> RunResult:
    """One run of one workload in this process (prints only tables the
    traced and profiled modes add; the caller prints the result)."""
    from benchmarks.e2e import driver, layers
    from benchmarks.e2e.spans import Tracer
    from benchmarks.e2e.workload import Failures, load_workloads

    workload = load_workloads()[args.workload]
    imports_s = time.perf_counter() - _PROCESS_STARTED
    drain_events, paced_s = sizes(workload, args.seconds)
    paced_events = max(int(workload.paced_rate * paced_s),
                       driver.MIN_PACED_EVENTS)
    paced_s = paced_events / workload.paced_rate
    # A traced run spends its time on the traced pass instead: one
    # set-up, and one untraced pass to compare counts and wall with.
    traced_run = args.trace == 1 or args.profile

    # Set-up, drain pass, set-up, drain pass, set-up, paced phase, drain
    # pass: spread over the run, so that one slow spell of the machine
    # cannot sit on every repeat of the same thing.
    repeats = 1 if traced_run else REPEATS
    setups: list[float] = []
    failures = Failures()
    passes: list[driver.DrainPass] = []
    prepared = paced = None
    for index in range(repeats):
        del prepared
        began = time.perf_counter()
        prepared = driver.set_up(workload, args.seed, drain_events,
                                 paced_events)
        setups.append(time.perf_counter() - began)
        drain_inputs = driver.sub_inputs(prepared.inputs, drain_events)
        if index == repeats - 1 and args.phase in ("all", "paced"):
            pipeline = workload.build(drain_inputs)
            paced = driver.paced(workload, pipeline, prepared,
                                 workload.paced_rate, paced_s)
            if paced.missed:
                failures.add(f"{paced.missed} of {paced.probes} probes not "
                             f"visible within {driver.FRESHNESS_LIMIT_S} s",
                             paced.missed)
            del pipeline
            gc.collect()
        if args.phase in ("all", "drain"):
            pipeline = workload.build(drain_inputs)
            # Only the first pass pays for the reference fold; the
            # others must repeat its counts and refresh results.
            passes.append(driver.drain(workload, pipeline, prepared,
                                       drain_events, verify=index == 0))
            failures.extend(passes[-1].failures)
            if index:
                _count_differences(failures, passes[0], passes[-1],
                                   f"pass {index + 1}")
            del pipeline
            gc.collect()

    result = RunResult(
        end_to_end={
            "throughput_eps":
                drain_events / driver.quiet_wall_s(passes)
                if passes else 0.0,
            "freshness_p50_ms":
                driver.median(paced.freshness_s) * 1e3 if paced else 0.0,
            "query_p50_ms":
                driver.median(driver.quiet_refresh_s(passes)) * 1e3
                if passes else 0.0,
            "peak_rss_mb": 0.0,
            "setup_s": imports_s + driver.median(setups),
        },
        per_layer=None, failures=failures,
        attempted=max(1, (drain_events + len(passes[0].refresh_s)
                          if passes else 0)
                      + (paced.probes if paced else 0)),
        passes=passes, paced=paced)

    if traced_run:
        if not passes or paced is None:
            raise SystemExit("--trace 1 and --profile need --phase all")
        tracer = Tracer()
        tracer.install(layers.targets())
        try:
            pipeline = workload.build(drain_inputs)
            tracer.reset()
            traced = driver.drain(workload, pipeline, prepared,
                                  drain_events)
        finally:
            tracer.uninstall()
        del pipeline
        failures.extend(traced.failures)
        _count_differences(failures, passes[0], traced, "traced pass")
        shares = layers.layer_shares(tracer, traced.wall_s)
        if shares["driver"] > layers.MAX_UNTRACED_SHARE:
            failures.add(f"driver.untraced_share {shares['driver']:.3f} "
                         f"> {layers.MAX_UNTRACED_SHARE}: the ledger "
                         "does not close")
        # Slice by slice, so that a slow spell of the machine during one
        # of the two passes moves a few ratios and not the result.
        overhead = driver.median([
            with_spans / without for with_spans, without
            in zip(traced.segment_s, passes[0].segment_s)]) - 1.0
        result.per_layer = layers.layer_metrics(
            tracer, traced.counts, traced.events, traced.wall_s, overhead,
            _paced_diagnostics(paced), driver.median(passes[0].recovery_s))
        result.traced_wall_s = traced.wall_s
        result.traced_events = traced.events
        if args.trace_out:
            tracer.write(args.trace_out)
        _print_shares(args.workload, shares, traced)
        if args.profile:
            from benchmarks.e2e.cprofile_fold import profile_drain
            profile_drain(workload, workload.build(drain_inputs), prepared,
                          drain_events, shares)

    result.end_to_end["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return result


def run_one(args: argparse.Namespace) -> int:
    """Measure, print every metric by name, end with the JSON line."""
    from benchmarks.e2e import layers

    result = measure(args)
    failures = result.failures
    for line in failures.lines[:20]:
        print(f"MISMATCH {args.workload}: {line}")
    _print_run(args, result)
    if args.trace == 1:
        values = result.per_layer
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        values = result.end_to_end
        units = {name: unit for name, unit, _, _ in END_TO_END}
    print(json.dumps({
        "correct": not failures.count,
        "attempted": result.attempted,
        "failed": min(failures.count, result.attempted),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if failures.count else 0


def _count_differences(failures: Any, first: Any, other: Any,
                       label: str) -> None:
    """Determinism guard: every count of another drain pass must equal
    the first's, and so must what the dashboard was shown."""
    for name in sorted(set(first.counts) | set(other.counts)):
        if first.counts.get(name) != other.counts.get(name):
            failures.add(f"count {name}: first pass "
                         f"{first.counts.get(name)}, {label} "
                         f"{other.counts.get(name)}")
    if first.refresh_digest != other.refresh_digest:
        failures.add(f"refresh results differ between the first pass and "
                     f"the {label}")


def _paced_diagnostics(paced) -> dict[str, float]:
    from benchmarks.e2e import driver, layers
    found = {
        "freshness_p99_ms": driver.percentile(paced.freshness_s, 0.99) * 1e3,
        "freshness_max_ms": max(paced.freshness_s, default=0.0) * 1e3,
        "generator_late_p99_ms": driver.percentile(paced.late_s, 0.99) * 1e3,
        "probes": paced.probes,
        "rounds": paced.rounds,
        "backlog_end_msgs": paced.backlog_end,
        "backlog_peak_msgs": paced.backlog_peak,
    }
    for layer in layers.LAYERS:
        found[f"lag_peak.{layer}"] = paced.lag_peak.get(layer, 0)
    return found


def _print_shares(name: str, shares: dict[str, float], traced) -> None:
    print(f"\n{name}: traced drain {traced.wall_s:.3f} s, "
          f"{traced.events} events — share of wall by layer (self time)")
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        if share:
            print(f"  {layer:<8} {share:7.2%}  "
                  f"{share * traced.wall_s * 1e6 / traced.events:8.3f} "
                  "us/event")


def _print_run(args: argparse.Namespace, result: RunResult) -> None:
    from benchmarks.e2e import driver

    passes, paced = result.passes, result.paced
    print(f"\n{args.workload}  seed={args.seed}  seconds={args.seconds:g}"
          "  (raw wall-clock times)")
    if passes:
        recoveries = [seconds for one in passes
                      for seconds in one.recovery_s]
        print(f"  drain: {passes[0].events} events, {len(passes)} passes of "
              f"{', '.join(f'{one.wall_s:.3f}' for one in passes)} s, "
              f"{driver.quiet_wall_s(passes):.3f} s with each slice at "
              f"its quietest; {len(passes[0].refresh_s)} refreshes a pass"
              + (f"; {len(recoveries)} recoveries, median "
                 f"{driver.median(recoveries):.4f} s" if recoveries else ""))
    if paced:
        print(f"  paced: {paced.events} events at "
              f"{paced.events / paced.elapsed_s:.0f}/s for "
              f"{paced.elapsed_s:.2f} s, {len(paced.freshness_s)} of "
              f"{paced.probes} probes seen, {paced.refreshes} refreshes, "
              f"backlog peak {paced.backlog_peak}")
    print(f"  failed_fraction: {result.failures.count}/{result.attempted} "
          "(events + probes + refreshes)")
    for name, unit, _, _ in END_TO_END:
        print(f"  {name:<40} {result.end_to_end[name]:>14.4f} {unit}")
    if result.per_layer and args.trace == 1:
        for name, value in result.per_layer.items():
            if value:
                print(f"  {name:<40} {value:>14.4f}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    bootstrap_path()
    if args.seconds is None:
        from benchmarks.e2e.workload import REFERENCE_SECONDS
        args.seconds = float(REFERENCE_SECONDS)
    if args.selfcheck:
        from benchmarks.e2e.selfcheck import selfcheck
        return selfcheck(args.repeats, args.seconds, args.report,
                         args.distinct_seeds)
    if args.workload:
        return run_one(args)
    from benchmarks.e2e.selfcheck import run_all
    return run_all(args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
