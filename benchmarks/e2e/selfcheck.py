"""Running the whole benchmark: all workloads once, or twice to self-check.

Every run is a fresh ``run.py --workload ...`` process (one process and
one thread per run, as the benchmark defines it); this module only starts
them one after another, reads the JSON line each prints last, and
compares sets of runs against the bounds in ``run.END_TO_END``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from typing import Any

from benchmarks.e2e import run
from benchmarks.e2e.layers import PER_LAYER

RUN_TIMEOUT_S = 600
#: Per-layer metrics that are pure functions of the seed: compared
#: exactly between the two sets. (Paced-phase diagnostics follow the wall
#: clock; ``driver.src_loc`` follows the checkout.)
EXACT_UNITS = ("count", "bytes")
WALL_CLOCK_COUNTS = ("driver.probes", "driver.rounds",
                     "driver.backlog_end_msgs", "scribe.backlog_peak_msgs")


def run_workload(name: str, seed: int, seconds: float, trace: int
                 ) -> dict[str, Any]:
    """One run in a fresh process; returns its final JSON object."""
    command = [sys.executable, str(run.HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", repr(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout + done.stderr)
        raise RuntimeError(f"{name} seed {seed}: no result "
                           f"(exit code {done.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        for line in lines:
            if line.startswith("MISMATCH"):
                print(line)
    return result


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """All four workloads, one fresh process each; one table."""
    failed = 0
    for name in run.WORKLOADS:
        results = [run_workload(name, seed, seconds, 0)]
        if trace:
            results.append(run_workload(name, seed, seconds, 1))
        print(f"\n{name}  seed={seed}  seconds={seconds:g}")
        for result in results:
            failed += result["failed"]
            print(f"  failed_fraction {result['failed']}/"
                  f"{result['attempted']}  correct={result['correct']}")
            for metric, cell in result["metrics"].items():
                if cell["value"]:
                    print(f"  {metric:<40} {cell['value']:>16.4f} "
                          f"{cell['unit']}")
    return 1 if failed else 0


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def _worsening(better: str, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of it."""
    change = (after - before) / before
    return -change if better == "higher" else change


def selfcheck(repeats: int, seconds: float, report_path: str | None,
              distinct_seeds: bool) -> int:
    """Two full sets of the same code, back to back, alternating the
    workload order; non-zero when any end-to-end metric's medians differ
    by more than its bound, spreads wider than it, or a count differs.

    A set is ``repeats`` runs of seed 1 per workload, so its spread is
    run-to-run noise alone, plus one run of seed 2 that only has to be
    correct and repeat its counts. With ``distinct_seeds`` the repeats
    use seeds 1..``repeats`` instead, as the acceptance check of the
    benchmark driver does, and input variance is part of the spread.
    """
    seeds = list(range(1, repeats + 1)) if distinct_seeds \
        else [1] * repeats + [2]
    values: list[dict[str, dict[str, list[float]]]] = []
    traced: list[dict[str, dict[str, Any]]] = []
    attempted: list[dict[tuple[str, int], int]] = []
    verdict = 0
    for order in (run.WORKLOADS, tuple(reversed(run.WORKLOADS))):
        per_set: dict[str, dict[str, list[float]]] = {
            name: {metric: [] for metric, _, _, _ in run.END_TO_END}
            for name in run.WORKLOADS}
        tried: dict[tuple[str, int], int] = {}
        for index, seed in enumerate(seeds):
            for name in order:
                result = run_workload(name, seed, seconds, 0)
                tried[(name, index)] = result["attempted"]
                if not result["correct"]:
                    verdict = 1
                    print(f"FAIL {name} seed {seed}: "
                          f"{result['failed']} failed")
                if index < repeats:
                    for metric, cell in result["metrics"].items():
                        per_set[name][metric].append(cell["value"])
        values.append(per_set)
        attempted.append(tried)
        traced.append({name: run_workload(name, seeds[0], seconds, 1)
                       for name in order})

    report: dict[str, Any] = {"seconds": seconds, "seeds": seeds,
                              "workloads": {}}
    for name in run.WORKLOADS:
        rows = report["workloads"].setdefault(name, {})
        print(f"\n{name}")
        for metric, unit, better, bound in run.END_TO_END:
            first, second = (values[0][name][metric],
                             values[1][name][metric])
            medians = [statistics.median(first), statistics.median(second)]
            spreads = [spread(first), spread(second)]
            drift = _worsening(better, medians[0], medians[1])
            ok = drift <= bound and max(spreads) <= bound
            verdict |= not ok
            rows[metric] = {"unit": unit, "bound": bound,
                            "values": [first, second],
                            "medians": medians, "spreads": spreads,
                            "second_worse_by": drift, "ok": ok}
            print(f"  {metric:<18} median {medians[0]:>12.4f} / "
                  f"{medians[1]:>12.4f} {unit:<9} spread "
                  f"{spreads[0]:6.2%} / {spreads[1]:6.2%}  drift "
                  f"{drift:+7.2%}  bound {bound:.0%}  "
                  f"{'ok' if ok else 'FAIL'}")
        differing = _count_differences(traced[0][name], traced[1][name])
        differing.extend(
            f"attempted (run {index + 1}, seed {seed}): "
            f"{attempted[0][(name, index)]} vs "
            f"{attempted[1][(name, index)]}"
            for index, seed in enumerate(seeds)
            if attempted[0][(name, index)] != attempted[1][(name, index)])
        rows["count_differences"] = differing
        for line in differing:
            verdict = 1
            print(f"  COUNT DIFFERS {line}")
        for index, result in enumerate(traced):
            if not result[name]["correct"]:
                verdict = 1
                print(f"  FAIL traced run of set {index + 1}")
    if report_path:
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    print("\nselfcheck:", "FAIL" if verdict else "ok")
    return verdict


def _count_differences(first: dict[str, Any], second: dict[str, Any]
                       ) -> list[str]:
    exact = [name for name, unit, _ in PER_LAYER
             if unit in EXACT_UNITS and name not in WALL_CLOCK_COUNTS
             and not name.endswith("lag_peak_msgs")]
    return [
        f"{name}: {first['metrics'][name]['value']} vs "
        f"{second['metrics'][name]['value']}"
        for name in exact
        if first["metrics"][name]["value"]
        != second["metrics"][name]["value"]
    ]
