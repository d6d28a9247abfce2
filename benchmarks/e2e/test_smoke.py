"""Smoke test of the harness itself: ``pytest benchmarks/e2e -q``.

Each workload at 1/50 scale, traced: nothing fails verification, every
named metric exists with a finite value, the ledger closes, and each
workload still exercises the mechanism it exists for. This
directory is outside the tier-1 ``testpaths`` on purpose — it guards the
benchmark against rotting, not the library.
"""

from __future__ import annotations

import json
import math

import pytest

from benchmarks.e2e import run

run.bootstrap_path()

from benchmarks.e2e import layers  # noqa: E402  (needs the path above)


#: 1/50 of the reference ``--seconds``; ``scuba_adhoc`` gets 1/15, the
#: least that leaves a sealed segment without a single 5xx to prune.
SECONDS = {name: 0.4 for name in run.WORKLOADS} | {"scuba_adhoc": 1.3}
#: The layers each workload exists to load (README, "Per-layer metrics").
DOMINANT = {"puma_dashboard": ("puma", "storage", "laser"),
            "scuba_adhoc": ("scuba",),
            "trending_dag": ("serde", "scribe", "stylus"),
            "stateful_recovery": ("stylus", "storage")}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_scaled_down(workload: str) -> None:
    args = run.parse_args(["--workload", workload, "--seconds",
                           str(SECONDS[workload]), "--trace", "1"])
    result = run.measure(args)
    assert result.failures.lines == []
    assert result.attempted > 0
    assert set(result.end_to_end) == {name for name, *_ in run.END_TO_END}
    assert set(result.per_layer) == {name for name, *_ in layers.PER_LAYER}
    for name, value in {**result.end_to_end, **result.per_layer}.items():
        assert math.isfinite(value), name
    for name, *_ in run.END_TO_END:
        assert result.end_to_end[name] > 0, name
    assert (result.per_layer["driver.untraced_share"]
            <= layers.MAX_UNTRACED_SHARE)
    self_us = {layer: result.per_layer[f"{layer}.self_us_per_event"]
               for layer in layers.LAYERS}
    total = sum(self_us.values())
    assert total == pytest.approx(
        1e6 * result.traced_wall_s / result.traced_events)
    # The weakest of the designed shares: at this scale the fixed costs
    # weigh more than in a full run, so this only catches a workload
    # that stopped loading its layers at all.
    assert sum(self_us[layer] for layer in DOMINANT[workload]) > 0.45 * total
    if workload == "scuba_adhoc":
        assert self_us["puma"] == self_us["stylus"] == 0
        assert result.per_layer["scuba.segments_pruned_per_query"] > 0


def test_manifest_names_what_the_code_measures() -> None:
    manifest = run.REPO / "BENCHMARK.json"
    if not manifest.is_file():
        pytest.skip("no BENCHMARK.json beside this checkout")
    with open(manifest, encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == list(layers.PER_LAYER)
