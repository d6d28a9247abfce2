"""The per-layer ledger: what to wrap, and the metrics read off the spans.

Layers are the packages under ``src/repro``. ``targets()`` names the
public callables the tracer wraps — only public names, so a refactor of a
layer's internals cannot break the benchmark — and ``layer_metrics``
turns one traced drain phase (plus the untraced run's paced-phase
samples and the pipeline's own counters) into the ``per_layer`` metrics
of BENCHMARK.json.

How the metrics interact, stated before measuring: one thread, nothing
contending, so a faster layer saves at most its self-time share of the
drain wall. ``sum(<layer>.self_us_per_event) == 1e6 / traced events/s``
by construction, and the largest term names the bottleneck.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from benchmarks.e2e.driver import median
from benchmarks.e2e.spans import Target, Tracer

LAYERS = ("serde", "scribe", "stylus", "apps", "puma", "laser", "scuba",
          "storage", "hive", "swift", "core", "driver")

#: (name, unit, better) for every per-layer metric, in print order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *((f"{layer}.self_us_per_event", "us", "lower") for layer in LAYERS),
    ("serde.encode_us_per_msg", "us", "lower"),
    ("serde.decode_us_per_msg", "us", "lower"),
    ("serde.bytes_per_msg", "bytes", "lower"),
    ("serde.poison_msgs", "count", "lower"),
    ("scribe.write_us_per_msg", "us", "lower"),
    ("scribe.read_us_per_msg", "us", "lower"),
    ("scribe.msgs_written", "count", "lower"),
    ("scribe.msgs_read", "count", "lower"),
    ("scribe.hops_per_event", "ratio", "lower"),
    ("scribe.read_batch_mean_msgs", "count", "higher"),
    ("scribe.bytes_appended", "bytes", "lower"),
    ("scribe.backlog_peak_msgs", "count", "lower"),
    ("stylus.checkpoint_ms_mean", "ms", "lower"),
    ("stylus.state_save_ms_mean", "ms", "lower"),
    ("stylus.checkpoints", "count", "lower"),
    ("stylus.events", "count", "lower"),
    ("stylus.outputs", "count", "lower"),
    ("stylus.replayed_events", "count", "lower"),
    ("stylus.recovery_s", "s", "lower"),
    ("stylus.lag_peak_msgs", "count", "lower"),
    ("apps.process_us_per_event", "us", "lower"),
    ("apps.joiner_cache_hit_rate", "ratio", "higher"),
    ("apps.classifier_calls", "count", "lower"),
    ("puma.checkpoint_ms_mean", "ms", "lower"),
    ("puma.checkpoint_share", "ratio", "lower"),
    ("puma.cells_flushed_per_checkpoint", "count", "lower"),
    ("puma.view_rows_per_checkpoint", "count", "lower"),
    ("puma.plan_cache_hit_rate", "ratio", "higher"),
    ("puma.query_ms_p50", "ms", "lower"),
    ("puma.lag_peak_msgs", "count", "lower"),
    ("laser.write_us_per_row", "us", "lower"),
    ("laser.get_us_p50", "us", "lower"),
    ("laser.rows_written", "count", "lower"),
    ("laser.reads", "count", "lower"),
    ("laser.lag_peak_msgs", "count", "lower"),
    ("scuba.ingest_us_per_row", "us", "lower"),
    ("scuba.seal_ms_mean", "ms", "lower"),
    ("scuba.segments", "count", "lower"),
    ("scuba.query_grouped_ms_p50", "ms", "lower"),
    ("scuba.query_filtered_ms_p50", "ms", "lower"),
    ("scuba.query_timeseries_ms_p50", "ms", "lower"),
    ("scuba.rows_scanned_per_query", "count", "lower"),
    ("scuba.segments_pruned_per_query", "count", "higher"),
    ("scuba.query_cache_hit_rate", "ratio", "higher"),
    ("scuba.plan_cache_hit_rate", "ratio", "higher"),
    ("scuba.lag_peak_msgs", "count", "lower"),
    ("storage.lsm_write_us_per_op", "us", "lower"),
    ("storage.lsm_get_us_p50", "us", "lower"),
    ("storage.lsm_flushes", "count", "lower"),
    ("storage.lsm_compactions", "count", "lower"),
    ("storage.lsm_compaction_ms_total", "ms", "lower"),
    ("storage.hbase_put_us_per_cell", "us", "lower"),
    ("storage.hbase_scan_ms_mean", "ms", "lower"),
    ("storage.backup_ms_mean", "ms", "lower"),
    ("storage.restore_ms_mean", "ms", "lower"),
    ("storage.state_keys", "count", "lower"),
    ("hive.ingest_us_per_row", "us", "lower"),
    ("swift.pump_us_per_msg", "us", "lower"),
    ("core.dag_self_us_per_round", "us", "lower"),
    ("runtime.cost_model_receive_ratio", "ratio", "lower"),
    ("runtime.cost_model_deserialize_ratio", "ratio", "lower"),
    ("runtime.cost_model_process_ratio", "ratio", "lower"),
    ("driver.freshness_p99_ms", "ms", "lower"),
    ("driver.freshness_max_ms", "ms", "lower"),
    ("driver.generator_late_p99_ms", "ms", "lower"),
    ("driver.probes", "count", "higher"),
    ("driver.rounds", "count", "higher"),
    ("driver.backlog_end_msgs", "count", "lower"),
    ("driver.untraced_share", "ratio", "lower"),
    ("driver.tracing_overhead", "ratio", "lower"),
    ("driver.src_loc", "lines", "lower"),
)

#: The traced run fails loudly above this share of unattributed time.
MAX_UNTRACED_SHARE = 0.10


def _query_kind(query: Any) -> str:
    return "grouped" if query.group_by else "filtered"


def _returned(result: Any, args: tuple, kwargs: dict) -> int:
    return len(result)


def _batch_ops(result: Any, args: tuple, kwargs: dict) -> int:
    """Mutations in one ``LsmStore.write_batch`` (every parameter is a
    collection of them)."""
    return sum(len(part) for part in (*args[1:], *kwargs.values()) if part)


def _one(result: Any, args: tuple, kwargs: dict) -> int:
    return 1


def targets() -> list[Target]:
    """Every public callable the traced run wraps, by layer."""
    from repro import serde
    from repro.apps import trending
    from repro.core.dag import Dag
    from repro.hive.warehouse import HiveWarehouse
    from repro.laser.service import LaserTable
    from repro.puma.app import PumaApp
    from repro.scribe.reader import CategoryReader, ScribeReader
    from repro.scribe.writer import ScribeWriter
    from repro.scuba.columns import Segment
    from repro.scuba.ingest import ScubaIngester
    from repro.scuba.query import ScubaQuery
    from repro.scuba.table import ScubaTable
    from repro.storage.backup import BackupEngine
    from repro.storage.hbase import HBaseTable
    from repro.storage.hdfs import HdfsBlobStore
    from repro.storage.lsm import LsmStore
    from repro.stylus.engine import StylusTask
    from repro.stylus.state import InMemoryStateBackend, LocalDbStateBackend
    from repro.swift.engine import SwiftApp

    from benchmarks.e2e.wl_recovery import RequestMonoid

    found = [
        # serde: per-record calls aggregate, batch calls keep spans.
        Target("serde", serde, "encode"),
        Target("serde", serde, "decode"),
        Target("serde", serde, "encode_batch", keep=True, items=_returned),
        Target("serde", serde, "decode_batch", keep=True, items=_returned),
        # scribe: ScribeStore.write_to runs inside the writer spans and
        # is the same layer, so it needs no span of its own.
        Target("scribe", ScribeWriter, "write"),
        Target("scribe", ScribeWriter, "write_batch", keep=True,
               items=_returned),
        Target("scribe", ScribeReader, "read_batch", items=_returned),
        Target("scribe", CategoryReader, "read_batch"),
        Target("core", Dag, "run_until_quiescent", keep=True),
        Target("core", Dag, "pump_once", keep=True),
        Target("stylus", StylusTask, "pump", keep=True),
        Target("stylus", StylusTask, "checkpoint_now", keep=True),
        Target("stylus", StylusTask, "crash", keep=True),
        Target("stylus", StylusTask, "restart", keep=True),
        Target("apps", trending.FiltererProcessor, "process"),
        Target("apps", trending.JoinerProcessor, "process"),
        Target("apps", trending.ScorerProcessor, "process"),
        Target("apps", trending.ScorerProcessor, "on_checkpoint",
               keep=True),
        Target("apps", trending.ClassifierService, "classify"),
        Target("apps", RequestMonoid, "extract"),
        Target("puma", PumaApp, "pump", keep=True),
        Target("puma", PumaApp, "checkpoint", keep=True),
        Target("puma", PumaApp, "query", keep=True, sampled=True),
        Target("puma", PumaApp, "query_top_k", keep=True),
        Target("laser", LaserTable, "put_rows", keep=True),
        Target("laser", LaserTable, "pump", keep=True),
        Target("laser", LaserTable, "get", sampled=True),
        Target("scuba", ScubaIngester, "pump", keep=True),
        Target("scuba", ScubaTable, "add_rows", keep=True),
        Target("scuba", ScubaTable, "seal_tail", keep=True),
        Target("scuba", Segment, "seal", keep=True),
        Target("scuba", ScubaQuery, "run", keep=True, sampled=True,
               variant=_query_kind),
        Target("scuba", ScubaQuery, "run_time_series", keep=True,
               sampled=True),
        Target("storage", LsmStore, "put", items=_one),
        Target("storage", LsmStore, "merge", items=_one),
        Target("storage", LsmStore, "write_batch", keep=True,
               items=_batch_ops),
        Target("storage", LsmStore, "get", sampled=True),
        Target("storage", LsmStore, "scan"),
        Target("storage", LsmStore, "flush", keep=True),
        Target("storage", LsmStore, "compact_step", keep=True),
        Target("storage", LsmStore, "recover", keep=True),
        Target("storage", HBaseTable, "put"),
        Target("storage", HBaseTable, "get"),
        Target("storage", HBaseTable, "get_column"),
        Target("storage", HBaseTable, "scan"),
        Target("storage", BackupEngine, "create_backup", keep=True),
        Target("storage", BackupEngine, "restore", keep=True),
        Target("storage", HdfsBlobStore, "put", keep=True),
        Target("storage", HdfsBlobStore, "get", keep=True),
        Target("hive", HiveWarehouse, "pump", keep=True),
        Target("swift", SwiftApp, "pump", keep=True),
    ]
    for backend in (InMemoryStateBackend, LocalDbStateBackend):
        for attr in ("save_state", "save_offset", "save_atomic",
                     "save_atomic_with_outputs", "flush_partials",
                     "flush_partials_atomic", "load", "read_value"):
            found.append(Target("stylus", backend, attr, keep=True))
    found.append(Target("stylus", LocalDbStateBackend, "maybe_backup",
                        keep=True))
    found.append(Target("stylus", LocalDbStateBackend,
                        "recover_after_machine_failure", keep=True))
    return found


STATE_SAVES = tuple(
    f"{backend}.{attr}"
    for backend in ("InMemoryStateBackend", "LocalDbStateBackend")
    for attr in ("save_state", "save_offset", "save_atomic",
                 "save_atomic_with_outputs", "flush_partials",
                 "flush_partials_atomic"))
APP_CALLS = ("FiltererProcessor.process", "JoinerProcessor.process",
             "ScorerProcessor.process", "RequestMonoid.extract")


def src_loc() -> int:
    """Lines of Python under ``src/`` (ROADMAP item 2's tracked number)."""
    root = Path(__file__).resolve().parents[2] / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _sum(counts: dict[str, float], prefix: str, suffix: str) -> float:
    return sum(value for name, value in counts.items()
               if name.startswith(prefix) and name.endswith(suffix))


def layer_shares(tracer: Tracer, traced_wall_s: float) -> dict[str, float]:
    """Each layer's share of the traced drain wall (driver = the rest)."""
    wall_ns = traced_wall_s * 1e9
    self_ns = tracer.layer_self_ns()
    shares = {layer: self_ns.get(layer, 0) / wall_ns
              for layer in LAYERS if layer != "driver"}
    shares["driver"] = 1.0 - sum(shares.values())
    return shares


def layer_metrics(tracer: Tracer, counts: dict[str, float], events: int,
                  traced_wall_s: float, tracing_overhead: float,
                  paced: dict[str, float], recovery_s: float
                  ) -> dict[str, float]:
    """Every ``PER_LAYER`` metric for one workload run.

    ``counts`` are the traced pipeline's own counters, ``paced`` the
    untraced run's paced-phase diagnostics, ``recovery_s`` the untraced
    pass's median scripted recovery (0 where the workload scripts none).
    """
    us = 1e-3  # span ns -> us
    ms = 1e-6  # span ns -> ms
    shares = layer_shares(tracer, traced_wall_s)
    metrics = {
        f"{layer}.self_us_per_event":
            shares[layer] * traced_wall_s * 1e6 / events
        for layer in LAYERS
    }

    def named(*names: str) -> tuple[int, int, int, int]:
        return tracer.by_name(*names)

    def sampled_ms(name: str) -> float:
        return median(tracer.samples.get(name) or []) * ms

    written = _sum(counts, "scribe.", ".messages")
    appended = _sum(counts, "scribe.", ".bytes")
    encodes, _, encode_self, _ = named("serde.encode")
    _, _, encode_batch_self, encoded_items = named("serde.encode_batch")
    decodes, _, decode_self, _ = named("serde.decode")
    _, _, decode_batch_self, decoded_items = named("serde.decode_batch")
    decoded = decodes + decoded_items
    metrics["serde.encode_us_per_msg"] = _ratio(
        (encode_self + encode_batch_self) * us, encodes + encoded_items)
    metrics["serde.decode_us_per_msg"] = _ratio(
        (decode_self + decode_batch_self) * us, decoded)
    metrics["serde.bytes_per_msg"] = _ratio(appended, written)
    metrics["serde.poison_msgs"] = _sum(counts, "", ".poison")

    _, _, write_self, _ = named("ScribeWriter.write",
                                "ScribeWriter.write_batch")
    reads, _, read_self, read_items = named("ScribeReader.read_batch")
    _, _, fanin_self, _ = named("CategoryReader.read_batch")
    metrics["scribe.write_us_per_msg"] = _ratio(write_self * us, written)
    metrics["scribe.read_us_per_msg"] = _ratio(
        (read_self + fanin_self) * us, read_items)
    metrics["scribe.msgs_written"] = written
    metrics["scribe.msgs_read"] = read_items
    metrics["scribe.hops_per_event"] = written / events
    metrics["scribe.read_batch_mean_msgs"] = _ratio(read_items, reads)
    metrics["scribe.bytes_appended"] = appended
    metrics["scribe.backlog_peak_msgs"] = paced["backlog_peak_msgs"]

    saves, save_total, _, _ = named(*STATE_SAVES)
    checkpoints = _sum(counts, "stylus.", ".checkpoints")
    # Checkpoint cost seen from outside is the state-backend calls a
    # checkpoint makes (an at-least-once checkpoint makes two).
    metrics["stylus.checkpoint_ms_mean"] = _ratio(save_total * ms,
                                                  checkpoints)
    metrics["stylus.state_save_ms_mean"] = _ratio(save_total * ms, saves)
    metrics["stylus.checkpoints"] = checkpoints
    metrics["stylus.events"] = _sum(counts, "stylus.", ".events")
    metrics["stylus.outputs"] = _sum(counts, "stylus.", ".outputs")
    metrics["stylus.replayed_events"] = counts.get(
        "stylus.replayed_events", 0)
    metrics["stylus.recovery_s"] = recovery_s
    metrics["stylus.lag_peak_msgs"] = paced["lag_peak.stylus"]

    app_calls, _, app_self, _ = named(*APP_CALLS)
    _, _, classify_self, _ = named("ClassifierService.classify")
    metrics["apps.process_us_per_event"] = _ratio(
        (app_self + classify_self) * us, app_calls)
    metrics["apps.joiner_cache_hit_rate"] = _ratio(
        counts.get("apps.joiner_cache_hits", 0),
        counts.get("apps.joiner_cache_hits", 0)
        + counts.get("apps.joiner_cache_misses", 0))
    metrics["apps.classifier_calls"] = counts.get(
        "apps.classifier_calls", 0)

    puma_checkpoints, puma_checkpoint_total, _, _ = named(
        "PumaApp.checkpoint")
    metrics["puma.checkpoint_ms_mean"] = _ratio(
        puma_checkpoint_total * ms, puma_checkpoints)
    metrics["puma.checkpoint_share"] = (
        puma_checkpoint_total / 1e9 / traced_wall_s)
    flushed = _sum(counts, "puma.", ".state_flushes")
    metrics["puma.cells_flushed_per_checkpoint"] = _ratio(
        flushed, puma_checkpoints)
    metrics["puma.view_rows_per_checkpoint"] = _ratio(
        _sum(counts, "puma.", ".view_updates"), puma_checkpoints)
    plan_hits = counts.get("puma.plan_cache.hits", 0)
    metrics["puma.plan_cache_hit_rate"] = _ratio(
        plan_hits, plan_hits + counts.get("puma.plan_cache.misses", 0))
    metrics["puma.query_ms_p50"] = sampled_ms("PumaApp.query")
    metrics["puma.lag_peak_msgs"] = paced["lag_peak.puma"]

    _, _, laser_write_self, _ = named("LaserTable.put_rows",
                                      "LaserTable.pump")
    laser_rows = _sum(counts, "laser.", ".writes")
    metrics["laser.write_us_per_row"] = _ratio(laser_write_self * us,
                                               laser_rows)
    metrics["laser.get_us_p50"] = sampled_ms("LaserTable.get") * 1e3
    metrics["laser.rows_written"] = laser_rows
    metrics["laser.reads"] = _sum(counts, "laser.", ".reads")
    metrics["laser.lag_peak_msgs"] = paced["lag_peak.laser"]

    _, _, ingest_self, _ = named("ScubaIngester.pump",
                                 "ScubaTable.add_rows", "Segment.seal")
    seals, seal_total, _, _ = named("Segment.seal")
    queries = counts.get("scuba.requests.queries", 0)
    cache_hits = counts.get("scuba.requests.cache.hits", 0)
    scuba_plan_hits = counts.get("scuba.requests.plan_cache.hits", 0)
    metrics["scuba.ingest_us_per_row"] = _ratio(
        ingest_self * us, counts.get("scuba.rows", 0))
    metrics["scuba.seal_ms_mean"] = _ratio(seal_total * ms, seals)
    metrics["scuba.segments"] = counts.get("scuba.segments", 0)
    metrics["scuba.query_grouped_ms_p50"] = sampled_ms(
        "ScubaQuery.run[grouped]")
    metrics["scuba.query_filtered_ms_p50"] = sampled_ms(
        "ScubaQuery.run[filtered]")
    metrics["scuba.query_timeseries_ms_p50"] = sampled_ms(
        "ScubaQuery.run_time_series")
    metrics["scuba.rows_scanned_per_query"] = _ratio(
        counts.get("scuba.requests.rows_scanned", 0), queries)
    metrics["scuba.segments_pruned_per_query"] = _ratio(
        counts.get("scuba.requests.segments_pruned", 0), queries)
    metrics["scuba.query_cache_hit_rate"] = _ratio(
        cache_hits, cache_hits + counts.get("scuba.requests.cache.misses",
                                            0))
    metrics["scuba.plan_cache_hit_rate"] = _ratio(
        scuba_plan_hits, scuba_plan_hits
        + counts.get("scuba.requests.plan_cache.misses", 0))
    metrics["scuba.lag_peak_msgs"] = paced["lag_peak.scuba"]

    _, _, lsm_write_self, lsm_writes = named(
        "LsmStore.put", "LsmStore.merge", "LsmStore.write_batch")
    flushes, _, _, _ = named("LsmStore.flush")
    compactions, compaction_total, _, _ = named("LsmStore.compact_step")
    hbase_puts, _, hbase_put_self, _ = named("HBaseTable.put")
    scans, scan_total, _, _ = named("HBaseTable.scan")
    backups, backup_total, _, _ = named("BackupEngine.create_backup")
    restores, restore_total, _, _ = named("BackupEngine.restore")
    metrics["storage.lsm_write_us_per_op"] = _ratio(lsm_write_self * us,
                                                    lsm_writes)
    metrics["storage.lsm_get_us_p50"] = sampled_ms("LsmStore.get") * 1e3
    metrics["storage.lsm_flushes"] = flushes
    metrics["storage.lsm_compactions"] = compactions
    metrics["storage.lsm_compaction_ms_total"] = compaction_total * ms
    metrics["storage.hbase_put_us_per_cell"] = _ratio(hbase_put_self * us,
                                                      hbase_puts)
    metrics["storage.hbase_scan_ms_mean"] = _ratio(scan_total * ms, scans)
    metrics["storage.backup_ms_mean"] = _ratio(backup_total * ms, backups)
    metrics["storage.restore_ms_mean"] = _ratio(restore_total * ms,
                                                restores)
    metrics["storage.state_keys"] = counts.get("storage.state_keys", 0)

    _, _, hive_self, _ = named("HiveWarehouse.pump")
    _, _, swift_self, _ = named("SwiftApp.pump")
    rounds, _, round_self, _ = named("Dag.pump_once")
    _, _, quiesce_self, _ = named("Dag.run_until_quiescent")
    metrics["hive.ingest_us_per_row"] = _ratio(
        hive_self * us, counts.get("hive.rows", 0))
    metrics["swift.pump_us_per_msg"] = _ratio(
        swift_self * us, counts.get("swift.messages", 0))
    metrics["core.dag_self_us_per_round"] = _ratio(
        (round_self + quiesce_self) * us, rounds)

    from repro.core.costs import CostModel
    model = CostModel()
    metrics["runtime.cost_model_receive_ratio"] = _ratio(
        metrics["scribe.read_us_per_msg"], model.receive_per_event * 1e6)
    metrics["runtime.cost_model_deserialize_ratio"] = _ratio(
        metrics["serde.decode_us_per_msg"],
        model.deserialize_per_event * 1e6)
    metrics["runtime.cost_model_process_ratio"] = _ratio(
        metrics["apps.process_us_per_event"],
        model.process_per_event * 1e6)

    for name in ("freshness_p99_ms", "freshness_max_ms",
                 "generator_late_p99_ms", "probes", "rounds",
                 "backlog_end_msgs"):
        metrics[f"driver.{name}"] = paced[name]
    metrics["driver.untraced_share"] = shares["driver"]
    metrics["driver.tracing_overhead"] = tracing_overhead
    metrics["driver.src_loc"] = src_loc()
    if set(metrics) != {name for name, _, _ in PER_LAYER}:
        raise RuntimeError("layer_metrics and PER_LAYER disagree")
    return metrics

