"""The Puma app runtime.

A :class:`PumaApp` executes a compiled :class:`~repro.puma.planner.AppPlan`
against its input Scribe category:

- **aggregation tables** maintain per-(window, group) monoid *deltas* in
  memory — the unflushed change since the last checkpoint, starting from
  the aggregate's identity — checkpoint them to an HBase-style store by
  monoid-merging each dirty delta into its durable base (at-least-once
  by default, state rows first, then offsets — Section 4.3.2: "Puma
  guarantees at-least-once state and output semantics with checkpoints
  to HBase"), and serve pre-computed results through :meth:`query`
  (the paper's Thrift API);
- **filter tables** (no aggregates) write each passing, projected event
  to the output Scribe category named after the table, so the result
  "can then be the input to another Puma app, any other realtime stream
  processor, or a data store" (Section 2.2).

One executor runs every app: the :mod:`repro.puma.compiler` fused batch
programs (monomorphic folds, shared value columns, columnar kernels)
over whole decoded Scribe batches. The per-message oracle it is
property-tested against lives under ``tests/property/``.

Because in-memory state is a delta, recovery loads only offsets (the
durable base stays in HBase until queried or merged), a checkpoint
writes only the cells that actually changed, and attached Laser views
(:meth:`attach_laser_view`) are refreshed incrementally from exactly
those flushed cells. A query merges one window's HBase row range (never
cached: sibling instances share the namespace) with only that window's
dirty deltas, and :meth:`query_top_k` ranks them with a heap.
"""

from __future__ import annotations

import heapq
import json
from bisect import insort
from typing import Any, Callable, Iterable, Iterator

from repro import serde
from repro.core.semantics import StateSemantics
from repro.errors import ConfigError, PlanningError, ProcessCrashed
from repro.puma.compiler import (
    CompiledTable,
    ExecutablePlan,
    PlanCache,
)
from repro.puma.planner import AppPlan, TablePlan
from repro.runtime.clock import Clock, WallClock
from repro.runtime.metrics import MetricsRegistry
from repro.scribe.reader import ScribeReader
from repro.scribe.store import ScribeStore
from repro.scribe.writer import ScribeWriter
from repro.storage.hbase import HBaseTable

Row = dict[str, Any]
Cell = tuple[str, dict[str, Any]]  # (HBase row key, state)


class PumaApp:  # lint: effect[output=at_least_once]
    """One Puma app process, consuming an assigned set of buckets.

    Running several instances with disjoint ``buckets`` parallelizes the
    app; their HBase row spaces are disjoint because the group key is in
    the row key, except for the Section 5.2 dashboard case — for that,
    use :meth:`partial_states` plus :func:`combine_partial_states`.
    """

    def __init__(self, plan: AppPlan, scribe: ScribeStore, hbase: HBaseTable,
                 buckets: list[int] | None = None,
                 checkpoint_every_events: int = 500,
                 retain_windows: int | None = None,
                 clock: Clock | None = None,
                 metrics: MetricsRegistry | None = None,
                 plan_cache: PlanCache | None = None,
                 semantics: StateSemantics = StateSemantics.AT_LEAST_ONCE
                 ) -> None:
        self.plan = plan
        self.name = plan.name
        self.scribe = scribe
        self.hbase = hbase
        self.clock = clock if clock is not None else WallClock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.checkpoint_every_events = checkpoint_every_events
        #: Checkpoint ordering (Section 4.3): at-least-once is the
        #: paper's Puma guarantee; the other two are supported so the
        #: semantics lattice can be property-tested on this runtime too.
        self.checkpoint_semantics = semantics
        #: Test hook invoked between the two checkpoint phases (state
        #: flush and offset save) for the non-atomic semantics; raising
        #: ProcessCrashed here simulates a crash landing exactly between
        #: them. EXACTLY_ONCE has no such point — the two phases commit
        #: atomically (which real HBase cannot do across rows; that is
        #: why the paper's Puma stops at at-least-once).
        self.checkpoint_fault_hook: Callable[[], None] | None = None
        # Memory bound for long-running apps: keep only the newest N
        # windows per table in memory; evicted windows live in HBase and
        # are still served by query() (apps "run for months or years",
        # Section 2.2 — unbounded window state would not).
        self.retain_windows = retain_windows
        self.crashed = False

        # The compiled program: its fused batch programs run every
        # chunk, and its per-aggregate create/merge/result closures do
        # the state plumbing (flush, query, views). Cached per app name;
        # a redefinition under the same name invalidates (see
        # compiler.PlanCache).
        self.plan_cache = (plan_cache if plan_cache is not None
                           else PlanCache(metrics=self.metrics))
        self._executable: ExecutablePlan = self.plan_cache.get(plan)
        self._compiled_tables: dict[str, CompiledTable] = {
            table.name: table for table in self._executable.tables
            if table.kind == "aggregation"
        }

        category = scribe.category(plan.scribe_category)
        # Only an instance that owns the whole category follows its
        # resizes (grow_to_buckets); a pinned subset is one shard of a
        # manually parallelized deployment.
        self._whole_category = buckets is None
        if buckets is None:
            buckets = list(range(category.num_buckets))
        self.buckets = buckets
        self._readers = {
            bucket: ScribeReader(scribe, plan.scribe_category, bucket)
            for bucket in buckets
        }
        self._writers: dict[str, ScribeWriter] = {}
        for table in plan.tables:
            if table.kind == "filter":
                scribe.ensure_category(table.name)
                self._writers[table.name] = ScribeWriter(scribe, table.name)

        # (table, window_start, group_key) -> {alias: delta state}.
        # Deltas start from the identity; the durable base lives in
        # HBase and the two meet only at flush (merge) or query (merge).
        self._state: dict[tuple[str, float, tuple], dict[str, Any]] = {}
        self._dirty: set[tuple[str, float, tuple]] = set()
        # Per-table sorted window starts plus each (table, window)'s
        # cells mapped to their HBase row keys (built once per cell) —
        # so eviction, flushes and window queries never re-derive
        # anything from the full keyset.
        self._window_starts: dict[str, list[float]] = {}
        self._window_cells: dict[tuple[str, float],
                                 dict[tuple[str, float, tuple], str]] = {}
        self._events_since_checkpoint = 0
        # (bucket, position) for the message batch currently being
        # processed: ``read_batch`` advances the reader past the whole
        # batch up front, so a mid-batch checkpoint must save the offset
        # of the last *processed* message, not the reader's read-ahead
        # position — otherwise a crash loses the tail of the batch and
        # breaks at-least-once.
        self._inflight: tuple[int, int] | None = None
        # Laser tables maintained incrementally from flushed deltas.
        self._views: dict[str, list[Any]] = {}

        # Metric handles resolved once — re-resolving through the
        # registry (plus an f-string) per event is pure per-event tax.
        registry = self.metrics
        self._events_counter = registry.counter(f"puma.{self.name}.events")
        self._poison_counter = registry.counter(f"puma.{self.name}.poison")
        self._checkpoints_counter = registry.counter(
            f"puma.{self.name}.checkpoints")
        self._evicted_counter = registry.counter(
            f"puma.{self.name}.windows_evicted")
        self._flushes_counter = registry.counter(
            f"puma.{self.name}.state_flushes")
        self._view_updates_counter = registry.counter(
            f"puma.{self.name}.view_updates")
        self._lag_gauge = registry.gauge(f"puma.{self.name}.lag")
        self._out_counters = {
            table.name: registry.counter(
                f"puma.{self.name}.{table.name}.out")
            for table in plan.tables if table.kind == "filter"
        }
        self._recover()

    # -- recovery / checkpointing (Section 4.3) ---------------------------------

    def _offset_row(self, bucket: int) -> str:
        return f"__offset__|{self.name}|{bucket:06d}"

    def _state_row(self, table: str, window_start: float,
                   group_key: tuple) -> str:
        return (f"{self.name}|{table}|{window_start:020.6f}|"
                f"{json.dumps(list(group_key), sort_keys=True)}")

    def _recover(self) -> None:
        """Load saved offsets from HBase.

        State rows deliberately stay on disk: in-memory cells are
        deltas, so a restart begins from the identity and the durable
        base is consulted lazily (query merges it in, flushes merge
        onto it). Recovery cost is therefore proportional to the bucket
        count, not to the app's entire aggregation history.
        """
        for bucket, reader in self._readers.items():
            saved = self.hbase.get_column(self._offset_row(bucket), "offset")
            if saved is not None:
                reader.seek(saved)

    def checkpoint(self) -> None:
        """Flush dirty deltas and offsets, ordered by the semantics.

        AT_LEAST_ONCE (the paper's guarantee): state first, then
        offsets — a crash between them replays input onto saved state.
        AT_MOST_ONCE: offsets first — a crash between them loses the
        unflushed deltas. EXACTLY_ONCE: both phases commit with no
        fault point between them (an atomicity real HBase cannot give
        across rows, which is why the paper's Puma does not offer it).
        """
        semantics = self.checkpoint_semantics
        if semantics is StateSemantics.AT_MOST_ONCE:
            self._checkpoint_offsets()
            self._fault_point()
            self._flush_state_rows()
        elif semantics is StateSemantics.EXACTLY_ONCE:
            self._flush_state_rows()
            self._checkpoint_offsets()
        else:
            self._flush_state_rows()
            self._fault_point()
            self._checkpoint_offsets()
        self._events_since_checkpoint = 0
        self._checkpoints_counter.increment()

    def _fault_point(self) -> None:
        hook = self.checkpoint_fault_hook
        if hook is not None:
            hook()

    def _flush_state_rows(self) -> None:
        """Merge every dirty delta into its durable HBase base.

        Only cells touched since the last flush are written; each
        in-memory delta then resets to the identity (the cell itself
        stays resident, so the retention window is unaffected).
        Attached Laser views receive exactly the flushed cells.
        """
        if not self._dirty:
            return
        flushed: dict[str, list[tuple[float, tuple, dict[str, Any]]]] = {}
        for state_key in sorted(self._dirty):
            table_name, window_start, group_key = state_key
            merged = self._merge_into_hbase(
                state_key, self._window_cells[state_key[:2]][state_key])
            self._state[state_key] = self._identity_state(table_name)
            if table_name in self._views:
                flushed.setdefault(table_name, []).append(
                    (window_start, group_key, merged))
        self._flushes_counter.increment(len(self._dirty))
        self._dirty.clear()
        for table_name, cells in flushed.items():
            self._refresh_views(table_name, cells)

    def _merge_into_hbase(self, state_key: tuple[str, float, tuple],
                          row_key: str) -> dict[str, Any]:
        """Write one cell's delta merged onto its saved base; returns
        the merged (total) state."""
        delta = self._state[state_key]
        saved = self.hbase.get(row_key)
        merged = (dict(delta) if saved is None else
                  _merged(self._compiled_tables[state_key[0]], saved, delta))
        self.hbase.put(row_key, merged)
        return merged

    def _identity_state(self, table_name: str) -> dict[str, Any]:
        return {
            aggregate.alias: aggregate.create()
            for aggregate in self._compiled_tables[table_name].aggregates
        }

    def _checkpoint_offsets(self) -> None:
        inflight = self._inflight
        for bucket, reader in self._readers.items():
            position = reader.position
            if inflight is not None and inflight[0] == bucket:
                position = inflight[1]
            self.hbase.put(self._offset_row(bucket), {"offset": position})

    def crash(self) -> None:
        """Lose the process: in-memory state and positions are gone."""
        self.crashed = True
        self._state = {}
        self._dirty = set()
        self._window_starts = {}
        self._window_cells = {}
        self._inflight = None

    def restart(self) -> None:
        """Recover from HBase (replays uncheckpointed input: at-least-once)."""
        self._readers = {
            bucket: ScribeReader(self.scribe, self.plan.scribe_category, bucket)
            for bucket in self.buckets
        }
        self._state = {}
        self._dirty = set()
        self._window_starts = {}
        self._window_cells = {}
        self._events_since_checkpoint = 0
        self._inflight = None
        self._executable = self.plan_cache.get(self.plan)
        self._recover()
        self.crashed = False

    # -- processing ----------------------------------------------------------------

    def pump(self, max_messages: int = 1000) -> int:
        """Process up to ``max_messages`` across this app's buckets.

        Each Scribe batch is decoded in one serde pass and each table's
        compiled program runs over whole chunks, so a crash raised by a
        predicate or projection lands at chunk, not message, granularity.
        """
        if self.crashed:
            return 0
        processed = 0
        try:
            for bucket, reader in self._readers.items():
                while processed < max_messages:
                    batch = reader.read_batch(
                        min(100, max_messages - processed)
                    )
                    if not batch:
                        break
                    processed += self._process_batch(bucket, batch)
                    self._inflight = None
        except ProcessCrashed:
            self.crash()
        self._lag_gauge.set(self.lag_messages())
        return processed

    def _process_batch(self, bucket: int, batch) -> int:
        """Batch-at-a-time: one serde pass, one table program per chunk.

        The batch is split into chunks aligned with the checkpoint
        cadence (poison messages count toward it, exactly as they would
        one message at a time), so checkpoints land at identical offsets.
        """
        decoded = serde.decode_batch(
            [message.payload for message in batch], errors="none"
        )
        index = 0
        total = len(batch)
        every = self.checkpoint_every_events
        while index < total:
            # Chunk end = the good row at which a message-at-a-time loop
            # would checkpoint (poison rows count toward the cadence but
            # never trigger it themselves), or the end of the batch.
            since = self._events_since_checkpoint
            end = index
            checkpoint_after = False
            while end < total:
                good = decoded[end] is not None
                end += 1
                if good and since + (end - index) >= every:
                    checkpoint_after = True
                    break
            rows = [row for row in decoded[index:end] if row is not None]
            self._inflight = (bucket, batch[end - 1].offset + 1)
            # Poison is counted per chunk, not per read batch: a crash
            # replays whole chunks, so counting ahead of the chunk being
            # processed would double-count on recovery.
            poison = (end - index) - len(rows)
            if poison:
                self._poison_counter.increment(poison)
            if rows:
                self._process_rows(rows)
            self._events_since_checkpoint += end - index
            index = end
            if checkpoint_after:
                self.checkpoint()
        return total

    def _process_rows(self, rows: list[Row]) -> None:
        """One chunk through every table's compiled program.

        Tables are independent, per-group fold order preserves row
        order, and evicted windows continue from their durable HBase
        base — so table-major execution is observably identical to
        row-major, one-message-at-a-time execution.
        """
        self._events_counter.increment(len(rows))
        for ctable in self._executable.tables:
            if ctable.kind == "filter":
                projected = ctable.project_batch(rows)
                if projected:
                    self._emit_projected(ctable.name, projected)
            else:
                deltas = ctable.fold_batch(rows)
                if deltas:
                    self._merge_deltas(ctable, deltas)
                if self.retain_windows is not None:
                    self._evict_old_windows(ctable.name)

    def _emit_projected(self, table_name: str,
                        projected: list[tuple[Row, str]]) -> None:
        write = self._writers[table_name].write
        for record, key in projected:
            write(record, key=key)
        self._out_counters[table_name].increment(len(projected))

    def _merge_deltas(self, ctable: CompiledTable,
                      deltas: dict[tuple[float, tuple], dict[str, Any]]
                      ) -> None:
        """Monoid-merge one chunk's compiled deltas into window state."""
        table_name = ctable.name
        state = self._state
        dirty = self._dirty
        aggregates = ctable.aggregates
        for (window_start, group_key), delta in deltas.items():
            state_key = (table_name, window_start, group_key)
            existing = state.get(state_key)
            if existing is None:
                # fold_batch built the delta dict fresh: adopt it.
                state[state_key] = delta
                self._register_window(table_name, window_start, state_key)
            else:
                for aggregate in aggregates:
                    alias = aggregate.alias
                    existing[alias] = aggregate.merge(existing[alias],
                                                      delta[alias])
            dirty.add(state_key)

    # -- window eviction ---------------------------------------------------------

    def _register_window(self, table_name: str, window_start: float,
                         state_key: tuple[str, float, tuple]) -> None:
        """Index a cell and its row key under its window."""
        cells = self._window_cells.get((table_name, window_start))
        if cells is None:
            cells = self._window_cells[(table_name, window_start)] = {}
            insort(self._window_starts.setdefault(table_name, []),
                   window_start)
        cells[state_key] = self._state_row(table_name, window_start,
                                           state_key[2])

    def _evict_old_windows(self, table_name: str) -> None:
        """Flush and drop in-memory windows beyond the retention count.

        The per-table sorted window list is maintained incrementally by
        :meth:`_register_window`, so this never re-sorts the state
        keyset; only still-dirty cells are written (a clean cell's
        delta is the identity — its durable base is already current).
        """
        starts = self._window_starts.get(table_name)
        if starts is None:
            return
        retain = self.retain_windows
        dirty = self._dirty
        while len(starts) > retain:
            victim_start = starts.pop(0)
            cells = self._window_cells.pop((table_name, victim_start))
            flushed: list[tuple[float, tuple, dict[str, Any]]] = []
            for state_key in sorted(cells):
                if state_key in dirty:
                    # Durable first, then drop: eviction never loses data.
                    merged = self._merge_into_hbase(state_key,
                                                    cells[state_key])
                    dirty.discard(state_key)
                    self._flushes_counter.increment()
                    if table_name in self._views:
                        flushed.append((state_key[1], state_key[2], merged))
                del self._state[state_key]
            self._evicted_counter.increment()
            if flushed:
                self._refresh_views(table_name, flushed)

    # -- Laser-facing incremental views (Section 2.5 use case one) ---------------

    def attach_laser_view(self, table_name: str, laser_table: Any) -> None:
        """Maintain a Laser table incrementally from this app's deltas.

        Every flush (checkpoint or eviction) pushes the flushed cells'
        finalized rows — ``window_start`` plus the group columns as
        keys, aggregate results as values — into the Laser table in one
        write batch. The view is only ever touched for cells whose
        state actually changed; it is never recomputed from a full
        query. It therefore converges to the *durable* (checkpointed)
        state, exactly what a serving tier fed from checkpoints sees.
        """
        ctable = self._aggregation(table_name)
        produced = set(ctable.group_columns) | {"window_start"}
        produced.update(aggregate.alias for aggregate in ctable.aggregates)
        missing = [column for column in laser_table.key_columns
                   if column not in produced]
        if missing:
            raise ConfigError(
                f"laser table {laser_table.name!r} keys on {missing}, "
                f"which table {table_name!r} does not produce "
                f"(columns: {sorted(produced)})"
            )
        self._views.setdefault(table_name, []).append(laser_table)

    def _refresh_views(self, table_name: str,
                       cells: list[tuple[float, tuple, dict[str, Any]]]
                       ) -> None:
        ctable = self._compiled_tables[table_name]
        rows = [_finalized(ctable, *cell) for cell in cells]
        for laser_table in self._views[table_name]:
            laser_table.put_rows(rows)
        self._view_updates_counter.increment(len(rows))

    # -- the query API (the paper's "Thrift API") ---------------------------------------

    def query(self, table_name: str,
              window_start: float | None = None) -> list[Row]:
        """Pre-computed results for one table (optionally one window).

        Each row carries the group columns, the finalized aggregate
        values, and ``window_start``, in window then group-key order.
        """
        ctable = self._aggregation(table_name)
        return [self._result_row(ctable, *cell)
                for cell in self._cells(ctable, window_start)]

    def query_top_k(self, table_name: str, metric: str, k: int,
                    window_start: float | None = None) -> list[Row]:
        """The K groups with the largest ``metric`` (dashboard helper).

        ``metric``: an aggregate alias (a ``topk()`` list ranks by its
        head, None last) or a group column. Ties keep query order.
        """
        ctable = self._aggregation(table_name)
        result = next((aggregate.result for aggregate in ctable.aggregates
                       if aggregate.alias == metric), None)
        if result is None and metric not in ctable.group_columns:
            raise PlanningError(
                f"table {table_name!r} has no column {metric!r}")
        ranked = heapq.nlargest(
            k, self._cells(ctable, window_start), key=lambda cell: _rank(
                result(cell[1][metric]) if result is not None
                else self._result_row(ctable, *cell)[metric]))
        return [self._result_row(ctable, *cell) for cell in ranked]

    def _aggregation(self, table_name: str) -> CompiledTable:
        if self.plan.table(table_name).kind != "aggregation":
            raise PlanningError(f"table {table_name!r} is not an aggregation")
        return self._compiled_tables[table_name]

    def _cells(self, ctable: CompiledTable,
               window_start: float | None) -> Iterable[Cell]:
        """A table's or one window's cells in query order: one HBase range
        scan (in a window, row-key order is query order) streamed with
        only those windows' dirty deltas merged in (clean = identity)."""
        prefix = f"{self.name}|{ctable.name}|"
        if window_start is None:
            starts = self._window_starts.get(ctable.name, [])
        else:
            window_start = float(f"{window_start:.6f}")
            starts = [window_start]
            prefix += f"{window_start:020.6f}|"
        dirty: list[tuple[str, tuple]] = []  # (row key, state key)
        for start in starts:
            window = self._window_cells.get((ctable.name, start), {})
            dirty += sorted((window[key], key)
                            for key in window.keys() & self._dirty)
        cells = self._merge_in(ctable, self.hbase.scan(prefix, prefix + "￿"),
                               sorted(dirty))
        if window_start is None:  # numeric window order, stable inside
            plen = len(prefix)
            return sorted(cells, key=lambda cell: float(
                cell[0][plen:cell[0].index("|", plen)]))
        return cells

    def _merge_in(self, ctable: CompiledTable, base: Iterable[Cell],
                  dirty: list[tuple[str, tuple]]) -> Iterator[Cell]:
        """Merge or slot key-ordered ``dirty`` cells into ``base``; no row
        stays alive past its consumer, so top-k keeps just k rows."""
        index = 0
        for row_key, saved in base:
            while index < len(dirty) and dirty[index][0] <= row_key:
                dirty_key, state_key = dirty[index]
                index += 1
                if dirty_key < row_key:
                    yield dirty_key, self._state[state_key]
                else:
                    saved = _merged(ctable, saved, self._state[state_key])
            yield row_key, saved
        for dirty_key, state_key in dirty[index:]:
            yield dirty_key, self._state[state_key]

    def _result_row(self, ctable: CompiledTable, row_key: str,
                    state: dict[str, Any]) -> Row:
        """Finalize a cell; window and group columns come from its key."""
        plen = len(self.name) + len(ctable.name) + 2
        cut = row_key.index("|", plen)
        return _finalized(ctable, float(row_key[plen:cut]),
                          json.loads(row_key[cut + 1:]), state)

    def windows(self, table_name: str) -> list[float]:
        """All window start times with any data (in memory or HBase)."""
        starts = set(self._window_starts.get(table_name, []))
        prefix = f"{self.name}|{table_name}|"
        for row_key, _ in self.hbase.scan(prefix, prefix + "￿"):
            starts.add(float(row_key.split("|", 3)[2]))
        return sorted(starts)

    # -- parallel-process support (Section 5.2) ---------------------------------------------

    def partial_states(self, table_name: str) -> dict[tuple, dict[str, Any]]:
        """(window, group) -> unflushed delta states for this process.

        Deltas are monoid partials, so :func:`combine_partial_states`
        merges them across shard processes exactly as before; note that
        cells flushed by a checkpoint have reset to the identity (their
        flushed portion lives in HBase).
        """
        return {
            (start, group_key): dict(state)
            for (name, start, group_key), state in self._state.items()
            if name == table_name
        }

    def lag_messages(self) -> int:
        return sum(reader.lag_messages() for reader in self._readers.values())

    # -- the autoscaler contract (Section 6.4) --------------------------------

    def input_category(self) -> str:
        return self.plan.scribe_category

    def grow_to_buckets(self) -> int:
        """Attach readers for buckets added by a category resize.

        Only whole-category apps auto-grow; an instance pinned to an
        explicit bucket subset is one shard of a manually parallelized
        deployment and must not steal its siblings' buckets.
        """
        if self._whole_category:
            category = self.scribe.category(self.plan.scribe_category)
            for bucket in range(category.num_buckets):
                if bucket not in self._readers:
                    self.adopt_bucket(bucket)
        return len(self._readers)

    # -- shard handoff (live rebalancing) --------------------------------------

    def release_bucket(self, bucket: int) -> None:
        """Detach ``bucket`` so a sibling instance can adopt it.

        Puma state is monoid deltas over a shared HBase namespace (state
        rows are keyed by group, offset rows by bucket), so the whole
        handoff is: flush what this instance holds, drop the reader. The
        adopting instance picks up the durable offset and merges onto
        the same state rows. A crashed instance has nothing in memory to
        flush — its last checkpoint is already the durable truth.
        """
        if bucket not in self._readers:
            raise ConfigError(
                f"app {self.name!r} does not own bucket {bucket}"
            )
        if not self.crashed:
            self.checkpoint()
        self._whole_category = False  # the sibling owns a bucket now
        self.buckets.remove(bucket)
        del self._readers[bucket]
        if self._inflight is not None and self._inflight[0] == bucket:
            self._inflight = None

    def adopt_bucket(self, bucket: int) -> int:
        """Attach ``bucket`` released by a sibling; resume at its saved
        offset. Returns the new reader count."""
        if bucket in self._readers:
            raise ConfigError(f"app {self.name!r} already owns bucket {bucket}")
        self.buckets.append(bucket)
        reader = ScribeReader(self.scribe, self.plan.scribe_category, bucket)
        saved = self.hbase.get_column(self._offset_row(bucket), "offset")
        if saved is not None:
            reader.seek(saved)
        self._readers[bucket] = reader
        return len(self._readers)

    def bucket_position(self, bucket: int) -> int:
        """The read position of an owned bucket's reader."""
        if bucket not in self._readers:
            raise ConfigError(
                f"app {self.name!r} does not own bucket {bucket}"
            )
        return self._readers[bucket].position


def _merged(ctable: CompiledTable, saved: dict[str, Any],
            delta: dict[str, Any]) -> dict[str, Any]:
    """A cell's delta monoid-merged onto its durable base."""
    return {
        aggregate.alias: (
            aggregate.merge(saved[aggregate.alias], delta[aggregate.alias])
            if aggregate.alias in saved else delta[aggregate.alias])
        for aggregate in ctable.aggregates
    }


def _finalized(ctable: CompiledTable, window_start: float, group_key: Any,
               state: dict[str, Any]) -> Row:
    """A result row: window, group columns, finalized aggregates."""
    row: Row = {"window_start": window_start}
    row.update(zip(ctable.group_columns, group_key))
    for aggregate in ctable.aggregates:
        row[aggregate.alias] = aggregate.result(state[aggregate.alias])
    return row


def _rank(value: Any) -> Any:
    """A top-k sort value: a ``topk()`` list by its head, None last."""
    if isinstance(value, list):
        value = value[0] if value else None
    return float("-inf") if value is None else value


def combine_partial_states(table: TablePlan,
                           partials: list[dict[tuple, dict[str, Any]]]
                           ) -> dict[tuple, dict[str, Any]]:
    """Merge per-process partial aggregates into totals (Section 5.2).

    "The processes must use a different sharding key and compute partial
    aggregates. One process then combines the partial aggregates." Since
    all Puma aggregation functions are monoids, the merge is exact.
    """
    combined: dict[tuple, dict[str, Any]] = {}
    for partial in partials:
        for key, state in partial.items():
            if key not in combined:
                combined[key] = {
                    bound.alias: bound.function.create(bound.extra_args)
                    for bound in table.aggregates
                }
            for bound in table.aggregates:
                combined[key][bound.alias] = bound.function.merge(
                    combined[key][bound.alias], state[bound.alias],
                    bound.extra_args,
                )
    return combined
