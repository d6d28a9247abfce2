"""Lowering of Puma plans into fused, cached executable programs.

"Unlike traditional relational databases, Puma is optimized for compiled
queries, not for ad-hoc analysis" (Section 2.2). The planner already
binds expressions at deploy time; this module goes one step further and
lowers each :class:`~repro.puma.planner.AppPlan` into an immutable
:class:`ExecutablePlan` — per table, one fused batch program that runs
filter → window assignment → group-key extraction → aggregate folds in
a single specialized pass, with monomorphic closures generated per
(aggregate, argument) pair instead of ``AggregateFunction.update`` ABC
dispatch per row:

- aggregates that have a columnar kernel (count/sum/avg/min/max) fold
  each group's value column through the same vectorized kernels Scuba's
  query engine uses;
- the rest (topk, approx_distinct, stddev, approx_percentile) go
  through the aggregate's bulk :meth:`AggregateFunction.fold`, which
  pays its per-batch costs (sorts, sketch materialization) once per
  group instead of once per value;
- aggregates reading the same argument expression (``sum(ms), avg(ms),
  max(ms)``) share one evaluated value column per group.

Each fold produces a per-batch *delta* — the monoid fold of just that
batch's rows starting from the identity — which the app runtime merges
into its window state (delta-based incremental maintenance; see
``DESIGN.md``). The Hive backfill path consumes the same compiled
programs, keeping the paper's Section 4.5 "same code in streaming and
batch" property at the executable-plan level.

Plans are cached in a :class:`PlanCache` keyed by app name, with
identity-based invalidation on redefinition and hit/miss/invalidation
counters — the gnitz ``ProgramCache``/``ExecutablePlan`` arrangement.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable

from repro.core.windows import aligned_start
from repro.errors import PlanningError
from repro.puma.ast import Column, Expression
from repro.puma.functions import get_columnar_kernel
from repro.puma.planner import AppPlan, BoundAggregate, TablePlan
from repro.runtime.metrics import MetricsRegistry

Row = dict[str, Any]
Evaluator = Callable[[Row], Any]

#: Window key used for tables without a window clause (all-time totals).
GLOBAL_WINDOW = 0.0


def _compile_group_key(group_keys: tuple[tuple[str, Evaluator], ...],
                       exprs: tuple[Expression, ...] = ()
                       ) -> Callable[[Row], tuple]:
    """A monomorphic row -> group-key closure for the table's arity.

    When the source ASTs show every key is a plain column reference —
    the overwhelmingly common shape — the closure reads the row dict
    directly instead of going through the generic compiled evaluators
    (one call per row instead of one per key per row).
    """
    if len(exprs) == len(group_keys) and all(
            isinstance(e, Column) for e in exprs):
        names = tuple(e.name for e in exprs)
        if len(names) == 1:
            only_name = names[0]
            return lambda row: (row.get(only_name),)
        if len(names) == 2:
            first_name, second_name = names
            return lambda row: (row.get(first_name), row.get(second_name))
    evaluators = tuple(evaluator for _, evaluator in group_keys)
    if not evaluators:
        empty: tuple = ()
        return lambda row: empty
    if len(evaluators) == 1:
        only = evaluators[0]
        return lambda row: (only(row),)
    if len(evaluators) == 2:
        first, second = evaluators
        return lambda row: (first(row), second(row))
    return lambda row: tuple(evaluator(row) for evaluator in evaluators)


def _assign_arg_slots(aggregates: tuple[BoundAggregate, ...]
                      ) -> tuple[tuple[Evaluator, ...],
                                 tuple[int | None, ...],
                                 tuple[str | None, ...]]:
    """Deduplicate aggregate arguments into shared value-column slots.

    Two aggregates whose ``arg_expr`` ASTs compare equal read the same
    value column, so it is evaluated once per row, not once per
    aggregate. ``None`` marks count(*)-style aggregates that take no
    argument. The third result names each slot's source column when its
    AST is a plain column reference — the batch loop then fills the
    value column with direct dict reads instead of evaluator calls.
    """
    evaluators: list[Evaluator] = []
    expressions: list[Any] = []
    slots: list[int | None] = []
    for bound in aggregates:
        if bound.arg is None:
            slots.append(None)
            continue
        slot = None
        if bound.arg_expr is not None:
            for index, expression in enumerate(expressions):
                if expression is not None and expression == bound.arg_expr:
                    slot = index
                    break
        if slot is None:
            slot = len(evaluators)
            evaluators.append(bound.arg)
            expressions.append(bound.arg_expr)
        slots.append(slot)
    columns = tuple(
        expression.name if isinstance(expression, Column) else None
        for expression in expressions
    )
    return tuple(evaluators), tuple(slots), columns


class CompiledAggregate:
    """One aggregate lowered to monomorphic closures.

    ``fold_group(values, count)`` returns the *delta* state for one
    (window, group) cell of one batch: the monoid fold of the group's
    value column starting from the identity. ``create``/``merge``/
    ``result`` close over the function and extra args once, so the hot
    paths never re-resolve them through the ABC.
    """

    __slots__ = ("alias", "function", "extra_args", "arg_slot",
                 "create", "merge", "result", "fold_group")

    def __init__(self, bound: BoundAggregate, arg_slot: int | None) -> None:
        function = bound.function
        extra = bound.extra_args
        self.alias = bound.alias
        self.function = function
        self.extra_args = extra
        self.arg_slot = arg_slot
        self.create = lambda: function.create(extra)
        self.merge = lambda left, right: function.merge(left, right, extra)
        self.result = lambda state: function.result(state, extra)
        kernel = get_columnar_kernel(function.name)
        counting = bound.arg is None  # count(*): every row contributes 1
        if kernel is not None:
            # Per-group slices have one implicit group (codes=None), the
            # kernels' fastest shape; the kernel contract guarantees the
            # state is identical to the per-row update fold.
            kernel_fold = kernel.fold
            if counting:
                self.fold_group = (
                    lambda values, count: kernel_fold(None, None, count)[0])
            else:
                self.fold_group = (
                    lambda values, count: kernel_fold(None, values, count)[0])
        else:
            bulk_fold = function.fold
            if counting:
                self.fold_group = (
                    lambda values, count: bulk_fold(
                        function.create(extra), repeat(1, count), extra))
            else:
                self.fold_group = (
                    lambda values, count: bulk_fold(
                        function.create(extra), values, extra))


class CompiledTable:
    """One table lowered to a fused batch program.

    Aggregation tables execute through :meth:`fold_batch`, filter
    tables through :meth:`project_batch`; both run the table's whole
    pipeline over a chunk in one specialized pass.
    """

    __slots__ = ("name", "kind", "predicate", "window_seconds", "aligned",
                 "group_columns", "group_key", "single_group_column",
                 "aggregates", "arg_evaluators", "arg_columns",
                 "projections", "key_alias", "time_column")

    def __init__(self, table: TablePlan, time_column: str) -> None:
        self.name = table.name
        self.kind = table.kind
        self.predicate = table.predicate
        self.window_seconds = table.window_seconds
        #: Window assignment (the row oracle's too); fractional sizes round to
        #: the row key's ``%020.6f``: one float per start, memory and HBase.
        self.aligned = (
            aligned_start if table.window_seconds is None
            or float(table.window_seconds).is_integer()
            else lambda t, step: float(f"{aligned_start(t, step):.6f}"))
        self.group_columns = tuple(column for column, _ in table.group_keys)
        self.group_key = _compile_group_key(table.group_keys,
                                            table.group_key_exprs)
        exprs = table.group_key_exprs
        # The hottest shape — GROUP BY one plain column — gets its key
        # read inlined into the batch loop (no closure call per row).
        self.single_group_column = (
            exprs[0].name
            if (len(exprs) == 1 and len(table.group_keys) == 1
                and isinstance(exprs[0], Column))
            else None)
        self.arg_evaluators, slots, self.arg_columns = _assign_arg_slots(
            table.aggregates)
        self.aggregates = tuple(
            CompiledAggregate(bound, slot)
            for bound, slot in zip(table.aggregates, slots)
        )
        self.projections = table.projections
        self.key_alias = (table.projections[0][0]
                          if table.projections else None)
        self.time_column = time_column

    def fold_batch(self, rows: list[Row]
                   ) -> dict[tuple[float, tuple], dict[str, Any]]:
        """Filter → window → group → aggregate, fused over one chunk.

        Returns ``{(window_start, group_key): {alias: delta}}`` where
        each delta is the monoid fold of just this chunk's rows for
        that cell. Row order is preserved within each group, so
        order-sensitive folds match the per-message oracle.
        """
        predicate = self.predicate
        if predicate is not None:
            rows = [row for row in rows if predicate(row)]
        if not rows:
            return {}
        time_column = self.time_column
        window_seconds = self.window_seconds
        group_key = self.group_key
        single_column = self.single_group_column
        aligned = self.aligned
        groups: dict[tuple[float, tuple], list[Row]] = {}
        if single_column is not None:
            for row in rows:
                event_time = row.get(time_column)
                if event_time is None:
                    continue  # rows without an event time aren't windowed
                cell = (GLOBAL_WINDOW if window_seconds is None
                        else aligned(float(event_time), window_seconds),
                        (row.get(single_column),))
                bucket = groups.get(cell)
                if bucket is None:
                    groups[cell] = [row]
                else:
                    bucket.append(row)
        else:
            for row in rows:
                event_time = row.get(time_column)
                if event_time is None:
                    continue  # rows without an event time aren't windowed
                cell = (GLOBAL_WINDOW if window_seconds is None
                        else aligned(float(event_time), window_seconds),
                        group_key(row))
                bucket = groups.get(cell)
                if bucket is None:
                    groups[cell] = [row]
                else:
                    bucket.append(row)
        if not groups:
            return {}
        aggregates = self.aggregates
        arg_evaluators = self.arg_evaluators
        arg_columns = self.arg_columns
        deltas: dict[tuple[float, tuple], dict[str, Any]] = {}
        for cell, grouped in groups.items():
            count = len(grouped)
            columns: list[list | None] = [None] * len(arg_evaluators)
            delta: dict[str, Any] = {}
            for aggregate in aggregates:
                slot = aggregate.arg_slot
                if slot is None:
                    values = None
                else:
                    values = columns[slot]
                    if values is None:
                        name = arg_columns[slot]
                        if name is not None:  # plain column: direct reads
                            values = [row.get(name) for row in grouped]
                        else:
                            evaluate = arg_evaluators[slot]
                            values = [evaluate(row) for row in grouped]
                        columns[slot] = values
                delta[aggregate.alias] = aggregate.fold_group(values, count)
            deltas[cell] = delta
        return deltas

    def project_batch(self, rows: list[Row]) -> list[tuple[Row, str]]:
        """Filter → project for a filter table: (record, scribe key)."""
        predicate = self.predicate
        if predicate is not None:
            rows = [row for row in rows if predicate(row)]
        projections = self.projections
        time_column = self.time_column
        key_alias = self.key_alias
        out: list[tuple[Row, str]] = []
        for row in rows:
            record = {alias: evaluator(row)
                      for alias, evaluator in projections}
            record.setdefault(time_column, row.get(time_column))
            out.append((record, str(record.get(key_alias, ""))))
        return out


class ExecutablePlan:
    """An immutable, fully lowered program for one Puma app.

    Holds the source :class:`AppPlan` it was compiled from — the cache
    uses that identity to detect redefinition, and consumers that need
    planner-level metadata (the interpreted oracle, parallel combines)
    reach it through ``source``.
    """

    __slots__ = ("source", "name", "time_column", "tables", "_by_name")

    def __init__(self, source: AppPlan) -> None:
        self.source = source
        self.name = source.name
        self.time_column = source.time_column
        self.tables = tuple(
            CompiledTable(table, source.time_column)
            for table in source.tables
        )
        self._by_name = {table.name: table for table in self.tables}

    def table(self, name: str) -> CompiledTable:
        try:
            return self._by_name[name]
        except KeyError:
            raise PlanningError(
                f"app {self.name!r} has no table {name!r}") from None


def compile_plan(source: AppPlan) -> ExecutablePlan:
    """Lower an AppPlan into an :class:`ExecutablePlan` (uncached)."""
    return ExecutablePlan(source)


class PlanCache:
    """Compiled plans keyed by app name, invalidated on redefinition.

    The app name is the program id: deploying a *different* AppPlan
    object under a name that is already cached counts as a
    redefinition — the stale entry is invalidated and the new program
    compiled. Explicit :meth:`invalidate` covers deletion. Counters:
    ``puma.plan_cache.hits`` / ``.misses`` / ``.invalidations``.
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._plans: dict[str, ExecutablePlan] = {}
        self._hits = self.metrics.counter("puma.plan_cache.hits")
        self._misses = self.metrics.counter("puma.plan_cache.misses")
        self._invalidations = self.metrics.counter(
            "puma.plan_cache.invalidations")

    def get(self, source: AppPlan) -> ExecutablePlan:
        """The compiled program for ``source``, compiling on miss."""
        cached = self._plans.get(source.name)
        if cached is not None:
            if cached.source is source:
                self._hits.increment()
                return cached
            # Same name, different program: a redefinition.
            self._invalidations.increment()
        self._misses.increment()
        executable = compile_plan(source)
        self._plans[source.name] = executable
        return executable

    def invalidate(self, name: str) -> bool:
        """Drop one app's cached program (deletion); True if present."""
        if self._plans.pop(name, None) is None:
            return False
        self._invalidations.increment()
        return True

    def invalidate_all(self) -> int:
        """Drop every cached program; returns how many were dropped."""
        count = len(self._plans)
        for name in list(self._plans):
            self.invalidate(name)
        return count

    def __len__(self) -> int:
        return len(self._plans)

    def stats(self) -> dict[str, float]:
        return {
            "hits": self._hits.value,
            "misses": self._misses.value,
            "invalidations": self._invalidations.value,
        }
