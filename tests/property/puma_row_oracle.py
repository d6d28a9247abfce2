"""The event-at-a-time Puma executor, kept as a test oracle.

:class:`RowOraclePumaApp` is a :class:`~repro.puma.app.PumaApp` whose
``_process_batch`` walks a Scribe batch one message at a time: it
decodes each message on its own, interprets each table's predicate,
projections and group key per row, folds every aggregate with the
per-row ``AggregateFunction.update`` (never the compiled program), and
checkpoints the moment the event cadence is reached. Recovery, flushes,
eviction, views and queries are the production code, so any difference
the property suites find is in the execution path alone.
"""

from repro.puma.app import PumaApp, Row
from repro.puma.compiler import GLOBAL_WINDOW
from repro.puma.planner import TablePlan
from repro.serde import SerdeError


class RowOraclePumaApp(PumaApp):
    """PumaApp executing one message, one row, one update at a time."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # (alias, update, arg, extra_args) per aggregate, per table.
        self._row_specs: dict[str, tuple] = {
            table.name: tuple(
                (bound.alias, bound.function.update, bound.arg,
                 bound.extra_args)
                for bound in table.aggregates
            )
            for table in self.plan.tables if table.kind == "aggregation"
        }
        self._time_column = self.plan.time_column

    def _process_batch(self, bucket: int, batch) -> int:
        processed = 0
        for message in batch:
            self._inflight = (bucket, message.offset + 1)
            try:
                row = message.decode()
            except SerdeError:
                self._poison_counter.increment()
                processed += 1
                self._events_since_checkpoint += 1
                continue
            self._process_row(row)
            processed += 1
            self._events_since_checkpoint += 1
            if (self._events_since_checkpoint
                    >= self.checkpoint_every_events):
                self.checkpoint()
        return processed

    def _process_row(self, row: Row) -> None:
        self._events_counter.increment()
        for table in self.plan.tables:
            if table.predicate is not None and not table.predicate(row):
                continue
            if table.kind == "filter":
                self._emit_filtered(table, row)
            else:
                self._aggregate_row(table, row)

    def _emit_filtered(self, table: TablePlan, row: Row) -> None:
        record = {alias: evaluator(row)
                  for alias, evaluator in table.projections}
        time_column = self._time_column
        record.setdefault(time_column, row.get(time_column))
        key = str(record.get(table.projections[0][0], ""))
        self._writers[table.name].write(record, key=key)
        self._out_counters[table.name].increment()

    def _aggregate_row(self, table: TablePlan, row: Row) -> None:
        event_time = row.get(self._time_column)
        if event_time is None:
            return  # rows without an event time cannot be windowed
        table_name = table.name
        window_start = (GLOBAL_WINDOW if table.window_seconds is None else
                        self._compiled_tables[table_name].aligned(
                            float(event_time), table.window_seconds))
        state_key = (table_name, window_start, table.group_key(row))
        group_state = self._state.get(state_key)
        if group_state is None:
            group_state = self._identity_state(table_name)
            self._state[state_key] = group_state
            self._register_window(table_name, window_start, state_key)
        for alias, update, arg, extra in self._row_specs[table_name]:
            value = 1 if arg is None else arg(row)
            group_state[alias] = update(group_state[alias], value, extra)
        self._dirty.add(state_key)
        if self.retain_windows is not None:
            self._evict_old_windows(table_name)
