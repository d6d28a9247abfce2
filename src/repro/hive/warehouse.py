"""Day-partitioned tables and Scribe ingestion for the warehouse."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro import serde
from repro.errors import HiveError, PartitionNotReady
from repro.runtime.metrics import MetricsRegistry
from repro.scribe.reader import CategoryReader
from repro.scribe.store import ScribeStore

Row = dict[str, Any]

SECONDS_PER_DAY = 86_400.0


def day_of(event_time: float) -> int:
    """The day index (floor of event time / 86400) a row lands in."""
    return int(event_time // SECONDS_PER_DAY)


@dataclass
class HivePartition:
    """One day's rows for one table."""

    day: int
    rows: list[Row] = field(default_factory=list)
    landed: bool = False  # becomes True "after the day ends at midnight"

    @property
    def row_count(self) -> int:
        return len(self.rows)


class HiveTable:
    """A table of day partitions."""

    def __init__(self, name: str, time_column: str = "event_time") -> None:
        self.name = name
        self.time_column = time_column
        self._partitions: dict[int, HivePartition] = {}

    def append(self, row: Row) -> None:
        event_time = row.get(self.time_column)
        if event_time is None:
            raise HiveError(
                f"row lacks time column {self.time_column!r} for table "
                f"{self.name!r}"
            )
        day = day_of(float(event_time))
        partition = self._partitions.setdefault(day, HivePartition(day))
        if partition.landed:
            raise HiveError(
                f"partition day={day} of {self.name!r} already landed; "
                "late rows must go through a backfill"
            )
        partition.rows.append(row)

    def land_partitions_before(self, now: float) -> list[int]:
        """Mark every partition whose day has fully ended as available."""
        current_day = day_of(now)
        landed = []
        for day, partition in self._partitions.items():
            if day < current_day and not partition.landed:
                partition.landed = True
                landed.append(day)
        return sorted(landed)

    def partition(self, day: int, allow_unlanded: bool = False) -> HivePartition:
        if day not in self._partitions:
            raise PartitionNotReady(
                f"{self.name!r} has no partition for day {day}"
            )
        partition = self._partitions[day]
        if not partition.landed and not allow_unlanded:
            raise PartitionNotReady(
                f"partition day={day} of {self.name!r} has not landed yet"
            )
        return partition

    def days(self, landed_only: bool = True) -> list[int]:
        return sorted(
            day for day, partition in self._partitions.items()
            if partition.landed or not landed_only
        )

    def scan(self, days: list[int] | None = None) -> Iterator[Row]:
        """Rows from the given landed partitions (all landed if None)."""
        for day in (days if days is not None else self.days()):
            yield from self.partition(day).rows

    def row_count(self) -> int:
        return sum(p.row_count for p in self._partitions.values())


class HiveWarehouse:
    """The warehouse: tables plus Scribe ingestion tails.

    ``ingest_from_scribe`` registers a tail from a category into a table;
    :meth:`pump` advances every tail (this is the "raw event data
    ingested from Scribe" half of the warehouse).
    """

    def __init__(self, scribe: ScribeStore) -> None:
        self.scribe = scribe
        self.name = "hive"
        self.metrics = MetricsRegistry()
        self._tables: dict[str, HiveTable] = {}
        self._tails: list[tuple[CategoryReader, HiveTable]] = []

    def create_table(self, name: str,
                     time_column: str = "event_time") -> HiveTable:
        if name in self._tables:
            raise HiveError(f"table {name!r} already exists")
        table = HiveTable(name, time_column)
        self._tables[name] = table
        return table

    def table(self, name: str) -> HiveTable:
        if name not in self._tables:
            raise HiveError(f"no table named {name!r}")
        return self._tables[name]

    def tables(self) -> list[str]:
        return sorted(self._tables)

    def ingest_from_scribe(self, category: str, table_name: str) -> None:
        table = (self._tables.get(table_name)
                 or self.create_table(table_name))
        self._tails.append((CategoryReader(self.scribe, category), table))

    def pump(self, max_messages: int = 1000) -> int:
        """Advance ingestion tails; returns rows ingested.

        An undecodable payload, or a row its table rejects (no time
        column, or a day that already landed), is counted under
        ``hive.<table>.poison`` and skipped; the rest of its batch lands.
        """
        ingested = 0
        for reader, table in self._tails:
            batch = reader.read_batch(max_messages)
            poison = 0
            for row in serde.decode_batch([m.payload for m in batch],
                                          errors="none"):
                if row is None:
                    poison += 1
                    continue
                try:
                    table.append(row)
                except HiveError:
                    poison += 1
                    continue
                ingested += 1
            if poison:
                self.metrics.counter(f"hive.{table.name}.poison").increment(
                    poison)
        return ingested

    def land_partitions(self) -> dict[str, list[int]]:
        """Run 'midnight': land every complete day in every table."""
        now = self.scribe.clock.now()
        return {
            name: table.land_partitions_before(now)
            for name, table in self._tables.items()
        }

    # -- simple batch queries (the Presto role, greatly reduced) -----------------

    def aggregate(self, table_name: str, days: list[int],
                  key_fn: Callable[[Row], Any],
                  value_fn: Callable[[Row], float] = lambda row: 1.0
                  ) -> dict[Any, float]:
        """Grouped sum over landed partitions (daily-pipeline style)."""
        totals: dict[Any, float] = {}
        for row in self.table(table_name).scan(days):
            key = key_fn(row)
            totals[key] = totals.get(key, 0.0) + value_fn(row)
        return totals
