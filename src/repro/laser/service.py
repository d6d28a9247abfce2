"""Laser: high-query-throughput, low-latency key-value serving.

"Laser can read from any Scribe category in realtime or from any Hive
table once a day. The key and value can each be any combination of
columns in the (serialized) input stream" (Section 2.5). A
:class:`LaserTable` is configured exactly like the paper's UI describes
(Section 6.3): an ordered set of key columns, an ordered set of value
columns, and a lifetime per key-value pair. Tables are backed by the
RocksDB-style LSM store, matching "built on top of RocksDB".

Its two paper use cases are both supported:

- make a Puma/Stylus output stream available to products (ingest from
  Scribe, serve point lookups);
- make a Hive query result available for lookup joins (bulk load from a
  Hive table).

Scribe tailing decodes each read batch in one serde pass and stores it
through :meth:`LaserTable.put_rows` as one WAL/memtable batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro import serde
from repro.errors import ConfigError, LaserError, StoreUnavailable
from repro.hive.warehouse import HiveTable
from repro.runtime.clock import Clock, WallClock
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.retry import Retrier, RetryPolicy
from repro.scribe.reader import CategoryReader
from repro.scribe.store import ScribeStore
from repro.storage.lsm import LsmStore

if TYPE_CHECKING:
    from repro.runtime.failures import Network

Row = dict[str, Any]


@dataclass(frozen=True)
class _Stamped:
    """A stored value plus its expiry time (lifetime support)."""

    value: Any
    expires_at: float


class LaserTable:
    """One Laser app: key columns, value columns, lifetime, source."""

    def __init__(self, name: str, key_columns: list[str],
                 value_columns: list[str],
                 lifetime_seconds: float = float("inf"),
                 clock: Clock | None = None,
                 metrics: MetricsRegistry | None = None,
                 network: "Network | None" = None,
                 link: tuple[str, str] | None = None) -> None:
        if not key_columns:
            raise ConfigError("at least one key column is required")
        if not value_columns:
            raise ConfigError("at least one value column is required")
        if lifetime_seconds <= 0:
            raise ConfigError("lifetime must be positive")
        self.name = name
        self.key_columns = list(key_columns)
        self.value_columns = list(value_columns)
        self.lifetime_seconds = lifetime_seconds
        self.clock = clock if clock is not None else WallClock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._store = LsmStore(name=f"laser:{name}")
        self._readers: list[CategoryReader] = []
        self._writes_counter = self.metrics.counter(f"laser.{name}.writes")
        self._reads_counter = self.metrics.counter(f"laser.{name}.reads")
        self._unavailable_counter = self.metrics.counter(
            f"laser.{name}.unavailable_errors")
        self._poison_counter = self.metrics.counter(f"laser.{name}.poison")
        self._latched_down = False
        self._slow_factor = 1.0
        self._outages: list[tuple[float, float]] = []
        self._network = network
        self._link = link

    # -- fault injection --------------------------------------------------------

    def add_outage(self, start: float, end: float) -> None:
        """Mark ``[start, end)`` as a serving outage window."""
        if end <= start:
            raise ConfigError("outage end must be after start")
        self._outages.append((start, end))

    def set_available(self, available: bool) -> None:
        """Latch the tier down (or heal it), independent of windows."""
        self._latched_down = not available

    def set_slow_factor(self, factor: float) -> None:
        if factor < 1.0:
            raise ConfigError("slow factor must be >= 1")
        self._slow_factor = factor

    @property
    def slow_factor(self) -> float:
        return self._slow_factor

    def available(self) -> bool:
        if self._latched_down:
            return False
        if (self._network is not None and self._link is not None
                and not self._network.connected(*self._link)):
            return False
        if self._outages:
            now = self.clock.now()
            if any(start <= now < end for start, end in self._outages):
                return False
        return True

    def _check_available(self, operation: str) -> None:
        if not self.available():
            self._unavailable_counter.increment()
            raise StoreUnavailable(
                f"laser table {self.name!r} unavailable during {operation}"
            )

    # -- ingestion --------------------------------------------------------------

    def _composite_key(self, row: Row) -> str:
        try:
            return "\x1f".join(str(row[c]) for c in self.key_columns)
        except KeyError as exc:
            raise LaserError(
                f"row missing key column {exc.args[0]!r} for table "
                f"{self.name!r}"
            ) from None

    def put_row(self, row: Row) -> None:
        """Store one row under its composite key."""
        value = {c: row.get(c) for c in self.value_columns}
        expires = self.clock.now() + self.lifetime_seconds
        self._store.put(self._composite_key(row), _Stamped(value, expires))
        self._writes_counter.increment()

    def put_rows(self, rows: list[Row]) -> None:
        """Store many rows in one WAL/memtable batch.

        The incremental-view path (``PumaApp.attach_laser_view``) pushes
        each checkpoint's flushed cells through here, so a view refresh
        costs one batched write per flush, not one put per cell.
        Duplicate keys collapse to the last write, same as sequential
        :meth:`put_row` calls.
        """
        if not rows:
            return
        expires = self.clock.now() + self.lifetime_seconds
        value_columns = self.value_columns
        composite = self._composite_key
        puts = {
            composite(row): _Stamped(
                {c: row.get(c) for c in value_columns}, expires)
            for row in rows
        }
        self._store.write_batch(puts=puts)
        self._writes_counter.increment(len(rows))

    def tail_scribe(self, scribe: ScribeStore, category: str) -> None:
        """Continuously ingest a category (realtime source)."""
        self._readers.append(CategoryReader(scribe, category))

    def pump(self, max_messages: int = 1000) -> int:
        """Advance the Scribe tails; returns rows ingested.

        An undecodable payload, or a row missing a key column, is
        counted under ``laser.<name>.poison`` and skipped; the rest of
        its batch lands.
        """
        ingested = 0
        for reader in self._readers:
            batch = reader.read_batch(max_messages)
            if not batch:
                continue
            # One serde pass and one WAL/memtable batch per Scribe batch
            # (deserialization is the ingestion bottleneck — the paper's
            # Figure 9 point).
            key_columns = self.key_columns
            rows = [row for row in serde.decode_batch(
                        [m.payload for m in batch], errors="none")
                    if row is not None
                    and all(column in row for column in key_columns)]
            self.put_rows(rows)
            if len(rows) < len(batch):
                self._poison_counter.increment(len(batch) - len(rows))
            ingested += len(rows)
        return ingested

    def load_from_hive(self, table: HiveTable,
                       days: list[int] | None = None) -> int:
        """Bulk-load a Hive table (the once-a-day source); returns rows."""
        loaded = 0
        for row in table.scan(days):
            self.put_row(row)
            loaded += 1
        return loaded

    # -- serving -------------------------------------------------------------------

    def get(self, *key_values: Any) -> Row | None:
        """Point lookup by key column values, in declared order."""
        if len(key_values) != len(self.key_columns):
            raise LaserError(
                f"table {self.name!r} key has {len(self.key_columns)} "
                f"columns; got {len(key_values)} values"
            )
        self._check_available("get")
        composite = "\x1f".join(str(v) for v in key_values)
        stamped = self._store.get(composite)
        self._reads_counter.increment()
        if stamped is None or stamped.expires_at <= self.clock.now():
            return None
        return dict(stamped.value)

    def multi_get(self, keys: list[tuple]) -> dict[tuple, Row | None]:
        """Point lookups for many keys in one pass over the store.

        Goes through :meth:`LsmStore.multi_get`, which probes each
        SSTable run once for the whole (sorted) key set instead of once
        per key.
        """
        self._check_available("multi_get")
        composites = []
        for key_values in keys:
            if len(key_values) != len(self.key_columns):
                raise LaserError(
                    f"table {self.name!r} key has {len(self.key_columns)} "
                    f"columns; got {len(key_values)} values"
                )
            composites.append("\x1f".join(str(v) for v in key_values))
        stamped_map = self._store.multi_get(composites)
        self._reads_counter.increment(len(keys))
        now = self.clock.now()
        out: dict[tuple, Row | None] = {}
        for key_values, composite in zip(keys, composites):
            stamped = stamped_map.get(composite)
            if stamped is None or stamped.expires_at <= now:
                out[key_values] = None
            else:
                out[key_values] = dict(stamped.value)
        return out


class ReplicatedLaserTable:
    """One logical Laser app running in several data centers.

    The paper's Laser UI asks for "a set of data centers to run the
    service" (Section 6.3), and the bus design means "we can run
    multiple Scuba or Laser tiers that each read all of their input
    streams' data, so that we have redundancy for disaster recovery"
    (Section 4.2.2): each tier tails the category independently — no
    cross-tier replication protocol is needed because the bus *is* the
    replication. Reads hit the preferred (local) tier and fail over.
    """

    def __init__(self, name: str, tiers: dict[str, LaserTable],
                 metrics: MetricsRegistry | None = None,
                 retry: RetryPolicy | None = None) -> None:
        if not tiers:
            raise ConfigError("need at least one data center")
        self.name = name
        self.tiers = tiers
        self._down: set[str] = set()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        any_tier = next(iter(tiers.values()))
        policy = retry if retry is not None else RetryPolicy.no_retries()
        self._retrier = Retrier(policy, clock=any_tier.clock,
                                metrics=self.metrics,
                                scope=f"laser.{name}")
        self._failover_counter = self.metrics.counter(
            f"laser.{name}.failover_reads")
        self._stale_counter = self.metrics.counter(
            f"laser.{name}.stale_reads")
        self._unavailable_counter = self.metrics.counter(
            f"laser.{name}.unavailable_reads")
        # Last successfully served row per key: the serve-stale fallback
        # when every data center is unreachable.
        self._stale_cache: dict[tuple, Row | None] = {}

    def pump(self, max_messages: int = 1000) -> int:
        """Every tier ingests independently (automatic multiplexing)."""
        return sum(tier.pump(max_messages) for tier in self.tiers.values())

    def _serving_tier(self, preferred: str | None) -> LaserTable:
        if (preferred is not None and preferred in self.tiers
                and preferred not in self._down):
            return self.tiers[preferred]
        for name in sorted(self.tiers):
            if name not in self._down:
                return self.tiers[name]
        raise LaserError(f"table {self.name!r}: every data center is down")

    def get(self, *key_values: Any, datacenter: str | None = None
            ) -> Row | None:
        """Point lookup with retry, cross-datacenter failover, and a
        serve-stale last resort.

        The preferred tier is tried first (under the retry policy); an
        unavailable tier fails the read over to the next data center
        (``failover_reads``). If every tier is down, the last row served
        for this key is returned (``stale_reads``) — the bus will
        re-converge the tiers once they heal — and only a key never
        served before raises (``unavailable_reads``).
        """
        order = []
        if datacenter is not None and datacenter in self.tiers:
            order.append(datacenter)
        order.extend(n for n in sorted(self.tiers) if n not in order)
        last_error: Exception | None = None
        for position, tier_name in enumerate(order):
            if tier_name in self._down:
                continue
            try:
                row = self._retrier.call(self.tiers[tier_name].get,
                                         *key_values)
            # Accounted below, not here: every tier-miss ends in exactly
            # one of failover_reads / stale_reads / unavailable_reads.
            except StoreUnavailable as exc:  # lint: ignore[R004] counted below
                last_error = exc
                continue
            if position > 0:
                self._failover_counter.increment()
            self._stale_cache[key_values] = row
            return row
        if key_values in self._stale_cache:
            self._stale_counter.increment()
            return self._stale_cache[key_values]
        self._unavailable_counter.increment()
        raise LaserError(
            f"table {self.name!r}: every data center is down"
        ) from last_error

    def fail_datacenter(self, datacenter: str) -> None:
        if datacenter not in self.tiers:
            raise ConfigError(f"no tier in {datacenter!r}")
        self._down.add(datacenter)

    def restore_datacenter(self, datacenter: str) -> None:
        self._down.discard(datacenter)

    def lag_messages(self) -> int:
        return sum(
            sum(reader.lag_messages() for reader in tier._readers)
            for tier in self.tiers.values()
        )


class LaserService:
    """The Laser deployment: named tables, one-command create/delete."""

    def __init__(self, scribe: ScribeStore, clock: Clock | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self.scribe = scribe
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._tables: dict[str, LaserTable] = {}
        self._replicated: dict[str, ReplicatedLaserTable] = {}
        self.name = "laser"

    def create_table(self, name: str, key_columns: list[str],
                     value_columns: list[str],
                     lifetime_seconds: float = float("inf"),
                     scribe_category: str | None = None) -> LaserTable:
        """The one-command deploy of Section 6.3."""
        if name in self._tables:
            raise ConfigError(f"Laser table {name!r} already exists")
        table = LaserTable(name, key_columns, value_columns,
                           lifetime_seconds, clock=self.clock,
                           metrics=self.metrics)
        if scribe_category is not None:
            table.tail_scribe(self.scribe, scribe_category)
        self._tables[name] = table
        return table

    def delete_table(self, name: str) -> None:
        """The one-command delete of Section 6.3."""
        if name not in self._tables:
            raise ConfigError(f"no Laser table named {name!r}")
        del self._tables[name]

    def table(self, name: str) -> LaserTable:
        if name not in self._tables:
            raise ConfigError(f"no Laser table named {name!r}")
        return self._tables[name]

    def tables(self) -> list[str]:
        return sorted(self._tables)

    def pump(self, max_messages: int = 1000) -> int:
        return (sum(t.pump(max_messages) for t in self._tables.values())
                + sum(t.pump(max_messages)
                      for t in self._replicated.values()))

    # -- multi-datacenter deployment (Sections 4.2.2 and 6.3) ------------------

    def create_replicated_table(self, name: str, key_columns: list[str],
                                value_columns: list[str],
                                data_centers: list[str],
                                scribe_category: str,
                                lifetime_seconds: float = float("inf"),
                                retry: RetryPolicy | None = None
                                ) -> ReplicatedLaserTable:
        """Deploy one app to several data centers, each tailing the bus."""
        if name in self._replicated or name in self._tables:
            raise ConfigError(f"Laser table {name!r} already exists")
        tiers = {}
        for datacenter in data_centers:
            tier = LaserTable(f"{name}@{datacenter}", key_columns,
                              value_columns, lifetime_seconds,
                              clock=self.clock, metrics=self.metrics)
            tier.tail_scribe(self.scribe, scribe_category)
            tiers[datacenter] = tier
        table = ReplicatedLaserTable(name, tiers, metrics=self.metrics,
                                     retry=retry)
        self._replicated[name] = table
        return table

    def replicated_table(self, name: str) -> ReplicatedLaserTable:
        if name not in self._replicated:
            raise ConfigError(f"no replicated Laser table named {name!r}")
        return self._replicated[name]
