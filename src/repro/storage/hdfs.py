"""HDFS stand-in: a remote blob store with injectable unavailability.

The paper (Section 4.4.2): "HDFS is designed for batch workloads and is
not intended to be an always-available system. If HDFS is not available
for writes, processing continues without remote backup copies. If there
is a failure, then recovery uses an older snapshot." This store models
exactly that: writes raise :class:`~repro.errors.StoreUnavailable` during
outage windows, and the backup engine tolerates it.

Unavailability comes from three independently injectable sources, so a
:class:`~repro.runtime.failures.FailurePlan` can script any of them:

- scheduled outage *windows* (:meth:`add_outage`) — transient, heal on
  their own as the clock passes ``end``;
- a *latched* down state (:meth:`set_available`) — holds until healed;
- a *network partition* on the store's link (pass ``network``/``link``).

Every ``StoreUnavailable`` raised is counted in
``{name}.unavailable_errors`` so chaos campaigns can assert that no
injected window was silently swallowed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import StoreUnavailable
from repro.runtime.clock import Clock, WallClock
from repro.runtime.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.runtime.failures import Network


class HdfsBlobStore:
    """Named-blob storage with scheduled and latched outage windows.

    Missing blobs raise plain :class:`KeyError`; callers that store
    backups (:class:`~repro.storage.backup.BackupEngine`, Scribe
    snapshots) map it to :class:`~repro.errors.BackupNotFound` at their
    own layer — the blob store doesn't know what a blob means.

    Blobs are kept *by reference*, never copied: callers hand ``put``
    values nobody mutates afterwards (backups are tuples of immutable
    SSTable runs) and must not mutate what ``get`` returns.
    """

    def __init__(self, clock: Clock | None = None,
                 metrics: MetricsRegistry | None = None,
                 name: str = "hdfs",
                 network: "Network | None" = None,
                 link: tuple[str, str] | None = None) -> None:
        self.clock = clock if clock is not None else WallClock()
        self.name = name
        self._blobs: dict[str, Any] = {}
        self._outages: list[tuple[float, float]] = []
        self._latched_down = False
        self._slow_factor = 1.0
        self._network = network
        self._link = link
        registry = metrics if metrics is not None else MetricsRegistry()
        self._unavailable = registry.counter(f"{name}.unavailable_errors")

    # -- availability -----------------------------------------------------------

    def add_outage(self, start: float, end: float) -> None:
        """Mark ``[start, end)`` as an unavailability window."""
        if end <= start:
            raise ValueError("outage end must be after start")
        self._outages.append((start, end))

    def set_available(self, available: bool) -> None:
        """Latch the store down (or heal it), independent of windows."""
        self._latched_down = not available

    def set_slow_factor(self, factor: float) -> None:
        """Scale modeled operation latency (1.0 = healthy)."""
        if factor < 1.0:
            raise ValueError("slow factor must be >= 1")
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
        now = self.clock.now()
        return not any(start <= now < end for start, end in self._outages)

    def _check_available(self, operation: str) -> None:
        if not self.available():
            self._unavailable.increment()
            raise StoreUnavailable(
                f"HDFS unavailable at t={self.clock.now():.3f} during {operation}"
            )

    # -- blob operations -----------------------------------------------------------

    def put(self, name: str, blob: Any) -> None:
        self._check_available("put")
        self._blobs[name] = blob

    def get(self, name: str) -> Any:
        self._check_available("get")
        if name not in self._blobs:
            raise KeyError(name)
        return self._blobs[name]

    def exists(self, name: str) -> bool:
        return name in self._blobs

    def delete(self, name: str) -> None:
        self._check_available("delete")
        self._blobs.pop(name, None)

    def list(self, prefix: str = "") -> list[str]:
        self._check_available("list")
        return sorted(name for name in self._blobs if name.startswith(prefix))
