"""Write-ahead log for the embedded LSM store.

Every mutation is appended to the WAL before it touches the memtable, so
a process crash loses nothing that was acknowledged. On restart the LSM
replays the WAL records that postdate the last flushed memtable.

The log lives in a machine's ``disk`` namespace (see
:mod:`repro.runtime.cluster`): it survives process crashes and is lost
with the machine — exactly the recovery ladder of the paper's Figure 10.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterator


class WalOp(enum.Enum):
    """Kinds of logged mutation."""

    PUT = "put"
    DELETE = "delete"
    MERGE = "merge"


@dataclass(frozen=True)
class WalRecord:
    """One logged mutation, stamped with a global sequence number."""

    sequence: int
    op: WalOp
    key: str
    value: Any = None


class WriteAheadLog:
    """Append-only mutation log with truncation at flush points."""

    def __init__(self, start_sequence: int = 0) -> None:
        # A log restored from a backup starts empty at the snapshot's
        # ``flushed_seq``: everything below it is already in a run.
        self._records: list[WalRecord] = []
        self._next_sequence = start_sequence

    def append(self, op: WalOp, key: str, value: Any = None) -> WalRecord:
        record = WalRecord(self._next_sequence, op, key, value)
        self._records.append(record)
        self._next_sequence += 1
        return record

    def records_since(self, sequence: int) -> Iterator[WalRecord]:
        """Yield records with sequence number >= ``sequence``."""
        for record in self._records:
            if record.sequence >= sequence:
                yield record

    def truncate_before(self, sequence: int) -> int:
        """Drop records below ``sequence`` (they are in a flushed run)."""
        keep_from = 0
        while (keep_from < len(self._records)
               and self._records[keep_from].sequence < sequence):
            keep_from += 1
        dropped = keep_from
        del self._records[:keep_from]
        return dropped

    @property
    def next_sequence(self) -> int:
        return self._next_sequence

    def __len__(self) -> int:
        return len(self._records)
