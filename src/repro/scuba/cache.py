"""Incremental result cache for repeated Scuba dashboard queries.

Dashboards "run the same queries repeatedly, over a sliding time
window" (Section 5.2). Consecutive refreshes of a :class:`ScubaQuery`
via ``shifted()`` overlap almost entirely, so the expensive part of each
refresh is recomputable from cached *monoid partials*:

- ``run()``: one partial aggregate (group -> state) per fully-covered
  sealed segment, keyed by ``(query shape, seg_id)``. Aggregation states
  are monoids (Section 4.4.2), so partials merge across segments in time
  order and combine with the freshly-scanned window edges and tail.
- ``run_time_series()``: the per-group states of a *closed* time bucket
  (one that lies entirely inside the sealed region), keyed by
  ``(query shape, bucket_seconds, bucket_start)`` and stamped with the
  ids of the segments it read.

Invalidation is precise and structural rather than time-based: sealed
segments are immutable, and every mutation that could change their
contents (a deep out-of-order insert, a retention ``trim`` slicing a
boundary segment) replaces the segment under a *new* ``seg_id``. A
cached entry is therefore valid exactly while every ``seg_id`` it was
computed from is still live. Tail appends never invalidate anything:
tail rows are newer than every sealed row, so they can only affect
buckets the cache refuses to store in the first place.

The cache never stores results influenced by an opaque ``where``
callable — only declarative :class:`~repro.scuba.query.ColumnFilter`
predicates participate in the query shape. A ``where`` query still
takes its plan from ``plans`` (the shape never holds ``where``); it just
caches no partials.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from repro.scuba.compiler import ScubaPlanCache

Shape = tuple
States = dict[tuple, Any]


class ScubaQueryCache:
    """Bounded LRU of per-segment partials and closed-bucket results.

    Also owns the table's :class:`~repro.scuba.compiler.ScubaPlanCache`
    (``plans``): plans share the shape identity the partials are keyed
    by and are dropped together on :meth:`clear`, but they hold no
    segment state, so ``drop_segment`` leaves them alone — and
    ``__len__`` counts only result entries, so "caching disabled" checks
    see an empty cache even after plans have been lowered.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self.max_entries = max_entries
        self._run: OrderedDict[tuple, States] = OrderedDict()
        self._buckets: OrderedDict[tuple, tuple[frozenset[int], States]] = \
            OrderedDict()
        self.plans = ScubaPlanCache()

    # -- run(): per-segment partial aggregates -------------------------------

    def get_run_partial(self, shape: Shape, seg_id: int) -> States | None:
        key = (shape, seg_id)
        states = self._run.get(key)
        if states is not None:
            self._run.move_to_end(key)
        return states

    def put_run_partial(self, shape: Shape, seg_id: int,
                        states: States) -> None:
        self._run[(shape, seg_id)] = states
        self._evict(self._run)

    # -- run_time_series(): closed-bucket results ----------------------------

    def get_bucket(self, shape: Shape, bucket_start: float,
                   live_seg_ids: frozenset[int] | set[int]) -> States | None:
        key = (shape, bucket_start)
        entry = self._buckets.get(key)
        if entry is None:
            return None
        seg_ids, states = entry
        if not seg_ids <= live_seg_ids:
            del self._buckets[key]  # a covering segment was replaced
            return None
        self._buckets.move_to_end(key)
        return states

    def put_bucket(self, shape: Shape, bucket_start: float,
                   seg_ids: frozenset[int], states: States) -> None:
        self._buckets[(shape, bucket_start)] = (seg_ids, states)
        self._evict(self._buckets)

    # -- invalidation --------------------------------------------------------

    def drop_segment(self, seg_id: int) -> None:
        """Forget everything computed from a replaced/dropped segment."""
        for key in [key for key in self._run if key[1] == seg_id]:
            del self._run[key]
        for key in [key for key, (seg_ids, _) in self._buckets.items()
                    if seg_id in seg_ids]:
            del self._buckets[key]

    def clear(self) -> None:
        self._run.clear()
        self._buckets.clear()
        self.plans.clear()

    def __len__(self) -> int:
        return len(self._run) + len(self._buckets)

    def _evict(self, store: OrderedDict) -> None:
        while len(store) > self.max_entries:
            store.popitem(last=False)
