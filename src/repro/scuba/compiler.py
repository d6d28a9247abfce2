"""Compile Scuba query shapes into fused per-segment programs.

Every columnar Scuba query runs through a plan. This module lowers a
query *shape* — the ``(aggregation, value_column, group_by, filters)``
identity the query cache keys partials by — once, into an immutable
:class:`ScubaPlan` whose per-segment program is fused:

- filters are evaluated in the *dictionary domain* (once per distinct
  value, with whole-segment ``True``/``False`` early-outs when a
  predicate is non-selective at the domain level) or, for float
  columns, as inline comparator comprehensions — never as per-row
  ``passes()`` calls;
- an opaque ``where`` callable, which no shape can hold, is ANDed in
  as one more keep-mask step over the materialized rows;
- selection, grouping, and aggregation share one pass over the
  surviving rows, folding through the same monoid kernels Puma's
  compiled plans use (:mod:`repro.core.kernels`), so segment partials
  merge with each other and with the per-row tail fold freely;
- single-group-column and no-filter shapes skip the general machinery
  the way :mod:`repro.puma.compiler` specializes them.

Zone maps (:class:`~repro.scuba.columns.ColumnZone`) let a plan refute
whole segments before any scan: if no value a segment *could* contain
passes a column filter, the segment contributes nothing (``where`` is
opaque, so it never prunes). Pruning is conservative — a zone's claims
may be weaker than reality (sliced dictionary supersets) but never
stronger — so a pruned segment is exactly one whose fused program would
have returned ``{}``.

Plans are cached in a :class:`ScubaPlanCache` keyed by shape, owned by
the table's :class:`~repro.scuba.cache.ScubaQueryCache` and cleared
with it. Plans hold no segment state, so segment replacement never
invalidates them — only redefinition of the shape universe (``clear``)
does.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from itertools import compress
from operator import and_
from typing import Any, Callable, Sequence

from repro.core.kernels import get_columnar_kernel
from repro.puma.functions import AggregateFunction, get_aggregate
from repro.scuba.columns import ColumnZone, DictColumn, FloatColumn, Segment
from repro.scuba.filters import ColumnFilter

Shape = tuple
States = dict[tuple, Any]

_NUMERIC = (int, float)


def generic_fold(function: AggregateFunction, codes, values,
                 n: int) -> dict[int, Any]:
    """Per-row monoid fallback for aggregates without a columnar kernel
    (topk, approx_distinct, stddev, ...) — still column-driven, so it
    caches and merges like the kernel paths."""
    states: dict[int, Any] = {}
    if codes is None:
        codes = [0] * n
    if values is None:
        values = [1] * n
    for code, value in zip(codes, values):
        state = states.get(code)
        if state is None:
            state = function.create()
        states[code] = function.update(state, value)
    return states


def _float_comparator(
        column_filter: ColumnFilter) -> Callable[[Sequence[float]],
                                                 list[bool]] | None:
    """A whole-slice comparator for all-float data, or ``None``.

    Semantically identical to mapping ``passes()`` over the slice —
    float-vs-numeric comparisons cannot raise ``TypeError`` — but
    several times faster: the op dispatches once per slice and the
    per-row work is a bare comparison in a comprehension, not a
    ``passes()`` call doing a dict lookup and a try/except per row.
    """
    op = column_filter.op
    operand = column_filter.operand
    if op in ("in", "not in"):
        try:
            members = frozenset(operand)
        except TypeError:
            return None
        if op == "in":
            return lambda data: [v in members for v in data]
        return lambda data: [v not in members for v in data]
    if not isinstance(operand, _NUMERIC):
        return None
    if op == "==":
        return lambda data: [v == operand for v in data]
    if op == "!=":
        return lambda data: [v != operand for v in data]
    if op == "<":
        return lambda data: [v < operand for v in data]
    if op == "<=":
        return lambda data: [v <= operand for v in data]
    if op == ">":
        return lambda data: [v > operand for v in data]
    return lambda data: [v >= operand for v in data]


def _zone_may_match(column_filter: ColumnFilter,
                    zone: ColumnZone | None) -> bool:
    """Whether any row of a segment with this zone *could* pass.

    Must never return ``False`` when a row would pass (pruning
    soundness); returning ``True`` too often only costs a scan.
    """
    if zone is None:  # column absent: every row reads as null
        return column_filter.missing_passes
    if zone.has_missing and column_filter.missing_passes:
        return True
    if zone.domain is not None:  # exact (or superset) value enumeration
        return any(column_filter.passes(value) for value in zone.domain)
    if zone.min_value is None:  # no sound range claim
        return True
    op = column_filter.op
    if op in (">", ">="):
        return column_filter.passes(zone.max_value)
    if op in ("<", "<="):
        return column_filter.passes(zone.min_value)
    if op == "==":
        operand = column_filter.operand
        if isinstance(operand, _NUMERIC):
            return zone.min_value <= operand <= zone.max_value
        return False  # a numeric value never equals a non-number
    if op == "in":
        try:
            return any(isinstance(value, _NUMERIC)
                       and zone.min_value <= value <= zone.max_value
                       for value in column_filter.operand)
        except TypeError:
            return True
    if zone.min_value == zone.max_value:  # constant column: test the value
        return column_filter.passes(zone.min_value)
    return True


class CompiledFilter:
    """One filter lowered against every column encoding it may meet."""

    __slots__ = ("filter", "column", "passes", "missing_passes",
                 "float_test")

    def __init__(self, column_filter: ColumnFilter) -> None:
        self.filter = column_filter
        self.column = column_filter.column
        self.passes = column_filter.passes
        self.missing_passes = column_filter.missing_passes
        self.float_test = _float_comparator(column_filter)

    def keep(self, segment: Segment, lo: int,
             hi: int) -> bool | list[bool]:
        """Row survival for ``[lo, hi)``: ``True`` (all), ``False``
        (none), or a per-row boolean list."""
        column = segment.columns.get(self.column)
        if column is None:
            return self.missing_passes
        if isinstance(column, DictColumn):
            codes, decoded = column.codes(lo, hi)
            allowed = [self.passes(value) for value in decoded]
            if all(allowed):
                return True
            if not any(allowed):
                return False
            return [allowed[code] for code in codes]
        if isinstance(column, FloatColumn) and self.float_test is not None:
            return self.float_test(column.data[lo:hi])
        return column.mask(self.passes, lo, hi)


class ScubaPlan:
    """An immutable fused program for one query shape."""

    __slots__ = ("shape", "aggregation", "value_column", "group_by",
                 "function", "kernel", "compiled_filters")

    def __init__(self, shape: Shape) -> None:
        aggregation, value_column, group_by, filters = shape
        self.shape = shape
        self.aggregation = aggregation
        self.value_column = value_column
        self.group_by = group_by
        self.function = get_aggregate(aggregation)
        self.kernel = get_columnar_kernel(aggregation)
        self.compiled_filters = tuple(
            CompiledFilter(column_filter) for column_filter in filters)

    def prunes(self, segment: Segment) -> bool:
        """True when the zone maps prove no row of ``segment`` passes.

        Sound for any sub-range: zones summarize the whole segment, so
        "no value in the segment can pass" covers every slice of it.
        """
        return any(
            not _zone_may_match(compiled.filter, segment.zone(compiled.column))
            for compiled in self.compiled_filters)

    def segment_states(self, segment: Segment, lo: int, hi: int,
                       where: Callable[[dict], bool] | None = None) -> States:
        """The fused filter -> select -> group -> fold program.

        ``where`` is evaluated on each materialized row the column
        filters kept, after them — the order the row engine's
        ``_row_passes`` uses. Produces the states the row engine's
        per-row fold would for the same slice (property-tested).
        """
        keep: bool | list = True
        for compiled in self.compiled_filters:
            step = compiled.keep(segment, lo, hi)
            if step is False:
                return {}
            if step is True:
                continue
            # operator.and_ over bools/0-1 ints stays C-level; compress
            # and sum below only need truthiness.
            keep = step if keep is True else list(map(and_, keep, step))
        if where is not None:
            rows = segment.rows(lo, hi)
            keep = ([bool(where(row)) for row in rows] if keep is True else
                    [bool(k and where(row)) for k, row in zip(keep, rows)])

        function = self.function
        kernel = self.kernel
        value_column = self.value_column

        if not self.group_by:  # no-group specialization: one implicit group
            if value_column is None:
                values = None
                n = (hi - lo) if keep is True else int(sum(keep))
            else:
                values = segment.values(value_column, lo, hi)
                if keep is not True:
                    values = list(compress(values, keep))
                n = len(values)
            coded = (kernel.fold(None, values, n) if kernel is not None
                     else generic_fold(function, None, values, n))
            return {(): state for state in coded.values()}

        # group_codes already specializes the single-column case (codes
        # come straight off the dictionary) and absent columns (one
        # implicit None group).
        codes, groups = segment.group_codes(self.group_by, lo, hi)
        if value_column is None:
            if kernel is not None and kernel.name in ("count", "sum"):
                # Fully fused tight loop: with no value column, count
                # and sum both count rows per group, so selection and
                # fold collapse into one C-level Counter pass. State
                # identity with the kernel holds because
                # CountKernel.fold(codes, None, n) *is* Counter(codes).
                selected = codes if keep is True else compress(codes, keep)
                return {groups[code]: count
                        for code, count in Counter(selected).items()}
            values = None
            if keep is not True:
                codes = list(compress(codes, keep))
            n = len(codes)
        else:
            values = segment.values(value_column, lo, hi)
            if keep is not True:
                codes = list(compress(codes, keep))
                values = list(compress(values, keep))
            n = len(codes)
        coded = (kernel.fold(codes, values, n) if kernel is not None
                 else generic_fold(function, codes, values, n))
        return {groups[code]: state for code, state in coded.items()}


class ScubaPlanCache:
    """Bounded LRU of :class:`ScubaPlan` objects keyed by query shape.

    Owned by the table's :class:`~repro.scuba.cache.ScubaQueryCache`
    and cleared with it. Plans are pure functions of their shape, so
    segment replacement never invalidates them.
    """

    def __init__(self, max_plans: int = 256) -> None:
        self.max_plans = max_plans
        self._plans: OrderedDict[Shape, ScubaPlan] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, shape: Shape) -> tuple[ScubaPlan, bool]:
        """The cached (or freshly lowered) plan and whether it was a hit."""
        plan = self._plans.get(shape)
        if plan is not None:
            self.hits += 1
            self._plans.move_to_end(shape)
            return plan, True
        self.misses += 1
        plan = ScubaPlan(shape)
        self._plans[shape] = plan
        while len(self._plans) > self.max_plans:
            self._plans.popitem(last=False)
        return plan, False

    def clear(self) -> None:
        self._plans.clear()

    def __len__(self) -> int:
        return len(self._plans)

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "size": len(self._plans)}
