"""Columnar segment storage for Scuba tables.

A sealed :class:`Segment` holds a time-sorted run of rows decomposed into
per-column arrays:

- :class:`FloatColumn` — ``array('d')``, used when the column is present
  in every row of the segment and every value is a ``float``;
- :class:`DictColumn` — dictionary-encoded codes in ``array('H')``, used
  for small-cardinality columns (strings, status codes, Nones, missing
  keys); the dictionary stores the exact original Python values;
- :class:`ObjectColumn` — a plain list fallback for high-cardinality or
  unhashable values.

Rows that lack a column are encoded with the :data:`MISSING` sentinel so
lazy row materialization can rebuild the original dicts exactly (a row
without a key is not the same row as one with the key set to ``None``).
Query semantics treat ``MISSING`` as ``None``, matching what the row
engine's ``row.get(column)`` returns.

Segments are immutable once sealed; every structural change (an
out-of-order insert landing inside a sealed range, a retention trim
slicing a boundary segment) produces a *new* segment with a fresh
``seg_id``. That is what makes the query cache's invalidation precise:
a cached partial keyed by ``seg_id`` is valid exactly as long as that
segment is still live.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import isnan
from typing import Any, Callable, Iterator, Sequence

Row = dict[str, Any]

#: Sentinel marking "this row has no such key" inside a column. Never
#: escapes materialized rows; query layers treat it as None.
MISSING = object()

#: Above this many distinct values a column stops dictionary-encoding
#: and falls back to an object column. Must stay < 65536 ('H' codes).
DICT_MAX_CARDINALITY = 4096


@dataclass(frozen=True)
class ColumnZone:
    """Summary facts about one column of one sealed segment (zone map).

    Everything here is *sound for pruning*: a claim may be weaker than
    reality (a sliced DictColumn reports its parent's full dictionary as
    ``domain``, a superset of the values actually present) but never
    stronger — if the zone says no row can pass a filter, none can.

    - ``min_value``/``max_value``: range of the numeric non-null values,
      or ``None`` when the column holds non-numeric values or a NaN (no
      sound range claim is possible: NaN fails every comparison, so it
      poisons both ``min``/``max`` and the range test);
    - ``has_missing``: whether any row reads as null (absent key or
      literal ``None``);
    - ``domain``: the distinct query-visible values (possibly a
      superset), or ``None`` when unknown — only dictionary-encoded
      columns are cheap enough to enumerate.
    """

    min_value: float | None
    max_value: float | None
    has_missing: bool
    domain: tuple | None


def _numeric_zone(values: Sequence[Any]) -> ColumnZone:
    """Zone for raw values that may include ``MISSING``/``None``."""
    lo = hi = None
    has_missing = False
    numeric = True
    for value in values:
        if value is MISSING or value is None:
            has_missing = True
        # value == value is False only for NaN, which claims no range.
        elif numeric and isinstance(value, (int, float)) and value == value:
            if lo is None or value < lo:
                lo = value
            if hi is None or value > hi:
                hi = value
        else:
            numeric = False
    if not numeric:
        lo = hi = None
    return ColumnZone(lo, hi, has_missing, None)


class FloatColumn:
    """All rows present, all values ``float``: a bare ``array('d')``."""

    __slots__ = ("data", "_zone")

    def __init__(self, data: array) -> None:
        self.data = data
        self._zone: ColumnZone | None = None

    def zone(self) -> ColumnZone:
        if self._zone is None:
            data = self.data
            if not data or any(map(isnan, data)):  # NaN: no range claim
                self._zone = ColumnZone(None, None, False, None)
            else:
                self._zone = ColumnZone(min(data), max(data), False, None)
        return self._zone

    def get(self, i: int) -> Any:
        return self.data[i]

    def values(self, lo: int, hi: int) -> Sequence[Any]:
        """Per-row Python values in ``[lo, hi)`` (``MISSING`` -> ``None``)."""
        return self.data[lo:hi]

    def codes(self, lo: int, hi: int) -> tuple[Sequence[int], list[Any]]:
        """Dictionary-encode on the fly for group-by."""
        mapping: dict[float, int] = {}
        out: list[int] = []
        append = out.append
        for value in self.data[lo:hi]:
            code = mapping.get(value)
            if code is None:
                code = mapping[value] = len(mapping)
            append(code)
        return out, list(mapping)

    def mask(self, passes: Callable[[Any], bool], lo: int,
             hi: int) -> list[bool]:
        return [passes(value) for value in self.data[lo:hi]]

    def sliced(self, lo: int) -> "FloatColumn":
        return FloatColumn(self.data[lo:])


class DictColumn:
    """Dictionary-encoded values; the dictionary keeps exact objects."""

    __slots__ = ("_codes", "dictionary", "_decoded", "_zone")

    def __init__(self, codes: array, dictionary: list[Any]) -> None:
        self._codes = codes
        self.dictionary = dictionary
        # The query-facing view of the dictionary: MISSING reads as None.
        self._decoded = [None if value is MISSING else value
                         for value in dictionary]
        self._zone: ColumnZone | None = None

    def zone(self) -> ColumnZone:
        # The dictionary may be a superset of the values present (sliced
        # columns share their parent's dictionary), so the zone's claims
        # are weaker than reality but still sound for pruning.
        if self._zone is None:
            base = _numeric_zone(self._decoded)
            self._zone = ColumnZone(base.min_value, base.max_value,
                                    base.has_missing, tuple(self._decoded))
        return self._zone

    def get(self, i: int) -> Any:
        return self.dictionary[self._codes[i]]

    def values(self, lo: int, hi: int) -> Sequence[Any]:
        decoded = self._decoded
        return [decoded[code] for code in self._codes[lo:hi]]

    def codes(self, lo: int, hi: int) -> tuple[Sequence[int], list[Any]]:
        return self._codes[lo:hi], list(self._decoded)

    def sliced(self, lo: int) -> "DictColumn":
        return DictColumn(self._codes[lo:], self.dictionary)


class ObjectColumn:
    """Fallback: a plain list of values (may contain ``MISSING``)."""

    __slots__ = ("data", "_zone")

    def __init__(self, data: list[Any]) -> None:
        self.data = data
        self._zone: ColumnZone | None = None

    def zone(self) -> ColumnZone:
        if self._zone is None:
            self._zone = _numeric_zone(self.data)
        return self._zone

    def get(self, i: int) -> Any:
        return self.data[i]

    def values(self, lo: int, hi: int) -> Sequence[Any]:
        return [None if value is MISSING else value
                for value in self.data[lo:hi]]

    def codes(self, lo: int, hi: int) -> tuple[Sequence[int], list[Any]]:
        mapping: dict[Any, int] = {}
        out: list[int] = []
        dictionary: list[Any] = []
        append = out.append
        for value in self.data[lo:hi]:
            if value is MISSING:
                value = None
            try:
                code = mapping.get(value)
            except TypeError:  # unhashable: identity-encode
                code = None
            if code is None:
                code = len(dictionary)
                dictionary.append(value)
                try:
                    mapping[value] = code
                except TypeError:
                    pass
            append(code)
        return out, dictionary

    def mask(self, passes: Callable[[Any], bool], lo: int,
             hi: int) -> list[bool]:
        return [passes(None if value is MISSING else value)
                for value in self.data[lo:hi]]

    def sliced(self, lo: int) -> "ObjectColumn":
        return ObjectColumn(self.data[lo:])


def build_column(values: list[Any]):
    """Pick the narrowest encoding that preserves every value exactly."""
    if all(type(value) is float for value in values):
        return FloatColumn(array("d", values))
    mapping: dict[Any, int] = {}
    codes: list[int] = []
    append = codes.append
    for value in values:
        try:
            code = mapping.setdefault(value, len(mapping))
        except TypeError:  # unhashable value: no dictionary possible
            return ObjectColumn(values)
        if len(mapping) > DICT_MAX_CARDINALITY:
            return ObjectColumn(values)
        append(code)
    return DictColumn(array("H", codes), list(mapping))


class Segment:
    """An immutable, time-sorted, columnar run of rows."""

    __slots__ = ("seg_id", "times", "columns", "length")

    def __init__(self, seg_id: int, times: array,
                 columns: dict[str, Any], length: int) -> None:
        self.seg_id = seg_id
        self.times = times  # array('d'), nondecreasing
        self.columns = columns
        self.length = length

    @classmethod
    def seal(cls, seg_id: int, times: Sequence[float],
             rows: list[Row]) -> "Segment":
        """Encode ``rows`` (already time-sorted) into columns."""
        n = len(rows)
        raw: dict[str, list[Any]] = {}
        for i, row in enumerate(rows):
            for key, value in row.items():
                col = raw.get(key)
                if col is None:
                    col = raw[key] = [MISSING] * n
                col[i] = value
        columns = {key: build_column(values) for key, values in raw.items()}
        return cls(seg_id, array("d", times), columns, n)

    # -- row materialization -------------------------------------------------

    def row(self, i: int) -> Row:
        out: Row = {}
        for name, column in self.columns.items():
            value = column.get(i)
            if value is not MISSING:
                out[name] = value
        return out

    def rows(self, lo: int, hi: int) -> list[Row]:
        """Materialize rows ``[lo, hi)`` back into dicts, lazily."""
        columns = list(self.columns.items())
        out: list[Row] = []
        for i in range(lo, hi):
            row: Row = {}
            for name, column in columns:
                value = column.get(i)
                if value is not MISSING:
                    row[name] = value
            out.append(row)
        return out

    def iter_rows(self) -> Iterator[Row]:
        for i in range(self.length):
            yield self.row(i)

    # -- query helpers -------------------------------------------------------

    def values(self, name: str, lo: int, hi: int) -> Sequence[Any]:
        column = self.columns.get(name)
        if column is None:
            return [None] * (hi - lo)
        return column.values(lo, hi)

    def group_codes(self, names: Sequence[str], lo: int,
                    hi: int) -> tuple[Sequence[int], list[tuple]]:
        """Per-row combined group codes plus the group-tuple dictionary."""
        per_column = []
        for name in names:
            column = self.columns.get(name)
            if column is None:
                per_column.append(([0] * (hi - lo), [None]))
            else:
                per_column.append(column.codes(lo, hi))
        if len(per_column) == 1:
            codes, dictionary = per_column[0]
            return codes, [(value,) for value in dictionary]
        combined: dict[tuple[int, ...], int] = {}
        groups: list[tuple] = []
        out: list[int] = []
        append = out.append
        dictionaries = [dictionary for _, dictionary in per_column]
        for key in zip(*(codes for codes, _ in per_column)):
            code = combined.get(key)
            if code is None:
                code = combined[key] = len(groups)
                groups.append(tuple(dictionary[c] for dictionary, c
                                    in zip(dictionaries, key)))
            append(code)
        return out, groups

    def zone(self, name: str) -> ColumnZone | None:
        """The column's zone map, or ``None`` when the column is absent
        from this segment (every row reads as null)."""
        column = self.columns.get(name)
        return None if column is None else column.zone()

    def sliced(self, lo: int, seg_id: int) -> "Segment":
        """A new segment holding rows ``[lo, length)`` (retention trim)."""
        columns = {name: column.sliced(lo)
                   for name, column in self.columns.items()}
        return Segment(seg_id, self.times[lo:], columns, self.length - lo)
