"""Scuba: the slice-and-dice analytics store (paper Section 2.6).

Scuba ingests raw event rows (optionally sampled) and aggregates **at
query time** by scanning them — flexible but CPU-intensive, which is the
tradeoff behind the Section 5.2 dashboard migration to Puma. Queries
charge their scanned-row work to a metrics registry so the migration
experiment can compare read-time versus write-time CPU directly.

Storage is columnar (sealed time-sorted segments + a mutable row tail,
:mod:`repro.scuba.columns`). Every query runs one compiled plan
(:mod:`repro.scuba.compiler`) with an incremental dashboard-refresh
cache (:mod:`repro.scuba.cache`); the per-row scan engine survives as
``ScubaQuery(engine="rows")`` — the paper-faithful cost-model baseline
and the oracle the compiled engine is tested against.
"""

from repro.scuba.cache import ScubaQueryCache
from repro.scuba.columns import Segment
from repro.scuba.ingest import ScubaIngester
from repro.scuba.query import ColumnFilter, ScubaQuery, TimeSeriesPoint
from repro.scuba.table import ScubaTable

__all__ = ["ColumnFilter", "ScubaIngester", "ScubaQuery", "ScubaQueryCache",
           "ScubaTable", "Segment", "TimeSeriesPoint"]
