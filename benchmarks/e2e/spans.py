"""Span tracing from outside: wrappers on the layers' public callables.

``Tracer.install`` replaces class and module attributes named in
``benchmarks.e2e.layers.TARGETS`` with timing wrappers (and restores them
on ``uninstall``); nothing under ``src/`` knows it is being traced. Every
wrapped call is one span: name, layer, start, end and the span that
caused it. A span's *self time* is its duration minus the part its child
spans cover, so with one thread the self times of all spans partition the
traced wall time exactly — that is what lets the per-layer ledger close.

Batch-level calls keep their individual spans (written to ``--trace-out``
at exit); per-record calls are only aggregated per (name, parent name) as
count / total / self so a traced run of a million events stays small.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

ROOT = "<driver>"


@dataclass(frozen=True)
class Target:
    """One public callable to wrap."""

    layer: str
    owner: Any                 # class or module holding the attribute
    attr: str
    keep: bool = False         # keep individual spans (batch-level calls)
    #: ``items(result, args, kwargs)``: how many messages, rows or ops
    #: the call moved, summed next to its time.
    items: Callable[[Any, tuple, dict], int] | None = None
    sampled: bool = False      # keep every duration (for percentiles)
    #: Splits one callable into several span names by its first argument
    #: (``ScubaQuery.run`` -> ``ScubaQuery.run[grouped]``).
    variant: Callable[[Any], str] | None = None

    @property
    def name(self) -> str:
        owner = getattr(self.owner, "__name__", str(self.owner))
        return f"{owner.rsplit('.', 1)[-1]}.{self.attr}"


class Tracer:
    """Span recorder for a single-threaded run."""

    def __init__(self) -> None:
        # Frame: [name, child_ns, nearest kept ancestor's span index].
        self._stack: list[list[Any]] = [[ROOT, 0, -1]]
        #: (name, parent name) -> [count, total_ns, self_ns, items]
        self.aggregate: dict[tuple[str, str], list[int]] = {}
        #: kept spans: (name, start_ns, end_ns, parent span index)
        self.spans: list[tuple[str, int, int, int]] = []
        self.samples: dict[str, list[int]] = {}
        self.layer_of: dict[str, str] = {ROOT: "driver"}
        self._saved: list[tuple[Any, str, Any]] = []

    # -- installation -------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            raw = inspect.getattr_static(target.owner, target.attr)
            self._saved.append((target.owner, target.attr, raw))
            self.layer_of[target.name] = target.layer
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(target, raw.__func__))
            elif inspect.isgeneratorfunction(raw):
                wrapped = self._wrap_generator(target, raw)
            elif target.variant is not None:
                wrapped = self._wrap_variants(target, raw)
            else:
                wrapped = self._wrap(target, raw)
            setattr(target.owner, target.attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _record(self, name: str, parent: str, duration: int, self_ns: int,
                items: int) -> None:
        key = (name, parent)
        entry = self.aggregate.get(key)
        if entry is None:
            self.aggregate[key] = [1, duration, self_ns, items]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_ns
            entry[3] += items

    def _wrap_variants(self, target: Target, function: Callable
                       ) -> Callable:
        variant = target.variant
        wrappers: dict[str, Callable] = {}

        def dispatch(first: Any, *args: Any, **kwargs: Any) -> Any:
            label = variant(first)
            traced = wrappers.get(label)
            if traced is None:
                name = f"{target.name}[{label}]"
                self.layer_of[name] = target.layer
                traced = wrappers[label] = self._wrap(target, function,
                                                      name)
            return traced(first, *args, **kwargs)

        return dispatch

    def _wrap(self, target: Target, function: Callable,
              name: str | None = None) -> Callable:
        name = name or target.name
        keep, items_of = target.keep, target.items
        stack = self._stack
        spans = self.spans
        record = self._record
        samples = self.samples.setdefault(name, []) if target.sampled \
            else None
        clock = perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            if keep:
                index = len(spans)
                spans.append((name, 0, 0, parent[2]))
                frame = [name, 0, index]
            else:
                frame = [name, 0, parent[2]]
            stack.append(frame)
            result = None
            returned = False
            started = clock()
            try:
                result = function(*args, **kwargs)
                returned = True
                return result
            finally:
                ended = clock()
                stack.pop()
                duration = ended - started
                parent[1] += duration
                record(name, parent[0], duration, duration - frame[1],
                       items_of(result, args, kwargs)
                       if items_of is not None and returned else 0)
                if keep:
                    spans[frame[2]] = (name, started, ended, parent[2])
                if samples is not None:
                    samples.append(duration)

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def _wrap_generator(self, target: Target, function: Callable
                        ) -> Callable:
        """Generators do their work inside ``next()``: time exactly that,
        as a leaf span charged to whoever is consuming it at the end."""
        name = target.name
        stack = self._stack
        record = self._record
        clock = perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            iterator = function(*args, **kwargs)
            total = 0
            items = 0
            try:
                while True:
                    started = clock()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        total += clock() - started
                        return
                    total += clock() - started
                    items += 1
                    yield item
            finally:
                parent = stack[-1]
                parent[1] += total
                record(name, parent[0], total, total, items)

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    # -- reading --------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (keeps the wrappers)."""
        del self._stack[1:]
        self._stack[0][1] = 0
        self.aggregate.clear()
        self.spans.clear()
        for durations in self.samples.values():
            durations.clear()

    def layer_self_ns(self) -> dict[str, int]:
        """Self time per layer over everything recorded."""
        totals: dict[str, int] = {}
        for (name, _), (_, _, self_ns, _) in self.aggregate.items():
            layer = self.layer_of[name]
            totals[layer] = totals.get(layer, 0) + self_ns
        return totals

    def by_name(self, *names: str) -> tuple[int, int, int, int]:
        """(count, total_ns, self_ns, items) summed over ``names``."""
        count = total = self_ns = items = 0
        for (name, _), entry in self.aggregate.items():
            if name in names:
                count += entry[0]
                total += entry[1]
                self_ns += entry[2]
                items += entry[3]
        return count, total, self_ns, items

    def write(self, path: str) -> None:
        """Kept spans plus per-(name, parent) aggregates, as JSON."""
        origin = self.spans[0][1] if self.spans else 0
        document = {
            "spans": [
                {"id": index, "name": name,
                 "layer": self.layer_of[name],
                 "start_us": (start - origin) / 1e3,
                 "end_us": (end - origin) / 1e3, "parent": parent}
                for index, (name, start, end, parent)
                in enumerate(self.spans)
            ],
            "aggregates": [
                {"name": name, "parent": parent,
                 "layer": self.layer_of[name], "count": entry[0],
                 "total_us": entry[1] / 1e3, "self_us": entry[2] / 1e3,
                 "items": entry[3]}
                for (name, parent), entry in sorted(self.aggregate.items())
            ],
        }
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
