"""reproflow: interprocedural effect-ordering rules (R007–R010).

The paper's design decision #3 — processing semantics as a lattice of
state-saving × output guarantees (Table 8 / Figure 7) — is the invariant
this repo kept re-breaking *dynamically*: the chaos campaigns of PRs 3,
6, and 8 each flushed out the same static shape, an effect (publish,
offset advance, state save, checkpoint numbering) executed in an order
that violates the declared semantics. The per-file rules in
:mod:`repro.lint.rules` cannot see that shape: the publish lives in one
method, the checkpoint three calls away. This module can.

How it works, in three layers:

1. **Effect classification.** Each call site is mapped to an abstract
   effect kind — publish, offset_advance, state_save, checkpoint_commit,
   counter_inc, credit_grant/spend, durable_read — via a small spec
   registry of conventional names (``save_offset``, ``flush_partials``,
   ``save_atomic_with_outputs``, ...), AST heuristics (``*.write`` on a
   writer, ``*.save`` on a checkpoint store), and explicit
   ``# lint: effect[...]`` annotations for ambiguous sites (a bare
   ``client(message)`` callback is a publish only the author can know).

2. **Guarded summaries.** Per module, a call graph over top-level
   functions and methods; each function summarises to a linear sequence
   of effect events, every event tagged with the set of semantics modes
   under which it can execute. Recognised guards
   (``self.semantics.state == StateSemantics.AT_LEAST_ONCE``,
   ``.transactional``, ``.emits_after_checkpoint``, ...) narrow the
   sets; Table 8's closure (exactly-once state ⟺ exactly-once output)
   is re-applied after every narrowing; same-module calls splice the
   callee's summary with the call-site environment intersected in.
   Contradictory environments drop their events, so an
   ``emits_after_checkpoint`` publish never trips the at-least-once
   rules.

3. **Ordering contracts.** R007–R010 below check each summary. Two
   events are only ordered *against each other* when their environments
   are compatible (non-empty intersection on both axes) — events from
   sibling semantics branches cannot shadow one another.

Findings flow through the ordinary engine: pragmas, baseline
fingerprints, JSON output, exit codes. The rules run only under
``--flow`` (or explicit ``--select``) and only over the modules that
implement the delivery protocol (stylus/, swift/, puma/, scribe/,
runtime/topology.py, plus any file opting in with
``# lint: effect[watch]`` — how the regression corpus under
``tests/lint/corpus/`` is covered).

Annotation grammar (comma-separated items inside ``# lint: effect[...]``)::

    # lint: effect[publish]                  calls on this line publish
    # lint: effect[none]                     calls on this line: no effect
    # lint: effect[state=at_least_once]      assumption, on a def/class line
    # lint: effect[output=at_most_once]      (class-level covers methods)
    # lint: effect[restart]                  def line: treat as restart path
    # lint: effect[degraded]                 def line: degraded-mode handler
    # lint: effect[watch]                    anywhere: opt the file in

The analysis is deliberately modest: module-local resolution only
(``self.method()`` and bare-name calls), loops walked once, branches
joined by union. Imprecision lands on the not-flagging side — each rule
requires positive evidence of the *bad* order, not absence of evidence
of the good one.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator

from repro.lint.engine import (FileContext, Finding, Rule, iter_comments,
                               register)

__all__ = [
    "EFFECT_SPECS", "PUBLISH", "OFFSET_ADVANCE", "STATE_SAVE",
    "CHECKPOINT_COMMIT", "COUNTER_INC", "CREDIT_GRANT", "CREDIT_SPEND",
    "DURABLE_READ",
]

# -- effect vocabulary -------------------------------------------------------

PUBLISH = "publish"
OFFSET_ADVANCE = "offset_advance"
STATE_SAVE = "state_save"
CHECKPOINT_COMMIT = "checkpoint_commit"
COUNTER_INC = "counter_inc"
CREDIT_GRANT = "credit_grant"
CREDIT_SPEND = "credit_spend"
DURABLE_READ = "durable_read"

EFFECT_KINDS = frozenset({
    PUBLISH, OFFSET_ADVANCE, STATE_SAVE, CHECKPOINT_COMMIT,
    COUNTER_INC, CREDIT_GRANT, CREDIT_SPEND, DURABLE_READ,
})

#: Terminal callable names whose effect is fixed by convention across
#: the tree. A name listed here is an event at its call sites — its own
#: body is still analysed standalone, but never spliced into callers.
EFFECT_SPECS: dict[str, str] = {
    # offset / ack advancement
    "save_offset": OFFSET_ADVANCE,
    "_checkpoint_offsets": OFFSET_ADVANCE,
    "_save_checkpoint": OFFSET_ADVANCE,
    # state persistence
    "save_state": STATE_SAVE,
    "flush_partials": STATE_SAVE,
    "_save_payload": STATE_SAVE,
    "_save_payload_at_most_once": STATE_SAVE,
    "_flush_state_rows": STATE_SAVE,
    # transactional checkpoint (state + offset + outputs, atomically)
    "save_atomic": CHECKPOINT_COMMIT,
    "save_atomic_with_outputs": CHECKPOINT_COMMIT,
    "flush_partials_atomic": CHECKPOINT_COMMIT,
    "_save_exactly_once": CHECKPOINT_COMMIT,
    # accounting and flow control
    "increment": COUNTER_INC,
    "try_acquire": CREDIT_SPEND,
    "grant": CREDIT_GRANT,
    # durable reads restart paths should derive positions from
    "last_checkpoint_index": DURABLE_READ,
}

#: Semantics values, matching the ``core.semantics`` enum members.
_SEM = ("at_least_once", "at_most_once", "exactly_once")
_FULL = frozenset(_SEM)
_EO = frozenset({"exactly_once"})
_ALO = frozenset({"at_least_once"})
_AMO = frozenset({"at_most_once"})

#: Effects that durably record progress: any of these after a publish
#: means the publish was part of a checkpoint cycle, not fire-and-forget.
_CHECKPOINTISH = (CHECKPOINT_COMMIT, OFFSET_ADVANCE, STATE_SAVE)

_EFFECT_RE = re.compile(r"#\s*lint:\s*effect\[([^\]]+)\]")

#: Directories (under a ``repro`` package dir) that implement the
#: delivery-semantics protocol; everything else is out of scope.
_WATCHED_DIRS = ("stylus", "swift", "puma", "scribe")

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


# -- annotations -------------------------------------------------------------

@dataclass
class _Annotations:
    """Parsed ``# lint: effect[...]`` comments for one file."""

    watched: bool
    kinds_by_line: dict[int, tuple[str, ...]]
    none_lines: frozenset[int]
    assumptions_by_line: dict[int, tuple[tuple[str, str], ...]]
    markers_by_line: dict[int, frozenset[str]]


def _parse_annotations(source: str) -> _Annotations:
    watched = False
    kinds: dict[int, list[str]] = {}
    nones: list[int] = []
    assumptions: dict[int, list[tuple[str, str]]] = {}
    markers: dict[int, list[str]] = {}
    for lineno, comment in iter_comments(source):
        match = _EFFECT_RE.search(comment)
        if not match:
            continue
        for item in match.group(1).split(","):
            item = item.strip()
            if not item:
                continue
            if item == "watch":
                watched = True
            elif item == "none":
                nones.append(lineno)
            elif item in ("restart", "degraded"):
                markers.setdefault(lineno, []).append(item)
            elif item in EFFECT_KINDS:
                kinds.setdefault(lineno, []).append(item)
            elif "=" in item:
                axis, _, value = item.partition("=")
                axis = axis.strip()
                value = value.strip()
                if axis in ("state", "output") and value in _SEM:
                    assumptions.setdefault(lineno, []).append((axis, value))
    return _Annotations(
        watched=watched,
        kinds_by_line={line: tuple(found) for line, found in kinds.items()},
        none_lines=frozenset(nones),
        assumptions_by_line={line: tuple(found)
                             for line, found in assumptions.items()},
        markers_by_line={line: frozenset(found)
                         for line, found in markers.items()},
    )


# -- guard environments ------------------------------------------------------

def _close(states: frozenset, outputs: frozenset) -> tuple:
    """Re-apply Table 8's closure: exactly-once is all-or-nothing.

    The common, supported combinations couple exactly-once state with
    exactly-once output (the transaction carries both); once one axis
    rules exactly-once out, so does the other, and once one axis is
    pinned *to* exactly-once the other follows.
    """
    if "exactly_once" not in states:
        outputs = outputs - _EO
    if "exactly_once" not in outputs:
        states = states - _EO
    if states == _EO:
        outputs = outputs & _EO
    if outputs == _EO:
        states = states & _EO
    return states, outputs


def _narrow(env: tuple, atoms: list) -> tuple:
    states, outputs = env
    for axis, values in atoms:
        if axis == "state":
            states = states & values
        else:
            outputs = outputs & values
    return _close(states, outputs)


def _union(left: tuple, right: tuple) -> tuple:
    return (left[0] | right[0], left[1] | right[1])


def _dotted(node: ast.AST) -> str | None:
    """Render ``a.b.c`` chains; None for anything more dynamic."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _receiver_name(node: ast.AST) -> str:
    """Best-effort name for a call receiver; subscripts unwrap."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return _dotted(node) or ""


def _enum_value(node: ast.AST) -> tuple[str, str] | None:
    """``StateSemantics.AT_LEAST_ONCE`` -> ("state", "at_least_once")."""
    dotted = _dotted(node)
    if not dotted:
        return None
    parts = dotted.split(".")
    if len(parts) < 2:
        return None
    enum_name, member = parts[-2], parts[-1]
    value = member.lower()
    if value not in _SEM:
        return None
    if enum_name == "StateSemantics":
        return ("state", value)
    if enum_name == "OutputSemantics":
        return ("output", value)
    return None


def _atoms_from_test(test: ast.AST) -> tuple[list, bool]:
    """Semantic atoms a test implies when true.

    Returns ``(atoms, invertible)``: atoms is a list of
    ``(axis, values)`` narrowings; invertible means the false branch may
    be narrowed with the complement (only single recognised atoms are).
    """
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        atoms, invertible = _atoms_from_test(test.operand)
        if invertible and len(atoms) == 1:
            axis, values = atoms[0]
            return [(axis, _FULL - values)], True
        return [], False
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        collected: list = []
        for value in test.values:
            sub, _ = _atoms_from_test(value)
            collected.extend(sub)
        # `a and b` narrows the true branch by every recognised atom,
        # but its negation narrows nothing (could be either conjunct).
        return collected, False
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        op = test.ops[0]
        if isinstance(op, (ast.Eq, ast.Is, ast.NotEq, ast.IsNot)):
            sides = (test.left, test.comparators[0])
            for subject, other in (sides, sides[::-1]):
                enum = _enum_value(other)
                if enum is None:
                    continue
                dotted = _dotted(subject) or ""
                if "semantics" not in dotted:
                    continue
                axis, value = enum
                values = frozenset({value})
                if isinstance(op, (ast.NotEq, ast.IsNot)):
                    values = _FULL - values
                return [(axis, values)], True
        return [], False
    dotted = _dotted(test) or ""
    if dotted.endswith("emits_before_checkpoint"):
        return [("output", _ALO)], True
    if dotted.endswith("emits_after_checkpoint"):
        return [("output", _AMO)], True
    if dotted.endswith("transactional"):
        return [("state", _EO)], True
    return [], False


def _narrow_false(env: tuple, atoms: list, invertible: bool) -> tuple:
    if invertible and len(atoms) == 1:
        axis, values = atoms[0]
        return _narrow(env, [(axis, _FULL - values)])
    return env


# -- module index ------------------------------------------------------------

@dataclass
class _Func:
    """One analysable function/method and its assumed environment."""

    qualname: str
    node: ast.AST
    cls: str | None
    env0: tuple
    markers: frozenset[str]


@dataclass
class _ModuleIndex:
    ann: _Annotations
    functions: dict[str, _Func]
    counters: list[tuple[str, int]]  # (metric name literal, lineno)


def _initial_env(ann: _Annotations, lines: tuple[int, ...]) -> tuple:
    env = (_FULL, _FULL)
    for lineno in lines:
        atoms = [(axis, frozenset({value}))
                 for axis, value in ann.assumptions_by_line.get(lineno, ())]
        if atoms:
            env = _narrow(env, atoms)
    return env


def _build_index(ctx: FileContext) -> _ModuleIndex:
    ann = _parse_annotations(ctx.source)
    functions: dict[str, _Func] = {}

    def add(node: ast.AST, cls: str | None, cls_line: int | None) -> None:
        qualname = f"{cls}.{node.name}" if cls else node.name
        lines = ((cls_line, node.lineno) if cls_line is not None
                 else (node.lineno,))
        markers = ann.markers_by_line.get(node.lineno, frozenset())
        functions[qualname] = _Func(
            qualname=qualname, node=node, cls=cls,
            env0=_initial_env(ann, lines), markers=markers)

    for node in ctx.tree.body:
        if isinstance(node, _FUNCTION_DEFS):
            add(node, None, None)
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, _FUNCTION_DEFS):
                    add(child, node.name, node.lineno)

    counters: list[tuple[str, int]] = []
    for node in ast.walk(ctx.tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "counter" and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            counters.append((node.args[0].value, node.lineno))
    return _ModuleIndex(ann=ann, functions=functions, counters=counters)


def _module_state(ctx: FileContext) -> tuple:
    """Index + summarizer, built once per file and shared by all rules."""
    state = getattr(ctx, "_flow_state", None)
    if state is None:
        index = _build_index(ctx)
        state = (index, _Summarizer(index))
        ctx._flow_state = state
    return state


def _watched(ctx: FileContext, index: _ModuleIndex) -> bool:
    if index.ann.watched:
        return True
    if ctx.path_endswith("repro/runtime/topology.py"):
        return True
    parts = ctx.path.split("/")
    if "repro" not in parts:
        return False
    return any(name in parts[:-1] for name in _WATCHED_DIRS)


# -- effect summaries --------------------------------------------------------

@dataclass(frozen=True)
class _Event:
    """One abstract effect, tagged with when it can execute."""

    kind: str
    lineno: int
    states: frozenset
    outputs: frozenset
    detail: str = ""


def _compatible(left: _Event, right: _Event) -> bool:
    """Can the two events occur in the same run of the program?

    Events from sibling semantics branches have disjoint environments on
    some axis; ordering them against each other would be meaningless.
    """
    return bool(left.states & right.states and left.outputs & right.outputs)


def _classify_name(name: str, receiver: str) -> str | None:
    if name in EFFECT_SPECS:
        return EFFECT_SPECS[name]
    if name.startswith("_emit") or name in ("emit", "publish"):
        return PUBLISH
    if name == "write" and "writer" in receiver:
        return PUBLISH
    if name == "save" and "checkpoint" in receiver:
        return OFFSET_ADVANCE
    if name == "load" and ("state_backend" in receiver
                           or "checkpoint" in receiver):
        return DURABLE_READ
    return None


def _terminated(stmts: list) -> bool:
    if not stmts:
        return False
    return isinstance(stmts[-1], (ast.Return, ast.Raise, ast.Break,
                                  ast.Continue))


class _Summarizer:
    """Computes memoised per-function effect summaries."""

    _MAX_DEPTH = 12

    def __init__(self, index: _ModuleIndex) -> None:
        self.index = index
        self._memo: dict[str, list[_Event]] = {}
        self._stack: list[str] = []

    def summary(self, qualname: str) -> list[_Event]:
        if qualname in self._memo:
            return self._memo[qualname]
        if qualname in self._stack or len(self._stack) > self._MAX_DEPTH:
            return []  # recursion or runaway depth: stop splicing
        func = self.index.functions[qualname]
        self._stack.append(qualname)
        try:
            events, _ = self._block(func.node.body, func.env0, func)
        finally:
            self._stack.pop()
        self._memo[qualname] = events
        return events

    # ---- statement walking

    def _block(self, stmts: list, env: tuple, func: _Func) -> tuple:
        events: list[_Event] = []
        for stmt in stmts:
            if isinstance(stmt, (*_FUNCTION_DEFS, ast.ClassDef)):
                continue
            if isinstance(stmt, ast.If):
                events.extend(self._calls(stmt.test, env, func))
                atoms, invertible = _atoms_from_test(stmt.test)
                env_true = _narrow(env, atoms)
                env_false = _narrow_false(env, atoms, invertible)
                ev_t, out_t = self._block(stmt.body, env_true, func)
                ev_f, out_f = self._block(stmt.orelse, env_false, func)
                events.extend(ev_t)
                events.extend(ev_f)
                term_t = _terminated(stmt.body)
                term_f = bool(stmt.orelse) and _terminated(stmt.orelse)
                if term_t and not term_f:
                    env = out_f
                elif term_f and not term_t:
                    env = out_t
                else:
                    env = _union(out_t, out_f)
                continue
            if isinstance(stmt, ast.Try):
                ev, env = self._block(stmt.body, env, func)
                events.extend(ev)
                for handler in stmt.handlers:
                    ev, env = self._block(handler.body, env, func)
                    events.extend(ev)
                ev, env = self._block(stmt.orelse, env, func)
                events.extend(ev)
                ev, env = self._block(stmt.finalbody, env, func)
                events.extend(ev)
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                events.extend(self._calls(stmt.iter, env, func))
                ev, out = self._block(stmt.body, env, func)  # one trip
                events.extend(ev)
                ev, out = self._block(stmt.orelse, _union(env, out), func)
                events.extend(ev)
                env = out
                continue
            if isinstance(stmt, ast.While):
                events.extend(self._calls(stmt.test, env, func))
                ev, out = self._block(stmt.body, env, func)
                events.extend(ev)
                env = _union(env, out)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    events.extend(self._calls(item.context_expr, env, func))
                ev, env = self._block(stmt.body, env, func)
                events.extend(ev)
                continue
            events.extend(self._calls(stmt, env, func))
        return events, env

    def _calls(self, node: ast.AST, env: tuple, func: _Func) -> list:
        events: list[_Event] = []
        found = [n for n in ast.walk(node) if isinstance(n, ast.Call)]
        found.sort(key=lambda n: (n.lineno, n.col_offset))
        for call in found:
            events.extend(self._classify(call, env, func))
        return events

    # ---- call classification

    def _classify(self, call: ast.Call, env: tuple, func: _Func) -> list:
        if not env[0] or not env[1]:
            return []  # contradictory environment: dead branch
        ann = self.index.ann
        lineno = call.lineno
        if lineno in ann.none_lines:
            return []
        if lineno in ann.kinds_by_line:
            return [_Event(kind, lineno, env[0], env[1], "annotated")
                    for kind in ann.kinds_by_line[lineno]]
        target = call.func
        # Retrier-style indirection: `self._retrier.call(f, ...)` — the
        # effect is f's, the wrapper only retries it.
        if (isinstance(target, ast.Attribute) and target.attr == "call"
                and call.args
                and isinstance(call.args[0], (ast.Attribute, ast.Name))):
            target = call.args[0]
        if isinstance(target, ast.Attribute):
            name = target.attr
            receiver = _receiver_name(target.value)
        elif isinstance(target, ast.Name):
            name = target.id
            receiver = ""
        else:
            return []
        kind = _classify_name(name, receiver)
        if kind is not None:
            return [_Event(kind, lineno, env[0], env[1], name)]
        return self._splice(name, receiver, env, func)

    def _splice(self, name: str, receiver: str, env: tuple,
                func: _Func) -> list:
        """Inline a same-module callee's summary at the call site."""
        if receiver in ("self", "cls") and func.cls:
            qualname = f"{func.cls}.{name}"
        elif not receiver:
            qualname = name
        else:
            return []
        if qualname not in self.index.functions:
            return []
        spliced: list[_Event] = []
        for event in self.summary(qualname):
            states, outputs = _close(event.states & env[0],
                                     event.outputs & env[1])
            if states and outputs:
                spliced.append(_Event(event.kind, event.lineno,
                                      states, outputs, event.detail))
        return spliced


# -- the rules ---------------------------------------------------------------

class _At:
    """Minimal lineno holder for :meth:`FileContext.finding`."""

    def __init__(self, lineno: int) -> None:
        self.lineno = lineno


class FlowRule(Rule):
    """Shared driver: index the module once, check every summary."""

    flow = True

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        index, summarizer = _module_state(ctx)
        if not _watched(ctx, index):
            return
        emitted: set[tuple[int, str]] = set()
        for qualname in sorted(index.functions):
            func = index.functions[qualname]
            for finding in self._check_function(ctx, func, summarizer):
                key = (finding.line, finding.message)
                if key not in emitted:
                    emitted.add(key)
                    yield finding

    def _check_function(self, ctx: FileContext, func: _Func,
                        summarizer: _Summarizer) -> Iterator[Finding]:
        return iter(())


@register
class ExactlyOncePublishOrder(FlowRule):
    """R007: exactly-once output rides *inside* the checkpoint
    transaction — a publish that can run under exactly-once semantics
    before the transactional commit breaks the no-duplicates contract
    the moment the task crashes between the two."""

    rule_id = "R007"
    summary = ("exactly-once output must not publish before the "
               "transactional checkpoint commits")

    def _check_function(self, ctx, func, summarizer):
        events = summarizer.summary(func.qualname)
        for position, event in enumerate(events):
            if event.kind != PUBLISH or "exactly_once" not in event.outputs:
                continue
            if any(prior.kind == CHECKPOINT_COMMIT
                   and _compatible(prior, event)
                   for prior in events[:position]):
                continue
            if any(later.kind in _CHECKPOINTISH
                   and _compatible(later, event)
                   for later in events[position + 1:]):
                yield ctx.finding(self.rule_id, _At(event.lineno), (
                    "publish reachable under exactly-once output before "
                    "the transactional checkpoint commits; exactly-once "
                    "output is emitted by the transaction "
                    "(save_atomic_with_outputs), never ahead of it"))


@register
class SemanticsSaveOrder(FlowRule):
    """R008: the two non-transactional modes each fix a save order.
    At-least-once persists state *before* acking offsets (crash between
    them re-reads input, which folding absorbs); at-most-once advances
    offsets *before* any side effect (crash between them skips input,
    which is the contract — replaying it is not)."""

    rule_id = "R008"
    summary = ("at-least-once saves state before acking offsets; "
               "at-most-once advances offsets before side effects")

    def _check_function(self, ctx, func, summarizer):
        events = summarizer.summary(func.qualname)
        for position, event in enumerate(events):
            prior = events[:position]
            if event.kind == OFFSET_ADVANCE and event.states == _ALO:
                if any(p.kind in (STATE_SAVE, CHECKPOINT_COMMIT)
                       and _compatible(p, event) for p in prior):
                    continue
                if any(later.kind == STATE_SAVE and _compatible(later, event)
                       for later in events[position + 1:]):
                    yield ctx.finding(self.rule_id, _At(event.lineno), (
                        "at-least-once state: offset acked before the "
                        "state save; a crash between them loses input "
                        "the offset already acknowledged"))
            elif event.kind == STATE_SAVE and event.states == _AMO:
                if not any(p.kind in (OFFSET_ADVANCE, CHECKPOINT_COMMIT)
                           and _compatible(p, event) for p in prior):
                    yield ctx.finding(self.rule_id, _At(event.lineno), (
                        "at-most-once state: state saved before the "
                        "offset advance; a crash between them replays "
                        "and double-counts input"))
            elif event.kind == PUBLISH and event.outputs == _AMO:
                if not any(p.kind in (OFFSET_ADVANCE, CHECKPOINT_COMMIT)
                           and _compatible(p, event) for p in prior):
                    yield ctx.finding(self.rule_id, _At(event.lineno), (
                        "at-most-once output: publish before the offset "
                        "advance; on replay this re-emits history that "
                        "was already published"))


@register
class PairedCounterConservation(FlowRule):
    """R009: accounting must be conservative. A ``*.granted`` credit
    counter with no ``*.blocked``/``*.reconciled`` partner cannot
    balance, and a degraded-mode handler that increments no counter
    makes its degradation invisible to the chaos campaigns."""

    rule_id = "R009"
    summary = ("credit counters stay paired (granted needs blocked or "
               "reconciled); degraded-mode handlers must count")

    _DEGRADED_TOKENS = ("defer", "fallback", "degraded")

    def __init__(self) -> None:
        self._granted: list[tuple[str, int, str, str]] = []
        self._names: set[str] = set()

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        index, summarizer = _module_state(ctx)
        if not _watched(ctx, index):
            return
        for name, lineno in index.counters:
            self._names.add(name)
            if name.endswith(".granted"):
                self._granted.append((ctx.path, lineno, name,
                                      ctx.line_text(lineno).strip()))
        for qualname in sorted(index.functions):
            func = index.functions[qualname]
            if not self._degraded_like(func):
                continue
            events = summarizer.summary(func.qualname)
            if not any(event.kind == COUNTER_INC for event in events):
                yield ctx.finding(self.rule_id, func.node, (
                    f"degraded-mode handler {func.node.name!r} increments "
                    "no counter; the degradation is invisible to chaos "
                    "accounting"))

    def _degraded_like(self, func: _Func) -> bool:
        if "degraded" in func.markers:
            return True
        return any(token in func.node.name
                   for token in self._DEGRADED_TOKENS)

    def finalize(self) -> Iterator[Finding]:
        for path, lineno, name, snippet in sorted(self._granted):
            prefix = name[:-len(".granted")]
            if (f"{prefix}.blocked" in self._names
                    or f"{prefix}.reconciled" in self._names):
                continue
            yield Finding(
                rule=self.rule_id, path=path, line=lineno,
                message=(f"credit counter {name!r} has no paired "
                         f"'{prefix}.blocked' or '{prefix}.reconciled' "
                         "counter; granted credits must be conserved "
                         "somewhere"),
                snippet=snippet)


@register
class RestartDerivesFromDurableState(FlowRule):
    """R010: restart/recovery/adoption paths derive checkpoint numbering
    and resume offsets from durable state — a literal 0 rewinds an
    at-least-once consumer to trimmed history (PR 3) or makes an adopted
    exactly-once task overwrite the previous owner's committed rows
    (PR 8). A ``mapping.get(key, 0)`` seed is that literal anywhere: the
    default is what the first call after a restart takes (PR 13's
    backup ids)."""

    rule_id = "R010"
    summary = ("restart paths derive checkpoint numbering and resume "
               "offsets from durable state, never a literal 0")

    _RESTART_TOKENS = ("resume", "recover", "adopt")
    _POSITION_NAMES = ("checkpoint_index", "next_offset", "backup_id")
    _SEEK_NAMES = ("seek", "save_offset", "_save_checkpoint")

    def _check_function(self, ctx, func, summarizer):
        restart = self._restart_like(func)
        for node in ast.walk(func.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                if _defaults_to_zero(node.value) or (
                        restart and _is_zero(node.value)):
                    yield from self._check_assign(ctx, node)
            elif restart and isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _restart_like(self, func: _Func) -> bool:
        if "restart" in func.markers:
            return True
        name = func.node.name
        if name in ("restart", "_restart"):
            return True
        return any(token in name for token in self._RESTART_TOKENS)

    def _check_assign(self, ctx, node):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            for leaf in ast.walk(target):
                name = None
                if isinstance(leaf, ast.Attribute):
                    name = leaf.attr
                elif isinstance(leaf, ast.Name):
                    name = leaf.id
                if name and any(tok in name for tok in self._POSITION_NAMES):
                    yield ctx.finding(self.rule_id, node, (
                        f"restart path pins {name!r} to literal 0; derive "
                        "it from durable state (state_backend.load / "
                        "last_checkpoint_index / the saved checkpoint / a "
                        "listing of the stored blobs) so a restarted or "
                        "adopted task resumes where the previous owner "
                        "committed"))
                    return

    def _check_call(self, ctx, node):
        target = node.func
        name = None
        if isinstance(target, ast.Attribute):
            name = target.attr
        elif isinstance(target, ast.Name):
            name = target.id
        if (name in self._SEEK_NAMES and node.args
                and _is_zero(node.args[0])):
            yield ctx.finding(self.rule_id, node, (
                f"restart path calls {name}(0); resume from the saved "
                "checkpoint (or the first retained offset), not absolute "
                "zero — offset 0 may be trimmed or already processed"))


def _is_zero(node: ast.AST | None) -> bool:
    return (isinstance(node, ast.Constant) and node.value == 0
            and node.value is not False)


def _defaults_to_zero(node: ast.AST | None) -> bool:
    """``<mapping>.get(key, 0)``: a process-memory counter's zero seed."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and len(node.args) == 2 and _is_zero(node.args[1]))
