"""The per-layer latency ledger, timed from outside the program.

:meth:`Ledger.install` wraps public entry points of the program's layers
at run time (nothing under ``src/`` changes).  Each wrapped call records a
span — layer, start, end, children — under the benchmark op in flight.
The op is found through a context variable (set by the code that runs the op, and
carried into the serving tier's worker threads by the program's own
context hand-off) or, for the scatter threads that carry no context,
through :attr:`Ledger.solo`, the one op a single caller has in flight.

:func:`attribute` turns one op's span tree into self times per layer.  A
layer's self time is its span's duration minus the part of that interval
its children cover.  Children that overlap in time (the shards of a
scatter) share the covered interval in proportion to their durations, so
the self times of one op always sum to its root span; the root's own
self time is the part of the op's latency no wrapped layer accounts for
(reported as ``trace.unattributed_pct``).
"""

from __future__ import annotations

import contextvars
import functools
import threading
import time

_OP: contextvars.ContextVar = contextvars.ContextVar("perfbench_op", default=None)
_SPAN: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Span:
    __slots__ = ("layer", "t0", "t1", "children", "op")

    def __init__(self, layer: str, op, t0: float = 0.0) -> None:
        self.layer = layer
        self.op = op
        self.t0 = t0
        self.t1 = t0
        self.children: list[Span] = []

    def to_tuple(self) -> tuple:
        return (self.layer, self.t0, self.t1, [c.to_tuple() for c in self.children])

    @classmethod
    def from_tuple(cls, data: tuple) -> "Span":
        layer, t0, t1, children = data
        node = cls(layer, None, t0)
        node.t1 = t1
        node.children = [cls.from_tuple(child) for child in children]
        return node


class Op:
    """One benchmark operation and the spans recorded under it."""

    __slots__ = ("root", "open", "thread")

    def __init__(self) -> None:
        self.root = Span("bench", self)
        #: spans open on the op's own thread, innermost last: where a
        #: call on a context-less pool thread attaches.
        self.open: list[Span] = []
        self.thread = threading.get_ident()


class Ledger:
    """Installs the wrappers and collects spans per op."""

    def __init__(self) -> None:
        self.solo: Op | None = None
        self._patches: list[tuple] = []

    # -- op lifetime ----------------------------------------------------------

    def begin(self) -> Op:
        """Start an op driven by a single caller on this thread."""
        op = Op()
        self.solo = op
        op.root.t0 = time.perf_counter()
        return op

    def end(self, op: Op) -> None:
        op.root.t1 = time.perf_counter()
        self.solo = None

    # -- wrapping ---------------------------------------------------------------

    def _open(self, layer: str):
        op = _OP.get() or self.solo
        if op is None:
            return None, None
        parent = _SPAN.get()
        if parent is None or parent.op is not op:
            # a pool thread: only the op's own thread changes ``open``,
            # and list appends and indexing are atomic under the GIL
            try:
                parent = op.open[-1]
            except IndexError:
                parent = op.root
        node = Span(layer, op, time.perf_counter())
        parent.children.append(node)
        if threading.get_ident() == op.thread:
            op.open.append(node)
        return node, _SPAN.set(node)

    @staticmethod
    def _close(node: Span, token) -> None:
        node.t1 = time.perf_counter()
        _SPAN.reset(token)
        if threading.get_ident() == node.op.thread:
            node.op.open.pop()

    def _patch(self, owner, name: str, layer: str, after=None) -> None:
        original = owner.__dict__[name]
        ledger = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            node, token = ledger._open(layer)
            if node is None:
                return original(*args, **kwargs)
            try:
                return original(*args, **kwargs)
            finally:
                ledger._close(node, token)
                if after is not None:
                    after(node, args)

        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def _patch_handle(self, owner) -> None:
        """``ServingApp.handle`` is a coroutine; its op is named by the
        client's ``X-Bench-Op`` header."""
        original = owner.__dict__["handle"]
        ledger = self

        @functools.wraps(original)
        async def handle(self_, method, path, params, headers, body):
            key = headers.get("x-bench-op")
            if key is None:
                return await original(self_, method, path, params, headers, body)
            op = Op()
            ledger.server_ops[key] = op
            op_token = _OP.set(op)
            node, token = ledger._open("serve.handle")
            try:
                return await original(self_, method, path, params, headers, body)
            finally:
                ledger._close(node, token)
                _OP.reset(op_token)

        owner.handle = handle
        self._patches.append((owner, "handle", original))

    def install(self, serving: bool = False) -> None:
        """Wrap the program's layer entry points (undone by :meth:`uninstall`)."""
        from repro.query.engine import Engine, Result
        from repro.service.cache import PlanCache
        from repro.service.service import QueryService
        from repro.shard.service import ShardedService, ShardResult
        from repro.updates.durable import DurableStore

        def split_fsync(node: Span, args) -> None:
            fsync = args[0].last_fsync_s
            wal = Span("updates.wal_fsync", node.op, node.t1 - fsync)
            wal.t1 = node.t1
            node.children.append(wal)

        if serving:
            from repro.serve.app import ServingApp

            #: ops recorded inside the server, by the client's op key.
            self.server_ops: dict[str, Op] = {}
            self._patch_handle(ServingApp)
        self._patch(ShardedService, "execute", "shard.execute")
        self._patch(ShardedService, "update", "shard.update")
        self._patch(QueryService, "execute", "service.execute")
        self._patch(QueryService, "execute_plan", "service.execute")
        self._patch(QueryService, "update", "service.update")
        self._patch(Engine, "execute", "query.engine")
        self._patch(Engine, "build_virtual", "core.view_build")
        self._patch(PlanCache, "get_or_parse", "query.parse")
        for result_type in (Result, ShardResult):
            self._patch(result_type, "to_xml", "xmlmodel.serialize")
            self._patch(result_type, "values", "xmlmodel.serialize")
        self._patch(DurableStore, "apply", "updates.apply", after=split_fsync)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


def attribute(root: Span, out: dict, weight: float = 1.0) -> None:
    """Add ``root``'s subtree's self times, per layer, into ``out``."""
    duration = root.t1 - root.t0
    covered = 0.0
    factor = 0.0
    if root.children:
        intervals = sorted(
            (max(child.t0, root.t0), min(child.t1, root.t1)) for child in root.children
        )
        start, end = intervals[0]
        for left, right in intervals[1:]:
            if left > end:
                covered += max(end - start, 0.0)
                start, end = left, right
            else:
                end = max(end, right)
        covered += max(end - start, 0.0)
        total = sum(child.t1 - child.t0 for child in root.children)
        factor = covered / total if total > 0 else 0.0
    out[root.layer] = out.get(root.layer, 0.0) + weight * (duration - covered)
    for child in root.children:
        attribute(child, out, weight * factor)


def count_layer(root: Span, layer: str) -> int:
    """Spans of ``layer`` in ``root``'s subtree."""
    return (root.layer == layer) + sum(count_layer(c, layer) for c in root.children)


def fanout(root: Span) -> list[int]:
    """Per ``shard.execute`` span: the per-shard service calls it made."""
    found: list[int] = []
    if root.layer == "shard.execute":
        found.append(count_layer(root, "service.execute"))
    for child in root.children:
        if root.layer != "shard.execute":
            found.extend(fanout(child))
    return found
