"""Span tracing from outside the program, and per-layer attribution.

:class:`Tracer` wraps the public functions of each layer (listed in
:data:`LAYER_CALLS`) for the length of a traced run and restores them
afterwards.  Each call becomes a span ``(id, parent, request, name,
start_ns, end_ns, info)``; a request is the tree under one root span
(``gateway.handle``, ``gateway.submit_many`` or
``gateway.live_scorecard``).  Wrapping ``ThreadPoolExecutor.submit``
carries the caller's span onto the pool worker, where the task becomes a
``gateway.dispatch`` span and its queueing delay is recorded.  Collector
pauses (from ``gc.callbacks``) become ``gc.collect`` spans under
whatever span was running when the collection started.

Spans stay in memory until :class:`Attribution` turns each request into
per-span self times: every instant of the root's interval is shared
equally among the spans running at that instant that have no running
child.  A span's self time is therefore its duration minus the union of
its children's intervals, except that instants it shares with a sibling
running at the same time (a request fanned out to several pool workers)
are split between them; the self times of a request always sum to its
root's duration.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import os
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter_ns
from typing import Callable, Optional

ROOT_NAMES = frozenset({
    "gateway.handle", "gateway.submit_many", "gateway.live_scorecard",
})


def _lag_before(args):
    return args[0].lag()


def _wal_size(args):
    path = args[0].wal.path
    return os.path.getsize(path) if os.path.exists(path) else 0


def _wal_written(args, result, before):
    return _wal_size(args) - before


def _snapshot_size(args, result, before):
    path = args[0].snapshot_path
    return os.path.getsize(path) if os.path.exists(path) else 0


def _one(args, result, before):
    return 1


def _length(args, result, before):
    return len(result)


def _rejected_one(args, result, before):
    return (1, 1 if result else 0)


def _rejected_batch(args, result, before):
    return (len(result), sum(1 for findings in result if findings))


def _encoded(args, result, before):
    return len(result) if isinstance(result, (bytes, bytearray)) else 0


def _decoded(args, result, before):
    data = args[0] if args else b""
    return len(data) if isinstance(data, (bytes, bytearray, memoryview)) else 0


def _catch_up_ops(args, result, before):
    return before


#: ``(layer, module, owner class or None for module functions, names,
#: pre-call hook, post-call info)``.  Hooks run outside the span's own
#: interval, so their cost lands in the parent span.
LAYER_CALLS = (
    ("gateway", "repro.cluster.gateway", "ShardedGateway",
     ("handle", "submit_many", "live_scorecard"), None, None),
    ("routing", "repro.cluster.sharding", "ShardRouter",
     ("placement", "shard_for"), None, None),
    ("routing", "repro.cluster.ring", "RingRouter", ("shard_for",),
     None, None),
    ("routing", "repro.cluster.gateway", "GatewayRoute", ("match",),
     None, None),
    ("cache", "repro.cluster.cache", "ReadThroughCache",
     ("lookup", "fill", "invalidate_entity"), None, None),
    ("cache", "repro.cluster.cache", "LastGoodStore", ("remember",),
     None, None),
    ("resilience", "repro.cluster.resilience", "CircuitBreaker",
     ("allow", "record_success"), None, None),
    ("resilience", "repro.cluster.resilience", "IdempotencyRegistry",
     ("run_once",), None, None),
    ("app", "repro.runtime.app", "WebApp",
     ("submit", "modify", "submit_batch", "read", "read_record"),
     None, None),
    ("vpipeline", "repro.runtime.forms", "Form", ("bind",), None, None),
    ("vpipeline", "repro.runtime.forms", "Form", ("validate",),
     None, _rejected_one),
    ("vpipeline", "repro.runtime.forms", "Form", ("validate_batch",),
     None, _rejected_batch),
    ("storage", "repro.runtime.storage", "ContentStore",
     ("store", "modify"), None, _one),
    ("storage", "repro.runtime.storage", "ContentStore",
     ("store_many", "readable_by"), None, _length),
    ("storage", "repro.runtime.storage", "EntityStore", ("get",),
     None, None),
    ("streaming", "repro.runtime.storage", "EntityStore",
     ("measure_telemetry", "telemetry_frame", "telemetry_snapshot"),
     None, None),
    ("interchange", "repro.interchange", None, ("encode_*",),
     None, _encoded),
    ("interchange", "repro.interchange", None, ("decode_*",),
     None, _decoded),
    ("audit", "repro.runtime.audit", "AuditTrail", ("record",),
     None, _one),
    ("audit", "repro.runtime.audit", "AuditTrail", ("record_many",),
     None, _length),
    ("persistence", "repro.persistence.backend", "FileWALBackend",
     ("append",), None, None),
    ("persistence", "repro.persistence.backend", "FileWALBackend",
     ("sync",), _wal_size, _wal_written),
    ("persistence", "repro.persistence.backend", "FileWALBackend",
     ("checkpoint",), None, _snapshot_size),
    ("persistence", "repro.persistence", None, ("recover_app",),
     None, None),
    ("replication", "repro.cluster.replication", "ReplicaSet",
     ("catch_up",), _lag_before, _catch_up_ops),
    ("replication", "repro.cluster.replication", "ReplicationLog",
     ("ship_frame", "ship"), None, None),
)


def _targets(module, owner_name: Optional[str], names):
    """``(owner, attribute)`` pairs present in this build; a layer
    function a later change removed is skipped, not an error."""
    owner = module if owner_name is None else getattr(module, owner_name,
                                                      None)
    if owner is None:
        return []
    found = []
    for name in names:
        if name.endswith("*"):
            prefix = name[:-1]
            found.extend(
                (owner, attr) for attr in sorted(vars(owner))
                if attr.startswith(prefix) and callable(vars(owner)[attr])
            )
        elif name in vars(owner):
            found.append((owner, name))
    return found


class Tracer:
    """Records spans around the layer calls while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.gc_pauses: list[tuple] = []  # (start, end, generation)
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []
        # a wrapper the program captured by name (a closure over an
        # imported function) outlives restore(): it then passes through
        self._recording = [False]

    # -- span context --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, original: Callable, pre, post) -> Callable:
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        recording = self._recording

        def traced(*args, **kwargs):
            if not recording[0]:
                return original(*args, **kwargs)
            stack = stack_of()
            parent = stack[-1] if stack else None
            sid = next(ids)
            rid = parent[1] if parent is not None else sid
            before = pre(args) if pre is not None else None
            stack.append((sid, rid))
            start = perf_counter_ns()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                info = (post(args, result, before)
                        if post is not None else None)
                spans.append((sid, parent[0] if parent else 0, rid, name,
                              start, end, info))

        traced.__wrapped__ = original
        return traced

    def _wrap_submit(self, original: Callable) -> Callable:
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        recording = self._recording

        def submit(executor, fn, /, *args, **kwargs):
            if not recording[0]:
                return original(executor, fn, *args, **kwargs)
            stack = stack_of()
            parent = stack[-1] if stack else None
            queued = perf_counter_ns()

            def task(*task_args, **task_kwargs):
                start = perf_counter_ns()
                worker_stack = stack_of()
                sid = next(ids)
                rid = parent[1] if parent is not None else sid
                worker_stack.append((sid, rid))
                try:
                    return fn(*task_args, **task_kwargs)
                finally:
                    end = perf_counter_ns()
                    worker_stack.pop()
                    spans.append((sid, parent[0] if parent else 0, rid,
                                  "gateway.dispatch", start, end,
                                  start - queued))

            return original(executor, task, *args, **kwargs)

        submit.__wrapped__ = original
        return submit

    def _on_gc(self, phase: str, info: dict) -> None:
        local = self._local
        if phase == "start":
            local.gc_start = perf_counter_ns()
            return
        end = perf_counter_ns()
        start = getattr(local, "gc_start", end)
        generation = info.get("generation", 0)
        self.gc_pauses.append((start, end, generation))
        stack = getattr(local, "stack", None)
        if stack:
            parent, rid = stack[-1]
            self.spans.append((next(self._ids), parent, rid, "gc.collect",
                               start, end, generation))

    # -- install / restore ---------------------------------------------

    def wrap(self, owner, attr: str, name: str, pre=None, post=None):
        """Wrap ``owner.attr`` as span ``name`` until :meth:`restore`."""
        original = vars(owner)[attr]
        setattr(owner, attr, self._wrap(name, original, pre, post))
        self._patches.append((owner, attr, original))
        self._recording[0] = True

    def follow_pool_tasks(self) -> None:
        """Carry spans across ``ThreadPoolExecutor.submit`` until
        :meth:`restore`."""
        original = vars(ThreadPoolExecutor)["submit"]
        ThreadPoolExecutor.submit = self._wrap_submit(original)
        self._patches.append((ThreadPoolExecutor, "submit", original))
        self._recording[0] = True

    def install(self, only_layers=None) -> None:
        """Wrap every present layer call (or only ``only_layers``)."""
        for layer, module_name, owner_name, names, pre, post in LAYER_CALLS:
            if only_layers is not None and layer not in only_layers:
                continue
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(module_name)
                continue
            targets = _targets(module, owner_name, names)
            if not targets:
                self.missing.append(
                    f"{module_name}.{owner_name or ''}{names}"
                )
            for owner, attr in targets:
                self.wrap(owner, attr, f"{layer}.{attr}", pre, post)
        if only_layers is None:
            self.follow_pool_tasks()
            gc.callbacks.append(self._on_gc)

    def restore(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        self._recording[0] = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)


# -- attribution ------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[tuple], root_id: int) -> dict[int, float]:
    """Per-span self time (ns) within the request rooted at ``root_id``.

    ``spans`` are the request's spans as recorded.  Each child interval
    is first clipped to its parent's; then every instant is shared
    equally among the running spans that have no running child.
    """
    by_id = {span[0]: span for span in spans}
    children = defaultdict(list)
    for span in spans:
        if span[0] != root_id:
            parent = span[1] if span[1] in by_id else root_id
            children[parent].append(span[0])
    root = by_id[root_id]
    clipped = {root_id: (root[4], root[5], 0, 0)}
    order = [root_id]
    for sid in order:
        start, end, depth, _ = clipped[sid]
        for child in children.get(sid, ()):
            span = by_id[child]
            child_start = max(span[4], start)
            child_end = min(span[5], end)
            clipped[child] = (child_start, max(child_start, child_end),
                              depth + 1, sid)
            order.append(child)
    events = []
    for sid, (start, end, depth, _) in clipped.items():
        if end > start:
            events.append((start, 1, depth, sid))
            events.append((end, 0, -depth, sid))
    events.sort()
    result = dict.fromkeys(clipped, 0.0)
    running_children: dict[int, int] = {}
    frontier: set = set()
    previous = None
    for time, is_start, _, sid in events:
        if previous is not None and time > previous and frontier:
            share = (time - previous) / len(frontier)
            for member in frontier:
                result[member] += share
        previous = time
        parent = clipped[sid][3] if sid != root_id else None
        if is_start:
            running_children[sid] = 0
            frontier.add(sid)
            if parent in running_children:
                running_children[parent] += 1
                frontier.discard(parent)
        else:
            running_children.pop(sid, None)
            frontier.discard(sid)
            if parent in running_children:
                running_children[parent] -= 1
                if running_children[parent] == 0:
                    frontier.add(parent)
    return result


def requests(spans: list[tuple]) -> dict[int, list[tuple]]:
    """Spans grouped by request id, keeping only requests whose root
    span is one of :data:`ROOT_NAMES`."""
    grouped = defaultdict(list)
    roots = set()
    for span in spans:
        grouped[span[2]].append(span)
        if span[0] == span[2] and span[3] in ROOT_NAMES:
            roots.add(span[0])
    return {rid: grouped[rid] for rid in roots}


class Attribution:
    """Self time and call statistics per layer and per span name."""

    def __init__(self, spans: list[tuple]):
        self.layer_self_ns: dict[str, float] = defaultdict(float)
        self.layer_entries: dict[str, int] = defaultdict(int)
        self.name_self_ns: dict[str, float] = defaultdict(float)
        self.name_count: dict[str, int] = defaultdict(int)
        self.name_durations: dict[str, list] = defaultdict(list)
        self.name_infos: dict[str, list] = defaultdict(list)
        self.requests = 0
        self.root_ns = 0
        self.max_partition_error_ns = 0.0
        names = {span[0]: span[3] for span in spans}
        for rid, members in requests(spans).items():
            times = self_times(members, rid)
            root = next(span for span in members if span[0] == rid)
            duration = root[5] - root[4]
            self.requests += 1
            self.root_ns += duration
            error = abs(sum(times.values()) - duration)
            self.max_partition_error_ns = max(
                self.max_partition_error_ns, error
            )
            for span in members:
                sid, parent, _, name, start, end, info = span
                layer = layer_of(name)
                self.layer_self_ns[layer] += times.get(sid, 0.0)
                self.name_self_ns[name] += times.get(sid, 0.0)
                self.name_count[name] += 1
                self.name_durations[name].append(end - start)
                if info is not None:
                    self.name_infos[name].append(info)
                parent_name = names.get(parent)
                if parent_name is None or layer_of(parent_name) != layer:
                    self.layer_entries[layer] += 1

    def partition_holds(self) -> bool:
        """True when every request's self times sum to its root's
        duration (to float rounding)."""
        return self.max_partition_error_ns <= 1.0 + 1e-9 * self.root_ns
