"""Driving a plan through the gateway's public surface, one client
thread, in a closed or an open loop.

Every timing is taken here, at the caller, with ``perf_counter_ns``.
In the open loop each latency runs from the request's *due* send time,
so a stall also counts against the requests queued behind it.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns

from repro.runtime.http import Request

from . import plans

#: Statuses that mean the gateway refused the operation.
REFUSED = frozenset({429, 503})
#: The recorded status of an operation that raised.
RAISED = -1


class State:
    """What the client knows: acknowledged ids per collection, each
    record's current version, and the updates acknowledged per record."""

    def __init__(self, acked: dict):
        self.acked = {path: list(ids) for path, ids in acked.items()}
        self.versions: dict = {}
        self.updates_applied: dict = defaultdict(int)

    def version(self, path: str, record_id: int) -> int:
        return self.versions.get((path, record_id), 1)


class Outcome:
    """One operation's answer, reduced to what the checker needs."""

    __slots__ = ("index", "status", "rows", "tagged")

    def __init__(self, index, status, rows=None, tagged=False):
        self.index = index
        self.status = status
        self.rows = rows
        self.tagged = tagged


class Recorder:
    """Latency samples per class plus every outcome, timed or not."""

    def __init__(self):
        self.latency_ns: dict[str, list] = defaultdict(list)
        self.send_lag_ns: list[int] = []
        self.outcomes: list[Outcome] = []
        self.intervals: list[tuple] = []  # (class, start_ns, end_ns)
        self.batch_rows = 0
        self.batch_ns = 0
        self.attempted = 0
        self.failed = 0
        self.window_ns = 0
        self.timed = range(0)  # plan indexes of the timed operations


def prepare(gateway, op: plans.Op, state: State):
    """``(call, target_id)``: a zero-argument callable performing ``op``
    on the gateway's public surface, built before any timer starts."""
    kind = op.kind
    if kind == plans.VIEW:
        record_id = plans.resolve(op.target, state.acked[op.path])
        request = Request("GET", f"{op.path}/{record_id}", user=op.user)
        return (lambda: gateway.handle(request)), record_id
    if kind == plans.LIST:
        request = Request("GET", f"{op.path}/list", user=op.user)
        return (lambda: gateway.handle(request)), None
    if kind == plans.CREATE:
        request = Request("POST", op.path, user=op.user,
                          data=dict(op.payload))
        return (lambda: gateway.handle(request)), None
    if kind == plans.UPDATE:
        record_id = plans.resolve(op.target, state.acked[op.path])
        data = dict(op.payload)
        version = state.version(op.path, record_id)
        data["expected_version"] = version - 1 if op.stale else version
        request = Request("PUT", f"{op.path}/{record_id}", user=op.user,
                          data=data)
        return (lambda: gateway.handle(request)), record_id
    if kind == plans.BATCH:
        rows = [dict(row) for row in op.payload]
        return (lambda: gateway.submit_many(op.form, rows, op.user)), None
    if kind == plans.SCORECARD:
        bounds = dict(op.payload)
        return (lambda: gateway.live_scorecard(op.path, bounds=bounds)), None
    raise ValueError(f"unknown operation kind {kind!r}")


def absorb(op: plans.Op, index: int, result, record_id, state: State,
           recorder: Recorder) -> bool:
    """Update the client's view from one answer and keep its outcome.
    Returns True when the operation was refused or raised."""
    if result is RAISED:
        recorder.outcomes.append(Outcome(index, RAISED))
        return True
    kind = op.kind
    if kind == plans.SCORECARD:
        recorder.outcomes.append(
            Outcome(index, "lines" if result else None)
        )
        return False
    if kind == plans.BATCH:
        statuses = tuple(response.status for response in result)
        ids = state.acked[op.path]
        for response in result:
            if response.status == 201:
                ids.append(response.body["id"])
        recorder.outcomes.append(Outcome(index, statuses))
        return any(status in REFUSED for status in statuses)
    status = result.status
    rows = None
    if kind == plans.LIST and isinstance(result.body, list):
        rows = len(result.body)
    tagged = "X-DQ-Degraded" in result.headers
    recorder.outcomes.append(Outcome(index, status, rows=rows, tagged=tagged))
    if kind == plans.CREATE and status == 201:
        state.acked[op.path].append(result.body["id"])
    elif kind == plans.UPDATE and status == 200:
        state.versions[(op.path, record_id)] = result.body["version"]
        state.updates_applied[(op.path, record_id)] += 1
    return status in REFUSED


def _call(call):
    try:
        return call()
    except Exception:  # a raised operation is counted, not fatal
        return RAISED


def warm_up(gateway, plan, state, recorder, count: int) -> int:
    """Run the first ``count`` operations untimed; their outcomes are
    still checked.  Returns the next operation index."""
    for index in range(count):
        op = plan.op(index)
        call, record_id = prepare(gateway, op, state)
        absorb(op, index, _call(call), record_id, state, recorder)
    return count


def _observe(recorder, op, started, ended, result, refused, timed_class):
    recorder.attempted += 1
    if refused:
        recorder.failed += 1
    recorder.latency_ns[timed_class].append(ended - started)
    recorder.intervals.append((timed_class, started, ended))
    if op.kind == plans.BATCH and result is not RAISED:
        recorder.batch_rows += len(op.payload)
        recorder.batch_ns += ended - started


def closed_loop(gateway, plan, state, recorder, start: int,
                seconds: float) -> int:
    """Send the next operation as soon as the previous one answers,
    until ``seconds`` have passed.  Returns the next operation index."""
    index = start
    began = perf_counter_ns()
    deadline = began + int(seconds * 1e9)
    while perf_counter_ns() < deadline:
        op = plan.op(index)
        call, record_id = prepare(gateway, op, state)
        started = perf_counter_ns()
        result = _call(call)
        ended = perf_counter_ns()
        refused = absorb(op, index, result, record_id, state, recorder)
        _observe(recorder, op, started, ended, result, refused,
                 plans.CLASS_OF[op.kind])
        index += 1
    recorder.window_ns = perf_counter_ns() - began
    recorder.timed = range(start, index)
    return index


def open_loop(gateway, plan, state, recorder, start: int, seconds: float,
              rate: float) -> int:
    """Send operation ``k`` when it falls due, at ``rate`` per second,
    whether or not earlier ones have answered in time.  Latency and send
    lag are both measured from the due time.

    The client busy-waits for each due time instead of sleeping: on a
    virtual machine a sleeping client lets the vCPU go idle, and waking
    it and the gateway's pool thread then adds a variable delay of tens
    to hundreds of microseconds to the next request.
    """
    period = 1e9 / rate
    count = int(seconds * rate)
    began = perf_counter_ns() + 1_000_000
    for k in range(count):
        index = start + k
        op = plan.op(index)
        call, record_id = prepare(gateway, op, state)
        due = began + int(k * period)
        while perf_counter_ns() < due:
            pass
        sent = perf_counter_ns()
        result = _call(call)
        ended = perf_counter_ns()
        refused = absorb(op, index, result, record_id, state, recorder)
        recorder.send_lag_ns.append(sent - due)
        _observe(recorder, op, due, ended, result, refused,
                 plans.CLASS_OF[op.kind])
    recorder.window_ns = perf_counter_ns() - began
    recorder.timed = range(start, start + count)
    return start + count
