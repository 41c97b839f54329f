"""The ledger's own arithmetic: self-time attribution, the percentile
rule, open-loop due-time latency, plan determinism and the checker.

Run from the repository root with ``python -m pytest ledger/tests``.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from ledger import checks, drive, fleet, plans, stats
from ledger.trace import Attribution, Tracer, self_times


def span(sid, parent, start, end, name="storage.get", rid=1):
    return (sid, parent, rid, name, start, end, None)


# -- self time ----------------------------------------------------------


def test_self_time_without_overlap_is_duration_minus_children():
    spans = [
        span(1, 0, 0, 100, "gateway.handle"),
        span(2, 1, 10, 40, "app.read"),
        span(3, 2, 15, 20),
        span(4, 1, 50, 70, "audit.record"),
    ]
    times = self_times(spans, 1)
    assert times == {1: 50.0, 2: 25.0, 3: 5.0, 4: 20.0}


def test_self_time_with_overlapping_children_shares_the_overlap():
    # A (10..40, with child A1 15..20) and B (30..70) run at once during
    # 30..40: the parent keeps duration minus the union of its children,
    # the shared instants are split between A and B.
    spans = [
        span(1, 0, 0, 100, "gateway.submit_many"),
        span(2, 1, 10, 40, "gateway.dispatch"),
        span(3, 2, 15, 20, "vpipeline.bind"),
        span(4, 1, 30, 70, "gateway.dispatch"),
    ]
    times = self_times(spans, 1)
    assert times[1] == 100 - (70 - 10)
    assert times[3] == 5.0
    assert times[2] == pytest.approx(5 + 10 + 5)
    assert times[4] == pytest.approx(5 + 30)
    assert sum(times.values()) == pytest.approx(100)


def test_child_outliving_its_parent_is_clipped():
    spans = [span(1, 0, 0, 10, "gateway.handle"), span(2, 1, 5, 30)]
    assert self_times(spans, 1) == {1: 5.0, 2: 5.0}


class _Fake:
    """A two-layer stand-in: ``handle`` dispatches ``work`` to a pool."""

    def __init__(self, pool):
        self.pool = pool

    def handle(self):
        return self.pool.submit(self.work).result()

    def work(self):
        time.sleep(0.002)
        return threading.get_ident()


def test_child_on_another_thread_joins_the_request():
    tracer = Tracer()
    with ThreadPoolExecutor(max_workers=1) as pool:
        fake = _Fake(pool)
        tracer.wrap(_Fake, "handle", "gateway.handle")
        tracer.wrap(_Fake, "work", "storage.get")
        tracer.follow_pool_tasks()
        try:
            worker = fake.handle()
        finally:
            tracer.restore()
    assert worker != threading.get_ident()
    assert "__wrapped__" not in vars(_Fake.handle)
    by_name = {s[3]: s for s in tracer.spans}
    root = by_name["gateway.handle"]
    dispatch = by_name["gateway.dispatch"]
    leaf = by_name["storage.get"]
    assert dispatch[1] == root[0] and leaf[1] == dispatch[0]
    assert {s[2] for s in tracer.spans} == {root[0]}
    assert dispatch[6] >= 0  # the time the task waited for a worker
    attribution = Attribution(tracer.spans)
    assert attribution.requests == 1
    assert attribution.partition_holds()
    assert attribution.layer_self_ns["storage"] >= 2_000_000 * 0.9
    assert sum(attribution.layer_self_ns.values()) == pytest.approx(
        root[5] - root[4]
    )


# -- percentiles ----------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7], 99) == 7


def test_p99_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.reportable(1000, 99)
    assert not stats.reportable(999, 99)
    assert stats.summarize(list(range(999)), 99) is None
    assert stats.summarize(list(range(1000)), 99) == 989
    assert stats.reportable(20, 50) and not stats.reportable(19, 50)


# -- open loop ------------------------------------------------------------


class _Response:
    def __init__(self):
        self.status = 200
        self.headers = {}
        self.body = {"id": 1, "version": 2}


class _StallOnce:
    """A gateway stand-in that answers at once, except one 50 ms stall."""

    def __init__(self, stall_at):
        self.calls = 0
        self.stall_at = stall_at

    def handle(self, request):
        self.calls += 1
        if self.calls == self.stall_at:
            time.sleep(0.05)
        return _Response()


def test_open_loop_times_from_the_due_time():
    plan = plans.Plan("review-read", 1)
    plan.op(100)  # generated before the schedule starts, as in a run
    state = drive.State({plans.REVIEW_PATH: list(range(1, 50))})
    recorder = drive.Recorder()
    target = _StallOnce(stall_at=3)
    drive.open_loop(target, plan, state, recorder, 0, seconds=0.3,
                    rate=100)
    latencies = [end - start for _, start, end in recorder.intervals]
    lags = recorder.send_lag_ns
    assert len(latencies) == 30
    assert latencies[2] >= 50_000_000
    # the four due during the stall (30, 40, 50, 60 ms) are sent when it
    # ends near 70 ms, late by 40..10 ms, and timed from their due times
    assert lags[3] >= 35_000_000 and latencies[3] >= lags[3]
    assert lags[3] > lags[4] > lags[5] > lags[6] >= 5_000_000
    assert latencies[6] >= lags[6]
    # then the generator is back on schedule
    assert sorted(lags[8:])[len(lags[8:]) // 2] < 1_000_000


# -- plans ----------------------------------------------------------------


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_plan_digest_depends_only_on_the_seed(workload):
    def streams(seed):
        return [plans.Plan(workload, seed, stream=s) for s in range(3)]

    first = plans.digest(streams(11), count=400)
    assert plans.digest(streams(11), count=400) == first
    assert plans.digest(streams(12), count=400) != first


def test_streams_share_the_preload_but_not_the_operations():
    one, two = (plans.Plan("review-read", 4, stream=s) for s in (0, 1))
    assert one.preload == two.preload
    one.op(50)
    two.op(50)
    assert ([op.as_record() for op in one.ops[:50]]
            != [op.as_record() for op in two.ops[:50]])


def test_plan_extension_is_order_independent():
    whole = plans.Plan("shop-ingest", 3)
    whole.extend(300)
    stepwise = plans.Plan("shop-ingest", 3)
    for index in range(0, 300, 7):
        stepwise.op(index)
    stepwise.op(299)
    assert ([op.as_record() for op in whole.ops[:300]]
            == [op.as_record() for op in stepwise.ops[:300]])


# -- checker --------------------------------------------------------------


def test_checker_catches_a_wrong_status():
    plan = plans.Plan("review-read", 5)
    outcomes = [
        drive.Outcome(i, plan.op(i).expect,
                      rows=0 if plan.op(i).kind == plans.LIST else None)
        for i in range(50)
    ]
    index = next(i for i in range(50) if plan.op(i).expect == 200)
    assert checks.check_outcomes(plan, outcomes) == []
    outcomes[index] = drive.Outcome(index, 201)
    violations = checks.check_outcomes(plan, outcomes)
    assert len(violations) == 1 and f"op {index}" in violations[0]


def test_checker_catches_rows_leaked_to_an_uncleared_user():
    plan = plans.Plan("review-read", 5)
    index = next(i for i in range(500)
                 if plan.op(i).kind == plans.LIST
                 and plan.op(i).user in plans.UNCLEARED)
    leaked = [drive.Outcome(index, 200, rows=3)]
    assert checks.check_outcomes(plan, leaked)
    assert not checks.check_outcomes(
        plan, [drive.Outcome(index, 200, rows=0)]
    )


def test_refused_answers_are_failures_not_wrong_answers():
    plan = plans.Plan("review-read", 5)
    outcomes = [drive.Outcome(0, 503), drive.Outcome(1, drive.RAISED)]
    assert checks.check_outcomes(plan, outcomes) == []


def test_checks_pass_on_a_real_fleet_and_catch_a_phantom_update(tmp_path):
    plan = plans.Plan("review-read", 2)
    gateway, acked, seconds = fleet.setup("review-read", plan, None,
                                          tmp_path)
    try:
        assert seconds > 0
        state = drive.State(acked)
        recorder = drive.Recorder()
        drive.warm_up(gateway, plan, state, recorder, 300)
        assert checks.check_outcomes(plan, recorder.outcomes) == []
        assert checks.check_audit(gateway, state) == []
        assert checks.check_scorecard(
            gateway, plans.REVIEW_ENTITY, plans.REVIEW_BOUNDS
        ) == []
        # an update the client never acknowledged is a phantom update
        record_id = state.acked[plans.REVIEW_PATH][0]
        response = gateway.put(f"{plans.REVIEW_PATH}/{record_id}",
                               {"overall_evaluation": 0}, user="chair")
        assert response.status == 200
        violations = checks.check_audit(gateway, state)
        assert any(f"#{record_id}:" in line for line in violations)
    finally:
        gateway.close()
