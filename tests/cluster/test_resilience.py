"""The resilience layer, unit by unit and wired into the gateway.

Property-style tests are seeded loops (no hypothesis dependency): every
assertion quantifies over a deterministic family of inputs, so a failure
reproduces from the printed seed alone.

The gateway-integration tests use directed fault plans whose call
windows are computed exactly: with one shard and one client, injector
call indices are a pure function of the request sequence (each attempt
consumes one call, a breaker shed consumes one tick).
"""

import threading

import pytest

from repro.casestudy import easychair
from repro.cluster import ShardedGateway
from repro.cluster.resilience import (
    CACHE_FILL,
    CLOSED,
    CRASH,
    DROP,
    DUPLICATE,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    HALF_OPEN,
    IdempotencyRegistry,
    LATENCY,
    OPEN,
    ResilienceConfig,
    RetryPolicy,
    ShardUnavailable,
)

FORM = "Add all data as result of review form"
ENTITY = "Add all data as result of review"


# -- RetryPolicy ------------------------------------------------------------


def test_backoff_is_monotone_nondecreasing_across_seeds():
    # property: for any seed, the jittered schedule never shrinks —
    # guaranteed by the multiplier >= 1 + jitter validation
    for seed in range(40):
        policy = RetryPolicy(max_attempts=6, seed=seed)
        schedule = policy.schedule()
        assert len(schedule) == 5
        for earlier, later in zip(schedule, schedule[1:]):
            assert later >= earlier, (seed, schedule)


def test_backoff_jitter_stays_within_the_declared_band():
    for seed in range(40):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.001, multiplier=2.0,
            jitter=0.25, max_delay=10.0, seed=seed,
        )
        for attempt in range(1, 5):
            raw = 0.001 * 2.0 ** (attempt - 1)
            delay = policy.backoff(attempt)
            assert raw <= delay <= raw * 1.25, (seed, attempt, delay)


def test_backoff_is_capped_at_max_delay():
    policy = RetryPolicy(max_attempts=30, max_delay=0.005)
    assert policy.backoff(20) == 0.005


def test_backoff_is_deterministic_per_seed_and_attempt():
    a = RetryPolicy(seed=9)
    b = RetryPolicy(seed=9)
    assert a.schedule() == b.schedule()
    assert RetryPolicy(seed=10).schedule() != a.schedule()


def test_backoff_attempt_is_one_based():
    with pytest.raises(ValueError):
        RetryPolicy().backoff(0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_attempts": 0},
        {"base_delay": 0.0},
        {"base_delay": 0.2, "max_delay": 0.1},
        {"jitter": -0.1},
        {"multiplier": 1.1, "jitter": 0.25},  # breaks monotonicity
    ],
)
def test_invalid_retry_configs_are_rejected(kwargs):
    with pytest.raises(ValueError):
        RetryPolicy(**kwargs)


# -- CircuitBreaker ---------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_breaker_closed_to_open_on_threshold_failures():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=3, cooldown=5.0, clock=clock)
    assert breaker.state == CLOSED
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CLOSED  # below threshold
    breaker.record_failure()
    assert breaker.state == OPEN
    assert breaker.transitions == [(CLOSED, OPEN, 0.0)]


def test_breaker_open_sheds_until_cooldown_then_half_opens():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown=5.0, clock=clock)
    breaker.record_failure()
    assert breaker.state == OPEN
    assert not breaker.allow()
    clock.now = 4.9
    assert not breaker.allow()  # still cooling
    clock.now = 5.0
    assert breaker.allow()  # the probe is admitted
    assert breaker.state == HALF_OPEN


def test_breaker_half_open_to_closed_on_probe_success():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0, clock=clock)
    breaker.record_failure()
    clock.now = 1.0
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == CLOSED
    assert [(o, t) for o, t, _ in breaker.transitions] == [
        (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED),
    ]


def test_breaker_half_open_to_open_on_probe_failure():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0, clock=clock)
    breaker.record_failure()
    clock.now = 1.0
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == OPEN
    # the re-opened cooldown starts from the probe failure, not the
    # original trip
    clock.now = 1.5
    assert not breaker.allow()
    clock.now = 2.0
    assert breaker.allow()


def test_breaker_half_open_admits_exactly_one_probe():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0, clock=clock)
    breaker.record_failure()
    clock.now = 1.0
    assert breaker.allow()
    assert not breaker.allow()  # a second concurrent probe is refused
    breaker.record_success()
    assert breaker.allow()  # closed again: calls flow


def test_breaker_success_resets_the_failure_streak():
    breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CLOSED  # streak restarted after the success


def test_breaker_config_validation():
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(cooldown=0.0)


def test_breaker_reports_transitions_to_the_callback():
    seen = []
    clock = FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=1, cooldown=1.0, clock=clock,
        on_transition=lambda origin, to: seen.append((origin, to)),
    )
    breaker.record_failure()
    clock.now = 1.0
    breaker.allow()
    breaker.record_success()
    assert seen == [(CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED)]


# -- IdempotencyRegistry ----------------------------------------------------


def test_run_once_executes_the_first_time_and_replays_after():
    registry = IdempotencyRegistry()
    calls = []
    assert registry.run_once("k", lambda: calls.append(1) or "v") == "v"
    assert registry.run_once("k", lambda: calls.append(2) or "other") == "v"
    assert calls == [1]
    assert registry.duplicates == 1


def test_run_once_caches_exceptions_without_rerunning():
    registry = IdempotencyRegistry()
    calls = []

    def boom():
        calls.append(1)
        raise RuntimeError("once")

    with pytest.raises(RuntimeError):
        registry.run_once("k", boom)
    with pytest.raises(RuntimeError):
        registry.run_once("k", boom)
    assert calls == [1]


def test_racing_duplicates_apply_exactly_once():
    registry = IdempotencyRegistry()
    applied = []
    barrier = threading.Barrier(8)

    def task():
        barrier.wait()
        registry.run_once("same-key", lambda: applied.append(1))

    workers = [threading.Thread(target=task) for _ in range(8)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert applied == [1]
    assert registry.duplicates == 7


def test_registry_evicts_oldest_beyond_capacity():
    registry = IdempotencyRegistry(capacity=2)
    registry.run_once("a", lambda: "a")
    registry.run_once("b", lambda: "b")
    registry.run_once("c", lambda: "c")  # evicts "a"
    assert len(registry) == 2
    calls = []
    registry.run_once("a", lambda: calls.append(1))
    assert calls == [1]  # "a" was forgotten, so it ran again


# -- FaultPlan / FaultInjector ----------------------------------------------


def test_seeded_plans_are_identical_per_seed_and_distinct_across_seeds():
    a = FaultPlan.seeded(5, shard_count=4)
    b = FaultPlan.seeded(5, shard_count=4)
    c = FaultPlan.seeded(6, shard_count=4)
    assert a == b
    assert a.signature() == b.signature()
    assert hash(a) == hash(b)
    assert a != c


def test_seeded_plan_respects_the_start_offset():
    plan = FaultPlan.seeded(3, shard_count=4, horizon=500, start=100)
    assert len(plan) > 0
    assert all(spec.start >= 100 for spec in plan.specs)
    assert all(spec.stop <= 500 + 500 for spec in plan.specs)


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec("meteor-strike", None, 0, 1)
    with pytest.raises(ValueError):
        FaultSpec(CRASH, 0, 5, 5)  # empty window
    with pytest.raises(ValueError):
        FaultSpec(CRASH, 0, -1, 5)


def test_fault_spec_windows_are_half_open_and_shard_scoped():
    spec = FaultSpec(CRASH, 1, 10, 20)
    assert not spec.active_at(9, 1)
    assert spec.active_at(10, 1)
    assert spec.active_at(19, 1)
    assert not spec.active_at(20, 1)
    assert not spec.active_at(15, 0)  # other shard
    anywhere = FaultSpec(DROP, None, 10, 11)
    assert anywhere.active_at(10, 0) and anywhere.active_at(10, 3)


def test_injector_applies_planned_faults_at_their_call_indices():
    plan = FaultPlan([
        FaultSpec(CRASH, 0, 0, 2),
        FaultSpec(DUPLICATE, None, 3, 4),
    ])
    injector = FaultInjector(plan)
    assert injector.next_call(0).crash          # call 0, shard 0
    assert not injector.next_call(1).crash      # call 1, other shard
    assert not injector.next_call(0).crash      # call 2, window over
    assert injector.next_call(0).duplicate      # call 3
    assert injector.applied[CRASH] == 1
    assert injector.applied[DUPLICATE] == 1
    assert injector.calls == 4


def test_injector_tick_advances_the_clock_without_injecting():
    injector = FaultInjector(FaultPlan.crash_shard(0))
    assert injector.clock() == 0.0
    injector.tick()
    assert injector.clock() == 1.0
    assert injector.applied == {}


def test_cache_fill_windows_use_their_own_counter():
    plan = FaultPlan([FaultSpec(CACHE_FILL, None, 1, 2)])
    injector = FaultInjector(plan)
    injector.next_call(0)  # shard calls do not consume fill indices
    assert not injector.cache_fill_fails()  # fill 0
    assert injector.cache_fill_fails()      # fill 1: in the window
    assert not injector.cache_fill_fails()  # fill 2
    assert injector.applied[CACHE_FILL] == 1


def test_plan_render_lists_every_window():
    plan = FaultPlan.seeded(4, shard_count=2, horizon=200)
    rendered = plan.render()
    assert "fault schedule" in rendered
    assert rendered.count("\n") >= len(plan)


# -- gateway integration (directed plans, exact call math) ------------------


def _one_shard(plan, config=None):
    return ShardedGateway.from_design(
        easychair.build_design(),
        shard_count=1,
        users=easychair.USERS,
        fault_plan=plan,
        resilience=config or ResilienceConfig(),
    )


def test_dropped_task_is_retried_to_success():
    with _one_shard(FaultPlan([FaultSpec(DROP, None, 0, 1)])) as gateway:
        response = gateway.submit(
            FORM, easychair.complete_review(), "pc_member_1"
        )
        assert response.status == 201
        assert gateway.metrics.retries["submit"] == 1
        assert gateway.metrics.faults[DROP] == 1
        # exactly one store audit event: the retry did not double-apply
        assert len(gateway.shards[0].audit.by_kind("store")) == 1


def test_duplicated_task_applies_exactly_once():
    with _one_shard(FaultPlan([FaultSpec(DUPLICATE, None, 0, 1)])) as gateway:
        response = gateway.submit(
            FORM, easychair.complete_review(), "pc_member_1"
        )
        assert response.status == 201
        assert gateway._idempotency.duplicates == 1  # the replay was eaten
        assert len(gateway.shards[0].audit.by_kind("store")) == 1
        assert gateway.total_records() == 1


def test_crashed_shard_exhausts_retries_and_answers_503():
    with _one_shard(FaultPlan.crash_shard(0)) as gateway:
        response = gateway.submit(
            FORM, easychair.complete_review(), "pc_member_1"
        )
        assert response.status == 503
        assert gateway.metrics.faults[CRASH] == 3  # every attempt crashed
        assert gateway.metrics.shed["submit"] == 1
        assert gateway.shards[0].audit.by_kind("store") == []


def test_breaker_opens_sheds_then_recovers_through_half_open():
    # crash window [0, 3): submit 1 burns calls 0-2 (threshold 3 -> the
    # breaker opens at clock 3); submit 2 is shed (tick -> clock 4);
    # submit 3 probes half-open at call 4, which is clean -> closed again
    config = ResilienceConfig(breaker_cooldown=1.0)
    plan = FaultPlan([FaultSpec(CRASH, 0, 0, 3)])
    with _one_shard(plan, config) as gateway:
        statuses = [
            gateway.submit(
                FORM, easychair.complete_review(), "pc_member_1"
            ).status
            for _ in range(3)
        ]
        assert statuses == [503, 503, 201]
        assert gateway.breaker_states() == [CLOSED]
        transitions = [
            (o, t) for o, t, _ in gateway._breakers[0].transitions
        ]
        assert transitions == [
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED),
        ]
        assert gateway.metrics.breaker_transitions[(0, OPEN)] == 1
        assert gateway.metrics.breaker_transitions[(0, CLOSED)] == 1


def test_latency_above_the_timeout_budget_times_out_and_retries():
    plan = FaultPlan([FaultSpec(LATENCY, 0, 0, 1, latency=0.05)])
    with _one_shard(plan) as gateway:  # budget is 0.02
        response = gateway.submit(
            FORM, easychair.complete_review(), "pc_member_1"
        )
        assert response.status == 201
        assert gateway.metrics.faults[LATENCY] == 1
        assert gateway.metrics.retries["submit"] == 1


def test_latency_below_the_timeout_budget_is_absorbed():
    plan = FaultPlan([FaultSpec(LATENCY, 0, 0, 1, latency=0.01)])
    with _one_shard(plan) as gateway:
        response = gateway.submit(
            FORM, easychair.complete_review(), "pc_member_1"
        )
        assert response.status == 201
        assert gateway.metrics.faults[LATENCY] == 0
        assert gateway.metrics.retries == {}


def test_degraded_view_serves_last_good_body_with_staleness_tag():
    # calls: submit=0, view=1 (remembers last-good at version 1),
    # update of the viewed record=2 (bumps the entity version, drops the
    # record's cached views), then the shard crashes -> the re-read
    # degrades to the remembered body, tagged stale
    plan = FaultPlan([FaultSpec(CRASH, 0, 3, 1 << 30)])
    with _one_shard(plan) as gateway:
        record = gateway.submit(
            FORM, easychair.complete_review(), "pc_member_1"
        ).body["id"]
        fresh = gateway.view(ENTITY, record, "pc_member_1")
        assert fresh.status == 200
        assert gateway.modify(
            FORM, record, easychair.complete_review(), "pc_member_1"
        ).status == 200
        stale = gateway.view(ENTITY, record, "pc_member_1")
        assert stale.status == 203
        assert stale.headers["X-DQ-Degraded"] == "stale"
        assert stale.headers["X-DQ-Served-Version"] == "1"
        assert stale.headers["X-DQ-Current-Version"] == "2"
        assert stale.body == fresh.body  # the exact last-good body
        assert gateway.metrics.degraded_reads["view"] == 1


def test_degraded_read_without_a_last_good_body_is_shed():
    with _one_shard(FaultPlan.crash_shard(0)) as gateway:
        response = gateway.view(ENTITY, 1, "pc_member_1")
        assert response.status == 503
        assert gateway.metrics.degraded_reads == {}


def test_degraded_list_never_leaks_across_clearance_levels():
    # two shards; both users warm their own last-good listing, then one
    # shard crashes: the cleared user's degraded body carries records,
    # the uncleared user's stays empty — keys include user + clearance
    design = easychair.build_design()
    gateway = ShardedGateway.from_design(
        design, shard_count=2, users=easychair.USERS,
        fault_plan=FaultPlan(), resilience=ResilienceConfig(),
    )
    # crash the shard that holds record 3 right after the third write
    # lands there: the write moves that shard's data version past the
    # warmed listings, so their re-read needs the crashed shard
    victim = gateway.router.shard_for(ENTITY, 3)
    gateway.fault_injector.plan = FaultPlan(
        [FaultSpec(CRASH, victim, 7, 1 << 30)]
    )
    try:
        # calls 0-1: two submits land somewhere on the two shards
        for _ in range(2):
            assert gateway.submit(
                FORM, easychair.complete_review(), "pc_member_1"
            ).status == 201
        # calls 2-3 and 4-5: one scatter-gather listing per user
        cleared = gateway.list(ENTITY, "pc_member_1")
        uncleared = gateway.list(ENTITY, "outsider")
        assert cleared.status == 200 and len(cleared.body) == 2
        assert uncleared.status == 200 and uncleared.body == []
        # call 6: the write lands on the victim, which is then down
        assert gateway.submit(
            FORM, easychair.complete_review(), "pc_member_1"
        ).status == 201
        degraded_cleared = gateway.list(ENTITY, "pc_member_1")
        degraded_uncleared = gateway.list(ENTITY, "outsider")
        assert degraded_cleared.status == 203
        assert degraded_cleared.body == cleared.body
        assert degraded_uncleared.status == 203
        assert degraded_uncleared.body == []  # still nothing to leak
    finally:
        gateway.close()


def test_cache_fill_failures_lose_performance_not_correctness():
    plan = FaultPlan([FaultSpec(CACHE_FILL, None, 0, 1 << 30)])
    with _one_shard(plan) as gateway:
        record = gateway.submit(
            FORM, easychair.complete_review(), "pc_member_1"
        ).body["id"]
        first = gateway.view(ENTITY, record, "pc_member_1")
        second = gateway.view(ENTITY, record, "pc_member_1")
        assert first.status == second.status == 200
        assert first.body == second.body
        assert gateway.cache.stats.hits == 0  # every fill failed
        assert gateway.metrics.faults[CACHE_FILL] >= 2


def test_retried_submits_never_double_apply_under_heavy_drops():
    # property: whatever subset of calls the seeded drop schedule hits,
    # every 201 maps to exactly one store audit event
    for seed in (0, 1, 2):
        plan = FaultPlan.seeded(
            seed, shard_count=1, horizon=120,
            crashes=0, latency_spikes=0,
            drop_rate=0.3, duplicate_rate=0.2, cache_fill_windows=0,
        )
        with _one_shard(plan) as gateway:
            accepted = 0
            for _ in range(40):
                response = gateway.submit(
                    FORM, easychair.complete_review(), "pc_member_1"
                )
                accepted += response.status == 201
            stores = len(gateway.shards[0].audit.by_kind("store"))
            assert stores == accepted, f"seed {seed}"


def test_resilient_gateway_without_faults_behaves_identically():
    with _one_shard(None) as gateway:
        assert gateway.fault_injector is None
        record = gateway.submit(
            FORM, easychair.complete_review(), "pc_member_1"
        ).body["id"]
        assert gateway.view(ENTITY, record, "pc_member_1").status == 200
        assert gateway.metrics.retries == {}
        assert gateway.breaker_states() == [CLOSED]


def test_shard_unavailable_carries_shard_and_reason():
    exc = ShardUnavailable(2, "circuit open")
    assert exc.shard == 2
    assert "shard 2" in str(exc) and "circuit open" in str(exc)
