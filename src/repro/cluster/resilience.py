"""Deterministic fault injection for the gateway, and the machinery to
survive it.

The DQ guarantees the gateway preserves (confidentiality, completeness,
traceability, precision — the paper's DQSR families) are only worth
anything if they hold when shards misbehave.  This module supplies both
sides of that argument:

* **Injection** — a seeded :class:`FaultPlan` fixes, before any request
  runs, exactly which shard calls crash, slow down, get dropped or get
  duplicated, and which cache fills fail.  The same seed always produces
  the same schedule, so chaos runs replay bit-for-bit.
* **Survival** — :class:`RetryPolicy` (bounded retries, exponential
  backoff with deterministic jitter), per-shard :class:`CircuitBreaker`
  (closed/open/half-open, shedding with the 503 helpers while open),
  :class:`IdempotencyRegistry` (at-most-once application of keyed writes,
  so a duplicated or retried task can never double-apply), and the
  degraded-read path (the gateway serves the last known good body with an
  explicit staleness tag — see :func:`repro.runtime.http.degraded`).

Time is simulated: injected latency is compared against the operation
timeout rather than slept, and backoff delays are recorded in the metrics
rather than slept (unless a real ``sleeper`` is configured).  The circuit
breaker's clock is the injector's call counter when faults are injected,
so breaker transitions are a deterministic function of the request
sequence, not of wall-clock scheduling.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.diagrams.ascii import table as render_table

# -- fault taxonomy ---------------------------------------------------------

CRASH = "crash"            # the shard refuses every call in the window
LATENCY = "latency"        # calls take `latency` simulated seconds
DROP = "drop"              # the dispatched task vanishes before running
DUPLICATE = "duplicate"    # the dispatched task runs twice
CACHE_FILL = "cache-fill"  # read-through cache fills silently fail
KILL = "kill"              # kill -9: the shard process dies and restarts
                           # from its durable state (unsynced writes lost)
REPLICA_LAG = "replica-lag"  # the shard's followers stop catching up for
                             # one read — bounded staleness made visible
FAILOVER = "failover"      # the primary dies; a caught-up follower is
                           # promoted (without replication: a plain kill)

FAULT_KINDS = (
    CRASH, LATENCY, DROP, DUPLICATE, CACHE_FILL, KILL, REPLICA_LAG, FAILOVER,
)

#: Default per-operation timeout budget (simulated seconds).
DEFAULT_OPERATION_TIMEOUT = 0.02


class TransientShardFault(RuntimeError):
    """A single failed shard call — retryable."""

    kind = "transient"

    def __init__(self, shard: int, message: str):
        super().__init__(f"shard {shard}: {message}")
        self.shard = shard


class ShardCrashed(TransientShardFault):
    kind = CRASH


class OperationTimeout(TransientShardFault):
    kind = LATENCY


class TaskDropped(TransientShardFault):
    kind = DROP


class ShardKilled(TransientShardFault):
    """The shard process was killed and restarted from durable state.

    Retryable: the replacement shard is already serving by the time this
    propagates, so the retry loop re-routes the same task to it."""

    kind = KILL


class ShardFailedOver(TransientShardFault):
    """The shard's primary died and a follower was promoted in its place.

    Retryable: by the time this propagates the promoted follower is
    already serving as the new primary, so the retry loop re-runs the
    same task against it.  Without a replication layer the failover
    degrades to a kill-restart (or a plain crash)."""

    kind = FAILOVER


class ShardUnavailable(RuntimeError):
    """The shard cannot serve this request: breaker open or retries
    exhausted.  The gateway answers 503 (writes) or degrades (reads)."""

    def __init__(self, shard: int, reason: str):
        super().__init__(f"shard {shard} unavailable: {reason}")
        self.shard = shard
        self.reason = reason


# -- the fault plan ---------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One fault window: ``kind`` applies to calls ``[start, stop)``.

    ``shard`` of ``None`` matches every shard.  ``CACHE_FILL`` windows are
    indexed by the cache-*fill* counter, every other kind by the shard-call
    counter.
    """

    kind: str
    shard: Optional[int]
    start: int
    stop: int
    latency: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.start < 0 or self.stop <= self.start:
            raise ValueError(
                f"bad fault window [{self.start}, {self.stop})"
            )

    def active_at(self, call_index: int, shard: Optional[int] = None) -> bool:
        if not (self.start <= call_index < self.stop):
            return False
        return self.shard is None or shard is None or shard == self.shard


class FaultPlan:
    """An immutable, replayable schedule of :class:`FaultSpec` windows."""

    def __init__(self, specs: Sequence[FaultSpec] = ()):
        self.specs = tuple(specs)

    def signature(self) -> tuple:
        """A hashable identity: two plans with equal signatures inject
        identical fault schedules."""
        return self.specs

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultPlan) and self.specs == other.specs

    def __hash__(self) -> int:
        return hash(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    @classmethod
    def crash_shard(
        cls, shard: int, start: int = 0, stop: int = 1 << 30
    ) -> "FaultPlan":
        """A single permanently crashed shard — the simplest outage."""
        return cls([FaultSpec(CRASH, shard, start, stop)])

    @classmethod
    def kill_shard(cls, shard: int, at: int) -> "FaultPlan":
        """One kill -9 of one shard at one call — the simplest durability
        drill."""
        return cls([FaultSpec(KILL, shard, at, at + 1)])

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        shard_count: int,
        horizon: int = 2000,
        start: int = 0,
        crashes: int = 2,
        latency_spikes: int = 2,
        drop_rate: float = 0.02,
        duplicate_rate: float = 0.02,
        cache_fill_windows: int = 1,
        operation_timeout: float = DEFAULT_OPERATION_TIMEOUT,
        kills: int = 0,
        replica_lags: int = 0,
        failovers: int = 0,
    ) -> "FaultPlan":
        """A deterministic schedule drawn from ``random.Random(seed)``.

        All windows begin at or after ``start`` (so a preload phase can
        run clean) and before ``horizon``.  Latency values straddle the
        ``operation_timeout`` so some spikes are absorbed and some time
        out.  ``kills`` adds that many single-call kill-restart windows;
        they are drawn *after* every other kind, so ``kills=0`` (the
        default) leaves historical seeded schedules byte-identical.
        ``replica_lags`` and ``failovers`` extend the plan the same way —
        topology faults are drawn after the kills, in that order, so
        every earlier seeded schedule (including kill schedules) stays
        byte-identical when both stay 0.
        """
        if horizon <= start:
            raise ValueError("horizon must exceed start")
        rng = random.Random(seed)
        span = horizon - start
        specs: list[FaultSpec] = []
        for _ in range(crashes):
            shard = rng.randrange(shard_count)
            length = max(1, int(span * rng.uniform(0.03, 0.12)))
            begin = start + rng.randrange(max(1, span - length))
            specs.append(FaultSpec(CRASH, shard, begin, begin + length))
        for _ in range(latency_spikes):
            shard = rng.randrange(shard_count)
            length = max(1, int(span * rng.uniform(0.02, 0.08)))
            begin = start + rng.randrange(max(1, span - length))
            lat = operation_timeout * rng.uniform(0.3, 2.5)
            specs.append(
                FaultSpec(LATENCY, shard, begin, begin + length, latency=lat)
            )
        for _ in range(int(span * drop_rate)):
            at = start + rng.randrange(span)
            specs.append(FaultSpec(DROP, None, at, at + 1))
        for _ in range(int(span * duplicate_rate)):
            at = start + rng.randrange(span)
            specs.append(FaultSpec(DUPLICATE, None, at, at + 1))
        for _ in range(cache_fill_windows):
            length = max(1, int(span * rng.uniform(0.05, 0.15)))
            begin = start + rng.randrange(max(1, span - length))
            specs.append(FaultSpec(CACHE_FILL, None, begin, begin + length))
        for _ in range(kills):
            # shard-agnostic single-call windows: whichever shard the
            # call routes to dies — a pinned shard would miss most
            # windows (that call index rarely lands on that shard)
            at = start + rng.randrange(span)
            specs.append(FaultSpec(KILL, None, at, at + 1))
        for _ in range(replica_lags):
            # a lag window pins one shard: every primary call in the
            # window re-arms the "followers stop catching up" flag, so
            # reads straddling the window observe real, bounded lag
            shard = rng.randrange(shard_count)
            length = max(1, int(span * rng.uniform(0.03, 0.10)))
            begin = start + rng.randrange(max(1, span - length))
            specs.append(FaultSpec(REPLICA_LAG, shard, begin, begin + length))
        for _ in range(failovers):
            # shard-agnostic single-call windows, like kills: whichever
            # shard the call routes to loses its primary
            at = start + rng.randrange(span)
            specs.append(FaultSpec(FAILOVER, None, at, at + 1))
        specs.sort(
            key=lambda s: (s.start, s.kind, -1 if s.shard is None else s.shard)
        )
        return cls(specs)

    def render(self) -> str:
        rows = [
            [
                spec.kind,
                "any" if spec.shard is None else str(spec.shard),
                f"[{spec.start}, {spec.stop})",
                f"{spec.latency * 1000:.1f}ms" if spec.latency else "—",
            ]
            for spec in self.specs
        ]
        header = f"fault schedule: {len(self.specs)} window(s)"
        if not rows:
            return header + " (none)"
        return header + "\n" + render_table(
            ["Kind", "Shard", "Calls", "Latency"], rows
        )

    def __repr__(self) -> str:
        return f"<FaultPlan {len(self.specs)} spec(s)>"


@dataclass(frozen=True)
class Injection:
    """The faults active for one shard call."""

    crash: bool = False
    latency: float = 0.0
    drop: bool = False
    duplicate: bool = False
    kill: bool = False
    lag: bool = False
    failover: bool = False


class FaultInjector:
    """Replays a :class:`FaultPlan` against a monotone call counter.

    The counter doubles as the deterministic clock for the circuit
    breakers (``clock()``): time advances per attempted shard call — even
    shed ones, via :meth:`tick` — never per wall-clock second.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._calls = 0
        self._fills = 0
        self.applied: Counter = Counter()

    def clock(self) -> float:
        with self._lock:
            return float(self._calls)

    @property
    def calls(self) -> int:
        with self._lock:
            return self._calls

    def tick(self) -> None:
        """Advance the clock without injecting (a shed call still counts
        as elapsed time, so open breakers can cool down)."""
        with self._lock:
            self._calls += 1

    def next_call(self, shard: int) -> Injection:
        with self._lock:
            index = self._calls
            self._calls += 1
            crash = drop = duplicate = kill = lag = failover = False
            latency = 0.0
            for spec in self.plan.specs:
                if spec.kind == CACHE_FILL:
                    continue
                if not spec.active_at(index, shard):
                    continue
                if spec.kind == CRASH:
                    crash = True
                elif spec.kind == LATENCY:
                    latency = max(latency, spec.latency)
                elif spec.kind == DROP:
                    drop = True
                elif spec.kind == DUPLICATE:
                    duplicate = True
                elif spec.kind == KILL:
                    kill = True
                elif spec.kind == REPLICA_LAG:
                    lag = True
                elif spec.kind == FAILOVER:
                    failover = True
            if crash:
                self.applied[CRASH] += 1
            if latency:
                self.applied[LATENCY] += 1
            if drop:
                self.applied[DROP] += 1
            if duplicate:
                self.applied[DUPLICATE] += 1
            if kill:
                self.applied[KILL] += 1
            if lag:
                self.applied[REPLICA_LAG] += 1
            if failover:
                self.applied[FAILOVER] += 1
        return Injection(crash, latency, drop, duplicate, kill, lag, failover)

    def cache_fill_fails(self) -> bool:
        with self._lock:
            index = self._fills
            self._fills += 1
            hit = any(
                spec.kind == CACHE_FILL and spec.start <= index < spec.stop
                for spec in self.plan.specs
            )
            if hit:
                self.applied[CACHE_FILL] += 1
            return hit


# -- survival machinery -----------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    ``backoff(n)`` is the delay before retry ``n`` (1-based).  The config
    is validated so the schedule is provably monotone non-decreasing:
    jittered delay ``n`` is at most ``raw * (1 + jitter)`` and delay
    ``n+1`` at least ``raw * multiplier`` — requiring ``multiplier >=
    1 + jitter`` makes later retries never shorter than earlier ones.
    """

    max_attempts: int = 3
    base_delay: float = 0.001
    multiplier: float = 2.0
    max_delay: float = 0.1
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay <= 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 < base_delay <= max_delay")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if self.multiplier < 1.0 + self.jitter:
            raise ValueError(
                "multiplier must be >= 1 + jitter or the backoff schedule "
                "loses monotonicity"
            )

    def backoff(self, attempt: int) -> float:
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = self.base_delay * self.multiplier ** (attempt - 1)
        fraction = random.Random(self.seed * 1_000_003 + attempt).random()
        return min(raw * (1.0 + self.jitter * fraction), self.max_delay)

    def schedule(self) -> tuple[float, ...]:
        """Every delay of a fully exhausted retry loop."""
        return tuple(
            self.backoff(attempt) for attempt in range(1, self.max_attempts)
        )


#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """A per-shard circuit breaker: closed → open → half-open → …

    * **closed** — calls flow; ``failure_threshold`` consecutive failures
      trip the breaker open.
    * **open** — every call is shed until ``cooldown`` clock units pass,
      then the next call transitions to half-open.
    * **half-open** — exactly one probe is admitted at a time; a probe
      success closes the breaker, a probe failure re-opens it.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 30.0,
        clock: Optional[Callable[[], float]] = None,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown <= 0:
            raise ValueError("cooldown must be > 0")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock or time.monotonic
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.transitions: list[tuple[str, str, float]] = []

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a call proceed right now?  (Transitions open → half-open.)"""
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._clock() - self._opened_at >= self.cooldown:
                    self._transition(HALF_OPEN)
                    self._probing = True
                    return True
                return False
            # HALF_OPEN: one probe at a time
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._probing = False
            self._failures = 0
            if self._state != CLOSED:
                self._transition(CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._probing = False
            if self._state == HALF_OPEN:
                self._opened_at = self._clock()
                self._transition(OPEN)
                return
            self._failures += 1
            if self._state == CLOSED and self._failures >= self.failure_threshold:
                self._opened_at = self._clock()
                self._transition(OPEN)

    def _transition(self, to: str) -> None:
        origin = self._state
        self._state = to
        if to == CLOSED:
            self._failures = 0
        self.transitions.append((origin, to, self._clock()))
        if self._on_transition is not None:
            self._on_transition(origin, to)

    def __repr__(self) -> str:
        return f"<CircuitBreaker {self.state}, {self._failures} failure(s)>"


class IdempotencyRegistry:
    """At-most-once application of keyed operations.

    ``run_once(key, fn)`` runs ``fn`` the first time a key is seen and
    returns the cached outcome on every replay — whether the replay is a
    duplicated worker task or a client retry.  Concurrent replays block
    until the first execution finishes, so two racing duplicates can never
    both apply.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._results: OrderedDict[object, tuple[bool, object]] = OrderedDict()
        self._inflight: dict[object, threading.Event] = {}
        self._lock = threading.Lock()
        self.duplicates = 0

    def run_once(self, key, fn: Callable[[], object]):
        while True:
            with self._lock:
                if key in self._results:
                    self.duplicates += 1
                    ok, value = self._results[key]
                    break
                waiter = self._inflight.get(key)
                if waiter is None:
                    self._inflight[key] = threading.Event()
            if waiter is None:  # we own the first execution
                try:
                    value = fn()
                    ok = True
                except BaseException as exc:  # cache failures too: a replay
                    value = exc            # of a failed op must not re-run it
                    ok = False
                with self._lock:
                    self._results[key] = (ok, value)
                    while len(self._results) > self.capacity:
                        self._results.popitem(last=False)
                    event = self._inflight.pop(key)
                event.set()
                break
            waiter.wait()
        if ok:
            return value
        raise value

    def __len__(self) -> int:
        with self._lock:
            return len(self._results)


@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning knobs for the gateway's fault-survival machinery.

    ``sleeper`` of ``None`` keeps backoff simulated (recorded in the
    metrics, never slept) — pass ``time.sleep`` for real pacing.  Breaker
    ``cooldown`` is measured on the injector's call-counter clock when a
    fault plan is installed, otherwise in wall-clock seconds.
    ``idempotency_capacity`` sizes the replay registry, which a gateway
    builds only under a fault plan: without injected faults no keyed
    call is retried or duplicated.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    operation_timeout: float = DEFAULT_OPERATION_TIMEOUT
    breaker_failure_threshold: int = 3
    breaker_cooldown: float = 30.0
    last_good_capacity: int = 512
    idempotency_capacity: int = 4096
    sleeper: Optional[Callable[[float], None]] = None


# -- the chaos harness ------------------------------------------------------


@dataclass
class ChaosResult:
    """Everything one seeded chaos run produced, for report and asserts."""

    seed: int
    plan: FaultPlan
    report: object  # LoadReport
    violations: list
    applied: Counter
    metrics: dict
    preloaded: frozenset
    backend: str = "memory"
    restarts: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        sections = [
            f"chaos run — seed {self.seed}, "
            f"{len(self.preloaded)} record(s) preloaded",
            self.plan.render(),
            self.report.render(),
        ]
        if self.applied:
            sections.append(
                "faults applied: " + ", ".join(
                    f"{kind}×{count}"
                    for kind, count in sorted(self.applied.items())
                )
            )
        if self.backend != "memory" or self.restarts:
            # counters only — same-seed runs render the same line
            sections.append(
                f"durability: {self.backend} backend, "
                f"{self.restarts} shard restart(s)"
            )
        validation = self.metrics.get("validation")
        if validation:
            # Counters only — wall-clock µs would break the byte-identical
            # stdout guarantee for repeated same-seed chaos runs.
            sections.append(
                f"validation: {validation['checks']} check(s) "
                f"({validation['batches']} batch(es)), "
                f"plan cache {validation['plan_cache_hits']} hit(s) / "
                f"{validation['plan_cache_misses']} miss(es), "
                f"{validation['plans_compiled']} plan(s) compiled"
            )
        telemetry = self.metrics.get("telemetry")
        if telemetry:
            # Counters only here too — the accumulator counts are a pure
            # function of the seeded workload, so same-seed runs render
            # the same line.
            sections.append(
                f"dq telemetry: {telemetry['records']} record(s) live, "
                f"{telemetry['updates']} update(s), "
                f"{telemetry['spilled_fields']} spill(s), "
                f"{telemetry['rebuilds']} rebuild(s)"
            )
        if self.violations:
            sections.append(
                f"guarantee report: {len(self.violations)} VIOLATION(S)"
            )
            sections.extend(f"  !! {v}" for v in self.violations)
        else:
            sections.append(
                "guarantee report: zero violations (no lost acknowledged "
                "writes, no double-applied retries, no confidentiality "
                "leaks, no untagged stale reads)"
            )
        return "\n".join(sections)


def run_chaos(
    seed: int = 0,
    *,
    shard_count: int = 4,
    count: int = 400,
    preload: int = 24,
    threads: int = 1,
    mix: Optional[dict] = None,
    design_model=None,
    users: Optional[Sequence[tuple]] = None,
    config: Optional[ResilienceConfig] = None,
    plan: Optional[FaultPlan] = None,
    persistence: Optional[str] = None,
    kills: int = 0,
    data_dir=None,
) -> ChaosResult:
    """One seeded chaos run: preload clean, inject the seeded fault plan
    over the mixed workload, then verify every DQ guarantee.

    With ``threads=1`` the whole run — fault schedule, applied faults,
    outcome counters — is a pure function of the seed.

    ``persistence`` names a durable backend kind (``"file"`` or
    ``"sqlite"``) to put under every shard; ``kills`` adds that many
    seeded kill-restart faults to the default plan, turning the run into
    a durability drill — each killed shard must come back from its WAL
    with every acknowledged write intact.  Shard state lives under
    ``data_dir`` (a temporary directory, removed afterwards, when not
    given).
    """
    import tempfile

    from repro.casestudy import easychair
    from repro.persistence import persistence_factory

    from .gateway import ShardedGateway
    from .loadgen import CHAOS_MIX, LoadGenerator, verify_guarantees

    if design_model is None:
        design_model = easychair.build_design()
    if users is None:
        users = easychair.USERS
    if config is None:
        config = ResilienceConfig()
    if plan is None:
        # ~2 shard calls per planned operation in practice (listings
        # scatter to every shard but cache hits consume none), so this
        # keeps the fault windows inside the exercised call range
        horizon = preload + count * 2
        plan = FaultPlan.seeded(
            seed,
            shard_count=shard_count,
            horizon=horizon,
            start=preload,
            operation_timeout=config.operation_timeout,
            kills=kills,
        )
    factory = None
    tempdir = None
    if persistence is not None:
        if data_dir is None:
            tempdir = tempfile.TemporaryDirectory(prefix="repro-chaos-")
            data_dir = tempdir.name
        factory = persistence_factory(data_dir, kind=persistence)
    generator = LoadGenerator(seed=seed, mix=dict(mix or CHAOS_MIX))
    gateway = ShardedGateway.from_design(
        design_model,
        shard_count=shard_count,
        users=users,
        fault_plan=plan,
        resilience=config,
        max_queue_depth=max(512, count),
        persistence=factory,
    )
    try:
        spec = generator.spec
        rng = random.Random(seed)
        preloaded = set()
        for _ in range(preload):
            response = gateway.submit(
                spec.form, spec.clean_payload(rng), spec.cleared_users[0]
            )
            if response.status != 201:  # pragma: no cover - preload is clean
                raise RuntimeError(f"preload write failed: {response.status}")
            preloaded.add(response.body["id"])
        report = generator.run(gateway, count=count, threads=threads)
        violations = verify_guarantees(
            gateway, report, ignore_ids=frozenset(preloaded)
        )
        applied = Counter(
            gateway.fault_injector.applied
        ) if gateway.fault_injector else Counter()
        metrics = gateway.metrics.snapshot(
            gateway.cache.stats,
            gateway.validation_stats(),
            gateway.telemetry_stats(),
        )
        backend_name = gateway.shards[0].persistence.name
        restarts = sum(gateway.shard_restarts)
    finally:
        gateway.close()
        if tempdir is not None:
            tempdir.cleanup()
    return ChaosResult(
        seed, plan, report, violations, applied, metrics,
        frozenset(preloaded), backend_name, restarts,
    )
