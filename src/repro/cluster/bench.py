"""Single-shard vs N-shard throughput comparison harness.

Reused by ``benchmarks/bench_gateway.py`` and the ``repro cluster-bench``
CLI subcommand.  The protocol keeps the two sides strictly comparable:

1. build the **baseline** — one shard, cache disabled: the pre-cluster
   serving path (a thin dispatch over a single ``WebApp``);
2. build the **gateway** — N shards with the read-through cache;
3. preload both with the same records, then replay the *identical*
   seeded read-heavy operation plan against each from ``threads`` client
   threads and compare wall-clock throughput.

Determinism: the plan is fixed by the seed before any request runs; only
wall-clock timings vary between runs.  The default of one client thread
measures the per-request cost ratio with minimal scheduler noise; the
soak tests separately prove the guarantees under many client threads.
"""

from __future__ import annotations

import gc
import json
import random
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.diagrams.ascii import table as render_table

from .gateway import ShardedGateway
from .loadgen import LoadGenerator, LoadReport, READ_HEAVY_MIX
from .resilience import FaultPlan, ResilienceConfig


@dataclass
class ComparisonRow:
    """One measured configuration."""

    label: str
    shard_count: int
    cache_capacity: int
    operations: int
    elapsed: float
    report: LoadReport
    cache_hit_rate: float
    metrics_text: str = ""

    @property
    def ops_per_second(self) -> float:
        return self.operations / self.elapsed if self.elapsed else 0.0


@dataclass
class ComparisonResult:
    """Baseline row first; ``speedup`` is gateway vs baseline."""

    rows: list
    preload: int
    threads: int
    seed: int
    has_faulted: bool = False

    @property
    def baseline(self) -> ComparisonRow:
        return self.rows[0]

    @property
    def gateway(self) -> ComparisonRow:
        """The healthy cached N-shard row (never the faulted one)."""
        return self.rows[-2] if self.has_faulted else self.rows[-1]

    @property
    def faulted(self) -> Optional[ComparisonRow]:
        return self.rows[-1] if self.has_faulted else None

    @property
    def speedup(self) -> float:
        base = self.baseline.ops_per_second
        return self.gateway.ops_per_second / base if base else 0.0

    @property
    def degradation(self) -> Optional[float]:
        """Faulted throughput as a fraction of healthy cached throughput."""
        if not self.has_faulted:
            return None
        healthy = self.gateway.ops_per_second
        return self.faulted.ops_per_second / healthy if healthy else 0.0

    def render(self) -> str:
        header = (
            f"gateway throughput, read-heavy mix — {self.preload} records "
            f"preloaded, {self.gateway.operations} operations, "
            f"{self.threads} client thread(s), seed {self.seed}"
        )
        body = render_table(
            ["Configuration", "Ops/s", "Elapsed s", "Cache hit rate"],
            [
                [
                    row.label,
                    f"{row.ops_per_second:,.0f}",
                    f"{row.elapsed:.3f}",
                    f"{row.cache_hit_rate:.1%}"
                    if row.cache_capacity else "—",
                ]
                for row in self.rows
            ],
            max_width=60,
        )
        footer = (
            f"speedup: {self.speedup:.2f}x "
            f"({self.gateway.label} vs {self.baseline.label})"
        )
        if self.has_faulted:
            footer += (
                f"\nunder faults: {self.degradation:.1%} of healthy "
                f"throughput retained ({self.faulted.label})"
            )
        return f"{header}\n{body}\n{footer}"


def _measure(
    gateway: ShardedGateway,
    generator: LoadGenerator,
    plan: Sequence,
    preload: int,
    threads: int,
    label: str,
) -> ComparisonRow:
    from repro.casestudy.easychair import complete_review

    spec = generator.spec
    for _ in range(preload):
        response = gateway.submit(
            spec.form, complete_review(), spec.cleared_users[0]
        )
        if response.status != 201:  # pragma: no cover - preload must land
            raise RuntimeError(f"preload write failed: {response.status}")
    # warm one listing per user so every configuration starts from the
    # same cache state and (when resilient) a last-known-good body exists
    # before any fault window opens
    for user in (*spec.cleared_users, *spec.uncleared_users):
        gateway.list(spec.entity, user)
    # Same discipline as ``_timed_loop``: the previous configuration's
    # teardown garbage (whole gateways of shard stores) must never be
    # collected on this row's clock.
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        report = generator.run(
            gateway, operations=list(plan), threads=threads
        )
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    return ComparisonRow(
        label=label,
        shard_count=len(gateway.shards),
        cache_capacity=gateway.cache.capacity,
        operations=len(plan),
        elapsed=elapsed,
        report=report,
        cache_hit_rate=gateway.cache.stats.hit_rate,
        metrics_text=gateway.metrics.render(
            gateway.cache.stats, gateway.validation_stats()
        ),
    )


def run_comparison(
    shard_count: int = 4,
    count: int = 600,
    preload: int = 400,
    seed: int = 23,
    threads: int = 1,
    cache_capacity: int = 512,
    include_uncached: bool = False,
    include_faulted: bool = False,
    design_model=None,
    users: Optional[Sequence[tuple]] = None,
    mix: Optional[dict] = None,
) -> ComparisonResult:
    """Measure the single-shard baseline against the N-shard gateway.

    Returns the result with the baseline as the first row and the cached
    N-shard gateway as the last healthy row; ``include_uncached`` adds an
    uncached N-shard row in between (isolates sharding vs caching), and
    ``include_faulted`` appends a row where shard 0 crashes permanently
    right after warm-up — measuring how much throughput the resilience
    layer (retry, breaker shedding, degraded reads) retains.
    """
    from repro.casestudy import easychair

    if design_model is None:
        design_model = easychair.build_design()
    if users is None:
        users = easychair.USERS
    generator = LoadGenerator(seed=seed, mix=dict(mix or READ_HEAVY_MIX))
    plan = generator.plan(count)
    spec = generator.spec

    configurations = [
        ("1 shard (baseline, uncached)", 1, 0, None),
    ]
    if include_uncached:
        configurations.append(
            (f"{shard_count} shards (uncached)", shard_count, 0, None)
        )
    configurations.append(
        (f"{shard_count} shards (cached)", shard_count, cache_capacity, None)
    )
    if include_faulted:
        # the crash window opens after the preload submits plus the
        # per-user warm listings (each listing touches every shard)
        warm_users = len(spec.cleared_users) + len(spec.uncleared_users)
        fault_start = preload + warm_users * shard_count
        configurations.append((
            f"{shard_count} shards (cached, shard 0 down)",
            shard_count,
            cache_capacity,
            FaultPlan.crash_shard(0, start=fault_start),
        ))

    rows = []
    for label, shards, capacity, fault_plan in configurations:
        gateway = ShardedGateway.from_design(
            design_model,
            shard_count=shards,
            users=users,
            cache_capacity=capacity,
            max_queue_depth=max(512, count),
            workers=shards,
            fault_plan=fault_plan,
            resilience=(
                ResilienceConfig() if fault_plan is not None else None
            ),
        )
        try:
            rows.append(
                _measure(gateway, generator, plan, preload, threads, label)
            )
        finally:
            gateway.close()
    return ComparisonResult(
        rows=rows, preload=preload, threads=threads, seed=seed,
        has_faulted=include_faulted,
    )


# ---------------------------------------------------------------------------
# Hot-path micro-benchmarks (copy-on-write reads, write batching, indexes)
# ---------------------------------------------------------------------------


def _percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (0.0 on an empty series)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[rank]


@dataclass
class HotpathRow:
    """One measured hot-path configuration with its latency profile."""

    name: str
    operations: int
    elapsed: float
    samples: list = field(default_factory=list, repr=False)

    @property
    def ops_per_second(self) -> float:
        return self.operations / self.elapsed if self.elapsed else 0.0

    @property
    def p50_us(self) -> float:
        return round(_percentile(self.samples, 0.50) * 1e6, 1)

    @property
    def p99_us(self) -> float:
        return round(_percentile(self.samples, 0.99) * 1e6, 1)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "operations": self.operations,
            "elapsed_s": round(self.elapsed, 6),
            "ops_per_second": round(self.ops_per_second, 1),
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
        }


@dataclass
class HotpathResult:
    """Three paired hot-path measurements; each pair slow-row-first.

    The three speedups are exactly the acceptance numbers the hot-path
    overhaul claims: copy-on-write snapshots vs the pre-COW deepcopy
    read path, per-shard write batching vs one-at-a-time submits, and
    hash-indexed field lookups vs the predicate scan.
    """

    shard_count: int
    seed: int
    rows: list

    def _row(self, name: str) -> HotpathRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def _speedup(self, fast: str, slow: str) -> float:
        base = self._row(slow).ops_per_second
        return self._row(fast).ops_per_second / base if base else 0.0

    @property
    def read_speedup(self) -> float:
        """COW-snapshot list/view throughput over the deepcopy baseline."""
        return self._speedup("read cow snapshots", "read deepcopy snapshots")

    @property
    def batch_speedup(self) -> float:
        """Batched write throughput over the unbatched submit loop."""
        return self._speedup("write batched", "write unbatched")

    @property
    def index_speedup(self) -> float:
        """Indexed field-lookup throughput over the full predicate scan."""
        return self._speedup("lookup indexed", "lookup scan")

    def as_dict(self) -> dict:
        return {
            "benchmark": "hotpath",
            "shard_count": self.shard_count,
            "seed": self.seed,
            "rows": [row.as_dict() for row in self.rows],
            "speedups": {
                "cow_read_vs_deepcopy": round(self.read_speedup, 2),
                "batched_vs_unbatched_writes": round(self.batch_speedup, 2),
                "indexed_vs_scan_lookups": round(self.index_speedup, 2),
            },
        }

    def write_json(self, path) -> None:
        """Emit the machine-readable report (``BENCH_hotpath.json``)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        header = (
            f"hot-path microbenchmarks — {self.shard_count} shard(s), "
            f"seed {self.seed}"
        )
        body = render_table(
            ["Path", "Ops", "Ops/s", "p50 µs", "p99 µs"],
            [
                [
                    row.name,
                    str(row.operations),
                    f"{row.ops_per_second:,.0f}",
                    f"{row.p50_us}",
                    f"{row.p99_us}",
                ]
                for row in self.rows
            ],
            max_width=60,
        )
        footer = (
            f"cow reads: {self.read_speedup:.2f}x deepcopy · "
            f"batched writes: {self.batch_speedup:.2f}x unbatched · "
            f"indexed lookups: {self.index_speedup:.2f}x scan"
        )
        return f"{header}\n{body}\n{footer}"


def _timed_loop(calls) -> tuple[float, list]:
    """Run ``calls`` (an iterable of zero-arg callables) back to back;
    wall-clock total plus the per-call latency series.  The collector is
    drained before and paused during the loop so one pass's garbage is
    never collected on a later pass's clock."""
    samples: list[float] = []
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for call in calls:
            began = time.perf_counter()
            call()
            samples.append(time.perf_counter() - began)
        return time.perf_counter() - start, samples
    finally:
        if was_enabled:
            gc.enable()


def _read_plan(spec, preload: int, reads: int, seed: int) -> list:
    """A seeded half-list, half-view mix over the preloaded id range —
    the listing page is where per-read snapshot cost actually compounds
    (every visible record is snapshotted per request)."""
    rng = random.Random(seed)
    users = (*spec.cleared_users, *spec.uncleared_users)
    plan = []
    for _ in range(reads):
        if rng.random() < 0.6:
            plan.append(("list", rng.choice(users)))
        else:
            plan.append(
                ("view", rng.randint(1, preload), rng.choice(users))
            )
    return plan


def _run_read_plan(gateway: ShardedGateway, spec, plan) -> HotpathRow:
    def call_for(op):
        if op[0] == "list":
            return lambda: gateway.list(spec.entity, op[1])
        return lambda: gateway.view(spec.entity, op[1], op[2])

    elapsed, samples = _timed_loop([call_for(op) for op in plan])
    return HotpathRow("", len(plan), elapsed, samples)


def _best_of(measures: Sequence, rounds: int) -> list:
    """The minimum-elapsed run of each measure over ``rounds`` rounds —
    the ``timeit`` discipline: scheduler and GC noise only ever slows a
    run down, so the fastest round is the least-noisy estimate of each
    path.  Rounds interleave the measures (A B A B …, not A A B B) so a
    noisy stretch of wall-clock cannot bias one side of a comparison."""
    best: list = [None] * len(measures)
    for _ in range(max(1, rounds)):
        for position, measure in enumerate(measures):
            row = measure()
            if best[position] is None or row.elapsed < best[position].elapsed:
                best[position] = row
    return best


def run_hotpath_bench(
    shard_count: int = 4,
    preload: int = 800,
    reads: int = 400,
    writes: int = 384,
    lookups: int = 300,
    seed: int = 23,
    rounds: int = 3,
    json_path=None,
) -> HotpathResult:
    """Measure the three hot paths this overhaul rebuilt, in one run.

    1. **Reads** — the same seeded list/view plan is replayed against the
       same preloaded uncached gateway twice: once with every shard store
       forced through the pre-COW ``deepcopy`` escape hatch
       (``deep_snapshots = True``), once on copy-on-write snapshots.
       The cache is disabled so the store read path is what's measured.
    2. **Writes** — ``writes`` identical payloads go through a fresh
       4-shard gateway one ``submit`` at a time, then through another
       fresh gateway via ``submit_many`` (per-shard coalescing, chunks of
       ``write_batch_max``).  Batched per-op latencies are amortized over
       each ``submit_many`` call.
    3. **Lookups** — one ``WebApp`` preloaded with scored reviews answers
       ``lookups`` equality queries by predicate scan, then the same
       queries again through a hash index on the scored field.

    ``json_path`` additionally writes the machine-readable report.
    """
    from repro.casestudy import easychair

    design_model = easychair.build_design()
    generator = LoadGenerator(seed=seed)
    spec = generator.spec
    rng = random.Random(seed)
    payloads = [spec.clean_payload(rng) for _ in range(max(preload, writes))]
    writer = spec.cleared_users[0]
    rows: list[HotpathRow] = []

    # -- 1. deepcopy vs copy-on-write snapshots on the read path ---------
    gateway = ShardedGateway.from_design(
        design_model, shard_count=shard_count, users=easychair.USERS,
        cache_capacity=0, max_queue_depth=4096, workers=shard_count,
    )
    try:
        for response in gateway.submit_many(
            spec.form, payloads[:preload], writer
        ):
            if response.status != 201:  # pragma: no cover - must land
                raise RuntimeError(f"preload write failed: {response.status}")
        plan = _read_plan(spec, preload, reads, seed)
        warmup = plan[: min(20, len(plan))]

        def read_pass(deep: bool) -> HotpathRow:
            for shard in gateway.shards:
                shard.store.set_deep_snapshots(deep)
            _run_read_plan(gateway, spec, warmup)
            return _run_read_plan(gateway, spec, plan)

        deep_row, cow_row = _best_of(
            [lambda: read_pass(True), lambda: read_pass(False)], rounds
        )
        deep_row.name = "read deepcopy snapshots"
        cow_row.name = "read cow snapshots"
        rows.extend([deep_row, cow_row])
        for shard in gateway.shards:
            shard.store.set_deep_snapshots(False)
    finally:
        gateway.close()

    # -- 2. unbatched vs per-shard batched writes ------------------------
    def write_gateway() -> ShardedGateway:
        return ShardedGateway.from_design(
            design_model, shard_count=shard_count, users=easychair.USERS,
            cache_capacity=0, max_queue_depth=4096, workers=shard_count,
        )

    def unbatched_pass() -> HotpathRow:
        gateway = write_gateway()
        try:
            elapsed, samples = _timed_loop([
                (lambda p=p: gateway.submit(spec.form, p, writer))
                for p in payloads[:writes]
            ])
            return HotpathRow("write unbatched", writes, elapsed, samples)
        finally:
            gateway.close()

    def batched_pass() -> HotpathRow:
        gateway = write_gateway()
        try:
            client_batch = max(1, gateway.write_batch_max) * shard_count
            samples = []
            start = time.perf_counter()
            for begin in range(0, writes, client_batch):
                group = payloads[begin:begin + client_batch]
                began = time.perf_counter()
                responses = gateway.submit_many(spec.form, group, writer)
                per_op = (time.perf_counter() - began) / len(group)
                samples.extend([per_op] * len(group))
                for response in responses:
                    if response.status != 201:  # pragma: no cover
                        raise RuntimeError(
                            f"batched write failed: {response.status}"
                        )
            elapsed = time.perf_counter() - start
            return HotpathRow("write batched", writes, elapsed, samples)
        finally:
            gateway.close()

    rows.extend(_best_of([unbatched_pass, batched_pass], rounds))

    # -- 3. predicate scan vs hash-indexed field lookups -----------------
    # point lookups on a unique field: the scan pays O(records) per query
    # no matter the selectivity, the hash index pays O(matches)
    app = easychair.build_app()
    for index in range(preload):
        review = easychair.complete_review()
        review["email_address"] = f"reviewer{index}@example.org"
        app.submit(spec.form, review, writer)
    store = app.store.entity(spec.entity)
    emails = [
        f"reviewer{rng.randrange(preload)}@example.org"
        for _ in range(lookups)
    ]
    def scan_pass() -> HotpathRow:
        elapsed, samples = _timed_loop([
            (lambda e=e: store.query(
                lambda data: data.get("email_address") == e
            ))
            for e in emails
        ])
        return HotpathRow("lookup scan", lookups, elapsed, samples)

    def indexed_pass() -> HotpathRow:
        elapsed, samples = _timed_loop([
            (lambda e=e: store.find_by("email_address", e))
            for e in emails
        ])
        return HotpathRow("lookup indexed", lookups, elapsed, samples)

    scan_row = _best_of([scan_pass], rounds)[0]
    store.create_index("email_address")
    indexed_row = _best_of([indexed_pass], rounds)[0]
    rows.extend([scan_row, indexed_row])

    result = HotpathResult(shard_count=shard_count, seed=seed, rows=rows)
    if json_path is not None:
        result.write_json(json_path)
    return result


# ---------------------------------------------------------------------------
# Smoke mode: the acceptance floors, sized for tier-1
# ---------------------------------------------------------------------------


@dataclass
class SmokeResult:
    """Pass/fail verdict of the fast performance floors."""

    comparison: ComparisonResult
    attempts: int
    passed: bool
    failures: list
    min_speedup: float
    min_retention: float
    validation: Optional["ValidationBenchResult"] = None
    dqtelemetry: Optional["DQTelemetryBenchResult"] = None
    durability: Optional["DurabilityBenchResult"] = None
    replication: Optional["ReplicationBenchResult"] = None
    columnar: Optional["ColumnarBenchResult"] = None

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            self.comparison.render(),
            f"smoke floors ({self.attempts} attempt(s)): {verdict} — "
            f"cached >= {self.min_speedup:.1f}x baseline, "
            f"faulted >= {self.min_retention:.0%} of healthy",
        ]
        if self.validation is not None:
            lines.append(
                f"validation floors: fused "
                f"{self.validation.single_speedup:.2f}x legacy "
                f"(>= {self.validation.min_single_speedup:.1f}x), batched "
                f"{self.validation.batch_speedup:.2f}x legacy "
                f"(>= {self.validation.min_batch_speedup:.1f}x), "
                f"{self.validation.equivalence_diffs} behavioural diff(s) "
                f"over {self.validation.equivalence_records} record(s)"
            )
        if self.dqtelemetry is not None:
            lines.append(
                f"dq telemetry floors: scorecard "
                f"{self.dqtelemetry.read_speedup:.1f}x rescan "
                f"(>= {self.dqtelemetry.min_read_speedup:.1f}x), write "
                f"overhead {self.dqtelemetry.write_overhead:+.1%} "
                f"(<= {self.dqtelemetry.max_write_overhead:.0%}), "
                f"{self.dqtelemetry.equivalence_diffs} diff(s) over "
                f"{self.dqtelemetry.equivalence_checks} check(s)"
            )
        if self.durability is not None:
            lines.append(
                f"durability floors: {self.durability.backend} write "
                f"overhead {self.durability.write_overhead:+.1%} "
                f"(<= {self.durability.max_write_overhead:.0%}), recovery "
                f"{self.durability.recovery_seconds:.2f}s for "
                f"{self.durability.records} record(s) "
                f"(<= {self.durability.recovery_budget:.2f}s), "
                f"{self.durability.oracle_diffs} oracle diff(s), storm "
                f"{self.durability.storm.get('restarts', 0)} restart(s) / "
                f"{self.durability.storm.get('violations', 0)} violation(s)"
            )
        if self.replication is not None:
            lines.append(
                f"replication floors: split/merge retention "
                f"{self.replication.split_retention:.1%} "
                f"(>= {self.replication.min_split_retention:.0%}), "
                f"{self.replication.oracle_diffs} oracle diff(s), storm "
                f"max lag {self.replication.storm.get('max_served_lag', 0)} "
                f"(<= {self.replication.staleness_bound}), "
                f"{self.replication.storm.get('migrated', 0)} migrated / "
                f"{self.replication.storm.get('violations', 0)} violation(s)"
            )
        if self.columnar is not None:
            lines.append(
                f"columnar floors: sweep "
                f"{self.columnar.sweep_speedup:.2f}x row oracle "
                f"(>= {self.columnar.min_sweep_speedup:.1f}x, cold "
                f"{self.columnar.cold_sweep_speedup:.2f}x >= "
                f"{self.columnar.min_cold_sweep_speedup:.1f}x), absorb "
                f"{self.columnar.absorb_speedup:.2f}x row walk "
                f"(>= {self.columnar.min_absorb_speedup:.1f}x), scan "
                f"{self.columnar.lookup_speedup:.2f}x dict scan "
                f"(>= {self.columnar.min_scan_speedup:.1f}x), kernels "
                f"{self.columnar.kernels.get('mode', '?')}, "
                f"{self.columnar.equivalence_diffs} diff(s) over "
                f"{self.columnar.equivalence_checks} check(s), "
                f"{self.columnar.state_diffs} state diff(s) over "
                f"{self.columnar.state_checks} drill(s)"
            )
        lines.extend(f"  floor missed: {failure}" for failure in self.failures)
        return "\n".join(lines)


def run_smoke(
    shard_count: int = 4,
    count: int = 300,
    preload: int = 200,
    seed: int = 23,
    min_speedup: float = 2.0,
    min_retention: float = 0.5,
    attempts: int = 3,
) -> SmokeResult:
    """A fast floor check: cached gateway at least ``min_speedup`` x the
    single-shard baseline, at least ``min_retention`` of healthy
    throughput retained with shard 0 down, the compiled-validation
    floors (:func:`run_validation_bench`, at smoke scale) and the
    streaming-DQ-telemetry floors (:func:`run_dqtelemetry_bench`, at
    smoke scale — the full floors hold there too, with margin) and the
    durability floors (:func:`run_durability_bench`, at smoke scale —
    WAL write overhead, crash recovery, the post-recovery oracle and
    one seeded kill-restart storm).
    Wall-clock comparisons on a busy machine can flake,
    so a missed floor is retried up to ``attempts`` times and only a
    repeated miss fails."""
    failures: list = []
    result = None
    validation = None
    dqtelemetry = None
    durability = None
    replication = None
    columnar = None
    for attempt in range(1, attempts + 1):
        result = run_comparison(
            shard_count=shard_count, count=count, preload=preload,
            seed=seed, include_faulted=True,
        )
        failures = []
        if result.speedup < min_speedup:
            failures.append(
                f"cached speedup {result.speedup:.2f}x < "
                f"{min_speedup:.1f}x baseline"
            )
        if result.degradation < min_retention:
            failures.append(
                f"faulted retention {result.degradation:.1%} < "
                f"{min_retention:.0%} of healthy"
            )
        validation = run_validation_bench(
            count=800, equivalence_count=200, seed=seed, rounds=2,
        )
        failures.extend(validation.floor_failures())
        dqtelemetry = run_dqtelemetry_bench(
            shard_count=shard_count, records=2_000, write_records=1_500,
            live_reads=50, rescan_reads=5, suggest_reads=10,
            equivalence_ops=120, seed=seed, rounds=2,
        )
        failures.extend(dqtelemetry.floor_failures())
        durability = run_durability_bench(
            shard_count=shard_count, records=3_000, write_records=2_400,
            storm_count=150, kills=2, seed=seed, rounds=3,
            # at smoke scale the paired ratio is noisy on a loaded
            # machine; the strict 25% floor lives in --durability
            max_write_overhead=0.40,
        )
        failures.extend(durability.floor_failures())
        replication = run_replication_bench(
            shard_count=3, count=150, preload=12, storm_count=150,
            seed=seed, rounds=2,
            # at smoke scale the paired ratio is noisy on a loaded
            # machine; the strict 40% floor lives in --replication
            min_split_retention=0.25,
        )
        failures.extend(replication.floor_failures())
        columnar = run_columnar_bench(
            records=1_200, seed=seed, rounds=2,
            # the state drills (WAL round trip, same-seed chaos reruns)
            # already run at full weight in --columnar; smoke keeps the
            # speedup floors and oracle equivalences only.  Smoke-sized
            # chunks leave the kernels less to amortize and the paired
            # ratios get noisy — the strict mode-aware floors (3x/2x
            # absorb, 1.5x scan) live in --columnar
            drills=False, min_absorb_speedup=1.8, min_scan_speedup=1.2,
        )
        failures.extend(columnar.floor_failures())
        if not failures:
            return SmokeResult(
                result, attempt, True, [], min_speedup, min_retention,
                validation, dqtelemetry, durability, replication, columnar,
            )
    return SmokeResult(
        result, attempts, False, failures, min_speedup, min_retention,
        validation, dqtelemetry, durability, replication, columnar,
    )


# ---------------------------------------------------------------------------
# Validation bench: fused compiled plans vs the legacy interpreted walk
# ---------------------------------------------------------------------------


@dataclass
class ValidationBenchResult:
    """Fused-validation measurements plus the zero-diff equivalence sweep.

    The floors are the compiled-pipeline acceptance numbers: a fused
    single-record ``findings()`` at least ``min_single_speedup`` x the
    legacy interpreted walk, the vectorized prebound batch at least
    ``min_batch_speedup`` x per-record legacy, and **zero** behavioural
    diffs between the two paths across the mixed clean/defective/raw
    EasyChair sweep.  Dirty-mix rows are informational (defective records
    take the exact slow lane, so their margin is structurally smaller).
    """

    seed: int
    count: int
    rows: list
    equivalence_records: int
    equivalence_diffs: int
    plan_cache: dict
    signature: str
    min_single_speedup: float = 3.0
    min_batch_speedup: float = 5.0

    def _row(self, name: str) -> HotpathRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def _speedup(self, fast: str, slow: str) -> float:
        base = self._row(slow).ops_per_second
        return self._row(fast).ops_per_second / base if base else 0.0

    @property
    def single_speedup(self) -> float:
        """Fused single-record ``findings()`` over the legacy walk."""
        return self._speedup("validate fused", "validate legacy")

    @property
    def batch_speedup(self) -> float:
        """Vectorized prebound ``check_batch`` over per-record legacy."""
        return self._speedup("validate fused batch", "validate legacy")

    @property
    def admit_speedup(self) -> float:
        """Fail-fast ``admit()`` over the legacy walk (informational)."""
        return self._speedup("admit fused", "validate legacy")

    @property
    def dirty_speedup(self) -> float:
        """Fused vs legacy on the defective mix (informational)."""
        return self._speedup(
            "validate fused dirty mix", "validate legacy dirty mix"
        )

    def floor_failures(self) -> list:
        """Every missed acceptance floor, as human-readable strings."""
        failures = []
        if self.single_speedup < self.min_single_speedup:
            failures.append(
                f"fused validation {self.single_speedup:.2f}x < "
                f"{self.min_single_speedup:.1f}x legacy"
            )
        if self.batch_speedup < self.min_batch_speedup:
            failures.append(
                f"batched validation {self.batch_speedup:.2f}x < "
                f"{self.min_batch_speedup:.1f}x per-record legacy"
            )
        if self.equivalence_diffs:
            failures.append(
                f"{self.equivalence_diffs} behavioural diff(s) between "
                f"fused and legacy over {self.equivalence_records} record(s)"
            )
        if not self.plan_cache.get("hits"):
            failures.append(
                "plan cache never hit — the bench must exercise the "
                "shared-cache steady state (warm-up regression)"
            )
        return failures

    @property
    def passed(self) -> bool:
        return not self.floor_failures()

    def as_dict(self) -> dict:
        return {
            "benchmark": "validate",
            "seed": self.seed,
            "count": self.count,
            "plan_signature": self.signature,
            "rows": [row.as_dict() for row in self.rows],
            "speedups": {
                "fused_single_vs_legacy": round(self.single_speedup, 2),
                "fused_batch_vs_legacy": round(self.batch_speedup, 2),
                "fused_admit_vs_legacy": round(self.admit_speedup, 2),
                "fused_vs_legacy_dirty_mix": round(self.dirty_speedup, 2),
            },
            "floors": {
                "min_single_speedup": self.min_single_speedup,
                "min_batch_speedup": self.min_batch_speedup,
                "max_equivalence_diffs": 0,
                "met": self.passed,
            },
            "equivalence": {
                "records": self.equivalence_records,
                "diffs": self.equivalence_diffs,
            },
            "plan_cache": dict(self.plan_cache),
        }

    def write_json(self, path) -> None:
        """Emit the machine-readable report (``BENCH_validate.json``)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        header = (
            f"validation pipeline bench — EasyChair chain "
            f"(plan {self.signature}), {self.count} record(s), "
            f"seed {self.seed}"
        )
        body = render_table(
            ["Path", "Ops", "Ops/s", "p50 µs", "p99 µs"],
            [
                [
                    row.name,
                    str(row.operations),
                    f"{row.ops_per_second:,.0f}",
                    f"{row.p50_us}",
                    f"{row.p99_us}",
                ]
                for row in self.rows
            ],
            max_width=60,
        )
        footer = (
            f"fused: {self.single_speedup:.2f}x legacy · "
            f"batched: {self.batch_speedup:.2f}x legacy · "
            f"admit: {self.admit_speedup:.2f}x legacy · "
            f"dirty mix: {self.dirty_speedup:.2f}x\n"
            f"equivalence: {self.equivalence_diffs} diff(s) over "
            f"{self.equivalence_records} mixed record(s); floors "
            f"{'met' if self.passed else 'MISSED'} "
            f"(>= {self.min_single_speedup:.1f}x single, "
            f">= {self.min_batch_speedup:.1f}x batched, zero diffs)"
        )
        return f"{header}\n{body}\n{footer}"


def run_validation_bench(
    count: int = 2000,
    batch_size: int = 128,
    dirty_fraction: float = 0.25,
    equivalence_count: int = 600,
    seed: int = 23,
    rounds: int = 3,
    min_single_speedup: float = 3.0,
    min_batch_speedup: float = 5.0,
    json_path=None,
) -> ValidationBenchResult:
    """Measure the compiled validation pipeline against its legacy oracle.

    The workload is the paper's own: the EasyChair review form's full
    validator chain (completeness over all ten fields plus precision over
    the five scored fields), compiled once into a fused plan.  Five paths
    run over the identical ``count`` prebound clean records, best-of-
    ``rounds`` with rounds interleaved:

    1. **validate legacy** — the per-record interpreted walk;
    2. **validate fused** — the fused ``findings()`` fast path;
    3. **validate fused batch** — vectorized ``check_batch`` in prebound
       chunks of ``batch_size`` (per-op latencies amortized per chunk);
    4. **admit fused** — the fail-fast boolean admission;
    5. a **dirty mix** pair (``dirty_fraction`` defective records) rides
       along informationally — defective records take the exact slow
       lane, so this bounds the worst-case margin.

    The equivalence sweep then replays ``equivalence_count`` mixed
    clean/defective payloads — bound, raw (unbound layouts), and a few
    adversarial shapes — through both paths, single and batched, and
    counts behavioural diffs; the floor is zero.

    ``json_path`` additionally writes ``BENCH_validate.json``.
    """
    from repro.casestudy import easychair
    from repro.runtime.vpipeline import PlanCache

    app = easychair.build_app()
    generator = LoadGenerator(seed=seed)
    spec = generator.spec
    form = app.form(spec.form)
    cache = PlanCache()
    form.use_plan_cache(cache)
    plan = form.compiled_plan()
    legacy = form._validate_legacy

    # Warm the cache the way a sharded gateway does: every shard's
    # replica of the form resolves the same structural signature through
    # the one shared cache — a single compile (the miss above), hits
    # thereafter.  The bench measures that steady state, so the reported
    # profile must show the hits, not a perpetually cold hits-0 cache.
    for _ in range(3):
        replica = easychair.build_app().form(spec.form)
        replica.use_plan_cache(cache)
        if replica.compiled_plan() is not plan:  # pragma: no cover
            raise AssertionError("shared plan cache returned a new plan")

    rng = random.Random(seed)
    clean = [form.bind(spec.clean_payload(rng)) for _ in range(count)]
    mixed = [
        form.bind(
            spec.defective_payload(rng)
            if rng.random() < dirty_fraction
            else spec.clean_payload(rng)
        )
        for _ in range(count)
    ]

    def legacy_pass(records, name) -> HotpathRow:
        elapsed, samples = _timed_loop(
            [(lambda r=r: legacy(r)) for r in records]
        )
        return HotpathRow(name, len(records), elapsed, samples)

    def fused_pass(records, name) -> HotpathRow:
        findings = plan.findings
        elapsed, samples = _timed_loop(
            [(lambda r=r: findings(r)) for r in records]
        )
        return HotpathRow(name, len(records), elapsed, samples)

    def batch_pass() -> HotpathRow:
        check_batch = plan.check_batch
        samples = []
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for begin in range(0, count, batch_size):
                chunk = clean[begin:begin + batch_size]
                began = time.perf_counter()
                check_batch(chunk, True)
                per_op = (time.perf_counter() - began) / len(chunk)
                samples.extend([per_op] * len(chunk))
            elapsed = time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()
        return HotpathRow("validate fused batch", count, elapsed, samples)

    def admit_pass() -> HotpathRow:
        admit = plan.admit
        elapsed, samples = _timed_loop(
            [(lambda r=r: admit(r)) for r in clean]
        )
        return HotpathRow("admit fused", count, elapsed, samples)

    rows = _best_of(
        [
            lambda: legacy_pass(clean, "validate legacy"),
            lambda: fused_pass(clean, "validate fused"),
            batch_pass,
            admit_pass,
            lambda: legacy_pass(mixed, "validate legacy dirty mix"),
            lambda: fused_pass(mixed, "validate fused dirty mix"),
        ],
        rounds,
    )

    # -- zero-behavioural-diff sweep: fused must equal legacy exactly ----
    eq_rng = random.Random(seed + 1)
    sweep: list[dict] = []
    for _ in range(equivalence_count):
        payload = (
            spec.defective_payload(eq_rng)
            if eq_rng.random() < 0.5
            else spec.clean_payload(eq_rng)
        )
        # alternate bound records (the fast layout) with raw payloads
        # (extra/missing keys — the layout guard must reroute these)
        sweep.append(form.bind(payload) if eq_rng.random() < 0.5 else payload)
    sweep.extend([
        {},  # everything missing
        {"overall_evaluation": "not-a-number", "unknown_key": object()},
        {field: "" for field in form.fields},  # all blank strings
        {field: 2.5 for field in form.fields},  # floats take the slow lane
        dict(reversed(list(form.bind(spec.clean_payload(eq_rng)).items()))),
    ])
    diffs = 0
    for record in sweep:
        if plan.findings(record) != legacy(record):
            diffs += 1  # pragma: no cover - would be a compiler bug
    batched = plan.check_batch(sweep)
    for per_batch, record in zip(batched, sweep):
        if per_batch != legacy(record):
            diffs += 1  # pragma: no cover - would be a compiler bug
        if plan.admit(record) != (not legacy(record)):
            diffs += 1  # pragma: no cover - would be a compiler bug

    result = ValidationBenchResult(
        seed=seed,
        count=count,
        rows=rows,
        equivalence_records=len(sweep),
        equivalence_diffs=diffs,
        plan_cache=cache.stats(),
        signature=plan.digest,
        min_single_speedup=min_single_speedup,
        min_batch_speedup=min_batch_speedup,
    )
    if json_path is not None:
        result.write_json(json_path)
    return result


# ---------------------------------------------------------------------------
# DQ telemetry bench: streaming accumulators vs the full-rescan oracle
# ---------------------------------------------------------------------------


@dataclass
class DQTelemetryBenchResult:
    """Streaming-telemetry measurements plus the zero-diff equivalence sweep.

    The floors are the incremental-telemetry acceptance numbers: a live
    cluster scorecard read at least ``min_read_speedup`` x the full
    rescan at ``records`` preloaded records, the telemetry-on write path
    within ``max_write_overhead`` of telemetry-off, and **zero**
    score/suggestion diffs between the live accumulators and the rescan
    oracle across the seeded EasyChair create/reject/modify/delete
    sweep.  The profiler-suggestion rows are informational.
    """

    seed: int
    shard_count: int
    records: int
    write_records: int
    rows: list
    equivalence_checks: int
    equivalence_diffs: int
    telemetry: dict
    min_read_speedup: float = 10.0
    max_write_overhead: float = 0.10

    def _row(self, name: str) -> HotpathRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    @property
    def read_speedup(self) -> float:
        """Live cluster scorecard over the full rescan."""
        base = self._row("scorecard rescan").ops_per_second
        return (
            self._row("scorecard live").ops_per_second / base if base else 0.0
        )

    @property
    def suggest_speedup(self) -> float:
        """Live profiler suggestions over the rescan profiler
        (informational)."""
        base = self._row("suggest rescan").ops_per_second
        return (
            self._row("suggest live").ops_per_second / base if base else 0.0
        )

    @property
    def write_overhead(self) -> float:
        """Relative write-path cost of keeping the accumulators fresh:
        0.04 means telemetry-on writes ran 4% slower than telemetry-off."""
        on = self._row("write telemetry on").ops_per_second
        if not on:
            return float("inf")
        return self._row("write telemetry off").ops_per_second / on - 1.0

    def floor_failures(self) -> list:
        failures = []
        if self.read_speedup < self.min_read_speedup:
            failures.append(
                f"live scorecard {self.read_speedup:.2f}x < "
                f"{self.min_read_speedup:.1f}x rescan "
                f"at {self.records} record(s)"
            )
        if self.write_overhead > self.max_write_overhead:
            failures.append(
                f"telemetry write overhead {self.write_overhead:.1%} > "
                f"{self.max_write_overhead:.0%}"
            )
        if self.equivalence_diffs:
            failures.append(
                f"{self.equivalence_diffs} live-vs-rescan diff(s) over "
                f"{self.equivalence_checks} equivalence check(s)"
            )
        return failures

    @property
    def passed(self) -> bool:
        return not self.floor_failures()

    def as_dict(self) -> dict:
        return {
            "benchmark": "dqtelemetry",
            "seed": self.seed,
            "shard_count": self.shard_count,
            "records": self.records,
            "write_records": self.write_records,
            "rows": [row.as_dict() for row in self.rows],
            "speedups": {
                "scorecard_live_vs_rescan": round(self.read_speedup, 2),
                "suggest_live_vs_rescan": round(self.suggest_speedup, 2),
            },
            "write_overhead": round(self.write_overhead, 4),
            "floors": {
                "min_read_speedup": self.min_read_speedup,
                "max_write_overhead": self.max_write_overhead,
                "max_equivalence_diffs": 0,
                "met": self.passed,
            },
            "equivalence": {
                "checks": self.equivalence_checks,
                "diffs": self.equivalence_diffs,
            },
            "telemetry": dict(self.telemetry),
        }

    def write_json(self, path) -> None:
        """Emit the machine-readable report (``BENCH_dqtelemetry.json``)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        header = (
            f"dq telemetry bench — EasyChair entity, "
            f"{self.records} record(s) preloaded over "
            f"{self.shard_count} shard(s), seed {self.seed}"
        )
        body = render_table(
            ["Path", "Ops", "Ops/s", "p50 µs", "p99 µs"],
            [
                [
                    row.name,
                    str(row.operations),
                    f"{row.ops_per_second:,.0f}",
                    f"{row.p50_us}",
                    f"{row.p99_us}",
                ]
                for row in self.rows
            ],
            max_width=60,
        )
        footer = (
            f"scorecard: {self.read_speedup:.1f}x rescan · "
            f"suggest: {self.suggest_speedup:.1f}x rescan · "
            f"write overhead: {self.write_overhead:+.1%}\n"
            f"equivalence: {self.equivalence_diffs} diff(s) over "
            f"{self.equivalence_checks} check(s); floors "
            f"{'met' if self.passed else 'MISSED'} "
            f"(>= {self.min_read_speedup:.0f}x read, "
            f"<= {self.max_write_overhead:.0%} write overhead, zero diffs)"
        )
        return f"{header}\n{body}\n{footer}"


def _scorecard_diffs(oracle_lines, live_lines) -> int:
    """Count disagreements between two score-line lists under the
    documented tolerance: Precision/Traceability/Confidentiality and all
    evidence strings must match exactly, Completeness/Currentness to
    float tolerance."""
    from repro.dq.streaming import scores_close

    exact = {"Precision", "Traceability", "Confidentiality"}
    diffs = 0
    if live_lines is None or len(oracle_lines) != len(live_lines):
        return 1
    for oracle, live in zip(oracle_lines, live_lines):
        if (
            oracle.characteristic != live.characteristic
            or oracle.evidence != live.evidence
        ):
            diffs += 1
        elif oracle.characteristic in exact:
            if oracle.score != live.score:
                diffs += 1
        elif not scores_close(oracle.score, live.score):
            diffs += 1
    return diffs


def run_dqtelemetry_bench(
    shard_count: int = 4,
    records: int = 50_000,
    write_records: int = 10_000,
    live_reads: int = 200,
    rescan_reads: int = 5,
    suggest_reads: int = 50,
    equivalence_ops: int = 400,
    seed: int = 23,
    rounds: int = 2,
    min_read_speedup: float = 10.0,
    max_write_overhead: float = 0.10,
    json_path=None,
) -> DQTelemetryBenchResult:
    """Measure streaming DQ telemetry against the full-rescan oracle.

    Three phases, all over the EasyChair review workload:

    1. **Write overhead** — ``write_records`` identical payloads go
       through two fresh gateways via ``submit_many`` (per-shard
       coalescing), one with the accumulators live, one with telemetry
       disabled, best-of-``rounds`` interleaved.  Floor: the telemetry
       gateway keeps within ``max_write_overhead`` of the other.
    2. **Reads at scale** — one gateway preloaded with ``records``
       records answers ``live_reads`` cluster scorecards from merged
       accumulator snapshots and ``rescan_reads`` from the O(records)
       rescan twin.  Floor: live at least ``min_read_speedup`` x rescan.
       Live vs rescan profiler suggestions ride along informationally.
    3. **Equivalence sweep** — a fresh small gateway replays
       ``equivalence_ops`` seeded operations (batched clean creates,
       DQ-rejected defectives, direct store modifies and deletes) and
       after every burst compares live vs rescan score lines, overall
       score, and profiler suggestions.  Floor: zero diffs.

    ``json_path`` additionally writes ``BENCH_dqtelemetry.json``.
    """
    from repro.casestudy import easychair
    from repro.dq.metrics import Measurement, weighted_score
    from repro.dq.profiling import DataProfiler
    from repro.dq.streaming import LiveProfile

    generator = LoadGenerator(seed=seed)
    spec = generator.spec
    writer = spec.cleared_users[0]
    design_model = easychair.build_design()
    rng = random.Random(seed)
    rows: list[HotpathRow] = []

    def fresh_gateway() -> ShardedGateway:
        return ShardedGateway.from_design(
            design_model, shard_count=shard_count, users=easychair.USERS,
            cache_capacity=0, max_queue_depth=4096, workers=shard_count,
        )

    def drive_writes(gateway, payloads) -> HotpathRow:
        client_batch = max(1, gateway.write_batch_max) * shard_count
        samples = []
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for begin in range(0, len(payloads), client_batch):
                group = payloads[begin:begin + client_batch]
                began = time.perf_counter()
                responses = gateway.submit_many(spec.form, group, writer)
                per_op = (time.perf_counter() - began) / len(group)
                samples.extend([per_op] * len(group))
                for response in responses:
                    if response.status != 201:  # pragma: no cover
                        raise RuntimeError(
                            f"bench write failed: {response.status}"
                        )
            elapsed = time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()
        return HotpathRow("write", len(payloads), elapsed, samples)

    # -- 1. write-path overhead: telemetry on vs off ---------------------
    write_payloads = [spec.clean_payload(rng) for _ in range(write_records)]

    # One throwaway pass warms every code path (allocator arenas, method
    # caches, lazy imports) so first-touch costs do not land entirely on
    # whichever measured pass happens to run first.
    warmup_gateway = fresh_gateway()
    try:
        drive_writes(warmup_gateway, write_payloads[:512])
    finally:
        warmup_gateway.close()

    def write_pass(telemetry_on: bool) -> HotpathRow:
        gateway = fresh_gateway()
        try:
            if not telemetry_on:
                for shard in gateway.shards:
                    shard.store.set_telemetry(False)
            row = drive_writes(gateway, write_payloads)
            row.name = (
                "write telemetry on" if telemetry_on
                else "write telemetry off"
            )
            return row
        finally:
            gateway.close()

    rows.extend(_best_of(
        [lambda: write_pass(True), lambda: write_pass(False)], rounds
    ))

    # -- 2. live vs rescan reads at scale --------------------------------
    read_payloads = [spec.clean_payload(rng) for _ in range(records)]
    gateway = fresh_gateway()
    try:
        drive_writes(gateway, read_payloads)
        fields = easychair.ALL_REVIEW_FIELDS
        bounds = easychair.SCORE_BOUNDS
        entity = spec.entity

        def live_pass() -> HotpathRow:
            elapsed, samples = _timed_loop([
                (lambda: gateway.live_scorecard(
                    entity, fields, bounds, max_age=records
                ))
            ] * live_reads)
            return HotpathRow("scorecard live", live_reads, elapsed, samples)

        def rescan_pass() -> HotpathRow:
            elapsed, samples = _timed_loop([
                (lambda: gateway.rescan_scorecard(
                    entity, fields, bounds, max_age=records
                ))
            ] * rescan_reads)
            return HotpathRow(
                "scorecard rescan", rescan_reads, elapsed, samples
            )

        def suggest_live_pass() -> HotpathRow:
            elapsed, samples = _timed_loop([
                (lambda: LiveProfile(gateway.dq_telemetry(entity)).suggest())
            ] * suggest_reads)
            return HotpathRow("suggest live", suggest_reads, elapsed, samples)

        def suggest_rescan_pass() -> HotpathRow:
            def rescan_suggest():
                profiler = DataProfiler()
                for shard in gateway.shards:
                    profiler.add_records(
                        stored.data
                        for stored in shard.store.entity(entity).all()
                    )
                return profiler.suggest()

            elapsed, samples = _timed_loop([rescan_suggest] * 2)
            return HotpathRow("suggest rescan", 2, elapsed, samples)

        rows.extend(_best_of(
            [live_pass, rescan_pass, suggest_live_pass, suggest_rescan_pass],
            rounds,
        ))

        # the at-scale readings must agree before speed means anything
        equivalence_checks = 1
        equivalence_diffs = _scorecard_diffs(
            gateway.rescan_scorecard(entity, fields, bounds, max_age=records),
            gateway.live_scorecard(entity, fields, bounds, max_age=records),
        )
        telemetry_stats = gateway.telemetry_stats()
    finally:
        gateway.close()

    # -- 3. seeded equivalence sweep: creates / rejects / modifies /
    #       deletes, live == rescan after every burst -------------------
    sweep_rng = random.Random(seed + 7)
    gateway = fresh_gateway()
    try:
        entity = spec.entity
        fields = easychair.ALL_REVIEW_FIELDS
        bounds = easychair.SCORE_BOUNDS
        live_ids: list[tuple[int, int]] = []  # (shard_index, record_id)
        applied = 0
        while applied < equivalence_ops:
            burst = min(equivalence_ops - applied, 40)
            payloads = [
                spec.defective_payload(sweep_rng)
                if sweep_rng.random() < 0.25
                else spec.clean_payload(sweep_rng)
                for _ in range(burst)
            ]
            responses = gateway.submit_many(spec.form, payloads, writer)
            for response in responses:
                if response.status == 201:
                    live_ids.append(
                        (response.body["shard"], response.body["id"])
                    )
            applied += burst
            # a few direct modifies and deletes against random shards:
            # the paths submit_many never exercises
            sweep_rng.shuffle(live_ids)
            for _ in range(min(6, len(live_ids) // 4)):
                shard_index, record_id = live_ids.pop()
                shard = gateway.shards[shard_index]
                if sweep_rng.random() < 0.5:
                    shard.store.modify(
                        entity, record_id,
                        {"overall_evaluation": sweep_rng.randint(-3, 3)},
                        writer,
                    )
                    live_ids.insert(0, (shard_index, record_id))
                else:
                    shard.store.entity(entity).delete(record_id)
            max_age = max(1, sweep_rng.randrange(50, 500))
            oracle_lines = gateway.rescan_scorecard(
                entity, fields, bounds, max_age=max_age
            )
            live_lines = gateway.live_scorecard(
                entity, fields, bounds, max_age=max_age
            )
            equivalence_checks += 1
            equivalence_diffs += _scorecard_diffs(oracle_lines, live_lines)
            if live_lines is not None:
                oracle_overall = weighted_score([
                    Measurement(line.characteristic, line.score)
                    for line in oracle_lines
                ])
                live_overall = weighted_score([
                    Measurement(line.characteristic, line.score)
                    for line in live_lines
                ])
                from repro.dq.streaming import scores_close

                equivalence_checks += 1
                if not scores_close(oracle_overall, live_overall):
                    equivalence_diffs += 1
            profiler = DataProfiler()
            for shard in gateway.shards:
                profiler.add_records(
                    stored.data
                    for stored in shard.store.entity(entity).all()
                )
            live_suggestions = LiveProfile(
                gateway.dq_telemetry(entity)
            ).suggest()
            equivalence_checks += 1
            if profiler.suggest() != live_suggestions:
                equivalence_diffs += 1
    finally:
        gateway.close()

    result = DQTelemetryBenchResult(
        seed=seed,
        shard_count=shard_count,
        records=records,
        write_records=write_records,
        rows=rows,
        equivalence_checks=equivalence_checks,
        equivalence_diffs=equivalence_diffs,
        telemetry=telemetry_stats,
        min_read_speedup=min_read_speedup,
        max_write_overhead=max_write_overhead,
    )
    if json_path is not None:
        result.write_json(json_path)
    return result


# ---------------------------------------------------------------------------
# Columnar bench: spine sweeps, zone maps, column absorption vs row oracles
# ---------------------------------------------------------------------------


@dataclass
class ColumnarBenchResult:
    """Columnar-spine measurements plus the row-oracle equivalence sweeps.

    The floors are the columnar-refactor acceptance numbers: the
    store-resident DQ sweep (:meth:`EntityStore.revalidate` down the
    column spine with warm zone maps) at least ``min_sweep_speedup`` x
    the row-oriented ``check_batch`` oracle over the same records,
    telemetry column absorption at least ``min_absorb_speedup`` x the
    row walk, the cold sweep (first sweep after a mutation — the
    incremental zone-map/buffer maintenance means no rebuild) at least
    ``min_cold_sweep_speedup`` x, the column equality scan at least
    ``min_scan_speedup`` x the dict scan, **zero** equivalence diffs
    against every retained row oracle (sweep vs ``check_batch``,
    column/indexed ``find_by`` vs the predicate scan,
    ``readable_snapshots`` vs ``select_snapshots``, column vs row
    absorption state), and **zero** state diffs across the WAL
    kill-recover drill and the same-seed chaos/topology reruns
    (``capture_state`` and the cluster checksums must be byte-equal).
    The absorb and scan floors are mode-aware (``kernels["mode"]``):
    the numpy lanes carry higher floors than the stdlib fallback.
    """

    seed: int
    records: int
    rows: list
    equivalence_checks: int
    equivalence_diffs: int
    state_checks: int
    state_diffs: int
    zone_maps: dict
    kernels: dict = field(default_factory=dict)
    min_sweep_speedup: float = 2.0
    min_absorb_speedup: float = 2.0
    min_cold_sweep_speedup: float = 1.0
    min_scan_speedup: float = 1.0

    def _row(self, name: str) -> HotpathRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def _speedup(self, fast: str, slow: str) -> float:
        base = self._row(slow).ops_per_second
        return self._row(fast).ops_per_second / base if base else 0.0

    @property
    def sweep_speedup(self) -> float:
        """Warm columnar sweep over the row ``check_batch`` oracle."""
        return self._speedup("columnar sweep (warm)", "row sweep (oracle)")

    @property
    def cold_sweep_speedup(self) -> float:
        """First sweep after a mutation — the kernels are maintained
        incrementally at write time, so no rebuild happens here."""
        return self._speedup("columnar sweep (cold)", "row sweep (oracle)")

    @property
    def absorb_speedup(self) -> float:
        """Column absorption over the row-walk oracle."""
        return self._speedup(
            "telemetry absorb columns", "telemetry absorb rows"
        )

    @property
    def lookup_speedup(self) -> float:
        """Column equality scan over the dict scan."""
        return self._speedup("lookup column scan", "lookup dict scan")

    def floor_failures(self) -> list:
        failures = []
        if self.sweep_speedup < self.min_sweep_speedup:
            failures.append(
                f"columnar sweep {self.sweep_speedup:.2f}x < "
                f"{self.min_sweep_speedup:.1f}x row oracle"
            )
        if self.cold_sweep_speedup < self.min_cold_sweep_speedup:
            failures.append(
                f"cold columnar sweep {self.cold_sweep_speedup:.2f}x < "
                f"{self.min_cold_sweep_speedup:.1f}x row oracle"
            )
        if self.absorb_speedup < self.min_absorb_speedup:
            failures.append(
                f"column absorption {self.absorb_speedup:.2f}x < "
                f"{self.min_absorb_speedup:.1f}x row walk"
            )
        if self.lookup_speedup < self.min_scan_speedup:
            failures.append(
                f"column scan {self.lookup_speedup:.2f}x < "
                f"{self.min_scan_speedup:.1f}x dict scan"
            )
        if self.equivalence_diffs:
            failures.append(
                f"{self.equivalence_diffs} columnar-vs-row-oracle diff(s) "
                f"over {self.equivalence_checks} check(s)"
            )
        if self.state_diffs:
            failures.append(
                f"{self.state_diffs} state diff(s) over "
                f"{self.state_checks} recovery/determinism drill(s)"
            )
        return failures

    @property
    def passed(self) -> bool:
        return not self.floor_failures()

    def as_dict(self) -> dict:
        return {
            "benchmark": "columnar",
            "seed": self.seed,
            "records": self.records,
            "rows": [row.as_dict() for row in self.rows],
            "speedups": {
                "columnar_sweep_warm_vs_row_oracle": round(
                    self.sweep_speedup, 2
                ),
                "columnar_sweep_cold_vs_row_oracle": round(
                    self.cold_sweep_speedup, 2
                ),
                "column_absorb_vs_row_walk": round(self.absorb_speedup, 2),
                "column_scan_vs_dict_scan": round(self.lookup_speedup, 2),
            },
            "floors": {
                "min_sweep_speedup": self.min_sweep_speedup,
                "min_cold_sweep_speedup": self.min_cold_sweep_speedup,
                "min_absorb_speedup": self.min_absorb_speedup,
                "min_scan_speedup": self.min_scan_speedup,
                "max_equivalence_diffs": 0,
                "max_state_diffs": 0,
                "met": self.passed,
            },
            "equivalence": {
                "checks": self.equivalence_checks,
                "diffs": self.equivalence_diffs,
            },
            "state": {
                "checks": self.state_checks,
                "diffs": self.state_diffs,
            },
            "zone_maps": self.zone_maps,
            "kernels": self.kernels,
        }

    def write_json(self, path) -> None:
        """Emit the machine-readable report (``BENCH_columnar.json``)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        header = (
            f"columnar spine bench — EasyChair review entity, "
            f"{self.records} record(s), seed {self.seed}"
        )
        body = render_table(
            ["Path", "Ops", "Ops/s", "p50 µs", "p99 µs"],
            [
                [
                    row.name,
                    str(row.operations),
                    f"{row.ops_per_second:,.0f}",
                    f"{row.p50_us}",
                    f"{row.p99_us}",
                ]
                for row in self.rows
            ],
            max_width=60,
        )
        mode = self.kernels.get("mode", "list")
        promoted = self.kernels.get("promotions", 0)
        footer = (
            f"kernels: {mode} ({promoted} column(s) promoted, "
            f"{self.kernels.get('demotions', 0)} demotion(s))\n"
            f"sweep: {self.sweep_speedup:.2f}x row oracle (cold "
            f"{self.cold_sweep_speedup:.2f}x) · absorb: "
            f"{self.absorb_speedup:.2f}x row walk · column scan: "
            f"{self.lookup_speedup:.2f}x dict scan\n"
            f"equivalence: {self.equivalence_diffs} diff(s) over "
            f"{self.equivalence_checks} check(s) · state: "
            f"{self.state_diffs} diff(s) over {self.state_checks} "
            f"drill(s); floors {'met' if self.passed else 'MISSED'} "
            f"(>= {self.min_sweep_speedup:.1f}x sweep, cold >= "
            f"{self.min_cold_sweep_speedup:.1f}x, absorb >= "
            f"{self.min_absorb_speedup:.1f}x, scan >= "
            f"{self.min_scan_speedup:.1f}x, zero diffs)"
        )
        return f"{header}\n{body}\n{footer}"


def run_columnar_bench(
    records: int = 4_000,
    seed: int = 23,
    rounds: int = 3,
    min_sweep_speedup: float = 2.0,
    min_absorb_speedup: Optional[float] = None,
    min_cold_sweep_speedup: float = 1.0,
    min_scan_speedup: Optional[float] = None,
    drills: bool = True,
    json_path=None,
) -> ColumnarBenchResult:
    """Measure the columnar spine against its retained row oracles.

    Four phases, all over the EasyChair review workload:

    1. **Store-resident DQ sweep** — ``records`` clean bound records go
       into one :class:`EntityStore`; :meth:`EntityStore.revalidate`
       re-runs the compiled plan down the columns (zone maps usually
       prove whole columns clean without touching a cell), against the
       row oracle ``check_batch`` over the same pre-materialized dicts,
       best-of-``rounds``.  Floors: warm sweep at least
       ``min_sweep_speedup`` x, cold sweep (first sweep after a
       mutation) at least ``min_cold_sweep_speedup`` x — the kernels
       are maintained incrementally at write time, so the cold sweep
       no longer pays a zone-map rebuild.  Zero diffs required — also
       checked on a mutated mixed store (defects, updates, deletes,
       tombstones), where the sweep demotes itself to the exact path.
    2. **Telemetry absorption** — the same chunks absorb through the
       column path (``absorb`` transposing layout-uniform chunks) and
       the row walk; both accumulators must report bit-equal stats.
       Floor: ``min_absorb_speedup`` x, zero diffs.
    3. **Column scans** — ``find_by`` (column equality scan, then
       indexed) and ``readable_snapshots`` against their predicate-scan
       oracles: identical results, timing informational.
    4. **State drills** (``drills=True``) — a WAL kill-recover round
       trip must keep ``capture_state`` byte-identical, and same-seed
       :func:`run_chaos` / :func:`run_topology_chaos` reruns must
       reproduce their reports and state checksums exactly.

    ``min_absorb_speedup`` and ``min_scan_speedup`` default by kernel
    mode — the numpy lanes carry 3.0x absorb / 1.5x scan, the stdlib
    fallback 2.0x / 1.0x (``array`` equality has no vector lane, so the
    scan rides the exact ``list.index`` walk there).

    ``json_path`` additionally writes ``BENCH_columnar.json``.
    """
    import os
    import tempfile

    from repro import colkernels

    if min_absorb_speedup is None:
        min_absorb_speedup = 3.0 if colkernels.numpy_active() else 2.0
    if min_scan_speedup is None:
        min_scan_speedup = 1.5 if colkernels.numpy_active() else 1.0

    from repro.casestudy import easychair
    from repro.dq.metadata import Clock
    from repro.dq.streaming import EntityAccumulator
    from repro.persistence import (
        FileWALBackend,
        capture_state,
        recover_app,
    )
    from repro.runtime.dqengine import build_app as build_design_app
    from repro.runtime.storage import ContentStore, EntityStore
    from repro.runtime.vpipeline import PlanCache

    generator = LoadGenerator(seed=seed)
    spec = generator.spec
    app = easychair.build_app()
    form = app.form(spec.form)
    cache = PlanCache()
    form.use_plan_cache(cache)
    plan = form.compiled_plan()

    rng = random.Random(seed)
    bound = [form.bind(spec.clean_payload(rng)) for _ in range(records)]

    store = EntityStore(spec.entity)
    for begin in range(0, records, 512):
        store.insert_many(bound[begin:begin + 512])

    rows: list[HotpathRow] = []
    equivalence_checks = 0
    equivalence_diffs = 0
    state_checks = 0
    state_diffs = 0

    # -- 1. store-resident DQ sweep: spine + zone maps vs row oracle ------
    snapshots = store.all()
    ids = [stored.record_id for stored in snapshots]
    data_rows = [stored.data for stored in snapshots]

    def cold_pass() -> HotpathRow:
        # one throwaway insert+delete dirties the spine, so this sweep
        # pays whatever post-write kernel work is left (with the
        # incremental maintenance: folding the mutated tail, not a
        # rebuild)
        probe = store.insert({name: None for name in store.fields}
                             if store.fields else dict(data_rows[0]))
        store.delete(probe.record_id)
        elapsed, samples = _timed_loop([lambda: store.revalidate(plan)])
        return HotpathRow("columnar sweep (cold)", records, elapsed, samples)

    def warm_pass() -> HotpathRow:
        store.revalidate(plan)  # memoize the zone maps
        elapsed, samples = _timed_loop([lambda: store.revalidate(plan)])
        return HotpathRow("columnar sweep (warm)", records, elapsed, samples)

    def oracle_pass() -> HotpathRow:
        elapsed, samples = _timed_loop(
            [lambda: plan.check_batch(data_rows, False)]
        )
        return HotpathRow("row sweep (oracle)", records, elapsed, samples)

    rows.extend(_best_of([cold_pass, warm_pass, oracle_pass], rounds))

    expected = dict(zip(ids, plan.check_batch(data_rows, False)))
    equivalence_checks += 1
    if store.revalidate(plan) != expected:
        equivalence_diffs += 1  # pragma: no cover - columnar bug

    # the mutated mixed store must agree too (defects, updates, deletes,
    # tombstones and the demoted exact path)
    mixed_store = EntityStore(spec.entity)
    mixed = [
        form.bind(
            spec.defective_payload(rng)
            if rng.random() < 0.3
            else spec.clean_payload(rng)
        )
        for _ in range(400)
    ]
    mixed_store.insert_many(mixed)
    mixed_ids = [stored.record_id for stored in mixed_store.all()]
    for record_id in mixed_ids[:40]:
        mixed_store.update(
            record_id, {"overall_evaluation": rng.randint(-3, 3)}
        )
    for record_id in mixed_ids[40:60]:
        mixed_store.delete(record_id)
    survivors = mixed_store.all()
    oracle = dict(zip(
        [stored.record_id for stored in survivors],
        plan.check_batch([stored.data for stored in survivors], False),
    ))
    equivalence_checks += 1
    if mixed_store.revalidate(plan) != oracle:
        equivalence_diffs += 1  # pragma: no cover - columnar bug

    # -- 2. telemetry absorption: column chunks vs the row walk -----------
    # The column side absorbs exactly what the production write path
    # captures: ``observe_inserted`` emits per-column spine slices
    # (``cols`` ops — no absorb-side transpose) for chunks that landed
    # contiguously, which these did.  The row walk absorbs the same
    # chunks as ``(id, data, metadata)`` triples.
    chunk = 256
    store.pending_telemetry_ops()  # drop anything already queued
    for begin in range(0, records, chunk):
        store.observe_inserted(snapshots[begin:begin + chunk])
    ops = store.pending_telemetry_ops()
    row_chunks = [
        [
            (stored.record_id, stored.data, stored.metadata)
            for stored in snapshots[begin:begin + chunk]
        ]
        for begin in range(0, records, chunk)
    ]

    def absorb_columns_pass() -> HotpathRow:
        accumulator = EntityAccumulator(spec.entity)
        elapsed, samples = _timed_loop([lambda: accumulator.absorb(ops)])
        return HotpathRow(
            "telemetry absorb columns", records, elapsed, samples
        )

    def absorb_rows_pass() -> HotpathRow:
        accumulator = EntityAccumulator(spec.entity)

        def walk():
            for triples in row_chunks:
                accumulator.observe_rows(triples)

        elapsed, samples = _timed_loop([walk])
        return HotpathRow("telemetry absorb rows", records, elapsed, samples)

    rows.extend(_best_of([absorb_columns_pass, absorb_rows_pass], rounds))

    column_acc = EntityAccumulator(spec.entity)
    column_acc.absorb(ops)
    row_acc = EntityAccumulator(spec.entity)
    for triples in row_chunks:
        row_acc.observe_rows(triples)
    equivalence_checks += 1
    if column_acc.stats() != row_acc.stats():
        equivalence_diffs += 1  # pragma: no cover - absorption bug

    # -- 3. column scans and confidentiality reads vs their oracles -------
    lookup_field = "overall_evaluation"
    # Domain-audit shape: probe every score across twice the live
    # range — the classic DQ bounds sweep phrased as equality lookups.
    # Present scores pay the match materialization on both sides; the
    # absent majority is where the zone map earns its keep — the
    # column scan answers those without touching a single cell while
    # the dict scan still walks every record.
    probes = list(range(-10, 11))
    lookups = probes * max(1, 60 // len(probes))

    def dict_scan_pass() -> HotpathRow:
        elapsed, samples = _timed_loop([
            (lambda s=s: store.query(
                lambda data, score=s: data.get(lookup_field) == score
            ))
            for s in lookups
        ])
        return HotpathRow("lookup dict scan", len(lookups), elapsed, samples)

    def column_scan_pass() -> HotpathRow:
        elapsed, samples = _timed_loop([
            (lambda s=s: store.find_by(lookup_field, s)) for s in lookups
        ])
        return HotpathRow(
            "lookup column scan", len(lookups), elapsed, samples
        )

    rows.extend(_best_of([dict_scan_pass, column_scan_pass], rounds))

    for score in probes:
        scanned = sorted(
            record.record_id
            for record in store.query(
                lambda data, s=score: data.get(lookup_field) == s
            )
        )
        by_column = sorted(
            record.record_id
            for record in store.find_by(lookup_field, score)
        )
        equivalence_checks += 1
        if by_column != scanned:
            equivalence_diffs += 1  # pragma: no cover - scan bug
    store.create_index(lookup_field)
    for score in probes:
        indexed = sorted(
            record.record_id
            for record in store.find_by(lookup_field, score)
        )
        scanned = sorted(
            record.record_id
            for record in store.query(
                lambda data, s=score: data.get(lookup_field) == s
            )
        )
        equivalence_checks += 1
        if indexed != scanned:
            equivalence_diffs += 1  # pragma: no cover - index bug

    content = ContentStore(Clock())
    content.define(spec.entity)
    conf_rng = random.Random(seed + 7)
    for payload in bound[:300]:
        content.store(
            spec.entity, payload, "ada",
            security_level=conf_rng.randint(0, 2),
            available_to=(("eve",) if conf_rng.random() < 0.2 else ()),
        )
    conf_store = content.entity(spec.entity)
    for user, level in (("ada", 2), ("bob", 1), ("eve", 0)):
        via_index = sorted(
            record.record_id
            for record in conf_store.readable_snapshots(user, level)
        )
        via_scan = sorted(
            record.record_id
            for record in conf_store.select_snapshots(
                lambda s, u=user, l=level: s.metadata.accessible_by(u, l)
            )
        )
        equivalence_checks += 1
        if via_index != via_scan:
            equivalence_diffs += 1  # pragma: no cover - confidentiality bug

    zone_maps = store.columnar_stats()
    kernels = zone_maps.pop("kernels")

    # -- 4. state drills: WAL round trip and same-seed determinism --------
    if drills:
        from .resilience import run_chaos
        from .topology import run_topology_chaos

        design_model = easychair.build_design()
        writer = spec.cleared_users[0]
        with tempfile.TemporaryDirectory(prefix="repro-columnar-") as root:

            def durable_app(backend):
                durable = build_design_app(
                    design_model, persistence=backend
                )
                for name, level, roles in easychair.USERS:
                    durable.add_user(name, level, roles)
                return durable

            backend = FileWALBackend(os.path.join(root, "wal"))
            drill_app = durable_app(backend)
            drill_payloads = [spec.clean_payload(rng) for _ in range(600)]
            stored_ids: list[int] = []
            for begin in range(0, len(drill_payloads), 256):
                batch = drill_app.submit_batch(
                    spec.form, drill_payloads[begin:begin + 256], writer
                )
                if batch.rejected or batch.unauthorized:  # pragma: no cover
                    raise RuntimeError("columnar drill preload must land")
                stored_ids.extend(
                    record_id for _index, record_id in batch.accepted
                )
            for record_id in stored_ids[:24]:
                drill_app.store.modify(
                    spec.entity, record_id,
                    {"overall_evaluation": rng.randint(-3, 3)}, writer,
                )
            for record_id in stored_ids[-12:]:
                drill_app.store.entity(spec.entity).delete(record_id)
            drill_app.commit()
            oracle_state = capture_state(drill_app)
            backend.kill()

            recovered_backend = FileWALBackend(os.path.join(root, "wal"))
            recovered = durable_app(recovered_backend)
            recover_app(recovered, recovered_backend)
            state_checks += 1
            if capture_state(recovered) != oracle_state:
                state_diffs += 1  # pragma: no cover - recovery bug
            recovered_backend.kill()

        first = run_chaos(seed, shard_count=2, count=120, preload=12)
        second = run_chaos(seed, shard_count=2, count=120, preload=12)
        state_checks += 1
        if first.render() != second.render():
            state_diffs += 1  # pragma: no cover - determinism bug

        topology_a = run_topology_chaos(
            seed, shard_count=3, count=120, preload=12
        )
        topology_b = run_topology_chaos(
            seed, shard_count=3, count=120, preload=12
        )
        state_checks += 1
        if topology_a.checksum != topology_b.checksum:
            state_diffs += 1  # pragma: no cover - determinism bug

    result = ColumnarBenchResult(
        seed=seed,
        records=records,
        rows=rows,
        equivalence_checks=equivalence_checks,
        equivalence_diffs=equivalence_diffs,
        state_checks=state_checks,
        state_diffs=state_diffs,
        zone_maps=zone_maps,
        kernels=kernels,
        min_sweep_speedup=min_sweep_speedup,
        min_absorb_speedup=min_absorb_speedup,
        min_cold_sweep_speedup=min_cold_sweep_speedup,
        min_scan_speedup=min_scan_speedup,
    )
    if json_path is not None:
        result.write_json(json_path)
    return result


# ---------------------------------------------------------------------------
# Durability bench: WAL write overhead, recovery time, post-recovery oracle
# ---------------------------------------------------------------------------


@dataclass
class DurabilityBenchResult:
    """Durable-backend measurements plus the post-recovery oracle sweep.

    The floors are the persistence-subsystem acceptance numbers: the
    WAL-backed write path within ``max_write_overhead`` of the pure
    in-memory gateway, a crash recovery of ``records`` records within
    ``max(0.5, recovery_budget_per_100k * records / 100_000)`` seconds,
    **zero** post-recovery oracle diffs (recovered state byte-identical
    to the pre-crash capture, rebuilt field indexes agreeing with the
    predicate-scan oracle), and a seeded kill-restart chaos storm that
    passes the full DQ-guarantee verifier.
    """

    seed: int
    shard_count: int
    backend: str
    records: int
    write_records: int
    rows: list
    oracle_checks: int
    oracle_diffs: int
    recovery: dict
    storm: dict
    backend_stats: dict
    max_write_overhead: float = 0.25
    recovery_budget_per_100k: float = 5.0

    def _row(self, name: str) -> HotpathRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    @property
    def write_overhead(self) -> float:
        """Relative write-path cost of the durable backend: 0.10 means
        WAL-backed writes ran 10% slower than the in-memory gateway."""
        durable = self._row(f"write {self.backend} backend").ops_per_second
        if not durable:
            return float("inf")
        memory = self._row("write memory backend").ops_per_second
        return memory / durable - 1.0

    @property
    def recovery_seconds(self) -> float:
        """Wall-clock of the best timed snapshot+WAL replay."""
        return self._row(f"recover {self.backend}").elapsed

    @property
    def recovery_budget(self) -> float:
        """The scaled recovery floor (never below half a second — tiny
        data sets would otherwise demand sub-scheduler-tick recovery)."""
        return max(
            0.5, self.recovery_budget_per_100k * self.records / 100_000
        )

    def floor_failures(self) -> list:
        """Every missed acceptance floor, as human-readable strings."""
        failures = []
        if self.write_overhead > self.max_write_overhead:
            failures.append(
                f"{self.backend} write overhead {self.write_overhead:.1%} > "
                f"{self.max_write_overhead:.0%} of in-memory"
            )
        if self.recovery_seconds > self.recovery_budget:
            failures.append(
                f"recovery of {self.records} record(s) took "
                f"{self.recovery_seconds:.2f}s > "
                f"{self.recovery_budget:.2f}s budget"
            )
        if self.oracle_diffs:
            failures.append(
                f"{self.oracle_diffs} post-recovery oracle diff(s) over "
                f"{self.oracle_checks} check(s)"
            )
        if not self.storm.get("ok", False):
            failures.append(
                f"kill-restart storm: "
                f"{self.storm.get('violations', '?')} guarantee violation(s)"
            )
        if self.storm.get("kills_planned", 0) and not self.storm.get(
            "restarts", 0
        ):
            failures.append(
                "kill-restart storm injected no shard restarts"
            )
        return failures

    @property
    def passed(self) -> bool:
        return not self.floor_failures()

    def as_dict(self) -> dict:
        return {
            "benchmark": "durability",
            "seed": self.seed,
            "shard_count": self.shard_count,
            "backend": self.backend,
            "records": self.records,
            "write_records": self.write_records,
            "rows": [row.as_dict() for row in self.rows],
            "write_overhead": round(self.write_overhead, 4),
            "recovery_seconds": round(self.recovery_seconds, 4),
            "recovery": dict(self.recovery),
            "floors": {
                "max_write_overhead": self.max_write_overhead,
                "recovery_budget_s": round(self.recovery_budget, 3),
                "max_oracle_diffs": 0,
                "storm_ok": True,
                "met": self.passed,
            },
            "oracle": {
                "checks": self.oracle_checks,
                "diffs": self.oracle_diffs,
            },
            "storm": dict(self.storm),
            "backend_stats": dict(self.backend_stats),
        }

    def write_json(self, path) -> None:
        """Emit the machine-readable report (``BENCH_durability.json``)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        header = (
            f"durability bench — {self.backend} backend, "
            f"{self.records} record(s) recovered, "
            f"{self.write_records} write(s) measured, seed {self.seed}"
        )
        body = render_table(
            ["Path", "Ops", "Ops/s", "p50 µs", "p99 µs"],
            [
                [
                    row.name,
                    str(row.operations),
                    f"{row.ops_per_second:,.0f}",
                    f"{row.p50_us}",
                    f"{row.p99_us}",
                ]
                for row in self.rows
            ],
            max_width=60,
        )
        footer = (
            f"write overhead: {self.write_overhead:+.1%} of in-memory · "
            f"recovery: {self.recovery_seconds:.3f}s for "
            f"{self.records} record(s) "
            f"(budget {self.recovery_budget:.2f}s)\n"
            f"oracle: {self.oracle_diffs} diff(s) over "
            f"{self.oracle_checks} check(s) · storm: "
            f"{self.storm.get('restarts', 0)} restart(s), "
            f"{self.storm.get('violations', 0)} violation(s); floors "
            f"{'met' if self.passed else 'MISSED'} "
            f"(<= {self.max_write_overhead:.0%} overhead, "
            f"<= {self.recovery_budget:.2f}s recovery, zero diffs, "
            f"clean storm)"
        )
        return f"{header}\n{body}\n{footer}"


def run_durability_bench(
    shard_count: int = 4,
    records: int = 20_000,
    write_records: int = 8_000,
    backend: str = "file",
    storm_count: int = 300,
    kills: int = 3,
    seed: int = 23,
    rounds: int = 3,
    max_write_overhead: Optional[float] = None,
    recovery_budget_per_100k: float = 5.0,
    json_path=None,
) -> DurabilityBenchResult:
    """Measure the durable backends against the in-memory serving path.

    Three phases, all over the EasyChair review workload:

    1. **Write overhead** — ``write_records`` identical payloads go
       through two fresh gateways via ``submit_many`` (per-shard
       coalescing, group commit per acknowledged batch), one purely
       in-memory, one on the durable ``backend``, best-of-``rounds``
       interleaved with a fresh data directory per durable pass.
       Floor: the durable gateway keeps within ``max_write_overhead``
       of in-memory — by default 25% for the file WAL and 40% for
       sqlite, whose per-commit B-tree insert and WAL-frame checksums
       buy SQL queryability at a small flat cost per acknowledged
       batch.
    2. **Recovery** — one ``WebApp`` on the durable backend is loaded
       with ``records`` records (plus updates and deletes, so the WAL
       replays every op kind), its state captured, the process "killed"
       (the backend abandons its handles), and a fresh app recovered
       from disk, best-of-``rounds``.  Floors: recovery within
       ``max(0.5, recovery_budget_per_100k * records / 100_000)``
       seconds and **zero** oracle diffs — the recovered capture must be
       byte-identical (records, metadata, versions, allocator watermark,
       audit trail) and the rebuilt hash indexes must agree with both
       the pre-crash index and the predicate-scan oracle.
    3. **Kill-restart storm** — one seeded chaos run
       (:func:`run_chaos`) on the durable backend with ``kills`` kill
       faults layered over crashes, latency, drops and duplicates.
       Floor: every DQ guarantee holds and at least one kill actually
       restarted a shard.

    ``json_path`` additionally writes ``BENCH_durability.json``.
    """
    import os
    import tempfile

    from repro.casestudy import easychair
    from repro.persistence import (
        FileWALBackend,
        SQLiteBackend,
        capture_state,
        persistence_factory,
        recover_app,
    )
    from repro.runtime.dqengine import build_app as build_design_app

    from .resilience import run_chaos

    if max_write_overhead is None:
        max_write_overhead = 0.25 if backend == "file" else 0.40
    generator = LoadGenerator(seed=seed)
    spec = generator.spec
    writer = spec.cleared_users[0]
    design_model = easychair.build_design()
    rng = random.Random(seed)
    rows: list[HotpathRow] = []

    with tempfile.TemporaryDirectory(prefix="repro-durability-") as root:
        durable_dirs = iter(range(1_000_000))

        def fresh_gateway(durable: bool) -> ShardedGateway:
            factory = None
            if durable:
                base = os.path.join(
                    root, f"write-pass-{next(durable_dirs)}"
                )
                factory = persistence_factory(base, kind=backend)
            return ShardedGateway.from_design(
                design_model, shard_count=shard_count,
                users=easychair.USERS, cache_capacity=0,
                max_queue_depth=4096, workers=shard_count,
                persistence=factory,
            )

        def drive_writes(gateway, payloads) -> HotpathRow:
            client_batch = max(1, gateway.write_batch_max) * shard_count
            samples = []
            gc.collect()
            was_enabled = gc.isenabled()
            gc.disable()
            try:
                start = time.perf_counter()
                for begin in range(0, len(payloads), client_batch):
                    group = payloads[begin:begin + client_batch]
                    began = time.perf_counter()
                    responses = gateway.submit_many(spec.form, group, writer)
                    per_op = (time.perf_counter() - began) / len(group)
                    samples.extend([per_op] * len(group))
                    for response in responses:
                        if response.status != 201:  # pragma: no cover
                            raise RuntimeError(
                                f"bench write failed: {response.status}"
                            )
                elapsed = time.perf_counter() - start
            finally:
                if was_enabled:
                    gc.enable()
            return HotpathRow("write", len(payloads), elapsed, samples)

        # -- 1. write-path overhead: in-memory vs durable backend --------
        write_payloads = [
            spec.clean_payload(rng) for _ in range(write_records)
        ]
        warmup_gateway = fresh_gateway(durable=True)
        try:
            drive_writes(warmup_gateway, write_payloads[:256])
        finally:
            warmup_gateway.close()

        def write_pass(durable: bool) -> HotpathRow:
            gateway = fresh_gateway(durable)
            try:
                row = drive_writes(gateway, write_payloads)
                row.name = (
                    f"write {backend} backend" if durable
                    else "write memory backend"
                )
                return row
            finally:
                gateway.close()

        # The floor is a *ratio*, so the pair from the same round is the
        # honest sample: adjacent passes see the same machine, and the
        # round with the lowest durable/memory ratio is the least-noisy
        # estimate of the backend's real overhead (min-elapsed of
        # independently chosen rounds would instead compare a lucky
        # memory round against an unlucky durable one).
        best_pair = None
        for _ in range(max(1, rounds)):
            memory_row = write_pass(False)
            durable_row = write_pass(True)
            ratio = durable_row.elapsed / memory_row.elapsed
            if best_pair is None or ratio < best_pair[0]:
                best_pair = (ratio, memory_row, durable_row)
        rows.extend(best_pair[1:])

        # -- 2. recovery: load, mutate, kill, replay, compare -------------
        def make_backend():
            if backend == "sqlite":
                return SQLiteBackend(os.path.join(root, "recovery.db"))
            return FileWALBackend(os.path.join(root, "recovery"))

        def make_app(recovery_backend):
            app = build_design_app(
                design_model, persistence=recovery_backend
            )
            for name, level, roles in easychair.USERS:
                app.add_user(name, level, roles)
            return app

        primary = make_backend()
        app = make_app(primary)
        recovery_payloads = [
            spec.clean_payload(rng) for _ in range(records)
        ]
        stored_ids: list[int] = []
        for begin in range(0, records, 512):
            batch = app.submit_batch(
                spec.form, recovery_payloads[begin:begin + 512], writer
            )
            if batch.rejected or batch.unauthorized:  # pragma: no cover
                raise RuntimeError("durability preload must land cleanly")
            stored_ids.extend(
                record_id for _index, record_id in batch.accepted
            )
        # exercise the update and retire op kinds in the replayed WAL
        entity = spec.entity
        for record_id in stored_ids[: min(32, len(stored_ids))]:
            app.store.modify(
                entity, record_id,
                {"overall_evaluation": rng.randint(-3, 3)}, writer,
            )
        retired = stored_ids[-min(16, len(stored_ids)):]
        for record_id in retired:
            app.store.entity(entity).delete(record_id)
        app.commit()
        oracle = capture_state(app)
        store = app.store.entity(entity)
        sample_scores = sorted(
            {rng.randint(-3, 3) for _ in range(6)}
        )
        expected_ids = {
            score: sorted(
                record.record_id
                for record in store.find_by("overall_evaluation", score)
            )
            for score in sample_scores
        }
        primary.kill()

        recovery_info: dict = {}
        oracle_diffs = 0
        oracle_checks = 0

        def recovery_pass() -> HotpathRow:
            nonlocal oracle_diffs, oracle_checks
            recovered_backend = make_backend()
            recovered_app = make_app(recovered_backend)
            began = time.perf_counter()
            report = recover_app(recovered_app, recovered_backend)
            elapsed = time.perf_counter() - began
            checks = 0
            diffs = 0
            checks += 1
            if capture_state(recovered_app) != oracle:
                diffs += 1  # pragma: no cover - would be a recovery bug
            recovered_store = recovered_app.store.entity(entity)
            for score in sample_scores:
                indexed = sorted(
                    record.record_id
                    for record in recovered_store.find_by(
                        "overall_evaluation", score
                    )
                )
                scanned = sorted(
                    record.record_id
                    for record in recovered_store.query(
                        lambda data, s=score:
                        data.get("overall_evaluation") == s
                    )
                )
                checks += 2
                if indexed != expected_ids[score]:
                    diffs += 1  # pragma: no cover - recovery bug
                if indexed != scanned:
                    diffs += 1  # pragma: no cover - recovery bug
            checks += 1
            if any(
                record_id in recovered_store for record_id in retired
            ):
                diffs += 1  # pragma: no cover - recovery bug
            oracle_checks = checks
            oracle_diffs = max(oracle_diffs, diffs)
            recovery_info.update({
                "snapshot_records": report.snapshot_records,
                "replayed_ops": report.replayed_ops,
                "torn_bytes": report.torn_bytes,
                "tick": report.tick,
            })
            recovered_backend.kill()
            return HotpathRow(
                f"recover {backend}", records, elapsed, [elapsed]
            )

        rows.extend(_best_of([recovery_pass], rounds))
        backend_stats = primary.stats()

        # -- 3. seeded kill-restart storm over the durable backend --------
        storm_result = run_chaos(
            seed=seed,
            shard_count=shard_count,
            count=storm_count,
            preload=16,
            kills=kills,
            persistence=backend,
            data_dir=os.path.join(root, "storm"),
        )
        storm = {
            "ok": storm_result.ok,
            "violations": len(storm_result.violations),
            "restarts": storm_result.restarts,
            "backend": storm_result.backend,
            "kills_planned": kills,
            "applied": dict(storm_result.applied),
        }

    result = DurabilityBenchResult(
        seed=seed,
        shard_count=shard_count,
        backend=backend,
        records=records,
        write_records=write_records,
        rows=rows,
        oracle_checks=oracle_checks,
        oracle_diffs=oracle_diffs,
        recovery=recovery_info,
        storm=storm,
        backend_stats=backend_stats,
        max_write_overhead=max_write_overhead,
        recovery_budget_per_100k=recovery_budget_per_100k,
    )
    if json_path is not None:
        result.write_json(json_path)
    return result


# ---------------------------------------------------------------------------
# Replication bench: ring serving under live resharding and failover
# ---------------------------------------------------------------------------


@dataclass
class ReplicationBenchResult:
    """Replicated-ring measurements plus the topology oracle sweeps.

    The floors are the replication-subsystem acceptance numbers: serving
    throughput during a live split + merge within ``min_split_retention``
    of the steady ring, **zero** oracle diffs (a faultless resharded run
    byte-identical — report and cluster-state checksum — to its fixed-
    topology twin, and failing over every primary preserving the exact
    acknowledged cluster state), every follower read within the declared
    staleness bound, and a seeded topology storm (replica lag, failover,
    kill-restart, live split/merge) that passes the full DQ-guarantee
    verifier.
    """

    seed: int
    shard_count: int
    replicas: int
    staleness_bound: int
    rows: list
    oracle_checks: int
    oracle_diffs: int
    drill: dict
    storm: dict
    min_split_retention: float = 0.4

    def _row(self, name: str) -> HotpathRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    @property
    def split_retention(self) -> float:
        """Throughput while resharding live as a fraction of the steady
        ring: 0.8 means the split + merge cost one fifth of throughput."""
        steady = self._row("serve steady ring").ops_per_second
        moving = self._row("serve during split/merge").ops_per_second
        return moving / steady if steady else 0.0

    def floor_failures(self) -> list:
        """Every missed acceptance floor, as human-readable strings."""
        failures = []
        if self.split_retention < self.min_split_retention:
            failures.append(
                f"split/merge retention {self.split_retention:.1%} < "
                f"{self.min_split_retention:.0%} of steady ring"
            )
        if self.oracle_diffs:
            failures.append(
                f"{self.oracle_diffs} topology oracle diff(s) over "
                f"{self.oracle_checks} check(s)"
            )
        if not self.drill.get("state_preserved", False):
            failures.append(
                "failover drill lost acknowledged state "
                f"({self.drill.get('failovers', 0)} failover(s))"
            )
        if not self.storm.get("ok", False):
            failures.append(
                f"topology storm: "
                f"{self.storm.get('violations', '?')} guarantee violation(s)"
            )
        if self.storm.get("max_served_lag", 0) > self.staleness_bound:
            failures.append(
                f"served follower lag {self.storm.get('max_served_lag')} > "
                f"staleness bound {self.staleness_bound}"
            )
        if not self.storm.get("migrated", 0):
            failures.append("topology storm migrated no records")
        return failures

    @property
    def passed(self) -> bool:
        return not self.floor_failures()

    def as_dict(self) -> dict:
        return {
            "benchmark": "replication",
            "seed": self.seed,
            "shard_count": self.shard_count,
            "replicas": self.replicas,
            "staleness_bound": self.staleness_bound,
            "rows": [row.as_dict() for row in self.rows],
            "split_retention": round(self.split_retention, 4),
            "floors": {
                "min_split_retention": self.min_split_retention,
                "max_oracle_diffs": 0,
                "max_served_lag": self.staleness_bound,
                "storm_ok": True,
                "met": self.passed,
            },
            "oracle": {
                "checks": self.oracle_checks,
                "diffs": self.oracle_diffs,
            },
            "drill": dict(self.drill),
            "storm": dict(self.storm),
        }

    def write_json(self, path) -> None:
        """Emit the machine-readable report (``BENCH_replication.json``)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        header = (
            f"replication bench — {self.shard_count} shard(s) x "
            f"{self.replicas} follower(s), staleness bound "
            f"{self.staleness_bound}, seed {self.seed}"
        )
        body = render_table(
            ["Path", "Ops", "Ops/s", "p50 µs", "p99 µs"],
            [
                [
                    row.name,
                    str(row.operations),
                    f"{row.ops_per_second:,.0f}",
                    f"{row.p50_us}",
                    f"{row.p99_us}",
                ]
                for row in self.rows
            ],
            max_width=60,
        )
        footer = (
            f"split/merge retention: {self.split_retention:.1%} of steady "
            f"ring (floor {self.min_split_retention:.0%}) · oracle: "
            f"{self.oracle_diffs} diff(s) over {self.oracle_checks} "
            f"check(s)\n"
            f"failover drill: {self.drill.get('failovers', 0)} primary "
            f"loss(es), state "
            f"{'preserved' if self.drill.get('state_preserved') else 'LOST'} "
            f"· storm: {self.storm.get('violations', 0)} violation(s), "
            f"max served lag {self.storm.get('max_served_lag', 0)}, "
            f"{self.storm.get('migrated', 0)} record(s) migrated live; "
            f"floors {'met' if self.passed else 'MISSED'}"
        )
        return f"{header}\n{body}\n{footer}"


def run_replication_bench(
    shard_count: int = 3,
    count: int = 240,
    preload: int = 16,
    replicas: int = 1,
    staleness_bound: int = 16,
    vnodes: int = 64,
    storm_count: int = 240,
    seed: int = 23,
    rounds: int = 2,
    min_split_retention: float = 0.4,
    json_path=None,
) -> ReplicationBenchResult:
    """Measure the replicated ring gateway against its own guarantees.

    Four phases, all over the EasyChair review workload:

    1. **Topology oracle** — one faultless seeded run with a live split
       at one third and a live merge at two thirds, against its fixed-
       topology twin: the client-visible report must render
       byte-identically and the final cluster-state checksums must be
       equal.  Floor: zero diffs — clients cannot tell a reshard
       happened.
    2. **Split/merge retention** — the identical operation plan is
       served twice on fresh fleets, once on a steady ring and once with
       the split + merge performed mid-run (their cost on the serving
       clock).  Floor: at least ``min_split_retention`` of steady
       throughput, paired per round like the durability bench.
    3. **Failover drill** — every live primary is deliberately killed
       and its most caught-up follower promoted; the acknowledged
       cluster state before and after must be identical.  Floor: zero
       state diffs.
    4. **Topology storm** — one seeded chaos run
       (:func:`~repro.cluster.topology.run_topology_chaos`) layering
       replica lag, failover and kill-restart faults over the live
       split/merge.  Floors: every DQ guarantee holds, every follower
       read stayed within the staleness bound, and records actually
       migrated live.

    ``json_path`` additionally writes ``BENCH_replication.json``.
    """
    from repro.casestudy import easychair

    from .topology import RingGateway, cluster_state, run_topology_chaos

    design_model = easychair.build_design()
    spec = LoadGenerator(seed=seed).spec
    writer = spec.cleared_users[0]
    rows: list[HotpathRow] = []

    # -- 1. faultless resharded run vs fixed-topology twin ----------------
    oracle_checks = 0
    oracle_diffs = 0
    resharded = run_topology_chaos(
        seed=seed, shard_count=shard_count, count=count, preload=preload,
        replicas=replicas, staleness_bound=staleness_bound, vnodes=vnodes,
        plan=FaultPlan(), topology=True,
    )
    fixed = run_topology_chaos(
        seed=seed, shard_count=shard_count, count=count, preload=preload,
        replicas=replicas, staleness_bound=staleness_bound, vnodes=vnodes,
        plan=FaultPlan(), topology=False,
    )
    oracle_checks += 2
    if resharded.report.render() != fixed.report.render():
        oracle_diffs += 1  # pragma: no cover - would be a topology bug
    if resharded.checksum != fixed.checksum:
        oracle_diffs += 1  # pragma: no cover - would be a topology bug

    # -- 2. serving throughput while resharding live ----------------------
    def ring_gateway() -> RingGateway:
        return RingGateway.from_design(
            design_model, shard_count=shard_count, users=easychair.USERS,
            replicas=replicas, staleness_bound=staleness_bound,
            vnodes=vnodes, cache_capacity=0, max_queue_depth=4096,
            workers=shard_count,
        )

    def serve_pass(topology: bool) -> HotpathRow:
        generator = LoadGenerator(seed=seed)
        gateway = ring_gateway()
        rng = random.Random(seed)
        try:
            for _ in range(preload):
                response = gateway.submit(
                    spec.form, spec.clean_payload(rng), writer
                )
                if response.status != 201:  # pragma: no cover
                    raise RuntimeError(
                        f"bench preload failed: {response.status}"
                    )
            operations = generator.plan(count)
            report = LoadReport(spec=spec)
            gc.collect()
            was_enabled = gc.isenabled()
            gc.disable()
            try:
                start = time.perf_counter()
                if topology:
                    first = count // 3
                    second = (2 * count) // 3
                    generator.run(
                        gateway, operations=operations[:first], report=report
                    )
                    gateway.split_shard()
                    generator.run(
                        gateway, operations=operations[first:second],
                        report=report,
                    )
                    gateway.merge_shard(0)
                    generator.run(
                        gateway, operations=operations[second:], report=report
                    )
                else:
                    generator.run(
                        gateway, operations=operations, report=report
                    )
                elapsed = time.perf_counter() - start
            finally:
                if was_enabled:
                    gc.enable()
            name = (
                "serve during split/merge" if topology
                else "serve steady ring"
            )
            return HotpathRow(name, count, elapsed, [elapsed])
        finally:
            gateway.close()

    # the floor is a ratio, so the pair from the same round is the honest
    # sample (see the durability bench's write-overhead note)
    best_pair = None
    for _ in range(max(1, rounds)):
        steady_row = serve_pass(False)
        moving_row = serve_pass(True)
        ratio = moving_row.elapsed / steady_row.elapsed
        if best_pair is None or ratio < best_pair[0]:
            best_pair = (ratio, steady_row, moving_row)
    rows.extend(best_pair[1:])

    # -- 3. failover drill: lose every primary, compare acked state -------
    drill_gateway = ring_gateway()
    try:
        rng = random.Random(seed)
        drill_ids = []
        for _ in range(max(8, preload)):
            response = drill_gateway.submit(
                spec.form, spec.clean_payload(rng), writer
            )
            drill_ids.append(response.body["id"])
        before = cluster_state(drill_gateway)
        live = drill_gateway.router.all_shards()
        for index in live:
            drill_gateway.fail_over(index)
        after = cluster_state(drill_gateway)
        probe = drill_gateway.view(spec.entity, drill_ids[0], writer)
        drill = {
            "failovers": len(live),
            "records": len(before),
            "state_preserved": before == after,
            "follower_probe_status": probe.status,
        }
        oracle_checks += 1
        if not drill["state_preserved"]:
            oracle_diffs += 1  # pragma: no cover - would be a failover bug
    finally:
        drill_gateway.close()

    # -- 4. seeded topology storm over the replicated ring ----------------
    # on the file WAL: injected kills must restart from durable state
    # (on a memory backend a kill genuinely loses acked writes — that
    # negative control lives in the chaos test battery, not here)
    storm_result = run_topology_chaos(
        seed=seed, shard_count=shard_count, count=storm_count,
        preload=preload, replicas=replicas,
        staleness_bound=staleness_bound, vnodes=vnodes,
        persistence="file", kills=1, replica_lags=2, failovers=1,
    )
    storm = {
        "ok": storm_result.ok,
        "violations": len(storm_result.violations),
        "applied": dict(storm_result.applied),
        "max_served_lag": storm_result.max_served_lag,
        "replica_reads": storm_result.replica_reads,
        "failovers": storm_result.failovers,
        "restarts": storm_result.restarts,
        "splits": storm_result.splits,
        "merges": storm_result.merges,
        "migrated": storm_result.migrated,
        "final_shards": storm_result.final_shards,
    }

    result = ReplicationBenchResult(
        seed=seed,
        shard_count=shard_count,
        replicas=replicas,
        staleness_bound=staleness_bound,
        rows=rows,
        oracle_checks=oracle_checks,
        oracle_diffs=oracle_diffs,
        drill=drill,
        storm=storm,
        min_split_retention=min_split_retention,
    )
    if json_path is not None:
        result.write_json(json_path)
    return result
