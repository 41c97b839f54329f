"""Component benches for the cluster and runtime layers, with their floors.

Reused by ``benchmarks/`` and the ``repro cluster-bench`` CLI subcommand.
Every bench is one ``run_*`` function that only measures: it times its
lanes (each a named :class:`HotpathRow`) with the one collector-paused
timer :func:`_timed`, runs its zero-diff equivalence and oracle checks,
and returns a :class:`BenchReport` holding the rows plus the values its
floors read.  The acceptance floors themselves are data — the
:data:`FLOORS` table — and one report method checks and renders them, so
every bound lives in one reviewable place.  :func:`run_smoke` re-runs
the benches at tier-1 scale against the table's smoke bounds.

:func:`run_comparison` is the single-shard vs N-shard throughput
comparison: one shard with the cache disabled (the pre-cluster serving
path) against N shards with the read-through cache, both preloaded with
the same records and replaying the *identical* seeded read-heavy plan.

Determinism: every plan and payload is fixed by the seed before any
request runs; only wall-clock timings vary between runs.
"""

from __future__ import annotations

import gc
import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.diagrams.ascii import table as render_table

from .gateway import ShardedGateway
from .loadgen import LoadGenerator, LoadReport, READ_HEAVY_MIX
from .resilience import FaultPlan, ResilienceConfig


# ---------------------------------------------------------------------------
# Rows, the one timer, and the round disciplines
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
    """One measured lane with its per-operation latency profile."""

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


def _timed(
    name: str, calls: Sequence, sizes: Optional[Sequence[int]] = None
) -> HotpathRow:
    """Run ``calls`` (zero-arg callables) back to back as lane ``name``.

    ``sizes[i]`` is the number of operations call ``i`` performs (one
    each by default); its latency is amortized over them.  The collector
    is drained before and paused during the loop, so one pass's garbage
    is never collected on a later pass's clock."""
    latencies: list[float] = []
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for call in calls:
            began = time.perf_counter()
            call()
            latencies.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    if sizes is None:
        return HotpathRow(name, len(latencies), elapsed, latencies)
    samples = [
        latency / size
        for latency, size in zip(latencies, sizes)
        for _ in range(size)
    ]
    return HotpathRow(name, sum(sizes), elapsed, samples)


def _batched_writes(
    name: str, gateway: ShardedGateway, form: str, payloads: list, user: str
) -> HotpathRow:
    """Submit ``payloads`` through ``submit_many`` in client batches of one
    full write chunk per shard; every write must be acknowledged."""
    step = max(1, gateway.write_batch_max) * len(gateway.shards)
    groups = [
        payloads[begin:begin + step]
        for begin in range(0, len(payloads), step)
    ]

    def submit(group):
        for response in gateway.submit_many(form, group, user):
            if response.status != 201:  # pragma: no cover - must land
                raise RuntimeError(f"bench write failed: {response.status}")

    return _timed(
        name,
        [(lambda group=group: submit(group)) for group in groups],
        [len(group) for group in groups],
    )


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


def _best_pair(measure_base, measure_other, rounds: int) -> list:
    """``[base, other]`` from the round with the lowest other/base elapsed
    ratio.  A floor that is a *ratio* takes both rows from one round:
    adjacent passes see the same machine, so the round with the lowest
    ratio is the least-noisy estimate of the real cost (min-elapsed of
    independently chosen rounds would instead compare a lucky base round
    against an unlucky other one)."""
    best = None
    for _ in range(max(1, rounds)):
        base, other = measure_base(), measure_other()
        ratio = other.elapsed / base.elapsed
        if best is None or ratio < best[0]:
            best = (ratio, [base, other])
    return best[1]


def _speedup(fast: HotpathRow, slow: HotpathRow) -> float:
    """``fast``'s throughput over ``slow``'s (0.0 if ``slow`` ran nothing)."""
    base = slow.ops_per_second
    return fast.ops_per_second / base if base else 0.0


def _overhead(path: HotpathRow, base: HotpathRow) -> float:
    """Relative extra cost of ``path`` over ``base``: 0.04 means ``path``
    ran 4% slower (infinite if ``path`` ran nothing)."""
    if not path.ops_per_second:
        return float("inf")
    return base.ops_per_second / path.ops_per_second - 1.0


# ---------------------------------------------------------------------------
# The floor table and the one report type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Floor:
    """One acceptance floor: value ``metric`` must stay ``op`` (``">="``
    or ``"<="``) ``bound``.  A callable ``bound`` is computed from the
    report (kernel mode, backend, size); ``smoke`` replaces the bound in
    :func:`run_smoke`, whose small runs give noisier ratios."""

    metric: str
    op: str
    bound: Union[float, Callable[["BenchReport"], float]]
    smoke: Optional[float] = None

    def bound_for(self, report: "BenchReport") -> float:
        if report.smoke and self.smoke is not None:
            return self.smoke
        return self.bound(report) if callable(self.bound) else self.bound

    def holds(self, value: float, bound: float) -> bool:
        return value >= bound if self.op == ">=" else value <= bound


def _by_kernels(numpy: float, stdlib: float) -> Callable:
    """A bound that depends on the column kernels the bench ran on."""
    return lambda report: (
        numpy if report.details["kernels"]["mode"] == "numpy" else stdlib
    )


#: Every bench's floors.  The comparison floors are checked by
#: :func:`run_smoke` only; the hot-path floors by ``--hotpath`` and
#: ``benchmarks/bench_gateway.py`` (smoke does not run that bench).
FLOORS: dict = {
    "comparison": (
        Floor("cached_vs_baseline", ">=", 2.0),
        Floor("faulted_retention", ">=", 0.5),
    ),
    "hotpath": (
        Floor("cow_read_vs_deepcopy", ">=", 3.0),
        Floor("batched_vs_unbatched_writes", ">=", 1.5),
        Floor("indexed_vs_scan_lookups", ">=", 1.0),
    ),
    "validate": (
        Floor("fused_single_vs_legacy", ">=", 3.0),
        Floor("fused_batch_vs_legacy", ">=", 5.0),
        Floor("equivalence_diffs", "<=", 0),
        # the bench must measure the shared-cache steady state
        Floor("plan_cache_hits", ">=", 1),
    ),
    "dqtelemetry": (
        Floor("scorecard_live_vs_rescan", ">=", 10.0),
        Floor("write_overhead", "<=", 0.10),
        Floor("equivalence_diffs", "<=", 0),
    ),
    "columnar": (
        Floor("columnar_sweep_warm_vs_row_oracle", ">=", 2.0),
        Floor("columnar_sweep_cold_vs_row_oracle", ">=", 1.0),
        Floor(
            "column_absorb_vs_row_walk", ">=", _by_kernels(3.0, 2.0),
            smoke=1.8,
        ),
        # ``array`` equality has no vector lane: the stdlib scan rides
        # the exact ``list.index`` walk
        Floor(
            "column_scan_vs_dict_scan", ">=", _by_kernels(1.5, 1.0),
            smoke=1.2,
        ),
        Floor("equivalence_diffs", "<=", 0),
    ),
    "durability": (
        # sqlite's per-commit B-tree insert and WAL-frame checksums buy
        # SQL queryability at a small flat cost per acknowledged batch
        Floor(
            "write_overhead", "<=",
            lambda report: 0.25 if report.details["backend"] == "file"
            else 0.40,
            smoke=0.40,
        ),
        # never below half a second: tiny data sets would otherwise
        # demand sub-scheduler-tick recovery
        Floor(
            "recovery_s", "<=",
            lambda report: max(0.5, 5.0 * report.details["records"] / 1e5),
        ),
        Floor("oracle_diffs", "<=", 0),
        Floor("storm_violations", "<=", 0),
        Floor(
            "storm_restarts", ">=",
            lambda report: 1 if report.details["storm"]["kills_planned"]
            else 0,
        ),
    ),
    "replication": (
        Floor("split_retention", ">=", 0.4, smoke=0.25),
        Floor("oracle_diffs", "<=", 0),
        Floor("failover_state_diffs", "<=", 0),
        Floor("storm_violations", "<=", 0),
        Floor(
            "max_served_lag", "<=",
            lambda report: report.details["staleness_bound"],
        ),
        Floor("migrated", ">=", 1),
    ),
}


def _fmt(value) -> str:
    return f"{value:.3f}" if isinstance(value, float) else str(value)


@dataclass
class BenchReport:
    """One bench run: its rows, the values its :data:`FLOORS` read (plus
    informational ones), and JSON-only ``details``.  ``smoke`` selects
    the table's smoke bounds."""

    benchmark: str
    title: str
    seed: int
    rows: list
    values: dict
    details: dict = field(default_factory=dict)
    smoke: bool = False

    def floor_checks(self) -> list:
        """``(floor, value, bound, held)`` for every floor of this bench."""
        checks = []
        for floor in FLOORS[self.benchmark]:
            value = self.values[floor.metric]
            bound = floor.bound_for(self)
            checks.append((floor, value, bound, floor.holds(value, bound)))
        return checks

    def floor_failures(self) -> list:
        """Every missed floor, as human-readable strings."""
        return [
            f"{self.benchmark} {floor.metric} {_fmt(value)}, "
            f"floor {floor.op} {_fmt(bound)}"
            for floor, value, bound, held in self.floor_checks()
            if not held
        ]

    @property
    def passed(self) -> bool:
        return not self.floor_failures()

    def as_dict(self) -> dict:
        return {
            **self.details,
            "benchmark": self.benchmark,
            "seed": self.seed,
            "rows": [row.as_dict() for row in self.rows],
            "values": {
                metric: round(value, 4) if isinstance(value, float) else value
                for metric, value in self.values.items()
            },
            "floors": {
                "smoke": self.smoke,
                "checks": [
                    {
                        "metric": floor.metric,
                        "op": floor.op,
                        "bound": bound,
                        "held": held,
                    }
                    for floor, _value, bound, held in self.floor_checks()
                ],
                "met": self.passed,
            },
        }

    def write_json(self, path) -> None:
        """Emit the machine-readable report (``BENCH_<benchmark>.json``)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        lines = [f"{self.title}, seed {self.seed}"]
        if self.rows:
            lines.append(render_table(
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
            ))
        checks = self.floor_checks()
        for floor, value, bound, held in checks:
            relaxed = self.smoke and floor.smoke is not None
            lines.append(
                f"  floor {floor.metric}: {_fmt(value)} {floor.op} "
                f"{_fmt(bound)}{' (smoke)' if relaxed else ''} — "
                f"{'met' if held else 'MISSED'}"
            )
        floored = {floor.metric for floor, *_ in checks}
        lines.extend(
            f"  {metric}: {_fmt(value)}"
            for metric, value in self.values.items()
            if metric not in floored
        )
        lines.append(
            f"{self.benchmark} floors {'met' if self.passed else 'MISSED'}"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Single-shard vs N-shard comparison
# ---------------------------------------------------------------------------


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
    reports = []
    row = _timed(label, [lambda: reports.append(
        generator.run(gateway, operations=list(plan), threads=threads)
    )])
    return ComparisonRow(
        label=label,
        shard_count=len(gateway.shards),
        cache_capacity=gateway.cache.capacity,
        operations=len(plan),
        elapsed=row.elapsed,
        report=reports[0],
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


def run_hotpath_bench(
    shard_count: int = 4,
    preload: int = 800,
    reads: int = 400,
    writes: int = 384,
    lookups: int = 300,
    seed: int = 23,
    rounds: int = 3,
) -> BenchReport:
    """Measure the three hot paths the copy-on-write overhaul rebuilt.

    1. **Reads** — the same seeded list/view plan is replayed against the
       same preloaded uncached gateway twice: once with every shard store
       forced through the pre-COW ``deepcopy`` escape hatch
       (``deep_snapshots = True``), once on copy-on-write snapshots.
       The cache is disabled so the store read path is what's measured.
    2. **Writes** — ``writes`` identical payloads go through a fresh
       gateway one ``submit`` at a time, then through another fresh
       gateway via ``submit_many`` (per-shard coalescing, chunks of
       ``write_batch_max``).  Batched per-op latencies are amortized over
       each ``submit_many`` call.
    3. **Lookups** — one ``WebApp`` preloaded with scored reviews answers
       ``lookups`` equality queries by predicate scan, then the same
       queries again through a hash index on the scored field.
    """
    from repro.casestudy import easychair

    design_model = easychair.build_design()
    generator = LoadGenerator(seed=seed)
    spec = generator.spec
    rng = random.Random(seed)
    payloads = [spec.clean_payload(rng) for _ in range(max(preload, writes))]
    writer = spec.cleared_users[0]

    def fresh_gateway() -> ShardedGateway:
        return ShardedGateway.from_design(
            design_model, shard_count=shard_count, users=easychair.USERS,
            cache_capacity=0, max_queue_depth=4096, workers=shard_count,
        )

    # -- 1. deepcopy vs copy-on-write snapshots on the read path ---------
    gateway = fresh_gateway()
    try:
        for response in gateway.submit_many(
            spec.form, payloads[:preload], writer
        ):
            if response.status != 201:  # pragma: no cover - must land
                raise RuntimeError(f"preload write failed: {response.status}")
        reads_calls = [
            (lambda op=op: gateway.list(spec.entity, op[1]))
            if op[0] == "list"
            else (lambda op=op: gateway.view(spec.entity, op[1], op[2]))
            for op in _read_plan(spec, preload, reads, seed)
        ]

        def read_pass(deep: bool) -> HotpathRow:
            for shard in gateway.shards:
                shard.store.set_deep_snapshots(deep)
            _timed("warm-up", reads_calls[:20])
            return _timed(
                "read deepcopy snapshots" if deep else "read cow snapshots",
                reads_calls,
            )

        deep_row, cow_row = _best_of(
            [lambda: read_pass(True), lambda: read_pass(False)], rounds
        )
        for shard in gateway.shards:
            shard.store.set_deep_snapshots(False)
    finally:
        gateway.close()

    # -- 2. unbatched vs per-shard batched writes ------------------------
    def unbatched_pass() -> HotpathRow:
        gateway = fresh_gateway()
        try:
            return _timed("write unbatched", [
                (lambda p=p: gateway.submit(spec.form, p, writer))
                for p in payloads[:writes]
            ])
        finally:
            gateway.close()

    def batched_pass() -> HotpathRow:
        gateway = fresh_gateway()
        try:
            return _batched_writes(
                "write batched", gateway, spec.form, payloads[:writes], writer
            )
        finally:
            gateway.close()

    unbatched_row, batched_row = _best_of(
        [unbatched_pass, batched_pass], rounds
    )

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
    scan_row = _best_of([lambda: _timed("lookup scan", [
        (lambda e=e: store.query(lambda data: data.get("email_address") == e))
        for e in emails
    ])], rounds)[0]
    store.create_index("email_address")
    indexed_row = _best_of([lambda: _timed("lookup indexed", [
        (lambda e=e: store.find_by("email_address", e)) for e in emails
    ])], rounds)[0]

    return BenchReport(
        "hotpath",
        f"hot-path microbenchmarks — {shard_count} shard(s)",
        seed,
        [deep_row, cow_row, unbatched_row, batched_row, scan_row, indexed_row],
        {
            "cow_read_vs_deepcopy": _speedup(cow_row, deep_row),
            "batched_vs_unbatched_writes": _speedup(
                batched_row, unbatched_row
            ),
            "indexed_vs_scan_lookups": _speedup(indexed_row, scan_row),
        },
        {"shard_count": shard_count},
    )


# ---------------------------------------------------------------------------
# Smoke mode: the acceptance floors, sized for tier-1
# ---------------------------------------------------------------------------


@dataclass
class SmokeResult:
    """The comparison run plus every smoke-scale report; it passes when
    every report's floors hold."""

    comparison: ComparisonResult
    reports: list
    attempts: int

    @property
    def failures(self) -> list:
        return [
            failure
            for report in self.reports
            for failure in report.floor_failures()
        ]

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [self.comparison.render()]
        lines.extend(report.render() for report in self.reports)
        # one grep-able verdict line: CI logs tail this
        if self.passed:
            lines.append(
                f"smoke: PASS — every floor met "
                f"({self.attempts} attempt(s))"
            )
        else:
            lines.append(
                f"smoke: FAIL — first violated floor: {self.failures[0]}"
            )
        return "\n".join(lines)


def run_smoke(
    shard_count: int = 4,
    count: int = 300,
    preload: int = 200,
    seed: int = 23,
    attempts: int = 3,
) -> SmokeResult:
    """Every floor of :data:`FLOORS` except the hot-path ones, at tier-1
    scale and against the table's smoke bounds: the cached gateway
    against the single-shard baseline (healthy and with shard 0 down)
    and the validation, streaming-telemetry, durability, replication and
    columnar benches.  Wall-clock comparisons on a busy machine can
    flake, so a missed floor reruns everything, up to ``attempts`` times;
    only a repeated miss fails."""
    for attempt in range(1, attempts + 1):
        comparison = run_comparison(
            shard_count=shard_count, count=count, preload=preload,
            seed=seed, include_faulted=True,
        )
        reports = [
            BenchReport(
                "comparison",
                f"gateway comparison — cached {shard_count} shards vs "
                f"1 shard, and with shard 0 down",
                seed, [],
                {
                    "cached_vs_baseline": comparison.speedup,
                    "faulted_retention": comparison.degradation,
                },
            ),
            run_validation_bench(
                count=800, equivalence_count=200, seed=seed, rounds=2,
            ),
            run_dqtelemetry_bench(
                shard_count=shard_count, records=2_000, write_records=1_500,
                live_reads=50, rescan_reads=5, suggest_reads=10,
                equivalence_ops=120, seed=seed, rounds=2,
            ),
            run_durability_bench(
                shard_count=shard_count, records=3_000, write_records=2_400,
                storm_count=150, kills=2, seed=seed, rounds=3,
            ),
            run_replication_bench(
                shard_count=3, count=150, preload=12, storm_count=150,
                seed=seed, rounds=2,
            ),
            run_columnar_bench(records=1_200, seed=seed, rounds=2),
        ]
        for report in reports:
            report.smoke = True
        result = SmokeResult(comparison, reports, attempt)
        if result.passed:
            break
    return result


# ---------------------------------------------------------------------------
# Validation bench: fused compiled plans vs the legacy interpreted walk
# ---------------------------------------------------------------------------


def run_validation_bench(
    count: int = 2000,
    batch_size: int = 128,
    dirty_fraction: float = 0.25,
    equivalence_count: int = 600,
    seed: int = 23,
    rounds: int = 3,
) -> BenchReport:
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
    counts behavioural diffs.
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
    chunks = [
        clean[begin:begin + batch_size]
        for begin in range(0, count, batch_size)
    ]

    def per_record(name, check, records):
        return lambda: _timed(
            name, [(lambda r=r: check(r)) for r in records]
        )

    def batch_pass() -> HotpathRow:
        check_batch = plan.check_batch
        return _timed(
            "validate fused batch",
            [(lambda c=c: check_batch(c, True)) for c in chunks],
            [len(c) for c in chunks],
        )

    legacy_row, fused_row, batch_row, admit_row, dirty_legacy, dirty_fused = (
        _best_of(
            [
                per_record("validate legacy", legacy, clean),
                per_record("validate fused", plan.findings, clean),
                batch_pass,
                per_record("admit fused", plan.admit, clean),
                per_record("validate legacy dirty mix", legacy, mixed),
                per_record("validate fused dirty mix", plan.findings, mixed),
            ],
            rounds,
        )
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

    plan_cache = cache.stats()
    return BenchReport(
        "validate",
        f"validation pipeline bench — EasyChair chain (plan "
        f"{plan.digest}), {count} record(s)",
        seed,
        [legacy_row, fused_row, batch_row, admit_row, dirty_legacy,
         dirty_fused],
        {
            "fused_single_vs_legacy": _speedup(fused_row, legacy_row),
            "fused_batch_vs_legacy": _speedup(batch_row, legacy_row),
            "fused_admit_vs_legacy": _speedup(admit_row, legacy_row),
            "fused_vs_legacy_dirty_mix": _speedup(dirty_fused, dirty_legacy),
            "equivalence_records": len(sweep),
            "equivalence_diffs": diffs,
            "plan_cache_hits": plan_cache.get("hits", 0),
        },
        {
            "count": count,
            "plan_signature": plan.digest,
            "plan_cache": plan_cache,
        },
    )


# ---------------------------------------------------------------------------
# DQ telemetry bench: streaming accumulators vs the full-rescan oracle
# ---------------------------------------------------------------------------


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
) -> BenchReport:
    """Measure streaming DQ telemetry against the full-rescan oracle.

    Three phases, all over the EasyChair review workload:

    1. **Write overhead** — ``write_records`` identical payloads go
       through two fresh gateways via ``submit_many`` (per-shard
       coalescing), one with the accumulators live, one with telemetry
       disabled, best-of-``rounds`` interleaved.
    2. **Reads at scale** — one gateway preloaded with ``records``
       records answers ``live_reads`` cluster scorecards from merged
       accumulator snapshots and ``rescan_reads`` from the O(records)
       rescan twin.  Live vs rescan profiler suggestions ride along
       informationally.
    3. **Equivalence sweep** — a fresh small gateway replays
       ``equivalence_ops`` seeded operations (batched clean creates,
       DQ-rejected defectives, direct store modifies and deletes) and
       after every burst compares live vs rescan score lines, overall
       score, and profiler suggestions.
    """
    from repro.casestudy import easychair
    from repro.dq.metrics import Measurement, weighted_score
    from repro.dq.profiling import DataProfiler
    from repro.dq.streaming import LiveProfile, scores_close

    generator = LoadGenerator(seed=seed)
    spec = generator.spec
    writer = spec.cleared_users[0]
    design_model = easychair.build_design()
    rng = random.Random(seed)
    entity = spec.entity
    fields = easychair.ALL_REVIEW_FIELDS
    bounds = easychair.SCORE_BOUNDS

    def fresh_gateway() -> ShardedGateway:
        return ShardedGateway.from_design(
            design_model, shard_count=shard_count, users=easychair.USERS,
            cache_capacity=0, max_queue_depth=4096, workers=shard_count,
        )

    # -- 1. write-path overhead: telemetry on vs off ---------------------
    write_payloads = [spec.clean_payload(rng) for _ in range(write_records)]

    # One throwaway pass warms every code path (allocator arenas, method
    # caches, lazy imports) so first-touch costs do not land entirely on
    # whichever measured pass happens to run first.
    warmup_gateway = fresh_gateway()
    try:
        _batched_writes(
            "warm-up", warmup_gateway, spec.form, write_payloads[:512], writer
        )
    finally:
        warmup_gateway.close()

    def write_pass(telemetry_on: bool) -> HotpathRow:
        gateway = fresh_gateway()
        try:
            if not telemetry_on:
                for shard in gateway.shards:
                    shard.store.set_telemetry(False)
            return _batched_writes(
                "write telemetry on" if telemetry_on
                else "write telemetry off",
                gateway, spec.form, write_payloads, writer,
            )
        finally:
            gateway.close()

    on_row, off_row = _best_of(
        [lambda: write_pass(True), lambda: write_pass(False)], rounds
    )

    def rescan_suggestions(gateway):
        profiler = DataProfiler()
        for shard in gateway.shards:
            profiler.add_records(
                stored.data for stored in shard.store.entity(entity).all()
            )
        return profiler.suggest()

    # -- 2. live vs rescan reads at scale --------------------------------
    read_payloads = [spec.clean_payload(rng) for _ in range(records)]
    gateway = fresh_gateway()
    try:
        _batched_writes("preload", gateway, spec.form, read_payloads, writer)

        def live():
            return gateway.live_scorecard(
                entity, fields, bounds, max_age=records
            )

        def rescan():
            return gateway.rescan_scorecard(
                entity, fields, bounds, max_age=records
            )

        def suggest_live():
            return LiveProfile(gateway.dq_telemetry(entity)).suggest()

        live_row, rescan_row, suggest_live_row, suggest_rescan_row = _best_of(
            [
                lambda: _timed("scorecard live", [live] * live_reads),
                lambda: _timed("scorecard rescan", [rescan] * rescan_reads),
                lambda: _timed("suggest live", [suggest_live] * suggest_reads),
                lambda: _timed(
                    "suggest rescan", [lambda: rescan_suggestions(gateway)] * 2
                ),
            ],
            rounds,
        )

        # the at-scale readings must agree before speed means anything
        equivalence_checks = 1
        equivalence_diffs = _scorecard_diffs(rescan(), live())
        telemetry_stats = gateway.telemetry_stats()
    finally:
        gateway.close()

    # -- 3. seeded equivalence sweep: creates / rejects / modifies /
    #       deletes, live == rescan after every burst -------------------
    sweep_rng = random.Random(seed + 7)
    gateway = fresh_gateway()
    try:
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
                equivalence_checks += 1
                if not scores_close(oracle_overall, live_overall):
                    equivalence_diffs += 1
            live_suggestions = LiveProfile(
                gateway.dq_telemetry(entity)
            ).suggest()
            equivalence_checks += 1
            if rescan_suggestions(gateway) != live_suggestions:
                equivalence_diffs += 1
    finally:
        gateway.close()

    return BenchReport(
        "dqtelemetry",
        f"dq telemetry bench — EasyChair entity, {records} record(s) "
        f"preloaded over {shard_count} shard(s)",
        seed,
        [on_row, off_row, live_row, rescan_row, suggest_live_row,
         suggest_rescan_row],
        {
            "scorecard_live_vs_rescan": _speedup(live_row, rescan_row),
            "suggest_live_vs_rescan": _speedup(
                suggest_live_row, suggest_rescan_row
            ),
            "write_overhead": _overhead(on_row, off_row),
            "equivalence_checks": equivalence_checks,
            "equivalence_diffs": equivalence_diffs,
        },
        {
            "shard_count": shard_count,
            "records": records,
            "write_records": write_records,
            "telemetry": dict(telemetry_stats),
        },
    )


# ---------------------------------------------------------------------------
# Columnar bench: spine sweeps, zone maps, column absorption vs row oracles
# ---------------------------------------------------------------------------


def run_columnar_bench(
    records: int = 4_000,
    seed: int = 23,
    rounds: int = 3,
) -> BenchReport:
    """Measure the columnar spine against its retained row oracles.

    Three phases, all over the EasyChair review workload:

    1. **Store-resident DQ sweep** — ``records`` clean bound records go
       into one :class:`EntityStore`; :meth:`EntityStore.revalidate`
       re-runs the compiled plan down the columns (zone maps usually
       prove whole columns clean without touching a cell), against the
       row oracle ``check_batch`` over the same pre-materialized dicts,
       best-of-``rounds``.  Warm sweep, and cold sweep (first sweep
       after a mutation — the kernels are maintained incrementally at
       write time, so it pays no zone-map rebuild).  The sweep must
       equal the oracle — also on a mutated mixed store (defects,
       updates, deletes, tombstones), where the sweep demotes itself to
       the exact path.
    2. **Telemetry absorption** — the same chunks absorb through the
       column path (``absorb`` of per-column spine slices) and the row
       walk; both accumulators must report bit-equal stats.
    3. **Column scans** — ``find_by`` (column equality scan, then
       indexed) and ``readable_snapshots`` against their predicate-scan
       oracles: identical results required.
    """
    from repro.casestudy import easychair
    from repro.dq.metadata import Clock
    from repro.dq.streaming import EntityAccumulator
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

    equivalence_checks = 0
    equivalence_diffs = 0

    # -- 1. store-resident DQ sweep: spine + zone maps vs row oracle ------
    snapshots = store.all()
    ids = [stored.record_id for stored in snapshots]
    data_rows = [stored.data for stored in snapshots]

    def sweep():
        store.revalidate(plan)

    def cold_pass() -> HotpathRow:
        # one throwaway insert+delete dirties the spine, so this sweep
        # pays whatever post-write kernel work is left (with the
        # incremental maintenance: folding the mutated tail, not a
        # rebuild)
        probe = store.insert({name: None for name in store.fields}
                             if store.fields else dict(data_rows[0]))
        store.delete(probe.record_id)
        return _timed("columnar sweep (cold)", [sweep], [records])

    def warm_pass() -> HotpathRow:
        sweep()  # memoize the zone maps
        return _timed("columnar sweep (warm)", [sweep], [records])

    def oracle_pass() -> HotpathRow:
        return _timed(
            "row sweep (oracle)",
            [lambda: plan.check_batch(data_rows, False)], [records],
        )

    cold_row, warm_row, oracle_row = _best_of(
        [cold_pass, warm_pass, oracle_pass], rounds
    )

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

    def absorb_columns(accumulator):
        accumulator.absorb(ops)

    def absorb_rows(accumulator):
        for triples in row_chunks:
            accumulator.observe_rows(triples)

    def absorb_pass(name, absorb):
        accumulator = EntityAccumulator(spec.entity)
        return _timed(name, [lambda: absorb(accumulator)], [records])

    absorb_columns_row, absorb_rows_row = _best_of(
        [
            lambda: absorb_pass("telemetry absorb columns", absorb_columns),
            lambda: absorb_pass("telemetry absorb rows", absorb_rows),
        ],
        rounds,
    )

    column_acc = EntityAccumulator(spec.entity)
    absorb_columns(column_acc)
    row_acc = EntityAccumulator(spec.entity)
    absorb_rows(row_acc)
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

    def scanned_ids(score) -> list:
        return sorted(
            record.record_id
            for record in store.query(
                lambda data, s=score: data.get(lookup_field) == s
            )
        )

    def found_ids(score) -> list:
        return sorted(
            record.record_id for record in store.find_by(lookup_field, score)
        )

    dict_scan_row, column_scan_row = _best_of(
        [
            lambda: _timed("lookup dict scan", [
                (lambda s=s: store.query(
                    lambda data, score=s: data.get(lookup_field) == score
                ))
                for s in lookups
            ]),
            lambda: _timed("lookup column scan", [
                (lambda s=s: store.find_by(lookup_field, s)) for s in lookups
            ]),
        ],
        rounds,
    )

    # column scan first, then the same probes through a hash index
    for indexed in (False, True):
        if indexed:
            store.create_index(lookup_field)
        for score in probes:
            equivalence_checks += 1
            if found_ids(score) != scanned_ids(score):
                equivalence_diffs += 1  # pragma: no cover - scan bug

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
    return BenchReport(
        "columnar",
        f"columnar spine bench — EasyChair review entity, {records} "
        f"record(s), {kernels['mode']} kernels "
        f"({kernels.get('promotions', 0)} column(s) promoted, "
        f"{kernels.get('demotions', 0)} demotion(s))",
        seed,
        [cold_row, warm_row, oracle_row, absorb_columns_row,
         absorb_rows_row, dict_scan_row, column_scan_row],
        {
            "columnar_sweep_warm_vs_row_oracle": _speedup(
                warm_row, oracle_row
            ),
            "columnar_sweep_cold_vs_row_oracle": _speedup(
                cold_row, oracle_row
            ),
            "column_absorb_vs_row_walk": _speedup(
                absorb_columns_row, absorb_rows_row
            ),
            "column_scan_vs_dict_scan": _speedup(
                column_scan_row, dict_scan_row
            ),
            "equivalence_checks": equivalence_checks,
            "equivalence_diffs": equivalence_diffs,
        },
        {"records": records, "zone_maps": zone_maps, "kernels": kernels},
    )


# ---------------------------------------------------------------------------
# Durability bench: WAL write overhead, recovery time, post-recovery oracle
# ---------------------------------------------------------------------------


def run_durability_bench(
    shard_count: int = 4,
    records: int = 20_000,
    write_records: int = 8_000,
    backend: str = "file",
    storm_count: int = 300,
    kills: int = 3,
    seed: int = 23,
    rounds: int = 3,
) -> BenchReport:
    """Measure the durable backends against the in-memory serving path.

    Three phases, all over the EasyChair review workload:

    1. **Write overhead** — ``write_records`` identical payloads go
       through two fresh gateways via ``submit_many`` (per-shard
       coalescing, group commit per acknowledged batch), one purely
       in-memory, one on the durable ``backend``, paired per round with
       a fresh data directory per durable pass.
    2. **Recovery** — one ``WebApp`` on the durable backend is loaded
       with ``records`` records (plus updates and deletes, so the WAL
       replays every op kind), its state captured, the process "killed"
       (the backend abandons its handles), and a fresh app recovered
       from disk, best-of-``rounds``.  The oracle: the recovered capture
       must be byte-identical (records, metadata, versions, allocator
       watermark, audit trail) and the rebuilt hash indexes must agree
       with both the pre-crash index and the predicate-scan oracle.
    3. **Kill-restart storm** — one seeded chaos run
       (:func:`run_chaos`) on the durable backend with ``kills`` kill
       faults layered over crashes, latency, drops and duplicates.
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

    generator = LoadGenerator(seed=seed)
    spec = generator.spec
    writer = spec.cleared_users[0]
    design_model = easychair.build_design()
    rng = random.Random(seed)

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

        # -- 1. write-path overhead: in-memory vs durable backend --------
        write_payloads = [
            spec.clean_payload(rng) for _ in range(write_records)
        ]

        def write_pass(durable: bool, payloads=write_payloads) -> HotpathRow:
            gateway = fresh_gateway(durable)
            try:
                return _batched_writes(
                    f"write {backend} backend" if durable
                    else "write memory backend",
                    gateway, spec.form, payloads, writer,
                )
            finally:
                gateway.close()

        write_pass(True, write_payloads[:256])  # warm-up
        memory_row, durable_row = _best_pair(
            lambda: write_pass(False), lambda: write_pass(True), rounds
        )

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
            reports = []
            row = _timed(f"recover {backend}", [lambda: reports.append(
                recover_app(recovered_app, recovered_backend)
            )], [records])
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
            report = reports[0]
            recovery_info.update({
                "snapshot_records": report.snapshot_records,
                "replayed_ops": report.replayed_ops,
                "torn_bytes": report.torn_bytes,
                "tick": report.tick,
            })
            recovered_backend.kill()
            return row

        recovery_row = _best_of([recovery_pass], rounds)[0]
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

    return BenchReport(
        "durability",
        f"durability bench — {backend} backend, {records} record(s) "
        f"recovered, {write_records} write(s) measured",
        seed,
        [memory_row, durable_row, recovery_row],
        {
            "write_overhead": _overhead(durable_row, memory_row),
            "recovery_s": recovery_row.elapsed,
            "oracle_checks": oracle_checks,
            "oracle_diffs": oracle_diffs,
            "storm_violations": len(storm_result.violations),
            "storm_restarts": storm_result.restarts,
        },
        {
            "shard_count": shard_count,
            "backend": backend,
            "records": records,
            "write_records": write_records,
            "recovery": recovery_info,
            "storm": {
                "backend": storm_result.backend,
                "kills_planned": kills,
                "applied": dict(storm_result.applied),
            },
            "backend_stats": dict(backend_stats),
        },
    )


# ---------------------------------------------------------------------------
# Replication bench: ring serving under live resharding and failover
# ---------------------------------------------------------------------------


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
) -> BenchReport:
    """Measure the replicated ring gateway against its own guarantees.

    Four phases, all over the EasyChair review workload:

    1. **Topology oracle** — one faultless seeded run with a live split
       at one third and a live merge at two thirds, against its fixed-
       topology twin: the client-visible report must render
       byte-identically and the final cluster-state checksums must be
       equal — clients cannot tell a reshard happened.
    2. **Split/merge retention** — the identical operation plan is
       served twice on fresh fleets, once on a steady ring and once with
       the split + merge performed mid-run (their cost on the serving
       clock), paired per round like the durability bench.
    3. **Failover drill** — every live primary is deliberately killed
       and its most caught-up follower promoted; the acknowledged
       cluster state before and after must be identical.
    4. **Topology storm** — one seeded chaos run
       (:func:`~repro.cluster.topology.run_topology_chaos`) layering
       replica lag, failover and kill-restart faults over the live
       split/merge, on the file WAL: injected kills must restart from
       durable state (on a memory backend a kill genuinely loses acked
       writes — that negative control lives in the chaos test battery).
    """
    from repro.casestudy import easychair

    from .topology import RingGateway, cluster_state, run_topology_chaos

    design_model = easychair.build_design()
    spec = LoadGenerator(seed=seed).spec
    writer = spec.cleared_users[0]

    # -- 1. faultless resharded run vs fixed-topology twin ----------------
    oracle_checks = 0
    oracle_diffs = 0
    resharded, fixed = (
        run_topology_chaos(
            seed=seed, shard_count=shard_count, count=count,
            preload=preload, replicas=replicas,
            staleness_bound=staleness_bound, vnodes=vnodes,
            plan=FaultPlan(), topology=topology,
        )
        for topology in (True, False)
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

            def serve():
                if not topology:
                    generator.run(
                        gateway, operations=operations, report=report
                    )
                    return
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

            return _timed(
                "serve during split/merge" if topology
                else "serve steady ring",
                [serve], [count],
            )
        finally:
            gateway.close()

    steady_row, moving_row = _best_pair(
        lambda: serve_pass(False), lambda: serve_pass(True), rounds
    )

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
    storm_result = run_topology_chaos(
        seed=seed, shard_count=shard_count, count=storm_count,
        preload=preload, replicas=replicas,
        staleness_bound=staleness_bound, vnodes=vnodes,
        persistence="file", kills=1, replica_lags=2, failovers=1,
    )

    return BenchReport(
        "replication",
        f"replication bench — {shard_count} shard(s) x {replicas} "
        f"follower(s), staleness bound {staleness_bound}",
        seed,
        [steady_row, moving_row],
        {
            "split_retention": _speedup(moving_row, steady_row),
            "oracle_checks": oracle_checks,
            "oracle_diffs": oracle_diffs,
            "failover_state_diffs": 0 if drill["state_preserved"] else 1,
            "storm_violations": len(storm_result.violations),
            "max_served_lag": storm_result.max_served_lag,
            "migrated": storm_result.migrated,
        },
        {
            "shard_count": shard_count,
            "replicas": replicas,
            "staleness_bound": staleness_bound,
            "drill": drill,
            "storm": {
                "applied": dict(storm_result.applied),
                "replica_reads": storm_result.replica_reads,
                "failovers": storm_result.failovers,
                "restarts": storm_result.restarts,
                "splits": storm_result.splits,
                "merges": storm_result.merges,
                "final_shards": storm_result.final_shards,
            },
        },
    )
