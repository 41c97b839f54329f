"""Gateway bench (ours): single-shard baseline vs sharded, cached gateway.

The paper ends at one generated web application; the cluster subsystem is
our scaling extension, and this bench is its headline number: on the
read-heavy mix, a 4-shard gateway with the confidentiality-aware
read-through cache must sustain **at least 2x** the throughput of the
single-shard, uncached serving path — while the load report shows the DQ
guarantees held on both sides (no leak, no lost update, every defective
or unauthorized write refused).

The hot-path overhaul adds its own floors (``-m bench``): copy-on-write
snapshots at least **3x** the deepcopy read path on the list/view mix,
per-shard write batching at least **1.5x** one-at-a-time submits, both
measured in the same run; the run also writes the machine-readable
``BENCH_hotpath.json`` (ops/s, p50/p99 per path) at the repo root.
"""

import pathlib

import pytest

from repro.casestudy import easychair
from repro.cluster import (
    LoadGenerator,
    READ_HEAVY_MIX,
    ShardedGateway,
    run_comparison,
    run_hotpath_bench,
    verify_guarantees,
)

FORM = "Add all data as result of review form"
ENTITY = "Add all data as result of review"
HOTPATH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"


@pytest.mark.slow
def test_four_shards_at_least_twice_single_shard_throughput():
    # One client thread measures the per-request cost ratio without
    # scheduler noise; the soak tests cover many-threaded clients.  A
    # second attempt absorbs one-off timing hiccups on loaded machines.
    result = None
    for _ in range(2):
        result = run_comparison(
            shard_count=4, count=600, preload=400, seed=23, threads=1
        )
        if result.speedup >= 2.0:
            break
    print()
    print(result.render())
    # both sides served the identical plan and kept the guarantees
    for row in result.rows:
        assert row.report.total == 600
        assert row.report.leaks == []
        assert row.report.count("write-defective", 422) > 0
        assert row.report.count("write-unauthorized", 403) > 0
    assert result.gateway.cache_hit_rate > 0.5
    assert result.speedup >= 2.0, result.render()


@pytest.mark.slow
def test_guarantees_hold_during_measured_load():
    gateway = ShardedGateway.from_design(
        easychair.build_design(), shard_count=4, users=easychair.USERS,
        max_queue_depth=1024, workers=4,
    )
    try:
        preloaded = frozenset(
            gateway.submit(
                FORM, easychair.complete_review(), "pc_member_1"
            ).body["id"]
            for _ in range(100)
        )
        generator = LoadGenerator(seed=31, mix=READ_HEAVY_MIX)
        report = generator.run(gateway, count=500, threads=4)
        violations = verify_guarantees(gateway, report, ignore_ids=preloaded)
        assert violations == [], "\n".join(violations)
    finally:
        gateway.close()


@pytest.mark.bench
@pytest.mark.slow
def test_hotpath_floors_and_report():
    """The overhaul's acceptance floors, measured in one run.

    Copy-on-write snapshots must serve the seeded list/view mix at least
    3x as fast as the same gateway forced through the pre-COW deepcopy
    path; ``submit_many`` must beat the one-at-a-time submit loop by at
    least 1.5x at 4 shards; indexed field lookups must beat the predicate
    scan outright.  Each run is already best-of-3 rounds per path; one
    retry absorbs a pathologically loaded machine.
    """
    result = None
    for _ in range(2):
        result = run_hotpath_bench(shard_count=4)
        if result.passed:
            break
    result.write_json(HOTPATH_JSON)
    print()
    print(result.render())
    speedups = result.values
    assert speedups["cow_read_vs_deepcopy"] >= 3.0, result.render()
    assert speedups["batched_vs_unbatched_writes"] >= 1.5, result.render()
    assert speedups["indexed_vs_scan_lookups"] >= 1.0, result.render()
    report = result.as_dict()
    assert HOTPATH_JSON.exists()
    names = [row["name"] for row in report["rows"]]
    assert names == [
        "read deepcopy snapshots", "read cow snapshots",
        "write unbatched", "write batched",
        "lookup scan", "lookup indexed",
    ]
    for row in report["rows"]:
        assert row["ops_per_second"] > 0
        assert row["p50_us"] <= row["p99_us"]


@pytest.mark.bench
def test_batched_write_burst(benchmark):
    """One ``submit_many`` burst: 128 writes coalesced per-shard."""
    gateway = ShardedGateway.from_design(
        easychair.build_design(), shard_count=4, users=easychair.USERS,
        max_queue_depth=4096,
    )
    payloads = [easychair.complete_review() for _ in range(128)]

    def burst():
        responses = gateway.submit_many(FORM, payloads, "pc_member_1")
        assert all(r.status == 201 for r in responses)

    try:
        benchmark(burst)
    finally:
        gateway.close()


def test_cached_list_read(benchmark):
    """The hot path at scale: a warmed confidentiality-filtered listing."""
    gateway = ShardedGateway.from_design(
        easychair.build_design(), shard_count=4, users=easychair.USERS
    )
    try:
        for _ in range(200):
            gateway.submit(FORM, easychair.complete_review(), "pc_member_1")
        gateway.list(ENTITY, "chair")  # warm

        response = benchmark(gateway.list, ENTITY, "chair")
        assert response.status == 200
        assert len(response.body) == 200
        assert gateway.cache.stats.hits > 0
    finally:
        gateway.close()


def test_uncached_scatter_gather_list(benchmark):
    """The same listing with the cache disabled — the cost caching hides."""
    gateway = ShardedGateway.from_design(
        easychair.build_design(), shard_count=4, users=easychair.USERS,
        cache_capacity=0,
    )
    try:
        for _ in range(200):
            gateway.submit(FORM, easychair.complete_review(), "pc_member_1")

        response = benchmark(gateway.list, ENTITY, "chair")
        assert response.status == 200
        assert len(response.body) == 200
    finally:
        gateway.close()


def test_sharded_write_pipeline(benchmark):
    """A clean create through placement, locking, audit and invalidation."""
    gateway = ShardedGateway.from_design(
        easychair.build_design(), shard_count=4, users=easychair.USERS
    )
    payload = easychair.complete_review()
    try:
        response = benchmark(gateway.submit, FORM, payload, "pc_member_1")
        assert response.status == 201
    finally:
        gateway.close()
