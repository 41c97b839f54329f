"""Topology-chaos battery: elastic resharding and failover under
seeded faults.

Mirrors ``test_durability_chaos.py`` one layer up: the system under
test is a :class:`~repro.cluster.gateway.ShardedGateway` with
followers — consistent-hash routing, per-shard followers, live
split/merge — and the oracle is the same workload on a fixed topology.
Every storm is seeded, so the determinism tests compare full rendered
reports byte for byte.
"""

from __future__ import annotations

import pytest

from repro.casestudy import easychair
from repro.cluster import (
    FAILOVER,
    FaultPlan,
    KILL,
    LoadGenerator,
    REPLICA_LAG,
    ShardedGateway,
    easychair_spec,
    run_topology_chaos,
)
from repro.persistence.recovery import capture_state

pytestmark = [pytest.mark.chaos, pytest.mark.replication]


def _drilled_gateway(seed: int = 5, operations: int = 40):
    """A replicated ring gateway with a seeded workload already applied."""
    spec = easychair_spec()
    generator = LoadGenerator(spec=spec, seed=seed)
    gateway = ShardedGateway.from_design(
        easychair.build_design(),
        shard_count=3,
        users=easychair.USERS,
        replicas=1,
        staleness_bound=16,
        vnodes=64,
    )
    generator.run(gateway, operations=generator.plan(operations), threads=1)
    return gateway


# -- determinism -----------------------------------------------------------


def test_same_seed_topology_storm_is_byte_identical():
    first = run_topology_chaos(seed=11, count=120, preload=12)
    second = run_topology_chaos(seed=11, count=120, preload=12)
    assert first.render() == second.render()
    assert first.checksum == second.checksum
    assert first.ok, first.violations


def test_file_backed_storm_with_kills_is_deterministic_and_clean(tmp_path):
    runs = []
    for label in ("a", "b"):
        data_dir = tmp_path / label
        data_dir.mkdir()
        runs.append(
            run_topology_chaos(
                seed=7,
                count=100,
                preload=10,
                persistence="file",
                kills=2,
                data_dir=data_dir,
            )
        )
    first, second = runs
    assert first.render() == second.render()
    assert first.ok, first.violations
    assert first.restarts >= 1
    assert first.failovers >= 1
    assert first.splits == 1 and first.merges == 1
    assert first.migrated > 0


def test_topology_faults_extend_plans_without_reshuffling():
    # drawing replica-lag and failover faults must not perturb the
    # faults an existing seed already produced — old chaos reports stay
    # byte-identical when the new fault kinds default to zero
    base = FaultPlan.seeded(11, shard_count=4, kills=2)
    extended = FaultPlan.seeded(
        11, shard_count=4, kills=2, replica_lags=3, failovers=1
    )
    survivors = tuple(
        fault
        for fault in extended.specs
        if fault.kind not in (REPLICA_LAG, FAILOVER)
    )
    assert survivors == base.specs
    added = [
        fault
        for fault in extended.specs
        if fault.kind in (REPLICA_LAG, FAILOVER)
    ]
    assert len([f for f in added if f.kind == REPLICA_LAG]) == 3
    assert len([f for f in added if f.kind == FAILOVER]) == 1


# -- the resharding oracle -------------------------------------------------


def test_faultless_reshard_matches_fixed_topology_oracle():
    # same seed, same workload; one run splits then merges mid-stream,
    # the twin never changes topology — guarantee report and final
    # cluster state must be indistinguishable
    resharded = run_topology_chaos(
        seed=3, count=60, preload=8, plan=FaultPlan(), topology=True
    )
    fixed = run_topology_chaos(
        seed=3, count=60, preload=8, plan=FaultPlan(), topology=False
    )
    assert resharded.ok, resharded.violations
    assert fixed.ok, fixed.violations
    assert resharded.report.render() == fixed.report.render()
    assert resharded.checksum == fixed.checksum
    assert resharded.splits == 1 and resharded.merges == 1
    assert resharded.migrated > 0
    assert fixed.splits == 0 and fixed.merges == 0


def test_storm_leaves_no_dangling_route_overrides():
    result = run_topology_chaos(seed=11, count=120, preload=12)
    assert result.ok, result.violations
    assert result.splits == 1 and result.merges == 1
    # migration pins are transient by construction; a leftover override
    # would be reported as a guarantee violation
    assert not any("override" in violation for violation in result.violations)


# -- failover --------------------------------------------------------------


def test_failover_preserves_every_acknowledged_write():
    gateway = _drilled_gateway()
    try:
        for index in list(gateway.router.all_shards()):
            # quiesce: promote staged read-audit ops to the acked
            # watermark (writes group-commit; trailing read audits are
            # only acked at the next sync boundary)
            gateway.shards[index].persistence.sync()
            before = capture_state(gateway.shards[index])
            gateway.fail_over(index)
            after = capture_state(gateway.shards[index])
            assert after == before
        assert gateway.failovers == len(list(gateway.router.all_shards()))
    finally:
        gateway.close()


def test_failed_over_shard_keeps_serving_reads_and_writes():
    gateway = _drilled_gateway()
    try:
        entity = easychair_spec().entity
        listing = gateway.list(entity, "chair")
        assert listing.ok and listing.body
        target = listing.body[0]["id"]
        index = gateway.router.shard_for(entity, target)
        gateway.fail_over(index)
        response = gateway.view(entity, target, "chair")
        assert response.status in (200, 203)
        assert response.body["id"] == target
    finally:
        gateway.close()


# -- negative control ------------------------------------------------------


def test_memory_backend_kills_without_replication_lose_state():
    # the control for the whole battery: replication off, volatile
    # backend, kills on — acknowledged state genuinely disappears and
    # the guarantee checker must notice.  If it passed, the storm tests
    # above would be vacuous.
    result = run_topology_chaos(
        seed=5,
        count=60,
        preload=8,
        replicas=0,
        persistence=None,
        kills=2,
        plan=FaultPlan.seeded(
            5, shard_count=3, horizon=150, start=8, kills=2
        ),
        topology=False,
    )
    if result.restarts == 0:
        pytest.skip("no kill landed on a populated shard for this seed")
    assert not result.ok
    assert any("store audit event" in v for v in result.violations)


@pytest.mark.parametrize("kind", ["file", "sqlite"])
def test_a_record_can_migrate_back_to_a_shard_that_held_it(tmp_path, kind):
    # scale out, then back in: the new shard's records return to the
    # donors that reserved their ids when they first stored them, and
    # the donors' logs (insert, retire, adopt of one id) still recover
    from repro.persistence import persistence_factory

    form = "Add all data as result of review form"
    entity = "Add all data as result of review"
    gateway = ShardedGateway.from_design(
        easychair.build_design(), shard_count=2, users=easychair.USERS,
        persistence=persistence_factory(tmp_path, kind=kind),
    )
    ids = [
        gateway.submit(form, easychair.complete_review(), "pc_member_1")
        .body["id"]
        for _ in range(12)
    ]
    new = gateway.split_shard()
    moved = gateway.migrated
    assert moved > 0
    gateway.merge_shard(new)
    assert gateway.migrated == 2 * moved
    for index in (0, 1):
        gateway.restart_shard(index)
    listed = gateway.list(entity, "chair")
    assert [row["id"] for row in listed.body] == ids
    gateway.close()
