"""Kill-restart chaos on durable backends.

The storm kills live shards mid-traffic and restarts them from their
durable state; the guarantee verifier then checks that no acknowledged
write was lost, nothing double-applied, no confidentiality leak, no
untagged stale read.  Same seed ⇒ same storm, byte for byte — including
which requests died, which shards restarted, and the final report.
"""

import pytest

from repro.casestudy import easychair
from repro.cluster import ShardedGateway
from repro.cluster.resilience import KILL, FaultPlan, run_chaos
from repro.persistence import persistence_factory

pytestmark = pytest.mark.durability


def test_fresh_gateway_over_old_data_dir_resumes_ids(tmp_path):
    """A brand-new gateway on an existing data directory must resume the
    router's global id counters past every recovered id — otherwise the
    first post-restart create re-allocates an id a shard already holds
    and the write 500s on a duplicate-id refusal."""
    path = "/add-all-data-as-result-of-review"
    gateway = ShardedGateway.from_design(
        easychair.build_design(), shard_count=4, users=easychair.USERS,
        persistence=persistence_factory(tmp_path, kind="file"),
    )
    old_ids = [
        gateway.post(path, easychair.complete_review(),
                     user="pc_member_1").body["id"]
        for _ in range(5)
    ]
    for shard in gateway.shards:
        shard.persistence.kill()
    gateway.close()

    restarted = ShardedGateway.from_design(
        easychair.build_design(), shard_count=4, users=easychair.USERS,
        persistence=persistence_factory(tmp_path, kind="file"),
    )
    try:
        response = restarted.post(
            path, easychair.complete_review(), user="pc_member_1"
        )
        assert response.status == 201
        assert response.body["id"] > max(old_ids)
        listing = restarted.get(f"{path}/list", user="chair")
        assert len(listing.body) == len(old_ids) + 1
    finally:
        restarted.close()


@pytest.mark.parametrize("backend", ["file", "sqlite"])
def test_kill_restart_storm_holds_guarantees(backend, tmp_path):
    result = run_chaos(
        seed=23,
        count=150,
        preload=16,
        kills=2,
        persistence=backend,
        data_dir=tmp_path / "storm",
    )
    assert result.backend == backend
    assert result.restarts >= 1, "no kill fault actually landed"
    assert result.ok, result.violations


def test_same_seed_storms_are_byte_identical(tmp_path):
    renders = []
    for attempt in ("a", "b"):
        result = run_chaos(
            seed=97,
            count=120,
            preload=12,
            kills=3,
            persistence="file",
            data_dir=tmp_path / attempt,
        )
        assert result.ok, result.violations
        renders.append(result.render())
    assert renders[0] == renders[1]


def test_kill_faults_extend_not_reshuffle_the_plan():
    """Kill faults are drawn *after* the seeded base plan, so enabling
    durability does not change which crashes/drops/latency spikes the
    same seed injects — old chaos results stay reproducible."""
    base = FaultPlan.seeded(11, shard_count=4)
    with_kills = FaultPlan.seeded(11, shard_count=4, kills=2)
    survivors = tuple(f for f in with_kills.specs if f.kind != KILL)
    assert survivors == base.specs
    assert sum(1 for f in with_kills.specs if f.kind == KILL) == 2


def test_memory_backend_storm_detects_lost_writes(tmp_path):
    """The negative control: a killed memory shard restarts empty, so
    the verifier MUST report lost acknowledged writes — proving the
    oracle actually bites when durability is absent."""
    result = run_chaos(
        seed=23,
        count=150,
        preload=16,
        kills=2,
        persistence=None,
        plan=FaultPlan.seeded(23, shard_count=4, horizon=150, kills=2),
    )
    if result.restarts == 0:
        pytest.skip("seed injected no effective kill on memory shards")
    assert not result.ok
    # the wiped shard dropped acknowledged records, so the verifier
    # finds acknowledged ids their home shard no longer holds
    assert any("acknowledged write lost" in v for v in result.violations)
