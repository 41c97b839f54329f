"""Unit tests for the deterministic load generator and guarantee checker."""

import pytest

from repro.casestudy import easychair
from repro.cluster import (
    LoadGenerator,
    READ_HEAVY_MIX,
    SOAK_MIX,
    ShardedGateway,
    loadgen,
    verify_guarantees,
)


@pytest.fixture()
def gateway():
    gw = ShardedGateway.from_design(
        easychair.build_design(), shard_count=2, users=easychair.USERS
    )
    yield gw
    gw.close()


class TestPlanning:
    def test_same_seed_same_plan(self):
        a = LoadGenerator(seed=5).plan(50)
        b = LoadGenerator(seed=5).plan(50)
        assert a == b

    def test_different_seed_different_plan(self):
        assert LoadGenerator(seed=5).plan(50) != LoadGenerator(seed=6).plan(50)

    def test_mix_kinds_all_present(self):
        plan = LoadGenerator(seed=1, mix=SOAK_MIX).plan(400)
        kinds = {op.kind for op in plan}
        assert kinds == set(SOAK_MIX)

    def test_read_heavy_mix_is_read_heavy(self):
        plan = LoadGenerator(seed=2, mix=READ_HEAVY_MIX).plan(500)
        reads = sum(
            1 for op in plan
            if op.kind in (loadgen.LIST, loadgen.VIEW, loadgen.VIEW_UNCLEARED)
        )
        assert reads / len(plan) > 0.8

    def test_unauthorized_ops_use_uncleared_users(self):
        plan = LoadGenerator(seed=3, mix=SOAK_MIX).plan(300)
        spec = LoadGenerator().spec
        for op in plan:
            if op.kind in (loadgen.WRITE_UNAUTHORIZED, loadgen.VIEW_UNCLEARED):
                assert op.user in spec.uncleared_users
            elif op.kind == loadgen.WRITE:
                assert op.user in spec.cleared_users


class TestExecution:
    def test_run_tallies_expected_statuses(self, gateway):
        report = LoadGenerator(seed=9, mix=SOAK_MIX).run(gateway, count=200)
        assert report.total == 200
        assert report.accepted_writes() == len(report.accepted_ids)
        assert report.accepted_writes() > 0
        assert report.count(loadgen.WRITE_DEFECTIVE, 422) > 0
        assert report.count(loadgen.WRITE_UNAUTHORIZED, 403) > 0
        assert report.count(loadgen.UPDATE_STALE, 409) > 0
        assert report.leaks == []
        assert "load run: 200 operation(s)" in report.render()

    def test_defective_writes_never_store(self, gateway):
        mix = {loadgen.WRITE_DEFECTIVE: 1}
        report = LoadGenerator(seed=4, mix=mix).run(gateway, count=30)
        assert report.accepted_ids == []
        assert gateway.total_records() == 0
        assert report.count(loadgen.WRITE_DEFECTIVE, 422) == 30

    def test_verify_guarantees_clean_run(self, gateway):
        report = LoadGenerator(seed=13, mix=SOAK_MIX).run(gateway, count=250)
        assert verify_guarantees(gateway, report) == []

    def test_verify_guarantees_flags_unaudited_store(self, gateway):
        report = LoadGenerator(seed=13, mix=SOAK_MIX).run(gateway, count=100)
        # simulate a lost audit event: drop one shard's store events
        victim = report.accepted_ids[0]
        spec = report.spec
        shard = gateway.shards[gateway.router.shard_for(spec.entity, victim)]
        shard.audit._events = [
            e for e in shard.audit._events
            if not (e.kind == "store" and e.record_id == victim)
        ]
        violations = verify_guarantees(gateway, report)
        assert any(f"record {victim}" in v for v in violations)

    def test_verify_guarantees_flags_lost_update(self, gateway):
        report = LoadGenerator(seed=13, mix=SOAK_MIX).run(gateway, count=150)
        updated = [rid for rid in report.updates_applied]
        if not updated:  # ensure at least one applied update to corrupt
            rid = report.accepted_ids[0]
            assert gateway.modify(
                report.spec.form, rid, {"detailed_comments": "x"},
                "pc_member_1",
            ).status == 200
            report.updates_applied[rid] += 1
            updated = [rid]
        victim = updated[0]
        report.updates_applied[victim] += 1  # claim an update that never ran
        violations = verify_guarantees(gateway, report)
        assert any("lost or phantom update" in v for v in violations)

    def test_verify_guarantees_names_every_lost_acknowledged_write(
        self, gateway
    ):
        spec = LoadGenerator().spec
        preloaded = frozenset(
            gateway.submit(
                spec.form, easychair.complete_review(), "pc_member_1"
            ).body["id"]
            for _ in range(8)
        )
        report = LoadGenerator(seed=13, mix=SOAK_MIX).run(gateway, count=100)
        gateway.restart_shard(0)  # a memory shard comes back empty
        acknowledged = preloaded | set(report.accepted_ids)
        held = {
            stored.record_id
            for shard in gateway.shards
            for stored in shard.store.entity(spec.entity).all()
        }
        lost = sorted(acknowledged - held)
        assert set(lost) & preloaded and set(lost) - preloaded
        violations = verify_guarantees(gateway, report, ignore_ids=preloaded)
        for record_id in lost:
            assert any(
                v.startswith(f"record {record_id}: acknowledged write lost")
                for v in violations
            ), record_id

    def test_run_requires_count_or_operations(self, gateway):
        with pytest.raises(ValueError):
            LoadGenerator().run(gateway)
