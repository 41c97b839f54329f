"""Elastic topology: the cluster-state oracle and the topology chaos
harness.

The machinery lives on :class:`~repro.cluster.gateway.ShardedGateway`:
ring placement, per-shard followers (``replicas=N``) serving 203-tagged
bounded-staleness reads, live ``split_shard`` / ``merge_shard`` and
failover.  Failover promotes the most caught-up follower, so no
acknowledged write is lost, by construction (acked ⇒ synced ⇒
shipped).  Without replication the fault degrades to the kill-restart
semantics: a memory fleet restarts the shard empty, which is the
negative control the chaos battery checks.

:func:`run_topology_chaos` is the seeded harness: one planned workload
executed in segments with a live split at one third and a live merge at
two thirds, under the full fault plan (crashes, kills, replica lag,
failovers).  With ``threads=1`` the whole run — report, applied faults,
final cluster state checksum — is a pure function of the seed, and a
faultless topology run is byte-for-byte equal (report and checksum) to
its fixed-topology twin: clients cannot tell a reshard happened.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .gateway import DEFAULT_STALENESS_BOUND, ShardedGateway
from .resilience import FaultPlan
from .ring import fnv1a

#: The gateway's former replicated-ring name, kept for ``ledger/fleet.py``,
#: which builds ``RingGateway.from_design(..., replicas=1)``.
RingGateway = ShardedGateway


# -- cluster-state oracle ----------------------------------------------------


def cluster_state(gateway: ShardedGateway) -> list[tuple]:
    """Every record in the fleet as placement-independent sorted rows.

    ``(entity, id, version, sorted field items)`` across all shards —
    two fleets holding the same data produce equal states no matter how
    the ring scattered the records, so a resharded run can be compared
    row-for-row against its fixed-topology twin."""
    rows = []
    for shard in gateway.shards:
        for entity_name in shard.store.entity_names:
            for stored in shard.store.entity(entity_name).all():
                rows.append((
                    entity_name,
                    stored.record_id,
                    stored.version,
                    tuple(sorted(
                        (key, repr(value))
                        for key, value in stored.data.items()
                    )),
                ))
    rows.sort()
    return rows


def state_checksum(rows: list[tuple]) -> int:
    """A 64-bit FNV-1a digest of a :func:`cluster_state` dump."""
    return fnv1a(repr(rows))


# -- the topology-chaos harness ----------------------------------------------


@dataclass
class TopologyChaosResult:
    """Everything one seeded topology-chaos run produced."""

    seed: int
    plan: FaultPlan
    report: object  # LoadReport
    violations: list
    applied: Counter
    preloaded: frozenset
    backend: str
    replicas: int
    staleness_bound: int
    initial_shards: int
    final_shards: int
    splits: int
    merges: int
    migrated: int
    failovers: int
    restarts: int
    max_served_lag: int
    replica_reads: int
    records: int
    checksum: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        """Counters only — a same-seed single-threaded run re-renders
        byte-for-byte (the chaos determinism contract)."""
        sections = [
            f"topology chaos run — seed {self.seed}, "
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
        sections.append(
            f"topology: {self.initial_shards} -> {self.final_shards} live "
            f"shard(s), {self.splits} split(s), {self.merges} merge(s), "
            f"{self.migrated} record(s) migrated"
        )
        sections.append(
            f"replication: {self.replicas} follower(s)/shard on "
            f"{self.backend}, staleness bound {self.staleness_bound}, "
            f"max served lag {self.max_served_lag}, "
            f"{self.failovers} failover(s), {self.restarts} restart(s)"
        )
        sections.append(
            f"cluster state: {self.records} record(s), "
            f"checksum {self.checksum:016x}"
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


def run_topology_chaos(
    seed: int = 0,
    *,
    shard_count: int = 3,
    count: int = 300,
    preload: int = 24,
    threads: int = 1,
    replicas: int = 1,
    staleness_bound: int = DEFAULT_STALENESS_BOUND,
    vnodes: int = 64,
    mix: Optional[dict] = None,
    design_model=None,
    users: Optional[Sequence[tuple]] = None,
    config=None,
    plan: Optional[FaultPlan] = None,
    persistence: Optional[str] = None,
    data_dir=None,
    kills: int = 0,
    replica_lags: int = 2,
    failovers: int = 1,
    topology: bool = True,
) -> TopologyChaosResult:
    """One seeded chaos run over a replicated ring fleet with a live
    split at one third of the workload and a live merge (of shard 0) at
    two thirds.

    Mirrors :func:`repro.cluster.resilience.run_chaos` — preload clean,
    inject the seeded plan over the mixed workload, verify every DQ
    guarantee — plus the topology storm.  ``topology=False`` runs the
    identical plan against a fixed ring: the faultless oracle twin, whose
    report and state checksum a faultless topology run must reproduce
    exactly.  With ``threads=1`` the result is a pure function of the
    arguments.
    """
    import tempfile

    from repro.casestudy import easychair
    from repro.persistence import persistence_factory

    from .loadgen import (
        CHAOS_MIX,
        LoadGenerator,
        LoadReport,
        verify_guarantees,
    )
    from .resilience import ResilienceConfig

    if design_model is None:
        design_model = easychair.build_design()
    if users is None:
        users = easychair.USERS
    if config is None:
        config = ResilienceConfig()
    if plan is None:
        horizon = preload + count * 2
        plan = FaultPlan.seeded(
            seed,
            shard_count=shard_count,
            horizon=horizon,
            start=preload,
            operation_timeout=config.operation_timeout,
            kills=kills,
            replica_lags=replica_lags,
            failovers=failovers,
        )
    factory = None
    tempdir = None
    if persistence is not None:
        if data_dir is None:
            tempdir = tempfile.TemporaryDirectory(prefix="repro-topology-")
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
        replicas=replicas,
        staleness_bound=staleness_bound,
        vnodes=vnodes,
    )
    try:
        spec = generator.spec
        import random as _random

        rng = _random.Random(seed)
        preloaded = set()
        for _ in range(preload):
            response = gateway.submit(
                spec.form, spec.clean_payload(rng), spec.cleared_users[0]
            )
            if response.status != 201:  # pragma: no cover - preload is clean
                raise RuntimeError(f"preload write failed: {response.status}")
            preloaded.add(response.body["id"])
        operations = generator.plan(count)
        report = LoadReport(spec=spec)
        if topology and count >= 3:
            first_cut = count // 3
            second_cut = (2 * count) // 3
            generator.run(
                gateway, operations=operations[:first_cut],
                threads=threads, report=report,
            )
            gateway.split_shard()
            generator.run(
                gateway, operations=operations[first_cut:second_cut],
                threads=threads, report=report,
            )
            gateway.merge_shard(0)
            generator.run(
                gateway, operations=operations[second_cut:],
                threads=threads, report=report,
            )
        else:
            generator.run(
                gateway, operations=operations,
                threads=threads, report=report,
            )
        violations = verify_guarantees(
            gateway, report, ignore_ids=frozenset(preloaded)
        )
        if gateway.router.overrides_active():
            violations.append(
                f"{gateway.router.overrides_active()} unresolved migration "
                f"override(s) after the run"
            )
        applied = Counter(
            gateway.fault_injector.applied
        ) if gateway.fault_injector else Counter()
        rows = cluster_state(gateway)
        result = TopologyChaosResult(
            seed=seed,
            plan=plan,
            report=report,
            violations=violations,
            applied=applied,
            preloaded=frozenset(preloaded),
            backend=gateway.shards[0].persistence.name,
            replicas=replicas,
            staleness_bound=staleness_bound,
            initial_shards=shard_count,
            final_shards=len(gateway.router.all_shards()),
            splits=gateway.splits,
            merges=gateway.merges,
            migrated=gateway.migrated,
            failovers=gateway.failovers,
            restarts=sum(gateway.shard_restarts),
            max_served_lag=gateway.max_served_lag,
            replica_reads=gateway.replica_reads,
            records=len(rows),
            checksum=state_checksum(rows),
        )
    finally:
        gateway.close()
        if tempdir is not None:
            tempdir.cleanup()
    return result
