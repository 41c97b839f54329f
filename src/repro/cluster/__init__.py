"""``repro.cluster`` — the sharded DQ serving layer.

**Beyond the paper.**  DQ_WebRE ends at a single generated web application
(the EasyChair case study); this package is our scaling extension: a
:class:`~repro.cluster.gateway.ShardedGateway` fronting N ``WebApp``
shards with consistent-hash key routing, per-shard locking (each
request runs on its caller's thread), a confidentiality-aware
read-through cache, backpressure on requests in flight (429/503), gateway
metrics, and a deterministic load generator for tests and benchmarks.

Every DQSR family the paper derives stays enforced *in the serving path*:
writes still run the full validate→authorize→store→audit pipeline on
their home shard; reads stay confidentiality-filtered (the cache keys by
user + clearance, so a filtered body can never leak across users);
traceability and optimistic concurrency behave exactly as on one app.

The :mod:`~repro.cluster.resilience` layer adds deterministic fault
injection (seeded :class:`~repro.cluster.resilience.FaultPlan`) plus the
machinery to survive it — bounded retries with backoff, per-shard circuit
breakers, idempotent task replay, and explicitly tagged degraded reads —
with :func:`~repro.cluster.resilience.run_chaos` as the one-call chaos
harness.
"""

from .bench import (
    BenchReport,
    ComparisonResult,
    ComparisonRow,
    HotpathRow,
    SmokeResult,
    run_columnar_bench,
    run_comparison,
    run_dqtelemetry_bench,
    run_durability_bench,
    run_hotpath_bench,
    run_replication_bench,
    run_smoke,
    run_validation_bench,
)
from .cache import CacheStats, LastGoodStore, ReadThroughCache
from .gateway import GatewayRoute, ShardedGateway
from .loadgen import (
    CHAOS_MIX,
    LoadGenerator,
    LoadReport,
    Operation,
    READ_HEAVY_MIX,
    SOAK_MIX,
    WorkloadSpec,
    easychair_spec,
    verify_guarantees,
)
from .metrics import GatewayMetrics
from .replication import (
    LogTruncated,
    ReplicaSet,
    ReplicationLog,
)
from .resilience import (
    CACHE_FILL,
    CRASH,
    ChaosResult,
    CircuitBreaker,
    DROP,
    DUPLICATE,
    FAILOVER,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    IdempotencyRegistry,
    KILL,
    LATENCY,
    REPLICA_LAG,
    ResilienceConfig,
    RetryPolicy,
    ShardFailedOver,
    ShardKilled,
    ShardUnavailable,
    run_chaos,
)
from .ring import DEFAULT_VNODES, HashRing, RingRouter, fnv1a, moved_fraction
from .topology import (
    TopologyChaosResult,
    cluster_state,
    run_topology_chaos,
    state_checksum,
)

__all__ = [
    "BenchReport",
    "CACHE_FILL",
    "CHAOS_MIX",
    "CRASH",
    "CacheStats",
    "ChaosResult",
    "CircuitBreaker",
    "ComparisonResult",
    "ComparisonRow",
    "DEFAULT_VNODES",
    "DROP",
    "DUPLICATE",
    "FAILOVER",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "GatewayMetrics",
    "GatewayRoute",
    "HashRing",
    "HotpathRow",
    "IdempotencyRegistry",
    "KILL",
    "LATENCY",
    "LastGoodStore",
    "LoadGenerator",
    "LoadReport",
    "LogTruncated",
    "Operation",
    "READ_HEAVY_MIX",
    "REPLICA_LAG",
    "ReadThroughCache",
    "ReplicaSet",
    "ReplicationLog",
    "ResilienceConfig",
    "RetryPolicy",
    "RingRouter",
    "SOAK_MIX",
    "ShardFailedOver",
    "ShardKilled",
    "ShardUnavailable",
    "ShardedGateway",
    "SmokeResult",
    "TopologyChaosResult",
    "WorkloadSpec",
    "cluster_state",
    "easychair_spec",
    "fnv1a",
    "moved_fraction",
    "run_chaos",
    "run_columnar_bench",
    "run_comparison",
    "run_dqtelemetry_bench",
    "run_durability_bench",
    "run_hotpath_bench",
    "run_replication_bench",
    "run_smoke",
    "run_topology_chaos",
    "run_validation_bench",
    "state_checksum",
    "verify_guarantees",
]
