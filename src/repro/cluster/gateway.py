"""The sharded DQ gateway: N ``WebApp`` shards behind one serving facade.

``ShardedGateway`` is the serving layer the ROADMAP's scale goal needs and
the paper's case study never had to build: every DQSR guarantee the
single-threaded :class:`~repro.runtime.app.WebApp` enforces (completeness
and precision validation, confidentiality filtering, traceability and
audit, optimistic concurrency) is preserved while requests spread across
shards.

Design in one breath:

* **Placement** — the gateway allocates global record ids and routes every
  keyed operation with the consistent-hash
  :class:`~repro.cluster.ring.RingRouter`; listing reads scatter to every
  live shard and gather a merged, id-sorted body.
* **Dispatch** — every request runs on its caller's thread; the gateway
  starts no threads of its own.
* **Isolation** — each shard is guarded by its own re-entrant lock, so a
  shard's ``WebApp`` only ever sees one request at a time and stays
  internally consistent; concurrent callers proceed on different shards.
* **Backpressure** — requests in flight are counted; past
  ``max_queue_depth`` the gateway answers **429** immediately instead of
  letting callers pile up on the shard locks, and **503** once closed.
* **Caching** — reads go through a confidentiality-aware
  :class:`~repro.cluster.cache.ReadThroughCache`.  Every shard has a data
  version that each accepted write on it moves; a cached list keeps one
  row part per shard and re-reads only the shards whose version moved,
  and an accepted update drops only its own record's cached views.  So
  a stale body can never be served after the write was acknowledged,
  and a write retires only what it changed.
* **Replication** — ``replicas=N`` gives every shard N followers fed by
  the primary's acknowledged op log
  (:class:`~repro.cluster.replication.ReplicaSet`).  Reads are then
  served from followers, bypassing the cache, as **203
  Non-Authoritative** responses carrying the observed lag and the
  staleness bound; a read never serves lag beyond the bound.  Failover
  promotes the most caught-up follower with no acknowledged write lost;
  without followers it degrades to a kill-restart.
* **Elasticity** — live :meth:`~ShardedGateway.split_shard` /
  :meth:`~ShardedGateway.merge_shard` stream records donor→recipient in
  WAL ``adopt``/``retire`` ops while the gateway keeps serving, with
  per-record routing overrides pinning each record to whichever shard
  holds it mid-move.

Cross-shard listing is *per-shard consistent*, not a cross-shard snapshot:
a scatter-gather that races a write may see the write on one shard and not
another — the same contract most production sharded stores offer.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Sequence

from repro.core.errors import (
    AuthorizationError,
    DataQualityViolation,
    VersionConflictError,
)
from repro.dq.metadata import Clock
from repro.persistence import op_tick
from repro.runtime import audit as audit_events
from repro.runtime.app import WebApp
from repro.runtime.http import (
    Request,
    Response,
    conflict,
    created,
    degraded,
    forbidden,
    malformed_body,
    method_not_allowed,
    not_found,
    ok,
    path_record_id,
    replica_read,
    too_many_requests,
    unavailable,
    unprocessable,
)

from .cache import FrozenBody, FrozenList, LastGoodStore, ReadThroughCache
from .metrics import GatewayMetrics
from .replication import ReplicaSet, ReplicationLog
from .resilience import (
    CACHE_FILL,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    IdempotencyRegistry,
    OperationTimeout,
    ResilienceConfig,
    ShardCrashed,
    ShardFailedOver,
    ShardKilled,
    ShardUnavailable,
    TaskDropped,
    TransientShardFault,
)
from .ring import DEFAULT_VNODES, HashRing, RingRouter

#: Default follower-read staleness bound (acked-but-unapplied ops).
DEFAULT_STALENESS_BOUND = 16


@dataclass(frozen=True)
class GatewayRoute:
    """One exposed HTTP-facade route: kind + path pattern + target.

    The pattern is split once, into ``(name, is_parameter)`` segments.
    """

    kind: str  # "create" | "update" | "list" | "view"
    method: str
    path: str
    target: str  # form name (create/update) or entity name (list/view)

    def __post_init__(self):
        object.__setattr__(self, "_segments", tuple(
            (s[1:-1], True) if s.startswith("<") and s.endswith(">")
            else (s, False)
            for s in self.path.split("/") if s
        ))

    @property
    def parameterized(self) -> bool:
        return "<" in self.path

    def match(self, path: str) -> Optional[dict]:
        segments = [s for s in path.split("/") if s]
        if len(self._segments) != len(segments):
            return None
        params: dict = {}
        for (name, parameter), actual in zip(self._segments, segments):
            if parameter:
                params[name] = actual
            elif name != actual:
                return None
        return params


class ShardedGateway:
    """A sharded, caching front for N ``WebApp`` shards.

    ``shards`` must be built identically (same entities, forms, policies
    and registered users) — :meth:`from_design` does exactly that from a
    design model.  Requests run on the caller's thread.
    ``cache_capacity=0`` disables the read cache; ``max_queue_depth``
    bounds requests in flight before 429s start.  ``vnodes`` sizes each
    shard's share of the hash ring;
    ``replicas`` followers per shard (attached by :meth:`from_design`)
    serve reads lagging at most ``staleness_bound`` acked ops.
    """

    def __init__(
        self,
        shards: Sequence[WebApp],
        cache_capacity: int = 256,
        max_queue_depth: int = 64,
        fault_plan: Optional[FaultPlan] = None,
        resilience: Optional[ResilienceConfig] = None,
        write_batch_max: int = 32,
        replicas: int = 0,
        staleness_bound: int = DEFAULT_STALENESS_BOUND,
        vnodes: int = DEFAULT_VNODES,
    ):
        if not shards:
            raise ValueError("a gateway needs at least one shard")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if write_batch_max < 1:
            raise ValueError("write_batch_max must be >= 1")
        if replicas < 0:
            raise ValueError("replicas must be >= 0")
        if staleness_bound < 0:
            raise ValueError("staleness_bound must be >= 0")
        self.shards = list(shards)
        self.write_batch_max = write_batch_max
        # form→entity and user→clearance are static once the shards are
        # built; memoize them so the hot paths stop re-resolving through
        # shard 0 (and do so without that shard's lock) on every request.
        # Late registrations are absorbed lazily by the accessors.
        self._form_entities: dict[str, str] = {
            form.name: form.entity for form in self.shards[0].forms
        }
        self._user_levels: dict[str, int] = {
            account.name: account.level
            for account in self.shards[0].users.accounts()
        }
        self.router = RingRouter(len(self.shards), vnodes=vnodes)
        self.cache = ReadThroughCache(cache_capacity)
        self.metrics = GatewayMetrics(len(self.shards))
        self.max_queue_depth = max_queue_depth
        self._shard_locks = [threading.RLock() for _ in self.shards]
        # requests in flight; ``close`` waits on ``_drained`` for zero
        self._pending = 0
        self._pending_lock = threading.Lock()
        self._drained = threading.Condition(self._pending_lock)
        # Each shard's data version moves on every accepted write applied
        # there, on both sides of a record migration, and on its restart
        # or failover.  Versions come from one counter, so no two shards
        # (nor one shard at two moments) share one, and a tuple of them
        # also names the shards it covers.
        self._version_stamps = itertools.count()
        self._shard_versions = [
            next(self._version_stamps) for _ in self.shards
        ]
        # the entity version only feeds the degraded-read headers
        self._entity_versions: dict[str, int] = {}
        self._version_lock = threading.Lock()
        self._routes: list[GatewayRoute] = []
        self._closed = False
        # Durability: ``_shard_factory(index)`` rebuilds shard ``index``
        # from its durable state after a kill (set by ``from_design``);
        # without one, injected kills degrade to plain crashes.
        self._shard_factory = None
        self.shard_restarts = [0] * len(self.shards)
        # Replication: ``from_design`` sets the follower factory and one
        # ReplicaSet per shard; a fleet without followers keeps ``None``
        # in every slot.
        self.replicas = replicas
        self.staleness_bound = staleness_bound
        self.replica_sets: list[Optional[ReplicaSet]] = (
            [None] * len(self.shards)
        )
        self._follower_factory = None
        self._topology_lock = threading.RLock()
        self._lag_lock = threading.Lock()
        self._lag_inhibit = [False] * len(self.shards)
        # deterministic counters the topology chaos report renders
        self.splits = 0
        self.merges = 0
        self.migrated = 0
        self.failovers = 0
        self.replica_reads = 0
        self.stale_serves = 0
        self.max_served_lag = 0
        # -- resilience layer: injected faults must be survivable --------
        if fault_plan is not None and resilience is None:
            resilience = ResilienceConfig()
        self.resilience = resilience
        self.fault_injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        self._op_tokens = itertools.count(1)
        if resilience is not None:
            self._breakers: Optional[list[CircuitBreaker]] = [
                self._new_breaker(index) for index in range(len(self.shards))
            ]
            # Only injected faults retry or duplicate a keyed call, so a
            # fleet without a fault plan keeps no replay registry.
            self._idempotency: Optional[IdempotencyRegistry] = (
                IdempotencyRegistry(resilience.idempotency_capacity)
                if self.fault_injector is not None else None
            )
            self._last_good: Optional[LastGoodStore] = LastGoodStore(
                resilience.last_good_capacity
            )
        else:
            self._breakers = None
            self._idempotency = None
            self._last_good = None

    def _new_breaker(self, shard_index: int) -> CircuitBreaker:
        clock = (
            self.fault_injector.clock
            if self.fault_injector is not None else None
        )
        return CircuitBreaker(
            failure_threshold=self.resilience.breaker_failure_threshold,
            cooldown=self.resilience.breaker_cooldown,
            clock=clock,
            on_transition=(
                lambda origin, to, shard=shard_index:
                self.metrics.observe_breaker(shard, origin, to)
            ),
        )

    # -- assembly ---------------------------------------------------------

    @classmethod
    def from_design(
        cls,
        design_model,
        shard_count: int = 4,
        users: Sequence[tuple] = (),
        persistence=None,
        replicas: int = 0,
        **gateway_options,
    ) -> "ShardedGateway":
        """Build ``shard_count`` identical shards from a design model.

        ``users`` are ``(name, level, roles)`` triples registered on every
        shard (reads broadcast, so each shard must know every account).
        ``persistence`` is a per-shard backend factory
        (:func:`repro.persistence.persistence_factory`): each shard gets
        ``persistence(index)`` as its durable store and is **recovered
        from it** at build time, so constructing a gateway over an
        existing data directory resumes where the last process stopped.
        With ``replicas`` >= 1 every shard's backend (or, without one, a
        pure in-memory log) is wrapped in a :class:`ReplicationLog`, so
        its followers always have an acknowledged op stream to pull.
        """
        from repro.persistence import recover_app
        from repro.runtime.dqengine import build_app
        from repro.runtime.vpipeline import PlanCache

        # all shards run identical chains: one shared plan cache means
        # each chain compiles exactly once fleet-wide
        plan_cache = PlanCache()

        def make_app(backend=None, cache=plan_cache) -> WebApp:
            app = build_app(
                design_model, clock=Clock(), plan_cache=cache,
                persistence=backend,
            )
            for name, level, roles in users:
                app.add_user(name, level, roles)
            return app

        def make_shard(index: int) -> WebApp:
            backend = persistence(index) if persistence is not None else None
            if replicas:
                backend = ReplicationLog(
                    backend,
                    None if persistence is None
                    else lambda: persistence(index),
                )
            app = make_app(backend)
            if backend is not None and backend.durable:
                recover_app(app, backend)
            return app

        shards = [make_shard(index) for index in range(shard_count)]
        gateway = cls(shards, replicas=replicas, **gateway_options)
        gateway._shard_factory = make_shard
        if persistence is not None:
            # the router's global id counters must resume past every
            # recovered (or reserved) id, or the first post-restart
            # create would re-allocate an id a shard already holds
            for shard in shards:
                for entity_name in shard.store.entity_names:
                    top = shard.store.entity(entity_name).high_water_id()
                    if top:
                        gateway.router.observe_id(entity_name, top)
        if replicas:
            # followers are structurally identical apps with no durable
            # backend of their own — they replay the primary's log, so
            # confidentiality buckets, columns and telemetry are rebuilt
            # by the same restore paths crash recovery uses
            follower_cache = PlanCache()
            gateway._follower_factory = lambda: make_app(cache=follower_cache)
            for index, shard in enumerate(shards):
                gateway.replica_sets[index] = gateway._new_replica_set(shard)
        for route in design_model.routes:
            if route.kind == "create":
                gateway.expose_create(route.path, route.form.name)
                entity = route.form.entity.name
                gateway.expose_view(f"{route.path}/<id>", entity)
                gateway.expose_update(f"{route.path}/<id>", route.form.name)
            elif route.kind == "update":
                gateway.expose_update(route.path, route.form.name)
            elif route.kind == "list":
                gateway.expose_list(route.path, route.entity.name)
            elif route.kind == "view":
                gateway.expose_view(route.path, route.entity.name)
        return gateway

    def _new_replica_set(self, primary: WebApp) -> ReplicaSet:
        replica_set = ReplicaSet(
            self._follower_factory, primary.persistence, count=self.replicas
        )
        # covers the recovered-from-disk case: followers start from the
        # primary's snapshot at the acked watermark
        replica_set.seed_from(primary)
        return replica_set

    def _expose(self, route: GatewayRoute) -> "ShardedGateway":
        # exact paths first, so "/…/list" wins over "/…/<id>"; the sort
        # is stable, so exposure order holds otherwise
        self._routes.append(route)
        self._routes.sort(key=lambda r: r.parameterized)
        return self

    def expose_create(self, path: str, form_name: str) -> "ShardedGateway":
        return self._expose(GatewayRoute("create", "POST", path, form_name))

    def expose_update(self, path: str, form_name: str) -> "ShardedGateway":
        return self._expose(GatewayRoute("update", "PUT", path, form_name))

    def expose_list(self, path: str, entity: str) -> "ShardedGateway":
        return self._expose(GatewayRoute("list", "GET", path, entity))

    def expose_view(self, path: str, entity: str) -> "ShardedGateway":
        return self._expose(GatewayRoute("view", "GET", path, entity))

    @property
    def routes(self) -> list[GatewayRoute]:
        return list(self._routes)

    def validation_stats(self) -> dict:
        """Aggregated validator-pipeline counters across every shard.

        Shards built by :meth:`from_design` share one plan cache, which
        :meth:`~repro.runtime.vpipeline.ValidationStats.merge` counts
        exactly once.
        """
        from repro.runtime.vpipeline import ValidationStats

        return ValidationStats.merge(
            (shard.validation.as_dict() for shard in self.shards),
            (shard.plan_cache for shard in self.shards),
        )

    def telemetry_stats(self) -> dict:
        """Aggregated streaming-DQ-telemetry counters across every shard
        (counts only — safe for the byte-identical chaos report)."""
        stats = {
            "records": 0,
            "updates": 0,
            "tracked_fields": 0,
            "spilled_fields": 0,
            "rebuilds": 0,
            "disabled_entities": 0,
        }
        for shard in self.shards:
            for name in shard.store.entity_names:
                store = shard.store.entity(name)
                per_entity = store.measure_telemetry(
                    lambda accumulator: accumulator.stats()
                )
                if per_entity is None:
                    stats["disabled_entities"] += 1
                    continue
                stats["records"] += per_entity["records"]
                stats["updates"] += per_entity["updates"]
                stats["tracked_fields"] += per_entity["tracked_fields"]
                stats["spilled_fields"] += per_entity["spilled_fields"]
                stats["rebuilds"] += store.telemetry_rebuilds
        return stats

    def dq_telemetry(self, entity: str):
        """The cluster-wide accumulator for one entity: per-shard
        snapshots merged shard-0-first (``None`` when telemetry is
        disabled on any shard — a partial merge would under-count)."""
        from repro.dq.streaming import merge_accumulators

        return merge_accumulators(
            shard.store.entity(entity).telemetry_snapshot()
            for shard in self.shards
        )

    def live_scorecard(
        self,
        entity: str,
        required_fields: Sequence[str] = (),
        bounds=None,
        max_age: int = 100,
    ):
        """Cluster-wide DQ score lines served from streaming telemetry —
        O(shards × fields) instead of a rescan of every shard's records.

        Each shard contributes one reduced reading (per-field present
        and in-bounds counts, provenance / protection tallies and its
        own clock's Currentness total) gathered under its entity lock —
        no snapshot copies, so a read costs the same whether the shard
        holds ten records or a million.  A bounded field whose tracker
        spilled past exact counting on any shard is rescanned instead.
        Line-for-line equivalent to :meth:`rescan_scorecard` — exactly
        for Precision, Traceability and Confidentiality, to float
        tolerance for Completeness and Currentness.  ``None`` when
        telemetry is disabled on any shard.  A shard with followers is
        read from its caught-up follower (honoring a pending lag window)
        instead of its primary.
        """
        from repro.dq.metrics import in_bounds
        from repro.dq.scorecard import ScoreLine

        bounds = dict(bounds or {})
        fields = tuple(required_fields) or tuple(
            self.shards[0].store.entity(entity).fields
        )
        policy = self.shards[0].policies.for_entity(entity)
        level = policy.security_level
        apps = list(self.shards)
        for index, replica_set in enumerate(self.replica_sets):
            if replica_set is not None:
                self._refresh_followers(index, apps[index])
                apps[index] = replica_set.follower()
        readings = []
        for shard in apps:
            now = shard.clock.peek()

            def read(accumulator, now=now):
                valid = []
                for name, (lower, upper) in bounds.items():
                    field = accumulator.field_or_none(name)
                    valid.append(
                        field.count_in_bounds(lower, upper)
                        if field is not None else 0
                    )
                return (
                    accumulator.records,
                    sum(accumulator.present_of(name) for name in fields),
                    valid,
                    accumulator.currentness_total(now, max_age)
                    if accumulator.records else 0.0,
                    accumulator.traced,
                    accumulator.protected_count(level) if level else 0,
                )

            reading = shard.store.entity(entity).measure_telemetry(read)
            if reading is None:
                return None
            readings.append(reading)
        total = sum(reading[0] for reading in readings)
        present_sum = sum(reading[1] for reading in readings)
        valid_list = []
        for index in range(len(bounds)):
            per_shard = [reading[2][index] for reading in readings]
            valid_list.append(
                None if any(count is None for count in per_shard)
                else sum(per_shard)
            )
        decayed = sum(reading[3] for reading in readings)
        traced = sum(reading[4] for reading in readings)
        protected = sum(reading[5] for reading in readings)
        lines = []
        if total == 0 or not fields:
            completeness = 1.0
        else:
            completeness = present_sum / (total * len(fields))
        lines.append(ScoreLine(
            "Completeness", completeness,
            f"{total} record(s) x {len(fields)} required field(s)",
        ))
        if not bounds:
            lines.append(ScoreLine("Precision", 1.0, "no bounds declared"))
        else:
            ratios = []
            for index, (name, (lower, upper)) in enumerate(bounds.items()):
                if total == 0:
                    ratios.append(1.0)
                    continue
                valid = valid_list[index]
                if valid is None:
                    # spilled past exact tracking: only a rescan of this
                    # field is exact
                    valid = sum(
                        1
                        for shard in apps
                        for stored in shard.store.entity(entity).all()
                        if in_bounds(stored.data.get(name), lower, upper)
                    )
                ratios.append(valid / total)
            lines.append(ScoreLine(
                "Precision", sum(ratios) / len(ratios),
                f"{len(bounds)} bounded field(s)",
            ))
        if total == 0:
            lines.append(ScoreLine("Currentness", 1.0, "no records"))
        else:
            lines.append(ScoreLine(
                "Currentness", decayed / total, f"max age {max_age} ticks"
            ))
        if total == 0:
            lines.append(ScoreLine("Traceability", 1.0, "no records"))
        else:
            lines.append(ScoreLine(
                "Traceability", traced / total,
                f"{traced}/{total} record(s) with provenance",
            ))
        if level == 0:
            lines.append(ScoreLine(
                "Confidentiality", 1.0, "entity is unrestricted"
            ))
        elif total == 0:
            lines.append(ScoreLine("Confidentiality", 1.0, "no records"))
        else:
            lines.append(ScoreLine(
                "Confidentiality", protected / total,
                f"policy level {policy.security_level}",
            ))
        return lines

    def rescan_scorecard(
        self,
        entity: str,
        required_fields: Sequence[str] = (),
        bounds=None,
        max_age: int = 100,
    ):
        """The full-rescan twin of :meth:`live_scorecard` — O(records),
        identical composition.  Retained as the equivalence oracle and
        the fallback when telemetry is off."""
        from repro.dq import metrics as dq_metrics
        from repro.dq.scorecard import ScoreLine

        per_shard = [
            shard.store.entity(entity).all() for shard in self.shards
        ]
        stored = [record for chunk in per_shard for record in chunk]
        total = len(stored)
        bounds = dict(bounds or {})
        fields = tuple(required_fields) or tuple(
            self.shards[0].store.entity(entity).fields
        )
        data = [record.data for record in stored]
        lines = [ScoreLine(
            "Completeness",
            dq_metrics.dataset_completeness(data, fields),
            f"{total} record(s) x {len(fields)} required field(s)",
        )]
        if not bounds:
            lines.append(ScoreLine("Precision", 1.0, "no bounds declared"))
        else:
            ratios = [
                dq_metrics.precision_ratio(data, name, lower, upper)
                for name, (lower, upper) in bounds.items()
            ]
            lines.append(ScoreLine(
                "Precision", sum(ratios) / len(ratios),
                f"{len(bounds)} bounded field(s)",
            ))
        if total == 0:
            lines.append(ScoreLine("Currentness", 1.0, "no records"))
        else:
            decayed = sum(
                dq_metrics.currentness_score(
                    record.metadata.age(shard.clock), max_age
                )
                for shard, chunk in zip(self.shards, per_shard)
                for record in chunk
            )
            lines.append(ScoreLine(
                "Currentness", decayed / total, f"max age {max_age} ticks"
            ))
        if total == 0:
            lines.append(ScoreLine("Traceability", 1.0, "no records"))
        else:
            traced = sum(
                1 for record in stored
                if record.metadata.stored_by
                and record.metadata.stored_date is not None
            )
            lines.append(ScoreLine(
                "Traceability", traced / total,
                f"{traced}/{total} record(s) with provenance",
            ))
        policy = self.shards[0].policies.for_entity(entity)
        if policy.security_level == 0:
            lines.append(ScoreLine(
                "Confidentiality", 1.0, "entity is unrestricted"
            ))
        elif total == 0:
            lines.append(ScoreLine("Confidentiality", 1.0, "no records"))
        else:
            protected = sum(
                1 for record in stored
                if record.metadata.security_level >= policy.security_level
            )
            lines.append(ScoreLine(
                "Confidentiality", protected / total,
                f"policy level {policy.security_level}",
            ))
        return lines

    def close(self) -> None:
        """Stop accepting requests; requests in flight drain first.

        Durable shard backends are closed cleanly (pending WAL appends
        synced), so a closed gateway's data directory always recovers."""
        with self._pending_lock:
            self._closed = True
            while self._pending:
                self._drained.wait()
        for shard in self.shards:
            persistence = getattr(shard, "persistence", None)
            if persistence is not None:
                persistence.close()

    def __enter__(self) -> "ShardedGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch machinery ----------------------------------------------

    def _dispatch(self, operation: str, shards: tuple, work) -> Response:
        with self._pending_lock:
            if self._closed:
                self.metrics.observe_unavailable()
                return unavailable("gateway is closed")
            if self._pending >= self.max_queue_depth:
                self.metrics.observe_backpressure()
                return too_many_requests(
                    f"queue depth {self.max_queue_depth} exceeded",
                    retry_after=1,
                )
            self._pending += 1
        start = time.perf_counter()
        try:
            response = work()
        finally:
            self._release(1)
        self.metrics.observe(
            operation, shards, response.status, time.perf_counter() - start
        )
        return response

    def _release(self, slots: int) -> None:
        with self._pending_lock:
            self._pending -= slots
            if not self._pending:
                self._drained.notify_all()

    def _entity_of_form(self, form_name: str) -> str:
        entity = self._form_entities.get(form_name)
        if entity is None:  # registered after construction: memoize now
            entity = self.shards[0].form(form_name).entity
            self._form_entities[form_name] = entity
        return entity

    def _clearance(self, user: str) -> int:
        level = self._user_levels.get(user)
        if level is None:
            directory = self.shards[0].users
            level = directory.get(user).level
            if directory.known(user):  # anonymous users are never cached
                self._user_levels[user] = level
        return level

    def _entity_version(self, entity: str) -> int:
        with self._version_lock:
            return self._entity_versions.get(entity, 0)

    def _shard_changed(self, shard_index: int) -> None:
        """Move a shard's data version, under its lock and after the
        change: list parts read from it before stop matching."""
        self._shard_versions[shard_index] = next(self._version_stamps)

    def _accepted_write(
        self, shard_index: int, entity: str, record_id: Optional[int] = None
    ) -> None:
        """Retire what one accepted write changed, under its home-shard
        lock and before the acknowledgement: the shard's list parts, and
        for an update (``record_id``) that record's cached views.  A
        create drops no view, because a 404 is never cached."""
        self._shard_changed(shard_index)
        with self._version_lock:
            self._entity_versions[entity] = (
                self._entity_versions.get(entity, 0) + 1
            )
        if record_id is not None:
            self.cache.invalidate_record(entity, record_id)

    def _replaced(self, shard_index: int) -> None:
        """A shard restarted or failed over, under its lock: whatever it
        lost may sit in any cached read, so its list parts retire and
        every cached entry of its entities is dropped."""
        self._shard_changed(shard_index)
        for entity in self.shards[shard_index].store.entity_names:
            self.cache.invalidate_entity(entity)

    # -- resilient shard calls -------------------------------------------

    def breaker_states(self) -> Optional[list[str]]:
        """Every shard breaker's current state (None when disabled)."""
        if self._breakers is None:
            return None
        return [breaker.state for breaker in self._breakers]

    def _call_shard(
        self,
        operation: str,
        shard_index: int,
        apply,
        idempotency_key=None,
    ):
        """Run ``apply(shard_app)`` under the shard lock, surviving faults.

        Without a resilience config this is a plain locked call.  With
        one, the call flows through the per-shard circuit breaker (open =
        shed immediately), the fault injector, and the bounded-backoff
        retry loop; keyed calls are applied at most once no matter how
        often they are retried or duplicated.  Raises
        :class:`ShardUnavailable` when the shard cannot serve.
        """
        if self.resilience is None:
            with self._shard_locks[shard_index]:
                return apply(self.shards[shard_index])
        policy = self.resilience.retry
        breaker = self._breakers[shard_index]
        last_fault: Optional[TransientShardFault] = None
        for attempt in range(1, policy.max_attempts + 1):
            if not breaker.allow():
                if self.fault_injector is not None:
                    self.fault_injector.tick()  # shed calls still age the
                return self._shed(              # breaker's cooldown clock
                    shard_index, f"circuit {breaker.state}"
                )
            if attempt > 1:
                self.metrics.observe_retry(operation)
                delay = policy.backoff(attempt - 1)
                self.metrics.observe_backoff(delay)
                if self.resilience.sleeper is not None:
                    self.resilience.sleeper(delay)
            try:
                result = self._apply_once(shard_index, apply, idempotency_key)
            except TransientShardFault as fault:
                last_fault = fault
                breaker.record_failure()
                self.metrics.observe_fault(fault.kind)
                continue
            breaker.record_success()
            return result
        return self._shed(
            shard_index,
            f"retries exhausted after {policy.max_attempts} attempt(s): "
            f"{last_fault}",
        )

    @staticmethod
    def _shed(shard_index: int, reason: str):
        raise ShardUnavailable(shard_index, reason)

    def _kill_and_restart(self, shard_index: int) -> None:
        """Kill -9 one shard and bring a replacement up from durable state.

        The shard lock is taken first, so no call is mid-apply when the
        process "dies": everything already acknowledged was group-committed
        and survives; whatever sat unsynced in the WAL buffer is lost,
        exactly like a real crash.  The shard's followers are re-pointed
        at the replacement and re-seeded from it.  With no shard factory
        the kill cannot be followed by a restart, so it degrades to a
        plain crash fault.
        """
        if self._shard_factory is None:
            raise ShardCrashed(
                shard_index, "injected kill (no shard factory to restart)"
            )
        with self._shard_locks[shard_index]:
            app = self.shards[shard_index]
            persistence = getattr(app, "persistence", None)
            if persistence is not None:
                persistence.kill()
            restarted = self._shard_factory(shard_index)
            self.shards[shard_index] = restarted
            self.shard_restarts[shard_index] += 1
            self._replaced(shard_index)
            replica_set = self.replica_sets[shard_index]
            if replica_set is not None:
                replica_set.rebind(restarted.persistence)
                replica_set.seed_from(restarted)

    def restart_shard(self, shard_index: int) -> None:
        """Deliberately kill-and-restart one shard (durability drills)."""
        self._kill_and_restart(shard_index)

    def fail_over(self, shard_index: int) -> None:
        """Lose one primary (an injected FAILOVER, or a drill).

        With followers, the most caught-up one is promoted under the
        shard lock.  The dead primary's staged-but-unsynced ops are
        dropped (exactly what a crash loses); everything acked was
        shipped, so the follower drains the log tail and takes over the
        primary's durable location with no acknowledged write lost.
        Without followers there is nothing to promote, so the fault
        degrades to a kill-restart: the shard restarts from durable
        state (losing unsynced writes), or empty on a memory backend.
        """
        replica_set = self.replica_sets[shard_index]
        if replica_set is None:
            self._kill_and_restart(shard_index)
            return
        with self._shard_locks[shard_index]:
            log: ReplicationLog = self.shards[shard_index].persistence
            log.kill()
            replica_set.catch_up()
            promoted, _lead = replica_set.promote()
            successor = log.successor()
            promoted.attach_persistence(successor)
            self.shards[shard_index] = promoted
            replica_set.rebind(successor)
            self.shard_restarts[shard_index] += 1
            self._replaced(shard_index)
            with self._lag_lock:
                self.failovers += 1

    def inhibit_catch_up(self, shard_index: int) -> None:
        """Open a replica-lag window (an injected REPLICA_LAG, or a
        drill): the shard's next follower read serves whatever the
        follower already has, within the staleness bound, instead of
        pulling the log first.  Nothing to lag without followers."""
        if self.replica_sets[shard_index] is not None:
            with self._lag_lock:
                self._lag_inhibit[shard_index] = True

    def _apply_once(self, shard_index: int, apply, idempotency_key):
        """One attempt: consult the injector, then apply exactly once.

        Injected faults fire *before* the shard is touched, so a failed
        attempt is never half-applied; the ambiguous-outcome case (did my
        task run?) is modelled by DUPLICATE faults, which replay the task
        and must be absorbed by the idempotency registry.
        """
        injection = None
        if self.fault_injector is not None:
            injection = self.fault_injector.next_call(shard_index)
            if injection.kill:
                # fires before the shard is touched, so the killed task
                # was never half-applied; the retry loop re-runs it
                # against the restarted shard
                self._kill_and_restart(shard_index)
                raise ShardKilled(
                    shard_index, "injected kill -9 (shard restarted)"
                )
            if injection.failover:
                # fires before the shard is touched, like a kill: the
                # task was never half-applied, and the retry loop
                # re-runs it against the promoted (or restarted) shard
                self.fail_over(shard_index)
                raise ShardFailedOver(
                    shard_index, "injected primary loss (failover)"
                )
            if injection.lag:
                self.inhibit_catch_up(shard_index)
            if injection.crash:
                raise ShardCrashed(shard_index, "injected shard crash")
            if injection.latency > self.resilience.operation_timeout:
                raise OperationTimeout(
                    shard_index,
                    f"injected latency {injection.latency * 1000:.1f}ms "
                    f"exceeds the "
                    f"{self.resilience.operation_timeout * 1000:.1f}ms budget",
                )
            if injection.drop:
                raise TaskDropped(shard_index, "injected task drop")

        def run():
            with self._shard_locks[shard_index]:
                return apply(self.shards[shard_index])

        if idempotency_key is not None and self._idempotency is not None:
            result = self._idempotency.run_once(idempotency_key, run)
            if injection is not None and injection.duplicate:
                # the duplicated task replays; the registry must dedupe it
                self._idempotency.run_once(idempotency_key, run)
        else:
            result = run()
            if injection is not None and injection.duplicate:
                run()  # reads are naturally idempotent: a replay is harmless
        return result

    def _degraded_read(
        self, operation: str, entity: str, key: tuple,
        exc: ShardUnavailable,
    ) -> Response:
        """Serve the last known good body, explicitly tagged — or 503.

        Never silent: a degraded body always arrives as 203 with the
        served-vs-current data versions in the headers, so the
        Traceability DQSR survives the outage.
        """
        if self._last_good is not None:
            remembered = self._last_good.lookup(key)
            if remembered is not None:
                body, served_version = remembered
                self.metrics.observe_degraded(operation)
                return degraded(
                    body,
                    served_version=served_version,
                    current_version=self._entity_version(entity),
                )
        self.metrics.observe_shed(operation)
        return unavailable(str(exc))

    def _keeps_reads(self) -> bool:
        """Whether the read cache or the last-good store holds bodies."""
        return self.cache.capacity > 0 or (
            self._last_good is not None and self._last_good.capacity > 0
        )

    def _keep_read(
        self, key: tuple, frozen: FrozenBody, version: int,
        fill: bool = True,
    ) -> None:
        """Give one frozen read body to the read cache (unless ``fill``
        is off) and to the last-good store, both under ``key``.  Both
        only ever thaw it, so sharing is safe.  An injected cache-fill
        failure loses only performance, never correctness."""
        if fill:
            if (
                self.fault_injector is not None
                and self.fault_injector.cache_fill_fails()
            ):
                self.metrics.observe_fault(CACHE_FILL)
            else:
                self.cache.fill(key, frozen)
        if self._last_good is not None:
            self._last_good.remember(key, frozen, version)

    # -- operations -------------------------------------------------------

    def submit(self, form_name: str, data: dict, user: str) -> Response:
        """Create: allocate a global id, route by hash, run the shard's
        full DQ write pipeline, and on acceptance move the shard's data
        version (a create retires no cached view)."""
        entity = self._entity_of_form(form_name)
        record_id, shard_index = self.router.placement(entity)

        def apply(app: WebApp) -> Response:
            try:
                stored = app.submit(form_name, data, user, record_id=record_id)
            except DataQualityViolation as exc:
                return unprocessable(exc.findings)
            except AuthorizationError as exc:
                return forbidden(str(exc))
            self._accepted_write(shard_index, entity)
            return created({"id": stored.record_id, "shard": shard_index})

        def work() -> Response:
            try:
                # record ids are globally unique, so (submit, entity, id)
                # identifies this task across retries and duplicate replays
                return self._call_shard(
                    "submit", shard_index, apply,
                    idempotency_key=("submit", entity, record_id),
                )
            except ShardUnavailable as exc:
                self.metrics.observe_shed("submit")
                return unavailable(str(exc))

        return self._dispatch("submit", (shard_index,), work)

    def submit_many(
        self, form_name: str, payloads: Sequence[dict], user: str
    ) -> list[Response]:
        """Batched create: coalesce same-shard writes into one lock trip.

        Every payload gets a global id and a home shard exactly as
        :meth:`submit` would assign them; payloads bound for the same
        shard are then grouped into chunks of at most ``write_batch_max``
        and applied through :meth:`WebApp.submit_batch` under a **single**
        shard-lock acquisition (and a single idempotency registration,
        retry loop and data-version move) per chunk.  Chunks run one
        after another on the caller's thread, and each admitted chunk
        holds one in-flight slot until the batch returns.

        The response list is positional — ``responses[i]`` answers
        ``payloads[i]`` with the same statuses the unbatched path
        produces (201/422/403, 429 under backpressure, 503 when a shard
        is unavailable past retries) — so batching changes throughput,
        never outcomes.
        """
        payloads = list(payloads)
        if not payloads:
            return []
        if self._closed:
            for _ in payloads:
                self.metrics.observe_unavailable()
            return [unavailable("gateway is closed") for _ in payloads]
        entity = self._entity_of_form(form_name)
        placements = [self.router.placement(entity) for _ in payloads]
        responses: list[Optional[Response]] = [None] * len(payloads)
        by_shard: dict[int, list[int]] = {}
        for position, (_, shard_index) in enumerate(placements):
            by_shard.setdefault(shard_index, []).append(position)
        chunks: list[tuple[int, list[int]]] = []
        for shard_index in sorted(by_shard):
            positions = by_shard[shard_index]
            for start in range(0, len(positions), self.write_batch_max):
                chunks.append(
                    (shard_index, positions[start:start + self.write_batch_max])
                )

        admitted: list[tuple[int, list[int]]] = []
        for shard_index, positions in chunks:
            with self._pending_lock:
                closed = self._closed
                accepted = (
                    not closed and self._pending < self.max_queue_depth
                )
                if accepted:
                    self._pending += 1
            if accepted:
                admitted.append((shard_index, positions))
                continue
            for position in positions:
                if closed:
                    self.metrics.observe_unavailable()
                    responses[position] = unavailable("gateway is closed")
                else:
                    self.metrics.observe_backpressure()
                    responses[position] = too_many_requests(
                        f"queue depth {self.max_queue_depth} exceeded",
                        retry_after=1,
                    )

        try:
            for shard_index, positions in admitted:
                started = time.perf_counter()
                outcome = self._batch_work(
                    form_name, entity, payloads, placements, shard_index,
                    positions, user,
                )
                statuses = []
                for position in positions:
                    responses[position] = outcome[position]
                    statuses.append(outcome[position].status)
                self.metrics.observe_batch("submit-batch", len(positions))
                self.metrics.observe(
                    "submit-batch",
                    (shard_index,),
                    max(statuses),
                    time.perf_counter() - started,
                )
        finally:
            self._release(len(admitted))
        return responses

    def _batch_work(
        self, form_name, entity, payloads, placements, shard_index,
        positions, user,
    ):
        """Apply one same-shard write chunk; ``{position: Response}``."""
        record_ids = [placements[position][0] for position in positions]
        rows = [payloads[position] for position in positions]

        def apply(app: WebApp) -> dict:
            result = app.submit_batch(
                form_name, rows, user, record_ids=record_ids
            )
            outcome: dict[int, Response] = {}
            for row, record_id in result.accepted:
                outcome[positions[row]] = created(
                    {"id": record_id, "shard": shard_index}
                )
            for row, findings in result.rejected:
                outcome[positions[row]] = unprocessable(findings)
            for row, reason in result.unauthorized:
                outcome[positions[row]] = forbidden(reason)
            if result.accepted:
                # one version move per chunk, not per accepted write
                self._accepted_write(shard_index, entity)
            return outcome

        try:
            # record ids are globally unique, so the chunk's id tuple
            # identifies this task across retries and duplicate replays
            return self._call_shard(
                "submit-batch", shard_index, apply,
                idempotency_key=("submit-batch", entity, tuple(record_ids)),
            )
        except ShardUnavailable as exc:
            self.metrics.observe_shed("submit-batch")
            return {position: unavailable(str(exc)) for position in positions}

    def modify(
        self,
        form_name: str,
        record_id: int,
        data: dict,
        user: str,
        expected_version: Optional[int] = None,
    ) -> Response:
        """Update: route to the record's home shard; optimistic-concurrency
        conflicts surface as 409 — never a lost update."""
        entity = self._entity_of_form(form_name)
        shard_index = self.router.shard_for(entity, record_id)
        # each modify call is its own task: a fresh token makes retries of
        # THIS call idempotent without collapsing distinct updates to one
        op_token = next(self._op_tokens)

        def apply(app: WebApp) -> Response:
            try:
                stored = app.modify(
                    form_name, record_id, data, user,
                    expected_version=expected_version,
                )
            except KeyError:
                return not_found(f"no record {record_id}")
            except DataQualityViolation as exc:
                return unprocessable(exc.findings)
            except AuthorizationError as exc:
                return forbidden(str(exc))
            except VersionConflictError as exc:
                return conflict(str(exc))
            self._accepted_write(shard_index, entity, record_id)
            return ok({"id": stored.record_id, "version": stored.version})

        def work() -> Response:
            try:
                return self._call_shard(
                    "modify", shard_index, apply,
                    idempotency_key=("modify", op_token),
                )
            except ShardUnavailable as exc:
                self.metrics.observe_shed("modify")
                return unavailable(str(exc))

        return self._dispatch("modify", (shard_index,), work)

    def list(self, entity: str, user: str) -> Response:
        """Confidentiality-filtered listing: scatter-gather over every live
        shard — from the read cache on a fleet without followers, as a
        203 follower read on one with them."""
        if self._closed:
            self.metrics.observe_unavailable()
            return unavailable("gateway is closed")
        key = self.cache.list_key(entity, user, self._clearance(user))
        live = self.router.all_shards()
        if self._follower_factory is not None:
            return self._dispatch(
                "list", live,
                lambda: self._follower_gather(entity, user, key, live),
            )
        # the shard versions are read before any shard is: a write that
        # races this list can then only make a part look older than it
        # is, never newer
        versions = tuple(map(self._shard_versions.__getitem__, live))
        start = time.perf_counter()
        cached = self.cache.lookup(key, versions)
        if cached is not None:
            self.metrics.observe("list", (), 200, time.perf_counter() - start)
            return ok(cached)
        return self._dispatch(
            "list", live,
            lambda: self._gather(entity, user, key, live, versions),
        )

    def _gather(
        self, entity: str, user: str, key: tuple, live: tuple,
        versions: tuple,
    ) -> Response:
        """A list miss: re-read only the shards whose data version moved
        since the held entry read them, reuse the other parts, and refill
        the entry.  A shard that must be read but cannot serve degrades
        the whole list (tagged): a silently partial listing would violate
        Completeness.  An unchanged shard that is down is not asked."""
        version = self._entity_version(entity)
        held = self.cache.parts(key)
        parts = []

        def read(app: WebApp):
            return app.read(entity, user)

        try:
            for shard_index, shard_version in zip(live, versions):
                part = held.get(shard_version)
                if part is None:
                    part = self._call_shard("list", shard_index, read)
                parts.append(part)
        except ShardUnavailable as exc:
            return self._degraded_read("list", entity, key, exc)
        if not self._keeps_reads():
            body = [row for part in parts for row in part]
            body.sort(key=itemgetter("id"))
            return ok(body)
        frozen = FrozenList(versions, tuple(parts))
        self._keep_read(key, frozen, version)
        return ok(frozen.thaw())

    def _follower_gather(
        self, entity: str, user: str, key: tuple, live: tuple
    ) -> Response:
        """A list served from every live shard's followers as a 203 that
        carries the largest lag read; the cache is bypassed."""
        version = self._entity_version(entity)
        body: list[dict] = []
        shareable = True
        max_lag = 0
        try:
            for shard_index in live:
                rows, lag = self._call_shard(
                    "list", shard_index,
                    lambda app, shard_index=shard_index:
                    self._follower_list(shard_index, app, entity, user),
                )
                body.extend(rows)
                shareable = shareable and rows.shareable
                max_lag = max(max_lag, lag)
        except ShardUnavailable as exc:
            return self._degraded_read("list", entity, key, exc)
        body.sort(key=itemgetter("id"))
        # a record mid-migration can briefly exist on two shards
        # (adopted by the recipient, retire not yet replayed on a
        # lagging donor follower) — keep the newest version per id
        deduped: list[dict] = []
        for row in body:
            if deduped and deduped[-1]["id"] == row["id"]:
                if row["version"] > deduped[-1]["version"]:
                    deduped[-1] = row
            else:
                deduped.append(row)
        if self._last_good is not None and self._last_good.capacity > 0:
            self._keep_read(
                key, FrozenBody(deduped, shareable), version, fill=False
            )
        return replica_read(deduped, lag=max_lag, bound=self.staleness_bound)

    def view(self, entity: str, record_id: int, user: str) -> Response:
        """Single-record read from the record's home shard — cache-assisted
        on a fleet without followers, a 203 follower read on one with
        them."""
        if self._closed:
            self.metrics.observe_unavailable()
            return unavailable("gateway is closed")
        key = self.cache.view_key(
            entity, record_id, user, self._clearance(user)
        )
        if self._follower_factory is not None:
            def apply(app: WebApp, shard_index: int) -> Response:
                return self._follower_view(
                    shard_index, app, entity, record_id, user
                )
        else:
            start = time.perf_counter()
            cached = self.cache.lookup(key)
            if cached is not None:
                self.metrics.observe(
                    "view", (), 200, time.perf_counter() - start
                )
                return ok(cached)
            version = self._entity_version(entity)

            def apply(app: WebApp, shard_index: int) -> Response:
                response, shareable = self._read_record(
                    app, entity, record_id, user
                )
                # filled under the record's shard lock, where an update
                # of the record drops its views: no fill outlives one
                if response.status == 200 and self._keeps_reads():
                    self._keep_read(
                        key, FrozenBody(response.body, shareable), version
                    )
                return response

        shard_index = self.router.shard_for(entity, record_id)

        def work() -> Response:
            target = shard_index
            for _attempt in range(2):
                try:
                    response = self._call_shard(
                        "view", target,
                        lambda app, target=target: apply(app, target),
                    )
                except ShardUnavailable as exc:
                    return self._degraded_read("view", entity, key, exc)
                if response.status != 404:
                    return response
                # a migration may have moved the record between routing
                # and serving; re-resolve once and retry
                current = self.router.shard_for(entity, record_id)
                if current == target:
                    return response
                target = current
            return response

        return self._dispatch("view", (shard_index,), work)

    @staticmethod
    def _read_record(
        app: WebApp, entity: str, record_id: int, user: str
    ) -> tuple[Response, bool]:
        """One authoritative record read — 200, 403 or 404 — and
        storage's verdict that the body's values are all immutable."""
        try:
            stored = app.read_record(entity, record_id, user)
        except AuthorizationError as exc:
            return forbidden(str(exc)), False
        except KeyError:
            return not_found(f"no record {record_id}"), False
        return ok({
            "id": stored.record_id, "version": stored.version, **stored.data,
        }), stored.shareable

    # -- follower reads ---------------------------------------------------

    def _refresh_followers(self, shard_index: int, primary: WebApp) -> int:
        """Catch the shard's followers up (honoring one pending injected
        lag window) and return the lag a read may serve.

        The staleness bound is enforced here by construction: a lag
        window only survives when the follower is within the bound —
        past it the catch-up happens anyway, so no replica read can ever
        serve more than ``staleness_bound`` acked-but-unapplied ops.
        """
        replica_set = self.replica_sets[shard_index]
        with self._lag_lock:
            inhibited = self._lag_inhibit[shard_index]
            self._lag_inhibit[shard_index] = False
        if inhibited:
            lag = replica_set.lag()
            if lag <= self.staleness_bound:
                with self._lag_lock:
                    self.replica_reads += 1
                    if lag:
                        self.stale_serves += 1
                        if lag > self.max_served_lag:
                            self.max_served_lag = lag
                return lag
        replica_set.catch_up(now=primary.clock.peek())
        with self._lag_lock:
            self.replica_reads += 1
        return replica_set.lag()

    def _follower_view(
        self, shard_index: int, primary: WebApp, entity: str,
        record_id: int, user: str,
    ) -> Response:
        """One follower-served record read, audited on the primary."""
        lag = self._refresh_followers(shard_index, primary)
        follower = self.replica_sets[shard_index].follower()
        try:
            stored = follower.store.entity(entity).get(record_id)
        except KeyError:
            # behind the primary (or truly absent): answer authoritatively
            return self._read_record(primary, entity, record_id, user)[0]
        account = follower.users.get(user)
        if not stored.metadata.accessible_by(user, account.level):
            primary.audit.record(
                audit_events.REJECT_AUTH, user, entity, record_id,
                detail="read denied by confidentiality policy",
            )
            return forbidden(f"user {user!r} may not read {entity}#{record_id}")
        primary.audit.record(audit_events.READ, user, entity, record_id)
        return replica_read(
            {"id": stored.record_id, "version": stored.version, **stored.data},
            lag=lag,
            bound=self.staleness_bound,
        )

    def _follower_list(
        self, shard_index: int, primary: WebApp, entity: str, user: str
    ):
        """One shard's follower-served listing chunk and its lag, audited
        on the primary (same READ event the authoritative path records)."""
        lag = self._refresh_followers(shard_index, primary)
        follower = self.replica_sets[shard_index].follower()
        account = follower.users.get(user)
        rows = follower.store.readable_by(entity, user, account.level)
        primary.audit.record(
            audit_events.READ, user, entity,
            detail=f"{len(rows)} record(s) visible",
        )
        return rows, lag

    # -- live topology changes --------------------------------------------

    def split_shard(self) -> int:
        """Join a fresh shard and stream its ring share to it, live.

        Every record the grown ring assigns to the new node is first
        pinned (via a routing override) to the shard that holds it, so
        lookups keep resolving correctly from the instant the ring
        changes until each record finishes streaming."""
        if self._shard_factory is None:
            raise RuntimeError(
                "split_shard needs a shard factory (build via from_design)"
            )
        with self._topology_lock:
            new_index = len(self.shards)
            new_name = RingRouter.node_name(new_index)
            live = self.router.all_shards()
            probe = HashRing(
                [RingRouter.node_name(i) for i in live] + [new_name],
                vnodes=self.router.vnodes,
            )
            for donor in live:
                app = self.shards[donor]
                with self._shard_locks[donor]:
                    for entity_name in app.store.entity_names:
                        for stored in app.store.entity(entity_name).all():
                            key = f"{entity_name}#{stored.record_id}"
                            if probe.owner_of(key) == new_name:
                                self.router.route_override(
                                    entity_name, stored.record_id, donor
                                )
            app = self._shard_factory(new_index)
            self.shards.append(app)
            self._shard_locks.append(threading.RLock())
            self._shard_versions.append(next(self._version_stamps))
            self.shard_restarts.append(0)
            if self._breakers is not None:
                self._breakers.append(self._new_breaker(new_index))
            self.metrics.shard_count += 1
            self.replica_sets.append(
                self._new_replica_set(app)
                if self._follower_factory is not None else None
            )
            with self._lag_lock:
                self._lag_inhibit.append(False)
            admitted = self.router.add_shard()
            assert admitted == new_index
            self._migrate_to_ring()
            self.splits += 1
            return new_index

    def merge_shard(self, victim: int) -> None:
        """Retire one shard, streaming its records to the survivors.

        The victim's index stays a valid (empty) slot — audit history
        and metrics keep their shard identities — but the ring stops
        assigning it keys and ``all_shards`` stops listing it."""
        with self._topology_lock:
            live = self.router.all_shards()
            if victim not in live:
                raise ValueError(f"shard {victim} is not live")
            if len(live) < 2:
                raise ValueError("cannot merge the last live shard")
            app = self.shards[victim]
            with self._shard_locks[victim]:
                for entity_name in app.store.entity_names:
                    for stored in app.store.entity(entity_name).all():
                        self.router.route_override(
                            entity_name, stored.record_id, victim
                        )
            self.router.remove_shard(victim)
            self._migrate_to_ring()
            self.merges += 1

    def _migrate_to_ring(self) -> None:
        """Stream every record to its ring owner until placement settles.

        Sweeps repeatedly because a write can land on a donor between
        the planning scan and the ring change; the loop terminates
        because post-change allocations already route to ring owners."""
        while True:
            moves: list[tuple[str, int, int, int]] = []
            for index in range(len(self.shards)):
                app = self.shards[index]
                with self._shard_locks[index]:
                    for entity_name in app.store.entity_names:
                        for stored in app.store.entity(entity_name).all():
                            owner = self.router.ring_owner(
                                entity_name, stored.record_id
                            )
                            if owner != index:
                                moves.append(
                                    (entity_name, stored.record_id,
                                     index, owner)
                                )
            if not moves:
                return
            for entity_name, record_id, donor, recipient in moves:
                self._stream_record(entity_name, record_id, donor, recipient)

    def _stream_record(
        self, entity_name: str, record_id: int, donor: int, recipient: int
    ) -> None:
        """Move one record donor→recipient under both shard locks.

        The handoff is durable on both sides: the recipient logs an
        ``adopt`` op (data + metadata sidecar + version, id pinned), the
        donor logs a ``retire`` — both group-committed — and each side's
        followers replay the same ops.  The routing override is cleared
        between the two, so the record is always served from a shard
        that holds it: before the clear lookups resolve to the donor,
        after it to the recipient.  Audit history stays on the donor."""
        first, second = sorted((donor, recipient))
        with self._shard_locks[first], self._shard_locks[second]:
            donor_app = self.shards[donor]
            recipient_app = self.shards[recipient]
            try:
                stored = donor_app.store.entity(entity_name).get(record_id)
            except KeyError:  # raced away (already moved): nothing to do
                self.router.clear_override(entity_name, record_id)
                return
            meta_state = stored.metadata.to_state()
            adopt = {
                "op": "adopt",
                "entity": entity_name,
                "id": record_id,
                "data": dict(stored.data),
                "meta": meta_state,
                "version": stored.version,
            }
            recipient_app.store.entity(entity_name).restore_record(
                record_id,
                dict(stored.data),
                metadata_state=meta_state,
                version=stored.version,
                reserve=True,
            )
            # the adopted record's stamps may postdate the recipient's
            # clock; currentness must never see a negative age
            recipient_app.clock.advance_to(op_tick(adopt))
            recipient_app.persistence.append(adopt)
            recipient_app.commit()
            self.router.clear_override(entity_name, record_id)
            donor_app.store.entity(entity_name).restore_delete(record_id)
            donor_app.persistence.append(
                {"op": "retire", "entity": entity_name, "id": record_id}
            )
            donor_app.commit()
            # both sides' list parts retire; the record's views stay
            # true, since its data and metadata moved unchanged
            self._shard_changed(donor)
            self._shard_changed(recipient)
            with self._lag_lock:
                self.migrated += 1

    # -- HTTP facade ------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Dispatch one simulated HTTP request through the facade routes."""
        path_matched = False
        for route in self._routes:
            params = route.match(request.path)
            if params is None:
                continue
            path_matched = True
            if route.method != request.method:
                continue
            merged = {**request.params, **params}
            return self._perform(route, request, merged)
        if path_matched:
            return method_not_allowed(
                f"{request.method} not allowed on {request.path}"
            )
        return not_found(f"no route for {request.path}")

    def _perform(
        self, route: GatewayRoute, request: Request, params: dict
    ) -> Response:
        if route.kind == "create":
            rejection = malformed_body(request.data)
            if rejection is not None:
                return rejection
            return self.submit(route.target, request.data, request.user)
        if route.kind == "list":
            return self.list(route.target, request.user)
        record_id, rejection = path_record_id(params.get("id"))
        if rejection is not None:
            return rejection
        if route.kind == "view":
            return self.view(route.target, record_id, request.user)
        rejection = malformed_body(request.data, versioned=True)
        if rejection is not None:
            return rejection
        payload = dict(request.data)
        expected_version = payload.pop("expected_version", None)
        return self.modify(
            route.target, record_id, payload, request.user,
            expected_version=expected_version,
        )

    def get(self, path: str, user: str = "anonymous") -> Response:
        return self.handle(Request("GET", path, user=user))

    def post(self, path: str, data: dict, user: str = "anonymous") -> Response:
        return self.handle(Request("POST", path, user=user, data=data))

    def put(self, path: str, data: dict, user: str = "anonymous") -> Response:
        return self.handle(Request("PUT", path, user=user, data=data))

    # -- introspection ----------------------------------------------------

    def total_records(self) -> int:
        return sum(shard.store.total_records() for shard in self.shards)

    def describe(self) -> str:
        lines = [
            f"ShardedGateway over {len(self.shards)} shard(s), "
            f"cache capacity {self.cache.capacity}, "
            f"queue depth {self.max_queue_depth}"
        ]
        if self.resilience is not None:
            lines.append(
                f"  resilience: {self.resilience.retry.max_attempts} "
                f"attempt(s), breaker threshold "
                f"{self.resilience.breaker_failure_threshold}, "
                f"fault plan "
                + (
                    self.fault_injector.plan.signature()
                    if self.fault_injector is not None else "none"
                )
            )
        lines.append(
            f"  ring: {len(self.router.all_shards())} live shard(s) x "
            f"{self.router.vnodes} vnode(s), {self.replicas} "
            f"follower(s)/shard, staleness bound {self.staleness_bound}"
        )
        for route in self._routes:
            lines.append(
                f"  {route.method} {route.path} -> {route.kind} "
                f"{route.target!r}"
            )
        return "\n".join(lines)
