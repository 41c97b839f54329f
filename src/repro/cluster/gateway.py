"""The sharded DQ gateway: N ``WebApp`` shards behind one serving facade.

``ShardedGateway`` is the serving layer the ROADMAP's scale goal needs and
the paper's case study never had to build: every DQSR guarantee the
single-threaded :class:`~repro.runtime.app.WebApp` enforces (completeness
and precision validation, confidentiality filtering, traceability and
audit, optimistic concurrency) is preserved while requests fan out across
shards from a worker thread pool.

Design in one breath:

* **Placement** — the gateway allocates global record ids and routes every
  keyed operation with :class:`~repro.cluster.sharding.ShardRouter`
  (``fnv1a(entity#id) mod N``); listing reads scatter to all shards and
  gather a merged, id-sorted body.
* **Isolation** — each shard is guarded by its own re-entrant lock, so a
  shard's ``WebApp`` only ever sees one request at a time and stays
  internally consistent; different shards serve concurrently.
* **Backpressure** — admitted-but-unfinished dispatches are counted; past
  ``max_queue_depth`` the gateway answers **429** immediately instead of
  queueing without bound, and **503** once closed.
* **Caching** — reads go through a confidentiality-aware
  :class:`~repro.cluster.cache.ReadThroughCache`; accepted writes bump a
  per-entity data version (and drop the entity's entries), so a stale body
  can never be served after the write was acknowledged.

Cross-shard listing is *per-shard consistent*, not a cross-shard snapshot:
a scatter-gather that races a write may see the write on one shard and not
another — the same contract most production sharded stores offer.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.errors import (
    AuthorizationError,
    DataQualityViolation,
    VersionConflictError,
)
from repro.dq.metadata import Clock
from repro.runtime.app import WebApp
from repro.runtime.http import (
    Request,
    Response,
    bad_request,
    conflict,
    created,
    degraded,
    forbidden,
    method_not_allowed,
    not_found,
    ok,
    too_many_requests,
    unavailable,
    unprocessable,
)

from .cache import LastGoodStore, ReadThroughCache
from .metrics import GatewayMetrics
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
from .sharding import ShardRouter


@dataclass(frozen=True)
class GatewayRoute:
    """One exposed HTTP-facade route: kind + path pattern + target."""

    kind: str  # "create" | "update" | "list" | "view"
    method: str
    path: str
    target: str  # form name (create/update) or entity name (list/view)

    @property
    def parameterized(self) -> bool:
        return "<" in self.path

    def match(self, path: str) -> Optional[dict]:
        pattern = [s for s in self.path.split("/") if s]
        segments = [s for s in path.split("/") if s]
        if len(pattern) != len(segments):
            return None
        params: dict = {}
        for expected, actual in zip(pattern, segments):
            if expected.startswith("<") and expected.endswith(">"):
                params[expected[1:-1]] = actual
            elif expected != actual:
                return None
        return params


class ShardedGateway:
    """A thread-parallel, sharded, caching front for N ``WebApp`` shards.

    ``shards`` must be built identically (same entities, forms, policies
    and registered users) — :meth:`from_design` does exactly that from a
    design model.  ``cache_capacity=0`` disables the read cache;
    ``max_queue_depth`` bounds admitted-but-unfinished dispatches before
    429s start; ``workers`` sizes the dispatch pool (default: one per
    shard).
    """

    def __init__(
        self,
        shards: Sequence[WebApp],
        cache_capacity: int = 256,
        max_queue_depth: int = 64,
        workers: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        resilience: Optional[ResilienceConfig] = None,
        write_batch_max: int = 32,
    ):
        if not shards:
            raise ValueError("a gateway needs at least one shard")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if write_batch_max < 1:
            raise ValueError("write_batch_max must be >= 1")
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
        self.router = ShardRouter(len(self.shards))
        self.cache = ReadThroughCache(cache_capacity)
        self.metrics = GatewayMetrics(len(self.shards))
        self.max_queue_depth = max_queue_depth
        self._shard_locks = [threading.RLock() for _ in self.shards]
        self._pool = ThreadPoolExecutor(
            max_workers=workers or len(self.shards),
            thread_name_prefix="gateway",
        )
        self._pending = 0
        self._pending_lock = threading.Lock()
        self._entity_versions: dict[str, int] = {}
        self._version_lock = threading.Lock()
        self._routes: list[GatewayRoute] = []
        self._closed = False
        # Durability: ``_shard_factory(index)`` rebuilds shard ``index``
        # from its durable state after a kill (set by ``from_design``);
        # without one, injected kills degrade to plain crashes.
        self._shard_factory = None
        self.shard_restarts = [0] * len(self.shards)
        # -- resilience layer: injected faults must be survivable --------
        if fault_plan is not None and resilience is None:
            resilience = ResilienceConfig()
        self.resilience = resilience
        self.fault_injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        self._op_tokens = itertools.count(1)
        if resilience is not None:
            clock = (
                self.fault_injector.clock
                if self.fault_injector is not None else None
            )
            self._breakers: Optional[list[CircuitBreaker]] = [
                CircuitBreaker(
                    failure_threshold=resilience.breaker_failure_threshold,
                    cooldown=resilience.breaker_cooldown,
                    clock=clock,
                    on_transition=(
                        lambda origin, to, shard=index:
                        self.metrics.observe_breaker(shard, origin, to)
                    ),
                )
                for index in range(len(self.shards))
            ]
            self._idempotency: Optional[IdempotencyRegistry] = (
                IdempotencyRegistry(resilience.idempotency_capacity)
            )
            self._last_good: Optional[LastGoodStore] = LastGoodStore(
                resilience.last_good_capacity
            )
        else:
            self._breakers = None
            self._idempotency = None
            self._last_good = None

    # -- assembly ---------------------------------------------------------

    @classmethod
    def from_design(
        cls,
        design_model,
        shard_count: int = 4,
        users: Sequence[tuple] = (),
        baseline: bool = False,
        persistence=None,
        **gateway_options,
    ) -> "ShardedGateway":
        """Build ``shard_count`` identical shards from a design model.

        ``users`` are ``(name, level, roles)`` triples registered on every
        shard (reads broadcast, so each shard must know every account).
        ``baseline=True`` builds no-DQ shards — the comparison harness.
        ``persistence`` is a per-shard backend factory
        (:func:`repro.persistence.persistence_factory`): each shard gets
        ``persistence(index)`` as its durable store and is **recovered
        from it** at build time, so constructing a gateway over an
        existing data directory resumes where the last process stopped.
        """
        from repro.persistence import recover_app
        from repro.runtime.dqengine import build_app, build_baseline_app
        from repro.runtime.vpipeline import PlanCache

        if baseline:
            def make_shard(index: int) -> WebApp:
                app = build_baseline_app(design_model, clock=Clock())
                for name, level, roles in users:
                    app.add_user(name, level, roles)
                return app
        else:
            # all shards run identical chains: one shared plan cache
            # means each chain compiles exactly once fleet-wide
            plan_cache = PlanCache()

            def make_shard(index: int) -> WebApp:
                backend = (
                    persistence(index) if persistence is not None else None
                )
                app = build_app(
                    design_model, clock=Clock(), plan_cache=plan_cache,
                    persistence=backend,
                )
                for name, level, roles in users:
                    app.add_user(name, level, roles)
                if backend is not None and backend.durable:
                    recover_app(app, backend)
                return app

        shards = [make_shard(index) for index in range(shard_count)]
        gateway = cls(shards, **gateway_options)
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

    def expose_create(self, path: str, form_name: str) -> "ShardedGateway":
        self._routes.append(GatewayRoute("create", "POST", path, form_name))
        return self

    def expose_update(self, path: str, form_name: str) -> "ShardedGateway":
        self._routes.append(GatewayRoute("update", "PUT", path, form_name))
        return self

    def expose_list(self, path: str, entity: str) -> "ShardedGateway":
        self._routes.append(GatewayRoute("list", "GET", path, entity))
        return self

    def expose_view(self, path: str, entity: str) -> "ShardedGateway":
        self._routes.append(GatewayRoute("view", "GET", path, entity))
        return self

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

    def _scorecard_apps(self) -> Sequence[WebApp]:
        """The apps :meth:`live_scorecard` reads from — the shards here;
        the replicated gateway overrides this to serve scorecards from
        caught-up followers instead of the primaries."""
        return self.shards

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
        telemetry is disabled on any shard.
        """
        from repro.dq.metrics import in_bounds
        from repro.dq.scorecard import ScoreLine

        bounds = dict(bounds or {})
        fields = tuple(required_fields) or tuple(
            self.shards[0].store.entity(entity).fields
        )
        policy = self.shards[0].policies.for_entity(entity)
        level = policy.security_level
        apps = self._scorecard_apps()
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
        """Stop accepting requests; in-flight dispatches drain first.

        Durable shard backends are closed cleanly (pending WAL appends
        synced), so a closed gateway's data directory always recovers."""
        self._closed = True
        self._pool.shutdown(wait=True)
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
        if self._closed:
            self.metrics.observe_unavailable()
            return unavailable("gateway is closed")
        with self._pending_lock:
            if self._pending >= self.max_queue_depth:
                self.metrics.observe_backpressure()
                return too_many_requests(
                    f"queue depth {self.max_queue_depth} exceeded",
                    retry_after=1,
                )
            self._pending += 1
        start = time.perf_counter()
        try:
            try:
                response = self._pool.submit(work).result()
            except RuntimeError:  # pool shut down between check and submit
                self.metrics.observe_unavailable()
                return unavailable("gateway is closed")
        finally:
            with self._pending_lock:
                self._pending -= 1
        self.metrics.observe(
            operation, shards, response.status, time.perf_counter() - start
        )
        return response

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

    def _bump_entity_version(self, entity: str) -> None:
        """Write-path invalidation: retire every cached read of ``entity``."""
        with self._version_lock:
            self._entity_versions[entity] = (
                self._entity_versions.get(entity, 0) + 1
            )
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
        exactly like a real crash.  With no shard factory the kill cannot
        be followed by a restart, so it degrades to a plain crash fault.
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
            self.shards[shard_index] = self._shard_factory(shard_index)
            self.shard_restarts[shard_index] += 1

    def restart_shard(self, shard_index: int) -> None:
        """Deliberately kill-and-restart one shard (durability drills)."""
        self._kill_and_restart(shard_index)

    # -- topology-fault hooks (overridden by the replicated gateway) ------

    def _on_failover_fault(self, shard_index: int) -> None:
        """An injected primary loss.  Without a replication layer there
        is no follower to promote, so the fault degrades to the kill
        semantics: restart from durable state (losing unsynced writes),
        or a plain crash when no shard factory exists."""
        self._kill_and_restart(shard_index)

    def _on_replica_lag_fault(self, shard_index: int) -> None:
        """An injected replica-lag window.  Without followers there is
        nothing to lag; the replicated gateway overrides this to inhibit
        the shard's next follower catch-up."""

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
                self._on_failover_fault(shard_index)
                raise ShardFailedOver(
                    shard_index, "injected primary loss (failover)"
                )
            if injection.lag:
                self._on_replica_lag_fault(shard_index)
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
        self, operation: str, entity: str, base_key: tuple,
        exc: ShardUnavailable,
    ) -> Response:
        """Serve the last known good body, explicitly tagged — or 503.

        Never silent: a degraded body always arrives as 203 with the
        served-vs-current data versions in the headers, so the
        Traceability DQSR survives the outage.
        """
        if self._last_good is not None:
            remembered = self._last_good.lookup(base_key)
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

    def _cache_fill(self, key: tuple, body) -> None:
        """A read-through fill, subject to injected cache-fill failures
        (a failed fill loses only performance, never correctness)."""
        if (
            self.fault_injector is not None
            and self.fault_injector.cache_fill_fails()
        ):
            self.metrics.observe_fault(CACHE_FILL)
            return
        self.cache.fill(key, body)

    def _remember_good(self, base_key: tuple, body, version: int) -> None:
        if self._last_good is not None:
            self._last_good.remember(base_key, body, version)

    # -- operations -------------------------------------------------------

    def submit(self, form_name: str, data: dict, user: str) -> Response:
        """Create: allocate a global id, route by hash, run the shard's
        full DQ write pipeline, invalidate cached reads on acceptance."""
        entity = self._entity_of_form(form_name)
        record_id, shard_index = self.router.placement(entity)

        def apply(app: WebApp) -> Response:
            try:
                stored = app.submit(form_name, data, user, record_id=record_id)
            except DataQualityViolation as exc:
                return unprocessable(exc.findings)
            except AuthorizationError as exc:
                return forbidden(str(exc))
            self._bump_entity_version(entity)
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
        retry loop and cache invalidation) per chunk.  Chunks for
        different shards run concurrently on the dispatch pool.

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

        pending_futures = []
        for shard_index, positions in chunks:
            with self._pending_lock:
                admitted = self._pending < self.max_queue_depth
                if admitted:
                    self._pending += 1
            if not admitted:
                for position in positions:
                    self.metrics.observe_backpressure()
                    responses[position] = too_many_requests(
                        f"queue depth {self.max_queue_depth} exceeded",
                        retry_after=1,
                    )
                continue
            work = self._batch_work(
                form_name, entity, payloads, placements, shard_index,
                positions, user,
            )
            started = time.perf_counter()
            try:
                future = self._pool.submit(work)
            except RuntimeError:  # pool shut down between check and submit
                with self._pending_lock:
                    self._pending -= 1
                for position in positions:
                    self.metrics.observe_unavailable()
                    responses[position] = unavailable("gateway is closed")
                continue
            pending_futures.append((shard_index, positions, started, future))

        for shard_index, positions, started, future in pending_futures:
            try:
                outcome = future.result()
            finally:
                with self._pending_lock:
                    self._pending -= 1
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
        return responses

    def _batch_work(
        self, form_name, entity, payloads, placements, shard_index,
        positions, user,
    ):
        """Build the pooled callable applying one same-shard write chunk."""
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
                # one invalidation per chunk, not per accepted write
                self._bump_entity_version(entity)
            return outcome

        def work() -> dict:
            try:
                # record ids are globally unique, so the chunk's id tuple
                # identifies this task across retries and duplicate replays
                return self._call_shard(
                    "submit-batch", shard_index, apply,
                    idempotency_key=("submit-batch", entity, tuple(record_ids)),
                )
            except ShardUnavailable as exc:
                self.metrics.observe_shed("submit-batch")
                return {
                    position: unavailable(str(exc)) for position in positions
                }

        return work

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
            self._bump_entity_version(entity)
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
        """Confidentiality-filtered listing: cache hit or scatter-gather."""
        if self._closed:
            self.metrics.observe_unavailable()
            return unavailable("gateway is closed")
        base_key = self.cache.list_key(entity, user, self._clearance(user))
        version = self._entity_version(entity)
        key = base_key + (version,)
        start = time.perf_counter()
        cached = self.cache.lookup(key)
        if cached is not None:
            self.metrics.observe(
                "list", (), 200, time.perf_counter() - start
            )
            return ok(cached)

        def work() -> Response:
            body: list[dict] = []
            try:
                for shard_index in self.router.all_shards():
                    visible = self._call_shard(
                        "list", shard_index,
                        lambda app: app.read(entity, user),
                    )
                    body.extend(
                        {"id": s.record_id, "version": s.version, **s.data}
                        for s in visible
                    )
            except ShardUnavailable as exc:
                # any shard missing means the gather is incomplete; a
                # silently partial listing would violate Completeness, so
                # degrade the WHOLE read (tagged) rather than serve a hole
                return self._degraded_read("list", entity, base_key, exc)
            body.sort(key=lambda row: row["id"])
            self._cache_fill(key, body)
            self._remember_good(base_key, body, version)
            return ok(body)

        return self._dispatch("list", tuple(self.router.all_shards()), work)

    def view(self, entity: str, record_id: int, user: str) -> Response:
        """Single-record read from the record's home shard, cache-assisted."""
        if self._closed:
            self.metrics.observe_unavailable()
            return unavailable("gateway is closed")
        base_key = self.cache.view_key(
            entity, record_id, user, self._clearance(user)
        )
        version = self._entity_version(entity)
        key = base_key + (version,)
        start = time.perf_counter()
        cached = self.cache.lookup(key)
        if cached is not None:
            self.metrics.observe(
                "view", (), 200, time.perf_counter() - start
            )
            return ok(cached)
        shard_index = self.router.shard_for(entity, record_id)

        def apply(app: WebApp) -> Response:
            try:
                stored = app.read_record(entity, record_id, user)
            except AuthorizationError as exc:
                return forbidden(str(exc))
            except KeyError:
                return not_found(f"no record {record_id}")
            body = {
                "id": stored.record_id,
                "version": stored.version,
                **stored.data,
            }
            self._cache_fill(key, body)
            self._remember_good(base_key, body, version)
            return ok(body)

        def work() -> Response:
            try:
                return self._call_shard("view", shard_index, apply)
            except ShardUnavailable as exc:
                return self._degraded_read("view", entity, base_key, exc)

        return self._dispatch("view", (shard_index,), work)

    # -- HTTP facade ------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Dispatch one simulated HTTP request through the facade routes."""
        path_matched = False
        exact_first = sorted(self._routes, key=lambda r: r.parameterized)
        for route in exact_first:
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
            return self.submit(route.target, request.data, request.user)
        if route.kind == "list":
            return self.list(route.target, request.user)
        raw_id = params.get("id")
        if raw_id is None:
            return bad_request("missing record id")
        try:
            record_id = int(raw_id)
        except (TypeError, ValueError):
            return bad_request(f"bad record id {raw_id!r}")
        if route.kind == "view":
            return self.view(route.target, record_id, request.user)
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
        for route in self._routes:
            lines.append(
                f"  {route.method} {route.path} -> {route.kind} "
                f"{route.target!r}"
            )
        return "\n".join(lines)
