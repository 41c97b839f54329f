"""Fleet construction for the ledger's workloads: the case-study design
model, the gateway each workload names, and the seeded preload.

Only public entry points are used: ``build_design``, the gateways'
``from_design``, ``persistence_factory`` and ``submit_many``.
"""

from __future__ import annotations

import gc
import shutil
import time
from pathlib import Path

from . import plans

#: Read-cache entries (the gateway default, stated for the rationale).
CACHE_CAPACITY = 256
SHARDS = 4
#: WAL ops between snapshot compactions on shop-ingest (the backend
#: also waits for at least the snapshot's row count).
COMPACT_EVERY = 256


class SetupError(RuntimeError):
    """The fleet could not be built or preloaded as planned."""


def _design(workload: str):
    if workload == "shop-ingest":
        from repro.casestudy import webshop

        return webshop.build_design()
    from repro.casestudy import easychair

    return easychair.build_design()


def _users(workload: str):
    return plans.SHOP_USERS if workload == "shop-ingest" else plans.REVIEW_USERS


def build(workload: str, data_dir: Path = None):
    """A fresh gateway for ``workload`` (no records yet, unless
    ``data_dir`` already holds durable shop-ingest state)."""
    from repro.cluster import ShardedGateway
    from repro.cluster.resilience import ResilienceConfig
    from repro.cluster.topology import RingGateway

    design = _design(workload)
    users = _users(workload)
    if workload == "review-replicated":
        return RingGateway.from_design(
            design, shard_count=SHARDS, users=users, replicas=1,
            resilience=ResilienceConfig(),
        )
    persistence = None
    if workload == "shop-ingest":
        from repro.persistence import persistence_factory

        persistence = persistence_factory(
            data_dir, kind="file", compact_every=COMPACT_EVERY,
            real_fsync=False,
        )
    return ShardedGateway.from_design(
        design, shard_count=SHARDS, users=users,
        resilience=ResilienceConfig(), cache_capacity=CACHE_CAPACITY,
        persistence=persistence,
    )


def preload(gateway, plan: plans.Plan, acked: dict) -> None:
    """Load the plan's preload through ``submit_many``; every row must be
    acknowledged 201.  Acknowledged ids are appended to ``acked[path]``."""
    for form, path, user, rows in plan.preload:
        responses = gateway.submit_many(form, rows, user)
        for response in responses:
            if response.status != 201:
                raise SetupError(
                    f"preload row answered {response.status}: "
                    f"{response.body}"
                )
            acked.setdefault(path, []).append(response.body["id"])


def prepare(workload: str, plan: plans.Plan, work_dir: Path):
    """Untimed preparation.  On ``shop-ingest`` the preload is written to
    a pristine data directory once; returns ``(directory, acked ids)``,
    or ``None`` for the in-memory workloads."""
    if workload != "shop-ingest":
        return None
    pristine = work_dir / "pristine"
    shutil.rmtree(pristine, ignore_errors=True)
    loader = build(workload, pristine)
    acked: dict = {}
    try:
        preload(loader, plan, acked)
    finally:
        loader.close()
    return pristine, acked


def setup(workload: str, plan: plans.Plan, prepared, work_dir: Path):
    """One timed set-up: ``(gateway, acked ids, seconds)``.

    In-memory workloads build the fleet and load the preload through
    ``submit_many``; ``shop-ingest`` recovers the fleet from a fresh
    copy of the prepared data directory (the copy is not timed).
    """
    if prepared is None:
        gc.collect()
        acked: dict = {}
        started = time.perf_counter_ns()
        gateway = build(workload)
        preload(gateway, plan, acked)
        return gateway, acked, (time.perf_counter_ns() - started) / 1e9
    pristine, preloaded = prepared
    data_dir = work_dir / "data"
    shutil.rmtree(data_dir, ignore_errors=True)
    shutil.copytree(pristine, data_dir)
    gc.collect()
    started = time.perf_counter_ns()
    gateway = build(workload, data_dir)
    seconds = (time.perf_counter_ns() - started) / 1e9
    expected = sum(len(ids) for ids in preloaded.values())
    if gateway.total_records() != expected:
        gateway.close()
        raise SetupError(
            f"recovered {gateway.total_records()} record(s), "
            f"preloaded {expected}"
        )
    return gateway, {path: list(ids) for path, ids in preloaded.items()}, \
        seconds
