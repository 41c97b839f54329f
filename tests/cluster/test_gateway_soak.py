"""Concurrency soak: the DQ guarantees must hold under real thread load.

The acceptance bar from the cluster issue: >= 8 client threads, >= 1000
requests through the load generator against a 4-shard gateway, with zero
DQ-guarantee violations —

* every accepted write audited exactly once,
* no confidential record ever returned to an uncleared user (including
  via the cache),
* version conflicts surface as 409s, never as lost updates.
"""

import pytest

from repro.casestudy import easychair
from repro.cluster import (
    LoadGenerator,
    SOAK_MIX,
    ShardedGateway,
    verify_guarantees,
)

FORM = "Add all data as result of review form"
ENTITY = "Add all data as result of review"


@pytest.mark.slow
def test_soak_eight_threads_thousand_requests_zero_violations():
    gateway = ShardedGateway.from_design(
        easychair.build_design(),
        shard_count=4,
        users=easychair.USERS,
        max_queue_depth=256,
    )
    try:
        # preload so reads and updates have targets from the first tick
        preloaded = frozenset(
            gateway.submit(
                FORM, easychair.complete_review(), "pc_member_1"
            ).body["id"]
            for _ in range(40)
        )
        generator = LoadGenerator(seed=101, mix=SOAK_MIX)
        report = generator.run(gateway, count=1200, threads=8)

        assert report.total == 1200
        assert report.accepted_writes() > 100
        assert report.conflicts > 0  # stale updates did surface as 409s
        assert report.leaks == []
        violations = verify_guarantees(gateway, report, ignore_ids=preloaded)
        assert violations == [], "\n".join(violations)

        # traceability held globally: one store event per accepted write
        stores = sum(
            len(shard.audit.by_kind("store")) for shard in gateway.shards
        )
        assert stores == len(preloaded) + len(report.accepted_ids)

        # the cache worked and never leaked: uncleared list reads all empty
        assert gateway.cache.stats.hits > 0
        snap = gateway.metrics.snapshot(gateway.cache.stats)
        assert snap["requests"] >= 1200 - report.backpressured
    finally:
        gateway.close()

