"""The gateway freezes each served read body once, on storage's verdict.

A list or view miss builds one :class:`~repro.cluster.cache.FrozenBody`
and hands the same object to the read cache and the last-good store;
the freeze trusts ``Rows.shareable`` / ``StoredRecord.shareable``
instead of walking the values again.  These tests count objects and
calls, never wall-clock time.
"""

import copy

import pytest

from repro.casestudy import easychair
from repro.cluster import ShardedGateway, cache
from repro.cluster import gateway as gateway_module
from repro.cluster.resilience import (
    CRASH,
    FaultPlan,
    FaultSpec,
    ResilienceConfig,
)
from repro.runtime import storage

FORM = "Add all data as result of review form"
ENTITY = "Add all data as result of review"
USER = "pc_member_1"


def _gateway(shard_count=1, plan=None, **kwargs):
    return ShardedGateway.from_design(
        easychair.build_design(), shard_count=shard_count,
        users=easychair.USERS, fault_plan=plan,
        resilience=ResilienceConfig(), **kwargs,
    )


def _submit(gateway, count=1):
    ids = []
    for _ in range(count):
        response = gateway.submit(FORM, easychair.complete_review(), USER)
        assert response.status == 201
        ids.append(response.body["id"])
    return ids


def test_one_list_miss_leaves_one_frozen_body_in_both_stores():
    with _gateway(shard_count=2) as gateway:
        record = _submit(gateway, 3)[0]
        listed = gateway.list(ENTITY, USER)
        viewed = gateway.view(ENTITY, record, USER)
        assert listed.status == viewed.status == 200
        assert len(listed.body) == 3
        cached = dict(gateway.cache._entries)
        remembered = dict(gateway._last_good._entries)
        assert len(cached) == len(remembered) == 2
        for key, frozen in cached.items():
            # both stores key by (kind, entity, id, user, level); the
            # last-good entry also carries the entity version it was
            # served at, three accepted writes in
            held, version = remembered[key]
            assert held is frozen
            assert version == 3


@pytest.fixture
def walks(monkeypatch):
    """Count ``_values_shareable`` calls, wherever the name is bound."""
    calls = []
    walk = storage._values_shareable

    def counted(data):
        calls.append(data)
        return walk(data)

    for module in (storage, cache, gateway_module):
        if hasattr(module, "_values_shareable"):
            monkeypatch.setattr(module, "_values_shareable", counted)
    return calls


def test_reads_of_shareable_records_never_walk_values(walks):
    with _gateway(shard_count=2) as gateway:
        record = _submit(gateway, 4)[0]
        walks.clear()  # the write path judges each record once
        for _ in range(2):  # a miss, then a hit
            assert gateway.list(ENTITY, USER).status == 200
            assert gateway.view(ENTITY, record, USER).status == 200
        assert gateway.cache.stats.hits == 2
        assert walks == []


def test_follower_reads_of_shareable_records_never_walk_values(walks):
    with _gateway(shard_count=2, replicas=1) as gateway:
        record = _submit(gateway, 4)[0]
        gateway.list(ENTITY, USER)  # catches every follower up
        walks.clear()
        assert gateway.list(ENTITY, USER).status == 203
        assert gateway.view(ENTITY, record, USER).status == 203
        assert walks == []


@pytest.mark.parametrize("kind", ["list", "view"])
def test_mutating_a_served_body_reaches_no_later_read(kind):
    # calls: submit=0, first read=1, (hit: no call), write=2 retires the
    # cached read (a create moves the list's shard version, an update of
    # the viewed record drops its views), then the shard is down: the
    # re-read degrades to the last-good body, tagged 203
    plan = FaultPlan([FaultSpec(CRASH, 0, 3, 1 << 30)])
    with _gateway(plan=plan) as gateway:
        record = _submit(gateway)[0]

        def write():
            if kind == "list":
                _submit(gateway)
            else:
                assert gateway.modify(
                    FORM, record, easychair.complete_review(), USER
                ).status == 200

        def read():
            if kind == "list":
                return gateway.list(ENTITY, USER)
            return gateway.view(ENTITY, record, USER)

        def vandalize(body):
            rows = body if kind == "list" else [body]
            for row in rows:
                row["version"] = -1
                row.pop("id")
            if kind == "list":
                body.append({"id": 999})

        fresh = read()
        assert fresh.status == 200
        pristine = copy.deepcopy(fresh.body)
        vandalize(fresh.body)
        hit = read()
        assert gateway.cache.stats.hits == 1
        assert hit.status == 200 and hit.body == pristine
        vandalize(hit.body)
        write()
        degraded = read()
        assert degraded.status == 203
        assert degraded.headers["X-DQ-Served-Version"] == "1"
        assert degraded.body == pristine
        vandalize(degraded.body)
        assert read().body == pristine
