"""A write retires only the cached reads it changed.

Each shard has a data version that every accepted write on it, both
sides of a record migration, and its restart or failover move.  A cached
list keeps one row part per shard, tagged with the version it was read
at, and re-reads only the shards whose version moved; an accepted update
drops only its own record's cached views.  These tests count shard
reads, and hold every answer of a cached gateway equal to the answer of
an uncached one.
"""

import sys
import threading
import time
from operator import itemgetter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.casestudy import easychair
from repro.cluster import ShardedGateway
from repro.runtime.app import WebApp

FORM = "Add all data as result of review form"
ENTITY = "Add all data as result of review"
WRITER = "pc_member_1"
READERS = ("chair", "pc_member_1", "outsider")


def _gateway(shard_count=4, **kwargs):
    return ShardedGateway.from_design(
        easychair.build_design(), shard_count=shard_count,
        users=easychair.USERS, **kwargs,
    )


def _submit(gateway, count=1, overall=2):
    ids = []
    for _ in range(count):
        response = gateway.submit(
            FORM, easychair.complete_review(overall=overall), WRITER
        )
        assert response.status == 201
        ids.append(response.body["id"])
    return ids


def _authoritative_list(gateway, user):
    """The listing straight from the live shards' stores."""
    level = gateway._clearance(user)
    rows = [
        row
        for index in gateway.router.all_shards()
        for row in gateway.shards[index].store.readable_by(
            ENTITY, user, level
        )
    ]
    return sorted(rows, key=itemgetter("id"))


@pytest.fixture
def shard_reads(monkeypatch):
    """The ``(method, app)`` of every ``WebApp.read`` and ``read_record``
    call, in order."""
    calls = []
    for name in ("read", "read_record"):
        original = getattr(WebApp, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, self))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(WebApp, name, counted)
    return calls


def _count(calls, name):
    return sum(1 for called, _app in calls if called == name)


def test_a_write_on_one_shard_makes_the_next_list_read_that_shard_once(
    shard_reads,
):
    with _gateway() as gateway:
        _submit(gateway, 12)
        first = gateway.list(ENTITY, WRITER)
        assert first.status == 200 and len(first.body) == 12
        assert _count(shard_reads, "read") == 4  # a cold list reads all
        shard_reads.clear()
        assert gateway.list(ENTITY, WRITER).body == first.body
        assert shard_reads == []  # a hit reads no shard
        (record,) = _submit(gateway)
        home = gateway.shards[gateway.router.shard_for(ENTITY, record)]
        shard_reads.clear()
        after = gateway.list(ENTITY, WRITER)
        assert shard_reads == [("read", home)]
        assert after.status == 200
        assert after.body == _authoritative_list(gateway, WRITER)
        assert [row["id"] for row in after.body][-1] == record
        shard_reads.clear()
        assert gateway.list(ENTITY, WRITER).body == after.body
        assert shard_reads == []


def test_an_update_rereads_only_its_shard_for_every_list(shard_reads):
    with _gateway() as gateway:
        records = _submit(gateway, 8)
        for user in READERS:
            gateway.list(ENTITY, user)
        shard_reads.clear()
        response = gateway.modify(
            FORM, records[3], easychair.complete_review(overall=-1), WRITER
        )
        assert response.status == 200
        for user in READERS:
            assert gateway.list(ENTITY, user).body == \
                _authoritative_list(gateway, user)
        home = gateway.shards[gateway.router.shard_for(ENTITY, records[3])]
        assert shard_reads == [("read", home)] * len(READERS)


def test_a_create_keeps_every_view(shard_reads):
    with _gateway() as gateway:
        records = _submit(gateway, 6)
        views = {
            (record, user): gateway.view(ENTITY, record, user)
            for record in records for user in READERS
        }
        assert _count(shard_reads, "read_record") == len(views)
        hits = gateway.cache.stats.hits
        _submit(gateway, 3)
        shard_reads.clear()
        for (record, user), first in views.items():
            again = gateway.view(ENTITY, record, user)
            assert (again.status, again.body) == (first.status, first.body)
        # only the 200s were cached; a 403 is re-decided by its shard
        cached = sum(1 for view in views.values() if view.status == 200)
        assert gateway.cache.stats.hits - hits == cached
        assert _count(shard_reads, "read_record") == len(views) - cached


def test_an_update_drops_only_its_own_records_views(shard_reads):
    with _gateway() as gateway:
        changed, kept = _submit(gateway, 2)
        for record in (changed, kept):
            for user in ("chair", WRITER):
                assert gateway.view(ENTITY, record, user).status == 200
        response = gateway.modify(
            FORM, changed, easychair.complete_review(overall=-2), WRITER
        )
        assert response.status == 200
        assert gateway.cache.stats.invalidations == 1
        shard_reads.clear()
        for user in ("chair", WRITER):
            kept_view = gateway.view(ENTITY, kept, user)
            changed_view = gateway.view(ENTITY, changed, user)
            assert kept_view.body["overall_evaluation"] == 2
            assert changed_view.body["overall_evaluation"] == -2
            assert changed_view.body["version"] == 2
        home = gateway.shards[gateway.router.shard_for(ENTITY, changed)]
        # the two views of the changed record are re-read, once each
        assert shard_reads == [("read_record", home)] * 2


@pytest.mark.parametrize("change", ["split", "merge"])
def test_a_list_after_a_topology_change_holds_each_id_once(change):
    with _gateway(shard_count=3) as gateway:
        records = _submit(gateway, 20)
        for user in READERS:
            assert gateway.list(ENTITY, user).status == 200
        if change == "split":
            gateway.split_shard()
        else:
            gateway.merge_shard(1)
        assert gateway.migrated > 0
        for user in READERS:
            listed = gateway.list(ENTITY, user)
            assert listed.status == 200
            ids = [row["id"] for row in listed.body]
            assert len(ids) == len(set(ids))
            assert listed.body == _authoritative_list(gateway, user)
        assert [row["id"] for row in gateway.list(ENTITY, WRITER).body] \
            == records


@pytest.mark.parametrize("event", ["restart", "failover"])
def test_a_replaced_shard_retires_its_parts_and_views(event):
    with _gateway(shard_count=2) as gateway:
        records = _submit(gateway, 6)
        victim = gateway.router.shard_for(ENTITY, records[0])
        assert gateway.view(ENTITY, records[0], WRITER).status == 200
        assert gateway.list(ENTITY, WRITER).status == 200
        # without a durable backend the replacement comes back empty
        if event == "restart":
            gateway.restart_shard(victim)
        else:
            gateway.fail_over(victim)
        assert gateway.view(ENTITY, records[0], WRITER).status == 404
        assert gateway.list(ENTITY, WRITER).body == \
            _authoritative_list(gateway, WRITER)


# -- a cached gateway answers like an uncached one ---------------------------


class CachedMatchesUncached(RuleBasedStateMachine):
    """Every operation runs on a cached gateway and an uncached twin
    built the same way; the two must give the same status, and every
    200 body must be equal."""

    # updates and views pick among the first few records, so that one
    # record is often viewed, updated and viewed again
    records = st.integers(0, 3)

    @initialize(capacity=st.sampled_from([4, 64]))
    def build(self, capacity):
        self.cached = _gateway(shard_count=2, cache_capacity=capacity)
        self.uncached = _gateway(shard_count=2, cache_capacity=0)
        self.records: list[int] = []
        self.splits = 0
        # a replaced shard comes back empty (no durable backend), so
        # replacements are kept few enough for records to accumulate
        self.replacements = 0

    def teardown(self):
        for gateway in (getattr(self, "cached", None),
                        getattr(self, "uncached", None)):
            if gateway is not None:
                gateway.close()

    def _both(self, call):
        got, want = call(self.cached), call(self.uncached)
        assert got.status == want.status
        if got.status in (200, 201):
            assert got.body == want.body
        return got

    @rule(overall=st.integers(-3, 3))
    def create(self, overall):
        response = self._both(lambda gw: gw.submit(
            FORM, easychair.complete_review(overall=overall), WRITER
        ))
        self.records.append(response.body["id"])

    @rule(count=st.integers(1, 5), overall=st.integers(-3, 3))
    def submit_many(self, count, overall):
        payloads = [easychair.complete_review(overall=overall)] * count
        got = self.cached.submit_many(FORM, payloads, WRITER)
        want = self.uncached.submit_many(FORM, payloads, WRITER)
        assert [(r.status, r.body) for r in got] == \
            [(r.status, r.body) for r in want]
        self.records.extend(r.body["id"] for r in got if r.status == 201)

    @precondition(lambda self: self.records)
    @rule(pick=records, overall=st.integers(-3, 3),
          user=st.sampled_from(("chair", WRITER)))
    def update(self, pick, overall, user):
        record = self.records[pick % len(self.records)]
        self._both(lambda gw: gw.modify(
            FORM, record, easychair.complete_review(overall=overall), user
        ))

    @precondition(lambda self: self.records)
    @rule(pick=records, user=st.sampled_from(READERS))
    def view(self, pick, user):
        record = self.records[pick % len(self.records)]
        self._both(lambda gw: gw.view(ENTITY, record, user))

    @rule(user=st.sampled_from(READERS))
    def list(self, user):
        self._both(lambda gw: gw.list(ENTITY, user))

    @precondition(lambda self: self.splits < 2)
    @rule()
    def split_shard(self):
        self.splits += 1
        for gateway in (self.cached, self.uncached):
            gateway.split_shard()

    @precondition(lambda self: len(self.cached.router.all_shards()) > 1)
    @rule(pick=st.integers(0, 7))
    def merge_shard(self, pick):
        live = self.cached.router.all_shards()
        for gateway in (self.cached, self.uncached):
            gateway.merge_shard(live[pick % len(live)])

    @precondition(lambda self: self.replacements < 2)
    @rule(pick=st.integers(0, 7))
    def restart_shard(self, pick):
        self.replacements += 1
        live = self.cached.router.all_shards()
        for gateway in (self.cached, self.uncached):
            gateway.restart_shard(live[pick % len(live)])

    @precondition(lambda self: self.replacements < 2)
    @rule(pick=st.integers(0, 7))
    def fail_over(self, pick):
        self.replacements += 1
        live = self.cached.router.all_shards()
        for gateway in (self.cached, self.uncached):
            gateway.fail_over(live[pick % len(live)])


CachedMatchesUncached.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
test_cached_answers_equal_uncached_answers = CachedMatchesUncached.TestCase


# -- writers racing listers --------------------------------------------------


def test_a_list_after_the_last_acknowledged_write_is_authoritative():
    with _gateway() as gateway:
        records = _submit(gateway, 8)
        errors = _race_writers_and_readers(gateway, records, seconds=1.0)
        assert errors == []
        for user in READERS:
            assert gateway.list(ENTITY, user).body == \
                _authoritative_list(gateway, user)
            for record in records:
                home = gateway.router.shard_for(ENTITY, record)
                stored = gateway.shards[home].store.entity(ENTITY).get(record)
                viewed = gateway.view(ENTITY, record, user)
                if viewed.status == 200:
                    assert viewed.body == {
                        "id": record, "version": stored.version,
                        **stored.data,
                    }


def _race_writers_and_readers(gateway, records, seconds):
    """Two writers (a create and an update each turn) against one
    lister-and-viewer per reader, with a short switch interval; the
    answers that broke an invariant."""
    stop = threading.Event()
    errors: list = []

    def writer(seed):
        overall = seed
        while not stop.is_set():
            overall = (overall + 1) % 4
            created = gateway.submit(
                FORM, easychair.complete_review(overall=overall), WRITER
            )
            updated = gateway.modify(
                FORM, records[overall],
                easychair.complete_review(overall=-overall), WRITER,
            )
            if created.status != 201 or updated.status != 200:
                errors.append((created.status, updated.status))

    def reader(user):
        while not stop.is_set():
            listed = gateway.list(ENTITY, user)
            ids = [row["id"] for row in listed.body]
            if listed.status != 200 or ids != sorted(set(ids)):
                errors.append((user, listed.status))
            gateway.view(ENTITY, records[len(ids) % len(records)], user)

    threads = [
        threading.Thread(target=writer, args=(seed,)) for seed in (0, 2)
    ] + [threading.Thread(target=reader, args=(user,)) for user in READERS]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        time.sleep(seconds)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors
