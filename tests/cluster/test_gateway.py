"""Behavioural tests for the sharded DQ gateway.

Every DQSR guarantee the single app enforces must survive the gateway:
DQ rejections (422), confidentiality (403 + filtered/cached reads),
traceability (exactly-once audit), optimistic concurrency (409), plus the
gateway's own contract: deterministic placement, backpressure (429) and
drain (503).
"""

import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.casestudy import easychair
from repro.cluster import ShardedGateway
from repro.persistence import persistence_factory
from repro.runtime import audit as audit_events
from repro.runtime.dqengine import build_app
from repro.runtime.http import Request

FORM = "Add all data as result of review form"
ENTITY = "Add all data as result of review"
CREATE_PATH = easychair.REVIEW_PATH
LIST_PATH = easychair.REVIEW_LIST_PATH


@pytest.fixture()
def gateway():
    gw = ShardedGateway.from_design(
        easychair.build_design(), shard_count=4, users=easychair.USERS
    )
    yield gw
    gw.close()


def submit_ok(gw, user="pc_member_1", **overrides):
    payload = easychair.complete_review()
    payload.update(overrides)
    response = gw.submit(FORM, payload, user)
    assert response.status == 201
    return response.body["id"]


class TestWritePipeline:
    def test_accepted_write_lands_on_its_hash_shard(self, gateway):
        record_id = submit_ok(gateway)
        home = gateway.router.shard_for(ENTITY, record_id)
        shard_store = gateway.shards[home].store.entity(ENTITY)
        assert record_id in shard_store
        for index, shard in enumerate(gateway.shards):
            if index != home:
                assert record_id not in shard.store.entity(ENTITY)

    def test_global_ids_unique_across_shards(self, gateway):
        ids = [submit_ok(gateway) for _ in range(20)]
        assert len(set(ids)) == 20
        assert sorted(ids) == list(range(1, 21))

    def test_dq_rejection_maps_to_422_and_stores_nothing(self, gateway):
        payload = easychair.complete_review()
        payload["overall_evaluation"] = 99
        response = gateway.submit(FORM, payload, "pc_member_1")
        assert response.status == 422
        assert "dq_findings" in response.body
        assert gateway.total_records() == 0

    def test_unauthorized_write_maps_to_403(self, gateway):
        response = gateway.submit(
            FORM, easychair.complete_review(), "outsider"
        )
        assert response.status == 403

    def test_accepted_write_audited_exactly_once(self, gateway):
        record_id = submit_ok(gateway)
        events = [
            e
            for shard in gateway.shards
            for e in shard.audit.by_kind("store")
            if e.record_id == record_id
        ]
        assert len(events) == 1


class TestReadPipeline:
    def test_list_scatter_gathers_all_shards_sorted(self, gateway):
        ids = [submit_ok(gateway) for _ in range(8)]
        response = gateway.list(ENTITY, "chair")
        assert response.status == 200
        assert [row["id"] for row in response.body] == sorted(ids)

    def test_view_routes_to_home_shard(self, gateway):
        record_id = submit_ok(gateway)
        response = gateway.view(ENTITY, record_id, "pc_member_1")
        assert response.status == 200
        assert response.body["id"] == record_id
        assert response.body["version"] == 1

    def test_view_missing_record_404(self, gateway):
        assert gateway.view(ENTITY, 999, "chair").status == 404

    def test_confidentiality_filtering_spans_shards(self, gateway):
        for _ in range(6):
            submit_ok(gateway)
        assert len(gateway.list(ENTITY, "chair").body) == 6
        assert gateway.list(ENTITY, "outsider").body == []
        record = gateway.list(ENTITY, "chair").body[0]["id"]
        assert gateway.view(ENTITY, record, "outsider").status == 403


class TestCacheBehaviour:
    def test_repeat_list_hits_cache(self, gateway):
        submit_ok(gateway)
        gateway.list(ENTITY, "chair")
        before = gateway.cache.stats.hits
        gateway.list(ENTITY, "chair")
        assert gateway.cache.stats.hits == before + 1

    def test_cached_read_never_leaks_across_users(self, gateway):
        submit_ok(gateway)
        assert len(gateway.list(ENTITY, "chair").body) == 1  # fills cache
        assert gateway.list(ENTITY, "outsider").body == []
        assert gateway.view(
            ENTITY, 1, "outsider"
        ).status == 403  # cached 200 for chair must not apply

    def test_write_invalidates_cached_lists(self, gateway):
        submit_ok(gateway)
        assert len(gateway.list(ENTITY, "chair").body) == 1
        submit_ok(gateway)
        assert len(gateway.list(ENTITY, "chair").body) == 2

    def test_update_invalidates_cached_view(self, gateway):
        record_id = submit_ok(gateway)
        assert gateway.view(ENTITY, record_id, "chair").body["version"] == 1
        response = gateway.modify(
            FORM, record_id, {"detailed_comments": "v2"}, "pc_member_1",
            expected_version=1,
        )
        assert response.status == 200
        assert gateway.view(ENTITY, record_id, "chair").body["version"] == 2

    def test_served_cached_body_is_defensive(self, gateway):
        submit_ok(gateway)
        first = gateway.list(ENTITY, "chair")
        first.body[0]["first_name"] = "MUTATED"
        again = gateway.list(ENTITY, "chair")
        assert again.body[0]["first_name"] == "Ada"

    def test_uncached_gateway_still_correct(self):
        gw = ShardedGateway.from_design(
            easychair.build_design(), shard_count=2,
            users=easychair.USERS, cache_capacity=0,
        )
        try:
            record_id = submit_ok(gw)
            assert gw.view(ENTITY, record_id, "chair").status == 200
            assert gw.cache.stats.hits == 0
        finally:
            gw.close()


class TestOptimisticConcurrency:
    def test_stale_version_conflicts_as_409(self, gateway):
        record_id = submit_ok(gateway)
        ok = gateway.modify(
            FORM, record_id, {"detailed_comments": "a"}, "pc_member_1",
            expected_version=1,
        )
        assert ok.status == 200 and ok.body["version"] == 2
        stale = gateway.modify(
            FORM, record_id, {"detailed_comments": "b"}, "pc_member_2",
            expected_version=1,
        )
        assert stale.status == 409
        # the conflicting write was not applied (no lost update)
        assert gateway.view(
            ENTITY, record_id, "chair"
        ).body["detailed_comments"] == "a"

    def test_modify_missing_record_404(self, gateway):
        response = gateway.modify(FORM, 777, {"x": 1}, "pc_member_1")
        assert response.status == 404


class TestBackpressureAndDrain:
    def test_queue_depth_exceeded_answers_429(self, gateway):
        gateway._pending = gateway.max_queue_depth  # saturate admission
        try:
            response = gateway.list(ENTITY, "chair")
        finally:
            gateway._pending = 0
        assert response.status == 429
        assert response.headers.get("Retry-After") == "1"
        assert gateway.metrics.rejected_backpressure == 1

    def test_closed_gateway_answers_503_even_for_cached_reads(self, gateway):
        submit_ok(gateway)
        gateway.list(ENTITY, "chair")  # warm the cache
        gateway.close()
        assert gateway.list(ENTITY, "chair").status == 503
        assert gateway.view(ENTITY, 1, "chair").status == 503
        assert gateway.submit(
            FORM, easychair.complete_review(), "pc_member_1"
        ).status == 503
        assert gateway.metrics.rejected_unavailable == 3


@contextmanager
def holding_shard_locks(gw):
    """Hold every shard lock, so admitted requests block inside the
    gateway until the block exits."""
    for lock in gw._shard_locks:
        lock.acquire()
    try:
        yield
    finally:
        for lock in gw._shard_locks:
            lock.release()


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def writer_threads(gw, count, responses):
    def write():
        responses.append(
            gw.submit(FORM, easychair.complete_review(), "pc_member_1")
        )

    return [threading.Thread(target=write) for _ in range(count)]


class TestCallerThreadDispatch:
    def test_requests_start_no_thread(self, gateway):
        before = threading.active_count()
        record_id = submit_ok(gateway)
        assert gateway.view(ENTITY, record_id, "chair").status == 200
        assert gateway.list(ENTITY, "chair").status == 200
        batch = gateway.submit_many(
            FORM, [easychair.complete_review() for _ in range(6)],
            "pc_member_1",
        )
        assert [r.status for r in batch] == [201] * 6
        assert threading.active_count() == before

    def test_requests_in_flight_past_the_bound_answer_429(self):
        gw = ShardedGateway.from_design(
            easychair.build_design(), shard_count=2, users=easychair.USERS,
            max_queue_depth=3,
        )
        held: list = []
        writers = writer_threads(gw, gw.max_queue_depth, held)
        try:
            with holding_shard_locks(gw):
                for writer in writers:
                    writer.start()
                wait_until(lambda: gw._pending == gw.max_queue_depth)
                refused = gw.submit(
                    FORM, easychair.complete_review(), "pc_member_1"
                )
                assert refused.status == 429
                assert refused.headers.get("Retry-After") == "1"
                assert gw.metrics.rejected_backpressure == 1
            for writer in writers:
                writer.join(timeout=10)
                assert not writer.is_alive()
            assert [r.status for r in held] == [201] * gw.max_queue_depth
            # the refused write stored nothing and audited nothing
            held_ids = sorted(r.body["id"] for r in held)
            stored = sorted(
                event.record_id
                for shard in gw.shards
                for event in shard.audit.by_kind(audit_events.STORE)
            )
            assert stored == held_ids
            assert gw.total_records() == len(held_ids)
        finally:
            gw.close()

    def test_in_flight_count_settles_under_contention(self):
        gw = ShardedGateway.from_design(
            easychair.build_design(), shard_count=2, users=easychair.USERS,
            max_queue_depth=2,
        )
        statuses: list = []

        def client():
            for _ in range(25):
                statuses.append(gw.submit(
                    FORM, easychair.complete_review(), "pc_member_1"
                ).status)

        clients = [threading.Thread(target=client) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        gw.close()  # returns only once no request is in flight
        assert len(statuses) == 200 and set(statuses) <= {201, 429}
        assert gw._pending == 0
        assert gw.metrics.rejected_backpressure == statuses.count(429)
        assert gw.total_records() == statuses.count(201)

    def test_close_drains_a_write_in_flight(self, tmp_path):
        def fleet():
            return ShardedGateway.from_design(
                easychair.build_design(), shard_count=2,
                users=easychair.USERS,
                persistence=persistence_factory(tmp_path, kind="file"),
            )

        gw = fleet()
        held: list = []
        (writer,) = writer_threads(gw, 1, held)
        closer = threading.Thread(target=gw.close)
        with holding_shard_locks(gw):
            writer.start()
            wait_until(lambda: gw._pending == 1)
            closer.start()
            closer.join(timeout=0.2)
            assert closer.is_alive()  # waiting on the held write
            wait_until(lambda: gw._closed)
            assert gw.submit(
                FORM, easychair.complete_review(), "pc_member_1"
            ).status == 503
        writer.join(timeout=10)
        closer.join(timeout=10)
        assert not writer.is_alive() and not closer.is_alive()
        assert [r.status for r in held] == [201]
        rebuilt = fleet()
        try:
            assert rebuilt.total_records() == 1
            assert rebuilt.view(
                ENTITY, held[0].body["id"], "chair"
            ).status == 200
        finally:
            rebuilt.close()


class TestHttpFacade:
    def test_full_crud_over_paths(self, gateway):
        created = gateway.post(
            CREATE_PATH, easychair.complete_review(), user="pc_member_1"
        )
        assert created.status == 201
        record_id = created.body["id"]
        listed = gateway.get(LIST_PATH, user="chair")
        assert listed.status == 200 and len(listed.body) == 1
        viewed = gateway.get(f"{CREATE_PATH}/{record_id}", user="chair")
        assert viewed.status == 200 and viewed.body["id"] == record_id
        updated = gateway.put(
            f"{CREATE_PATH}/{record_id}",
            {"detailed_comments": "new", "expected_version": 1},
            user="pc_member_1",
        )
        assert updated.status == 200 and updated.body["version"] == 2

    def test_unknown_path_404_wrong_method_405_bad_id_400(self, gateway):
        assert gateway.get("/nope", user="chair").status == 404
        assert gateway.post(
            f"{CREATE_PATH}/5", {}, user="chair"
        ).status == 405
        assert gateway.get(f"{CREATE_PATH}/abc", user="chair").status == 400

    def test_list_path_wins_over_id_pattern(self, gateway):
        # "/…/list" must route to the list, not parse "list" as an id
        assert gateway.get(LIST_PATH, user="chair").status == 200

    def test_exact_routes_match_first_whatever_the_exposure_order(self):
        gw = ShardedGateway([_single_app()])
        gw.expose_view("/reviews/<id>", ENTITY)
        gw.expose_create("/reviews", FORM)
        gw.expose_list("/reviews/list", ENTITY)
        try:
            assert [route.kind for route in gw.routes] == [
                "create", "list", "view",
            ]
            record_id = gw.post(
                "/reviews", easychair.complete_review(), user="pc_member_1"
            ).body["id"]
            listed = gw.get("/reviews/list", user="chair")
            assert listed.status == 200
            assert [row["id"] for row in listed.body] == [record_id]
            viewed = gw.get(f"/reviews/{record_id}", user="chair")
            assert viewed.status == 200 and viewed.body["id"] == record_id
        finally:
            gw.close()


def _single_app():
    app = build_app(easychair.build_design())
    for name, level, roles in easychair.USERS:
        app.add_user(name, level, roles)
    app.route(f"{CREATE_PATH}/<id>", "PUT", app.update_handler(FORM))
    app.route(f"{CREATE_PATH}/<id>", "GET", app.view_handler(ENTITY))
    return app


@pytest.mark.parametrize("facade", ["gateway", "app"])
@pytest.mark.parametrize("method, body", [
    ("POST", [1, 2]),
    ("POST", "x"),
    ("POST", 5),
    ("PUT", [1, 2]),
    ("PUT", "xy"),
    ("PUT", {"detailed_comments": "new", "expected_version": "x"}),
    ("PUT", {"detailed_comments": "new", "expected_version": 1.5}),
], ids=[
    "post-list", "post-str", "post-int", "put-list", "put-str",
    "put-version-str", "put-version-float",
])
def test_malformed_write_bodies_answer_400(facade, method, body):
    # the sharded gateway and the single app share one body check: a
    # non-object body or a non-integer expected_version is the client's
    # error, never a traceback and never a 409 stale-version conflict
    if facade == "gateway":
        server = ShardedGateway.from_design(
            easychair.build_design(), shard_count=2, users=easychair.USERS
        )
    else:
        server = _single_app()
    try:
        created = server.handle(Request(
            "POST", CREATE_PATH, user="pc_member_1",
            data=easychair.complete_review(),
        ))
        assert created.status == 201
        path = CREATE_PATH
        if method == "PUT":
            path = f"{CREATE_PATH}/{created.body['id']}"
        response = server.handle(
            Request(method, path, user="pc_member_1", data=body)
        )
        assert response.status == 400, response.body
        assert "error" in response.body
    finally:
        if facade == "gateway":
            server.close()


@pytest.mark.parametrize("facade", ["gateway", "app"])
@pytest.mark.parametrize("method", ["GET", "PUT"])
@pytest.mark.parametrize("raw_id", [
    "+1", " 1", "1 ", "01", "\u0661", "1_0", "-1", "1.0", "abc", "9" * 5000,
], ids=[
    "plus", "leading-space", "trailing-space", "leading-zero",
    "arabic-indic-one", "underscore", "minus", "decimal-point", "letters",
    "too-many-digits",
])
def test_malformed_record_ids_answer_400(facade, method, raw_id):
    # only canonical ASCII digits name a record: int() alone would let
    # "+1", " 1", "01" and "\u0661" serve (or overwrite) record 1 and
    # "1_0" address record 10
    if facade == "gateway":
        server = ShardedGateway.from_design(
            easychair.build_design(), shard_count=2, users=easychair.USERS
        )
    else:
        server = _single_app()
    try:
        for _ in range(10):
            created = server.handle(Request(
                "POST", CREATE_PATH, user="pc_member_1",
                data=easychair.complete_review(),
            ))
            assert created.status == 201
        data = (
            {"detailed_comments": "overwritten"} if method == "PUT" else {}
        )
        response = server.handle(Request(
            method, f"{CREATE_PATH}/{raw_id}", user="pc_member_1", data=data,
        ))
        assert response.status == 400, response.body
        assert "error" in response.body
        for record_id in (1, 10):
            stored = server.handle(
                Request("GET", f"{CREATE_PATH}/{record_id}", user="chair")
            )
            assert stored.status == 200
            assert stored.body["detailed_comments"] != "overwritten"
    finally:
        if facade == "gateway":
            server.close()


class TestMetrics:
    def test_metrics_snapshot_counts_everything(self, gateway):
        submit_ok(gateway)
        gateway.list(ENTITY, "chair")
        gateway.list(ENTITY, "chair")  # cached
        snap = gateway.metrics.snapshot(gateway.cache.stats)
        assert snap["shard_count"] == 4
        assert snap["operations"]["submit"]["count"] == 1
        assert snap["operations"]["list"]["count"] == 2
        assert snap["statuses"][201] == 1
        assert snap["cache"]["hits"] == 1
        rendered = gateway.metrics.render(gateway.cache.stats)
        assert "gateway over 4 shard(s)" in rendered
        assert "cache:" in rendered

    def test_describe_lists_routes(self, gateway):
        text = gateway.describe()
        assert "ShardedGateway over 4 shard(s)" in text
        assert CREATE_PATH in text
