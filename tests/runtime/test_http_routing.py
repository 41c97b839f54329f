"""Unit tests for the simulated HTTP layer and router."""

import pytest

from repro.runtime.http import (
    Request,
    Response,
    bad_request,
    created,
    forbidden,
    method_not_allowed,
    not_found,
    ok,
    unprocessable,
)
from repro.runtime.routing import Route, Router


class TestRequestResponse:
    def test_method_normalized(self):
        assert Request("post", "/x").method == "POST"

    def test_path_must_be_absolute(self):
        with pytest.raises(ValueError):
            Request("GET", "relative")

    @pytest.mark.parametrize("method, path, field", [
        (None, "/x", "method"),
        (5, "/x", "method"),
        ("GET", None, "path"),
        ("GET", b"/x", "path"),
    ])
    def test_non_string_method_or_path_is_a_type_error(
        self, method, path, field
    ):
        with pytest.raises(TypeError, match=f"^{field} must be a string"):
            Request(method, path)

    def test_response_ok_predicate(self):
        assert ok().ok
        assert created().ok
        assert not bad_request("x").ok
        assert not forbidden().ok
        assert not not_found().ok

    def test_status_helpers(self):
        assert ok({"a": 1}).status == 200
        assert created().status == 201
        assert bad_request("m").body == {"error": "m"}
        assert forbidden().status == 403
        assert not_found().status == 404
        assert method_not_allowed().status == 405

    def test_unprocessable_renders_findings(self):
        from repro.dq.validators import Finding

        response = unprocessable(
            [Finding("completeness", "name", "missing"), "plain text"]
        )
        assert response.status == 422
        assert response.body["dq_findings"] == [
            "[completeness] name: missing", "plain text",
        ]


class TestRoute:
    def test_exact_match(self):
        route = Route("/reviews", "GET", lambda r: ok())
        assert route.match("/reviews") == {}
        assert route.match("/reviews/extra") is None
        assert route.match("/other") is None

    def test_path_parameters(self):
        route = Route("/reviews/<id>", "GET", lambda r: ok())
        assert route.match("/reviews/42") == {"id": "42"}
        assert route.match("/reviews") is None

    def test_multiple_parameters(self):
        route = Route("/a/<x>/b/<y>", "GET", lambda r: ok())
        assert route.match("/a/1/b/2") == {"x": "1", "y": "2"}

    def test_route_path_validation(self):
        with pytest.raises(ValueError):
            Route("no-slash", "GET", lambda r: ok())


class TestRouter:
    @pytest.fixture()
    def router(self):
        router = Router()
        router.add("/items", "GET", lambda r: ok("list"))
        router.add("/items", "POST", lambda r: created("made"))
        router.add(
            "/items/<id>", "GET", lambda r: ok(f"item {r.params['id']}")
        )
        return router

    def test_dispatch_by_method(self, router):
        assert router.dispatch(Request("GET", "/items")).body == "list"
        assert router.dispatch(Request("POST", "/items")).body == "made"

    def test_dispatch_with_params(self, router):
        response = router.dispatch(Request("GET", "/items/7"))
        assert response.body == "item 7"

    def test_404_unknown_path(self, router):
        assert router.dispatch(Request("GET", "/nope")).status == 404

    def test_405_wrong_method(self, router):
        assert router.dispatch(Request("DELETE", "/items")).status == 405

    def test_routes_listing(self, router):
        assert len(router.routes) == 3
