"""Request/response primitives for the simulated web runtime.

The paper's target platform is a real web application; offline we simulate
the slice of HTTP the case study exercises: methods, paths, form data, an
authenticated user, and status-coded responses.  Handlers are plain
callables ``(request) -> Response``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Statuses the runtime uses, mirroring their HTTP meanings.
OK = 200
CREATED = 201
NON_AUTHORITATIVE = 203  # degraded read: cache-backed, staleness tagged
BAD_REQUEST = 400
FORBIDDEN = 403
NOT_FOUND = 404
METHOD_NOT_ALLOWED = 405
CONFLICT = 409  # optimistic concurrency failure
UNPROCESSABLE = 422  # DQ validation failure
TOO_MANY_REQUESTS = 429  # gateway backpressure: too many in flight
UNAVAILABLE = 503  # gateway not accepting requests (draining / closed)


@dataclass
class Request:
    """One simulated HTTP request."""

    method: str
    path: str
    user: str = "anonymous"
    data: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("method", "path"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise TypeError(
                    f"{name} must be a string, not {type(value).__name__}"
                )
        self.method = self.method.upper()
        if not self.path.startswith("/"):
            raise ValueError(f"path must start with '/': {self.path!r}")


@dataclass
class Response:
    """One simulated HTTP response."""

    status: int
    body: object = None
    headers: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def __repr__(self) -> str:
        return f"<Response {self.status}>"


def ok(body=None) -> Response:
    return Response(OK, body)


def created(body=None) -> Response:
    return Response(CREATED, body)


def degraded(body, served_version: int, current_version: int) -> Response:
    """A degraded (cache-backed) read: 203 with explicit staleness tags.

    The Traceability DQSR forbids serving possibly stale data silently;
    the headers say exactly which entity data version the body reflects
    and which version is current, so a caller can tell how stale it is.
    """
    headers = {
        "X-DQ-Degraded": (
            "stale" if served_version < current_version else "cached"
        ),
        "X-DQ-Served-Version": str(served_version),
        "X-DQ-Current-Version": str(current_version),
    }
    return Response(NON_AUTHORITATIVE, body, headers)


def replica_read(body, lag: int, bound: int) -> Response:
    """A follower-served read: 203 with an explicit staleness bound.

    Replica reads are the Currentness tradeoff made measurable — the
    body may trail the primary by up to ``bound`` acknowledged
    operations, and the headers say exactly how far behind the serving
    follower actually was (``lag``) and how far it is allowed to be
    (``bound``).  Like :func:`degraded`, never silent: the
    ``X-DQ-Degraded`` tag keeps the Traceability DQSR intact.
    """
    headers = {
        "X-DQ-Degraded": "replica",
        "X-DQ-Replica-Lag": str(lag),
        "X-DQ-Staleness-Bound": str(bound),
    }
    return Response(NON_AUTHORITATIVE, body, headers)


def bad_request(message: str) -> Response:
    return Response(BAD_REQUEST, {"error": message})


def malformed_body(data, versioned: bool = False) -> Optional[Response]:
    """The 400 answer for a write body the pipeline cannot take, or
    ``None`` when it is well-formed.

    A body must be an object (a dict of field values); an update body's
    optional ``expected_version`` must be an integer, or a malformed
    version would surface as a 409 stale-version conflict.
    """
    if not isinstance(data, dict):
        return bad_request(
            f"request body must be an object, not {type(data).__name__}"
        )
    if versioned:
        expected = data.get("expected_version")
        if expected is not None and (
            isinstance(expected, bool) or not isinstance(expected, int)
        ):
            return bad_request(
                f"expected_version must be an integer, got {expected!r}"
            )
    return None


def path_record_id(raw) -> tuple[Optional[int], Optional[Response]]:
    """A path's record id as ``(id, None)``, or ``(None, 400 answer)``.

    Only ASCII digits in canonical form name a record: no sign,
    whitespace, underscore or leading zero.  ``int()`` alone would let
    ``+1``, `` 1``, ``01`` and non-ASCII digits address record 1, and
    ``1_0`` address record 10.
    """
    if raw is None:
        return None, bad_request("missing record id")
    if (
        isinstance(raw, str) and raw.isascii() and raw.isdigit()
        and (raw == "0" or not raw.startswith("0"))
    ):
        try:
            return int(raw), None
        except ValueError:  # more digits than int() converts
            pass
    return None, bad_request(f"bad record id {raw!r}")


def forbidden(message: str = "forbidden") -> Response:
    return Response(FORBIDDEN, {"error": message})


def not_found(message: str = "not found") -> Response:
    return Response(NOT_FOUND, {"error": message})


def method_not_allowed(message: str = "method not allowed") -> Response:
    return Response(METHOD_NOT_ALLOWED, {"error": message})


def conflict(message: str = "version conflict") -> Response:
    return Response(CONFLICT, {"error": message})


def too_many_requests(
    message: str = "too many requests", retry_after: Optional[int] = None
) -> Response:
    """Backpressure: too many requests in flight; try again later."""
    headers = {} if retry_after is None else {"Retry-After": str(retry_after)}
    return Response(TOO_MANY_REQUESTS, {"error": message}, headers)


def unavailable(message: str = "service unavailable") -> Response:
    """The serving layer is not accepting requests (draining or closed)."""
    return Response(UNAVAILABLE, {"error": message})


def unprocessable(findings) -> Response:
    """A DQ rejection: 422 with the validator findings in the body."""
    rendered = [f.render() if hasattr(f, "render") else str(f) for f in findings]
    return Response(UNPROCESSABLE, {"dq_findings": rendered})
