"""Unit tests for the assembled WebApp and its DQ enforcement pipeline."""

import pytest

from repro.core.errors import AuthorizationError, DataQualityViolation
from repro.dq.validators import CompletenessValidator, PrecisionValidator
from repro.runtime.app import WebApp
from repro.runtime.forms import Form


@pytest.fixture()
def app():
    app = WebApp("reviews")
    app.define_entity(
        "review",
        fields=["reviewer", "score", "text"],
        required_fields=["reviewer", "score"],
    )
    app.set_policy("review", security_level=1)
    app.capture_metadata("review", ["stored_by", "stored_date"])
    form = Form("review form", entity="review",
                fields=["reviewer", "score", "text"])
    form.add_validator(CompletenessValidator(["reviewer", "score"]))
    form.add_validator(PrecisionValidator({"score": (0, 5)}))
    app.register_form(form)
    app.route("/reviews", "POST", app.create_handler("review form"))
    app.route("/reviews", "GET", app.list_handler("review"))
    app.route("/reviews/<id>", "GET", app.view_handler("review"))
    app.route("/reviews/<id>", "PUT", app.update_handler("review form"))
    app.add_user("pc", level=1)
    app.add_user("guest", level=0)
    return app


GOOD = {"reviewer": "ada", "score": 4, "text": "fine"}


class TestForms:
    def test_bind_projects_and_pads(self):
        form = Form("f", "e", ["a", "b"])
        assert form.bind({"a": 1, "z": 9}) == {"a": 1, "b": None}

    def test_form_needs_name_and_entity(self):
        with pytest.raises(ValueError):
            Form("", "e", ["a"])
        with pytest.raises(ValueError):
            Form("f", "", ["a"])

    def test_register_form_checks_entity(self, app):
        with pytest.raises(ValueError):
            app.register_form(Form("bad", "ghost-entity", ["x"]))

    def test_duplicate_form_rejected(self, app):
        with pytest.raises(ValueError):
            app.register_form(Form("review form", "review", ["x"]))


class TestSubmit:
    def test_accepts_valid(self, app):
        stored = app.submit("review form", GOOD, "pc")
        assert stored.record_id == 1
        assert stored.metadata.stored_by == "pc"
        assert stored.metadata.security_level == 1
        assert "pc" in stored.metadata.available_to

    def test_rejects_incomplete(self, app):
        with pytest.raises(DataQualityViolation) as excinfo:
            app.submit("review form", {"score": 3}, "pc")
        assert any(f.code == "completeness" for f in excinfo.value.findings)

    def test_rejects_imprecise(self, app):
        with pytest.raises(DataQualityViolation) as excinfo:
            app.submit("review form", {**GOOD, "score": 99}, "pc")
        assert any(f.code == "precision" for f in excinfo.value.findings)

    def test_rejects_unauthorized_writer(self, app):
        with pytest.raises(AuthorizationError):
            app.submit("review form", GOOD, "guest")

    def test_rejected_write_not_stored(self, app):
        with pytest.raises(DataQualityViolation):
            app.submit("review form", {}, "pc")
        assert app.store.total_records() == 0

    def test_rejections_audited(self, app):
        for payload, user in (({}, "pc"), (GOOD, "guest")):
            with pytest.raises((DataQualityViolation, AuthorizationError)):
                app.submit("review form", payload, user)
        kinds = {e.kind for e in app.audit.rejections()}
        assert kinds == {"reject-dq", "reject-auth"}

    def test_unknown_fields_dropped(self, app):
        stored = app.submit(
            "review form", {**GOOD, "admin": True}, "pc"
        )
        assert "admin" not in stored.data


class TestModify:
    def test_modify_updates_and_stamps(self, app):
        stored = app.submit("review form", GOOD, "pc")
        app.add_user("pc2", level=1)
        app.modify("review form", stored.record_id, {"score": 5}, "pc2")
        assert stored.data["score"] == 5
        assert stored.metadata.last_modified_by == "pc2"
        assert app.audit.who_changed("review", stored.record_id) == [
            "pc", "pc2",
        ]

    def test_modify_validates_merged_record(self, app):
        stored = app.submit("review form", GOOD, "pc")
        with pytest.raises(DataQualityViolation):
            app.modify("review form", stored.record_id, {"score": 42}, "pc")
        assert stored.data["score"] == 4  # unchanged

    def test_modify_checks_clearance(self, app):
        stored = app.submit("review form", GOOD, "pc")
        with pytest.raises(AuthorizationError):
            app.modify("review form", stored.record_id, {"score": 1}, "guest")


class TestRead:
    def test_confidentiality_filtering(self, app):
        app.submit("review form", GOOD, "pc")
        assert len(app.read("review", "pc")) == 1       # writer grant
        assert len(app.read("review", "guest")) == 0    # below level
        app.add_user("chair", level=2)
        assert len(app.read("review", "chair")) == 1

    def test_read_record_denied(self, app):
        stored = app.submit("review form", GOOD, "pc")
        with pytest.raises(AuthorizationError):
            app.read_record("review", stored.record_id, "guest")
        denied = [
            e for e in app.audit.rejections() if e.kind == "reject-auth"
        ]
        assert denied

    def test_reads_audited(self, app):
        app.read("review", "pc")
        assert app.audit.by_kind("read")


class TestHandlers:
    def test_create_route(self, app):
        response = app.post("/reviews", GOOD, user="pc")
        assert response.status == 201
        assert response.body == {"id": 1}

    def test_create_rejections_mapped_to_statuses(self, app):
        assert app.post("/reviews", {}, user="pc").status == 422
        assert app.post("/reviews", GOOD, user="guest").status == 403

    def test_list_route_filters(self, app):
        app.post("/reviews", GOOD, user="pc")
        assert app.get("/reviews", user="pc").body == [
            {"id": 1, **GOOD},
        ]
        assert app.get("/reviews", user="guest").body == []

    def test_declared_envelope_field_names_are_rejected(self):
        # a body is {"id", "version", **data}: such a field would shadow
        # the record's id or version in every listing and view
        app = WebApp("docs")
        app.define_entity("doc", fields=["title"])
        for name in ("id", "version"):
            with pytest.raises(ValueError, match=f"'{name}'"):
                app.define_entity(f"doc {name}", fields=["title", name])
            with pytest.raises(ValueError, match=f"'{name}'"):
                app.register_form(Form("doc form", "doc", ["title", name]))
        assert not app.forms
        assert app.store.entity_names == ["doc"]

    def test_view_route(self, app):
        app.post("/reviews", GOOD, user="pc")
        assert app.get("/reviews/1", user="pc").status == 200
        assert app.get("/reviews/1", user="guest").status == 403
        assert app.get("/reviews/99", user="pc").status == 404
        assert app.get("/reviews/xyz", user="pc").status == 400

    def test_update_route(self, app):
        app.post("/reviews", GOOD, user="pc")
        response = app.handle(
            __import__("repro.runtime.http", fromlist=["Request"]).Request(
                "PUT", "/reviews/1", user="pc", data={"score": 2}
            )
        )
        assert response.status == 200
        assert app.store.entity("review").get(1).data["score"] == 2

    def test_update_route_missing_record(self, app):
        from repro.runtime.http import Request

        response = app.handle(
            Request("PUT", "/reviews/9", user="pc", data={"score": 2})
        )
        assert response.status == 404

    def test_describe(self, app):
        text = app.describe()
        assert "review form" in text
        assert "POST /reviews" in text
        assert "restricted entities: review" in text


class TestOptimisticConcurrency:
    def test_version_starts_at_one_and_increments(self, app):
        stored = app.submit("review form", GOOD, "pc")
        assert stored.version == 1
        app.modify("review form", stored.record_id, {"score": 5}, "pc")
        assert stored.version == 2

    def test_matching_expected_version_succeeds(self, app):
        stored = app.submit("review form", GOOD, "pc")
        app.modify(
            "review form", stored.record_id, {"score": 5}, "pc",
            expected_version=1,
        )
        assert stored.data["score"] == 5

    def test_stale_expected_version_conflicts(self, app):
        from repro.core.errors import VersionConflictError

        stored = app.submit("review form", GOOD, "pc")
        app.modify("review form", stored.record_id, {"score": 5}, "pc")
        with pytest.raises(VersionConflictError):
            app.modify(
                "review form", stored.record_id, {"score": 1}, "pc",
                expected_version=1,
            )
        assert stored.data["score"] == 5  # untouched

    def test_update_route_maps_conflict_to_409(self, app):
        from repro.runtime.http import Request

        app.post("/reviews", GOOD, user="pc")
        first = app.handle(
            Request("PUT", "/reviews/1", user="pc",
                    data={"score": 2, "expected_version": 1})
        )
        assert first.status == 200
        assert first.body["version"] == 2
        stale = app.handle(
            Request("PUT", "/reviews/1", user="pc",
                    data={"score": 3, "expected_version": 1})
        )
        assert stale.status == 409

    def test_update_without_expected_version_is_last_write_wins(self, app):
        from repro.runtime.http import Request

        app.post("/reviews", GOOD, user="pc")
        app.handle(Request("PUT", "/reviews/1", user="pc", data={"score": 2}))
        response = app.handle(
            Request("PUT", "/reviews/1", user="pc", data={"score": 3})
        )
        assert response.status == 200


class TestFailClosed:
    def test_crashing_validator_rejects_write(self, app):
        from repro.dq.validators import Validator

        class Bomb(Validator):
            def check(self, record):
                raise RuntimeError("boom")

        app.form("review form").add_validator(Bomb("check_bomb"))
        with pytest.raises(DataQualityViolation) as excinfo:
            app.submit("review form", GOOD, "pc")
        findings = excinfo.value.findings
        assert any(f.code == "validator-error" for f in findings)
        assert app.store.total_records() == 0

    def test_crash_is_audited_like_a_dq_rejection(self, app):
        from repro.dq.validators import Validator

        class Bomb(Validator):
            def check(self, record):
                raise RuntimeError("boom")

        app.form("review form").add_validator(Bomb("check_bomb"))
        with pytest.raises(DataQualityViolation):
            app.submit("review form", GOOD, "pc")
        assert any(
            "check_bomb" in e.detail for e in app.audit.rejections()
        )


class TestBatchSubmit:
    def test_partial_accept(self, app):
        records = [
            GOOD,
            {"reviewer": "bob"},               # incomplete
            {**GOOD, "score": 99},             # imprecise
            {**GOOD, "reviewer": "carol"},
        ]
        result = app.submit_batch("review form", records, "pc")
        assert result.total == 4
        assert [row for row, __ in result.accepted] == [0, 3]
        assert [row for row, __ in result.rejected] == [1, 2]
        assert result.unauthorized == []
        assert app.store.total_records() == 2
        assert not result.all_accepted
        assert "2 accepted" in result.render()

    def test_unauthorized_rows_separated(self, app):
        result = app.submit_batch("review form", [GOOD], "guest")
        assert result.unauthorized and not result.accepted

    def test_clean_batch_all_accepted(self, app):
        result = app.submit_batch(
            "review form",
            [GOOD, {**GOOD, "reviewer": "zoe"}],
            "pc",
        )
        assert result.all_accepted

    def test_rejections_audited_per_row(self, app):
        app.submit_batch("review form", [{}, {}], "pc")
        assert len(app.audit.rejections()) == 2
