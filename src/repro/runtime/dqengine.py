"""Model-driven assembly: design model → running application.

This is the *semantic* end of the MDA pipeline: where
:mod:`repro.transform.codegen` emits source text, this module interprets the
same design model directly into a live :class:`~repro.runtime.app.WebApp`.
The test suite verifies both paths produce behaviourally identical
applications.

It also builds the **baseline** application — the same entities, forms and
routes but with every DQ mechanism stripped — modelling the pre-DQ_WebRE
world the paper's introduction describes (reactive, "post-mortem" data
cleansing instead of requirements-driven prevention).  The benchmark
harness compares the two.
"""

from __future__ import annotations

from typing import Optional

from repro.core import MObject
from repro.core.errors import TransformationError
from repro.dq.metadata import Clock
from repro.dq.validators import (
    CompletenessValidator,
    CredibilityValidator,
    CurrentnessValidator,
    EnumValidator,
    FormatValidator,
    OclConsistencyValidator,
    PrecisionValidator,
    Validator,
)

from .app import WebApp
from .forms import Form


def spec_to_validator(spec: MObject) -> Optional[Validator]:
    """Instantiate the runtime validator for one design ValidatorSpec.

    Returns ``None`` for kinds enforced elsewhere in the pipeline
    (``authorized`` is the policy book's job) or for specs lacking the data
    they need (e.g. a precision spec without bounds — the analyst still owes
    the DQConstraint).
    """
    kind = spec.kind
    if kind == "completeness":
        fields = list(spec.target_fields)
        if not fields:
            return None
        return CompletenessValidator(fields, name=spec.name)
    if kind == "precision":
        bounds = {b.field: (b.lower, b.upper) for b in spec.bounds}
        if not bounds:
            return None
        return PrecisionValidator(bounds, name=spec.name)
    if kind == "format":
        patterns = {}
        for entry in spec.patterns:
            field, _, pattern = entry.partition("=")
            if field and pattern:
                patterns[field] = pattern
        if not patterns:
            return None
        return FormatValidator(patterns, name=spec.name)
    if kind == "enum":
        return None  # enum values are not carried by the design model (yet)
    if kind == "currentness":
        max_age = spec.max_age or 100
        return CurrentnessValidator(
            spec.age_field or "age", max_age, name=spec.name
        )
    if kind == "credibility":
        sources = list(spec.trusted_sources)
        if not sources:
            return None
        return CredibilityValidator(
            spec.source_field or "source", sources, name=spec.name
        )
    if kind == "consistency":
        rules = list(spec.rules)
        if not rules:
            return None  # no declarative rules: the designer still owes them
        return OclConsistencyValidator(rules, name=spec.name)
    if kind == "authorized":
        return None
    raise TransformationError(f"unknown validator kind {kind!r}")


def build_app(
    design_model: MObject,
    clock: Optional[Clock] = None,
    plan_cache=None,
    persistence=None,
) -> WebApp:
    """Assemble the full DQ-aware application from a design model.

    ``plan_cache`` shares one compiled-plan cache across many apps (the
    sharded gateway passes one cache for all shards, so identical chains
    compile exactly once).  ``persistence`` plugs a durable backend
    (:mod:`repro.persistence`) under the stores; the default stays fully
    in-memory.
    """
    app = WebApp(
        design_model.name, clock=clock,
        plan_cache=plan_cache, persistence=persistence,
    )
    for entity in design_model.entities:
        app.define_entity(
            entity.name,
            fields=list(entity.fields),
            required_fields=list(entity.required_fields),
        )
    for policy in design_model.policies:
        app.set_policy(
            policy.entity.name,
            security_level=policy.security_level,
            grant_writer_access=policy.grant_writer_access,
        )
    for spec in design_model.metadata_specs:
        for entity in spec.entities:
            app.capture_metadata(entity.name, list(spec.attributes))
    for form_spec in design_model.forms:
        form = Form(
            form_spec.name,
            entity=form_spec.entity.name,
            fields=list(form_spec.fields),
        )
        for validator_spec in form_spec.validators:
            validator = spec_to_validator(validator_spec)
            if validator is not None:
                form.add_validator(validator)
        app.register_form(form)
    _wire_routes(app, design_model)
    return app


def build_baseline_app(
    design_model: MObject, clock: Optional[Clock] = None
) -> WebApp:
    """The no-DQ baseline: same surface, no validators/policies/metadata."""
    app = WebApp(f"{design_model.name} (baseline)", clock=clock)
    for entity in design_model.entities:
        app.define_entity(entity.name, fields=list(entity.fields))
    for form_spec in design_model.forms:
        app.register_form(
            Form(
                form_spec.name,
                entity=form_spec.entity.name,
                fields=list(form_spec.fields),
            )
        )
    _wire_routes(app, design_model)
    return app


def _wire_routes(app: WebApp, design_model: MObject) -> None:
    for route in design_model.routes:
        if route.kind == "create":
            if route.form is None:
                raise TransformationError(
                    f"create route {route.name!r} has no form"
                )
            app.route(route.path, "POST", app.create_handler(route.form.name))
        elif route.kind == "update":
            if route.form is None:
                raise TransformationError(
                    f"update route {route.name!r} has no form"
                )
            app.route(route.path, "PUT", app.update_handler(route.form.name))
        elif route.kind == "list":
            app.route(route.path, "GET", app.list_handler(route.entity.name))
        elif route.kind == "view":
            app.route(route.path, "GET", app.view_handler(route.entity.name))
