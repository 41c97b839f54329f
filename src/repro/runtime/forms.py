"""Forms: the runtime counterpart of ``WebUI`` elements.

A :class:`Form` binds submitted data to an entity's fields and carries the
DQ validators (the generated ``DQ_Validator`` operations) that must pass
before the write is accepted — exactly the role the paper gives the
"webpage of New Review" WebUI validated by ``check_completeness()`` /
``check_precision()`` in Fig. 7.

Validation runs through a fused :class:`~repro.runtime.vpipeline.CompiledPlan`
(see :mod:`repro.runtime.vpipeline`).  :meth:`Form._validate_legacy`, the
interpreted validator walk, is the plan's reference oracle: tests and the
validation bench check that both produce byte-identical findings.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

from repro.dq.validators import Finding, Validator


class Form:
    """An input form for one entity."""

    def __init__(
        self,
        name: str,
        entity: str,
        fields: Sequence[str],
        validators: Optional[Sequence[Validator]] = None,
    ):
        if not name:
            raise ValueError("a form needs a name")
        if not entity:
            raise ValueError(f"form {name!r} needs a target entity")
        self.name = name
        self.entity = entity
        self.fields = tuple(fields)
        self._validators: list[Validator] = list(validators or [])
        # -- compiled-plan state ------------------------------------------
        # ``_version`` counts redefinitions (validator or stamping-spec
        # changes); a memoized plan is only served while its version
        # matches, so a redefinition can never be answered by a stale
        # plan.  The lock guards redefinition + memoization; the serving
        # fast path reads (plan, version) without it — both are simple
        # attribute loads and a torn read only costs a recompile.
        self._plan_cache = None
        self._metadata_attributes: tuple = ()
        self._plan = None
        self._plan_version = -1
        self._version = 0
        self._plan_lock = threading.Lock()

    def add_validator(self, validator: Validator) -> "Form":
        with self._plan_lock:
            self._validators.append(validator)
            self._version += 1
            self._plan = None
        return self

    def replace_validators(self, validators: Sequence[Validator]) -> "Form":
        """Swap the whole chain (redefinition): old plans are dropped."""
        with self._plan_lock:
            stale = self._plan
            self._validators = list(validators)
            self._version += 1
            self._plan = None
            cache = self._plan_cache
        if cache is not None and stale is not None:
            cache.invalidate(stale.signature)
        return self

    def use_plan_cache(self, cache) -> "Form":
        """Share a :class:`~repro.runtime.vpipeline.PlanCache` (e.g. the
        owning app's, or one cache across every shard of a gateway)."""
        with self._plan_lock:
            self._plan_cache = cache
            self._plan = None
            self._plan_version = -1
        return self

    def set_metadata_attributes(self, attributes: Sequence[str]) -> "Form":
        """Declare the entity's DQ-metadata stamping spec (plan key part)."""
        with self._plan_lock:
            self._metadata_attributes = tuple(attributes)
            self._version += 1
            self._plan = None
        return self

    @property
    def validators(self) -> list[Validator]:
        return list(self._validators)

    def compiled_plan(self):
        """The fused plan for the current chain, memoized per version.

        Compilation happens outside the lock; the result is only
        memoized if no redefinition raced it, so a concurrent
        ``replace_validators`` always wins and the next call compiles
        the new chain.
        """
        plan = self._plan
        if plan is not None and self._plan_version == self._version:
            return plan
        from . import vpipeline

        with self._plan_lock:
            if self._plan is not None and self._plan_version == self._version:
                return self._plan
            version = self._version
            validators = list(self._validators)
            attributes = self._metadata_attributes
            cache = self._plan_cache
        if cache is not None:
            plan = cache.get_or_compile(validators, attributes, self.fields)
        else:
            plan = vpipeline.compile_plan(validators, attributes, self.fields)
        with self._plan_lock:
            if self._version == version:
                self._plan = plan
                self._plan_version = version
        return plan

    def bind(self, data: dict) -> dict:
        """Project submitted data onto the form's fields.

        Unknown keys are dropped (mass-assignment protection); declared
        fields that were not submitted bind to ``None`` so completeness
        validators see them as missing.
        """
        return {field: data.get(field) for field in self.fields}

    def validate(self, record: dict) -> list[Finding]:
        """Run every validator; the concatenated findings (empty = valid).

        Enforcement is **fail-closed**: a validator that crashes cannot let
        data through — its failure becomes a finding and the write is
        rejected, never silently accepted.
        """
        return self.compiled_plan().findings(record)

    def _validate_legacy(self, record: dict) -> list[Finding]:
        """The interpreted walk — the compiled plan's oracle."""
        findings: list[Finding] = []
        for validator in self._validators:
            try:
                findings.extend(validator.check(record))
            except Exception as exc:
                findings.append(
                    Finding(
                        "validator-error",
                        validator.name,
                        f"validator crashed ({type(exc).__name__}: {exc}); "
                        "rejecting the write fail-closed",
                    )
                )
        return findings

    def validate_batch(
        self, records: Sequence[dict], prebound: bool = False
    ) -> list[list[Finding]]:
        """One findings list per record, through the vectorized plan.

        ``prebound=True`` asserts every record came out of :meth:`bind`
        (exact field layout, in order) and skips the per-record layout
        check — the batched write paths bind immediately before
        validating, so the layout holds by construction.

        Row-form batches deliberately stay on the fused row scan even
        though the plan may carry a column-sliced body
        (``plan.check_columns``): transposing freshly bound dicts costs
        more than the scan saves, so the columnar body is reserved for
        data whose columns already exist — the EntityStore spine, where
        :meth:`~repro.runtime.storage.EntityStore.revalidate` runs it
        against write-time zone maps.
        """
        return self.compiled_plan().check_batch(records, prebound)

    def admit(self, record: dict) -> bool:
        """Fail-fast boolean admission (no findings materialized)."""
        return self.compiled_plan().admit(record)

    def __repr__(self) -> str:
        return (
            f"<Form {self.name!r} -> {self.entity!r} "
            f"({len(self._validators)} validators)>"
        )
