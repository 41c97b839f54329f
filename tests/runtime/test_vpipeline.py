"""Compiled validation pipelines: cache behaviour + fused ≡ legacy.

The compiler's one non-negotiable contract is *exact* equivalence with
the interpreted validator walk — same findings, same order, same
messages, same fail-closed crash handling — so most of this module is
oracle testing: the legacy walk (``Form._validate_legacy``) judges every
fused path, including under hypothesis-generated adversarial records and
under concurrent form redefinition (the chaos-marked test).
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudy import easychair
from repro.dq.metadata import Clock
from repro.dq.validators import (
    CompletenessValidator,
    ConsistencyValidator,
    CredibilityValidator,
    CurrentnessValidator,
    EnumValidator,
    FormatValidator,
    OclConsistencyValidator,
    PrecisionValidator,
    UniquenessValidator,
    Validator,
)
from repro.runtime.forms import Form
from repro.runtime.vpipeline import (
    PlanCache,
    chain_signature,
    compile_plan,
    signature_digest,
)

FORM = "Add all data as result of review form"
ENTITY = "Add all data as result of review"

FIELDS = ("score", "email", "status", "age", "source", "comment")


def full_chain() -> list[Validator]:
    """Every scannable validator type over the six-field layout."""
    return [
        CompletenessValidator(["score", "email", "comment"]),
        PrecisionValidator({"score": (1, 5), "age": (0, 100)}),
        FormatValidator({"email": r"[^@\s]+@[^@\s]+"}),
        EnumValidator({"status": ("open", "closed")}, allow_missing=False),
        OclConsistencyValidator(["self.score <= 5"]),
        CurrentnessValidator("age", 50),
        CredibilityValidator("source", ["crm", "erp"]),
    ]


def make_form(validators, fields=FIELDS) -> Form:
    return Form("f", entity="e", fields=fields, validators=validators)


def assert_equivalent(form: Form, records) -> None:
    """Fused findings/admit/batch must equal the legacy walk exactly."""
    plan = form.compiled_plan()
    expected = [form._validate_legacy(r) for r in records]
    for record, want in zip(records, expected):
        assert plan.findings(record) == want
        assert plan.admit(record) == (not want)
    assert plan.check_batch(records) == expected


# ---------------------------------------------------------------------------
# Record generators
# ---------------------------------------------------------------------------

values = st.one_of(
    st.none(),
    st.text(max_size=8),
    st.sampled_from(["", "  ", "open", "closed", "crm", "a@b.c", "nope"]),
    st.integers(min_value=-10, max_value=110),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.booleans(),
)
field_names = st.sampled_from(FIELDS + ("extra", "zz"))
records = st.dictionaries(field_names, values, max_size=8)


class TestChainSignature:
    def test_equal_configs_share_a_signature(self):
        assert chain_signature(full_chain()) == chain_signature(full_chain())

    def test_config_change_changes_the_signature(self):
        left = chain_signature([PrecisionValidator({"score": (1, 5)})])
        right = chain_signature([PrecisionValidator({"score": (1, 6)})])
        assert left != right

    def test_layout_and_metadata_are_part_of_the_key(self):
        chain = full_chain()
        assert chain_signature(chain) != chain_signature(chain, ("stamp",))
        assert chain_signature(chain) != chain_signature(chain, (), FIELDS)

    def test_opaque_validators_key_by_identity(self):
        one = UniquenessValidator(["email"])
        two = UniquenessValidator(["email"])
        assert chain_signature([one]) != chain_signature([two])
        assert chain_signature([one]) == chain_signature([one])

    def test_digest_is_short_and_stable(self):
        signature = chain_signature(full_chain())
        assert signature_digest(signature) == signature_digest(signature)
        assert len(signature_digest(signature)) == 12


class TestPlanCache:
    def test_equal_chains_compile_once(self):
        cache = PlanCache()
        first = cache.get_or_compile(full_chain())
        second = cache.get_or_compile(full_chain())
        assert first is second
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["plans"] == 1

    def test_lru_evicts_the_coldest_plan(self):
        cache = PlanCache(capacity=2)
        a = cache.get_or_compile([CompletenessValidator(["a"])])
        cache.get_or_compile([CompletenessValidator(["b"])])
        cache.get_or_compile([CompletenessValidator(["a"])])  # refresh a
        cache.get_or_compile([CompletenessValidator(["c"])])  # evicts b
        assert cache.stats()["evictions"] == 1
        assert cache.get_or_compile([CompletenessValidator(["a"])]) is a
        cache.get_or_compile([CompletenessValidator(["b"])])  # recompiles
        assert cache.stats()["misses"] == 4

    def test_invalidate_drops_the_plan(self):
        cache = PlanCache()
        plan = cache.get_or_compile(full_chain())
        assert cache.invalidate(plan.signature)
        assert not cache.invalidate(plan.signature)
        assert cache.get_or_compile(full_chain()) is not plan
        assert cache.stats()["invalidations"] == 1

    def test_forms_share_a_cache_across_instances(self):
        cache = PlanCache()
        one = make_form(full_chain()).use_plan_cache(cache)
        two = make_form(full_chain()).use_plan_cache(cache)
        assert one.compiled_plan() is two.compiled_plan()


class TestFusedEquivalence:
    def test_scannable_chain_has_the_fast_scan(self):
        assert compile_plan(full_chain(), (), FIELDS).fast_scan

    def test_opaque_chains_fall_back_to_the_exact_body(self):
        with_predicate = [
            ConsistencyValidator([("score set", lambda r: r.get("score"))])
        ]
        assert not compile_plan(with_predicate).fast_scan
        assert not compile_plan([UniquenessValidator(["email"])]).fast_scan

    def test_empty_chain(self):
        form = make_form([])
        assert_equivalent(form, [{}, {"score": 3}, dict.fromkeys(FIELDS)])

    def test_easychair_chain_on_clean_and_defective_payloads(self):
        app = easychair.build_app(Clock())
        form = app.form(FORM)
        clean = form.bind(easychair.complete_review())
        missing = dict(clean, email_address=None)
        out_of_bounds = dict(clean, overall_evaluation=99)
        assert_equivalent(form, [clean, missing, out_of_bounds])
        assert form.validate(clean) == []
        assert form.validate(missing) != []

    def test_adversarial_shapes(self):
        form = make_form(full_chain())
        samples = [
            {},
            dict.fromkeys(FIELDS),
            {f: "" for f in FIELDS},
            {f: 2.5 for f in FIELDS},
            {f: True for f in FIELDS},
            {"score": "3", "email": b"a@b", "age": float("inf")},
            {"extra": object(), "score": 3},
            dict(reversed([(f, "x") for f in FIELDS])),
        ]
        assert_equivalent(form, samples)

    def test_prebound_batch_equals_per_record(self):
        form = make_form(full_chain())
        bound = [
            form.bind({"score": s, "email": "a@b", "status": "open",
                       "age": 3, "source": "crm", "comment": "ok"})
            for s in (1, 99, None, "3", 2.5)
        ]
        expected = [form._validate_legacy(r) for r in bound]
        plan = form.compiled_plan()
        assert plan.check_batch(bound, True) == expected

    def test_crashing_validator_fails_closed_identically(self):
        class Boom(Validator):
            def check(self, record):
                raise RuntimeError("kaput")

        form = make_form([CompletenessValidator(["score"]), Boom("boom")])
        record = {"score": 1}
        fused = form.compiled_plan().findings(record)
        assert fused == form._validate_legacy(record)
        assert fused[0].code == "validator-error"
        assert "kaput" in fused[0].message
        assert not form.compiled_plan().admit(record)

    def test_opaque_validators_run_exactly_once_per_record(self):
        calls = []

        class Counting(Validator):
            def check(self, record):
                calls.append(record.get("score"))
                return []

        form = make_form([Counting("count"), full_chain()[0]])
        form.validate({"score": 7})
        assert calls == [7]
        form.validate_batch([{"score": 1}, {"score": 2}])
        assert calls == [7, 1, 2]

    @settings(max_examples=120, deadline=None)
    @given(st.lists(records, min_size=1, max_size=4))
    def test_property_fused_equals_legacy(self, batch):
        form = make_form(full_chain())
        assert_equivalent(form, batch)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(records, min_size=1, max_size=3))
    def test_property_opaque_chain_equals_legacy(self, batch):
        rules = [("score present", lambda r: r.get("score") is not None)]
        form = make_form(
            [ConsistencyValidator(rules), PrecisionValidator({"score": (1, 5)})]
        )
        assert_equivalent(form, batch)


class TestFormPlanLifecycle:
    def test_plan_is_memoized_per_version(self):
        form = make_form(full_chain())
        assert form.compiled_plan() is form.compiled_plan()

    def test_add_validator_invalidates_the_memo(self):
        form = make_form([CompletenessValidator(["score"])])
        before = form.compiled_plan()
        form.add_validator(PrecisionValidator({"score": (1, 5)}))
        after = form.compiled_plan()
        assert after is not before
        assert after.validator_count == 2

    def test_replace_validators_invalidates_the_shared_cache(self):
        cache = PlanCache()
        form = make_form([CompletenessValidator(["score"])])
        form.use_plan_cache(cache)
        stale = form.compiled_plan()
        form.replace_validators([PrecisionValidator({"score": (1, 5)})])
        assert cache.lookup(stale.signature) is None
        record = {"score": None}
        assert form.validate(record) == form._validate_legacy(record)


class TestWebAppPipeline:
    def test_compiled_and_interpreted_apps_agree(self):
        """Every ``app.submit`` outcome — accepted, or rejected with its
        findings — matches the interpreted walk on the same payload."""
        from repro.core.errors import DataQualityViolation

        payloads = [easychair.complete_review() for _ in range(3)]
        payloads[1]["overall_evaluation"] = 99
        payloads[2]["email_address"] = "  "
        app = easychair.build_app(Clock())
        form = app.form(FORM)

        rejected = []
        for payload in payloads:
            expected = form._validate_legacy(form.bind(payload))
            try:
                app.submit(FORM, dict(payload), "pc_member_1")
                findings = []
            except DataQualityViolation as exc:
                findings = exc.findings
            assert findings == expected
            rejected.append(bool(findings))
        assert rejected == [False, True, True]

    def test_submit_batch_matches_per_record_submits(self):
        from repro.core.errors import DataQualityViolation

        rows = [easychair.complete_review() for _ in range(4)]
        rows[2]["overall_evaluation"] = 99
        batched = easychair.build_app(Clock())
        looped = easychair.build_app(Clock())
        result = batched.submit_batch(FORM, rows, "pc_member_1")
        outcomes = []
        for row in rows:
            try:
                looped.submit(FORM, dict(row), "pc_member_1")
                outcomes.append(True)
            except DataQualityViolation:
                outcomes.append(False)
        assert [i for i, _ in result.accepted] == [
            i for i, ok in enumerate(outcomes) if ok
        ]
        assert [i for i, _ in result.rejected] == [
            i for i, ok in enumerate(outcomes) if not ok
        ]

    def test_validation_counters_tick(self):
        app = easychair.build_app(Clock())
        app.submit(FORM, easychair.complete_review(), "pc_member_1")
        app.submit_batch(
            FORM, [easychair.complete_review()] * 3, "pc_member_1"
        )
        assert app.validation.checks == 4
        assert app.validation.batches == 1
        assert app.validation.as_dict()["validation_us"] >= 0
        assert app.plan_cache is not None
        assert app.plan_cache.stats()["plans"] >= 1


@pytest.mark.chaos
class TestConcurrentRedefinition:
    def test_redefinition_never_serves_a_stale_plan(self):
        """Validators flip between two chains under concurrent readers.

        Every served findings list must be *exactly* what one of the two
        chains produces (never a blend, never a crash), and after the
        writer joins, the next plan must reflect the final chain.
        """
        cache = PlanCache()
        form = make_form([CompletenessValidator(["score"])])
        form.use_plan_cache(cache)
        record = {"score": None}
        chain_a = [CompletenessValidator(["score"])]
        chain_b = [PrecisionValidator({"score": (1, 5)})]
        allowed = {
            tuple(Form("x", "e", FIELDS, chain_a)._validate_legacy(record)),
            tuple(Form("x", "e", FIELDS, chain_b)._validate_legacy(record)),
        }
        stop = threading.Event()
        errors: list = []

        def reader():
            while not stop.is_set():
                try:
                    served = tuple(form.validate(dict(record)))
                    if served not in allowed:
                        errors.append(served)
                except Exception as exc:  # pragma: no cover - must not happen
                    errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for round_index in range(200):
                form.replace_validators(
                    chain_b if round_index % 2 == 0 else chain_a
                )
                plan = form.compiled_plan()
                # the plan served right after a redefinition must be the
                # redefined chain's (version-guarded memoization)
                want = chain_signature(
                    form.validators, (), form.fields
                )
                if plan.signature != want:
                    errors.append((plan.signature, want))
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert errors == []
        final = form.compiled_plan()
        assert final.signature == chain_signature(
            form.validators, (), form.fields
        )
