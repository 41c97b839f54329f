"""Property tests: live telemetry == the full-rescan oracle, always.

Hypothesis drives random create / update / delete interleavings (with
clock ticks mixed in) against one entity store and checks every scorecard
line and every profiler suggestion on the live path against the rescan
oracle — the equivalence contract under arbitrary mutation orders, not
just the benches' workloads.  A second property replays seeded fault
injection through the sharded gateway and checks the cluster-wide live
scorecard the same way.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudy import easychair
from repro.dq.metadata import Clock
from repro.dq.profiling import DataProfiler
from repro.dq.scorecard import Scorecard
from repro.dq.streaming import scores_close

ENTITY = "Add all data as result of review"
EXACT_LINES = {"Precision", "Traceability", "Confidentiality"}

field_values = st.one_of(
    st.none(),
    st.sampled_from(["", "  ", "weak", "strong", "a@b.org", "2026-01-02"]),
    st.integers(min_value=-5, max_value=12),
)
payloads = st.dictionaries(
    st.sampled_from(["first_name", "overall_evaluation", "email"]),
    field_values,
    max_size=3,
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("create"), payloads),
        st.tuples(st.just("update"), st.integers(0, 30), payloads),
        st.tuples(st.just("delete"), st.integers(0, 30)),
        st.tuples(st.just("tick"), st.integers(1, 5)),
    ),
    max_size=40,
)


def apply_operations(app, ops):
    """Replay an interleaving through the store's raw write surface (the
    telemetry hooks live below the form pipeline)."""
    store = app.store.entity(ENTITY)
    for op in ops:
        if op[0] == "create":
            store.insert(dict(op[1]))
        elif op[0] == "tick":
            for __ in range(op[1]):
                app.clock.now()
        else:
            stored = store.all()
            if not stored:
                continue
            target = stored[op[1] % len(stored)].record_id
            if op[0] == "update":
                store.update(target, dict(op[2]))
            else:
                store.delete(target)


def assert_scorecards_agree(app, max_age):
    kwargs = dict(
        required_fields=easychair.ALL_REVIEW_FIELDS,
        bounds=easychair.SCORE_BOUNDS,
        max_age=max_age,
    )
    live = Scorecard(app, ENTITY, live=True, **kwargs)
    rescan = Scorecard(app, ENTITY, **kwargs)
    for live_line, rescan_line in zip(live.lines(), rescan.lines()):
        assert live_line.characteristic == rescan_line.characteristic
        assert live_line.evidence == rescan_line.evidence
        if live_line.characteristic in EXACT_LINES:
            assert live_line.score == rescan_line.score, (
                live_line.characteristic
            )
        else:
            assert scores_close(live_line.score, rescan_line.score), (
                live_line.characteristic
            )


@settings(max_examples=25, deadline=None)
@given(operations, st.integers(min_value=3, max_value=200))
def test_live_equals_rescan_across_interleavings(ops, max_age):
    app = easychair.build_app(Clock())
    apply_operations(app, ops)
    assert_scorecards_agree(app, max_age)


@settings(max_examples=15, deadline=None)
@given(operations)
def test_live_suggestions_equal_rescan_suggestions(ops):
    app = easychair.build_app(Clock())
    apply_operations(app, ops)
    store = app.store.entity(ENTITY)
    # deletes may interleave dict key orders arbitrarily, which is the
    # documented field-order degradation — compare order-insensitively
    live = {
        (s.characteristic.name, frozenset(s.fields), s.rationale)
        for s in DataProfiler.live(store).suggest()
    }
    oracle = {
        (s.characteristic.name, frozenset(s.fields), s.rationale)
        for s in DataProfiler()
        .add_records([stored.data for stored in store.all()])
        .suggest()
    }
    assert live == oracle


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=40))
def test_live_cluster_scorecard_survives_seeded_faults(seed):
    from repro.cluster import (
        FaultPlan,
        LoadGenerator,
        ResilienceConfig,
        ShardedGateway,
    )

    config = ResilienceConfig()
    plan = FaultPlan.seeded(
        seed, shard_count=2, horizon=160, start=8,
        operation_timeout=config.operation_timeout,
    )
    gateway = ShardedGateway.from_design(
        easychair.build_design(), shard_count=2, users=easychair.USERS,
        fault_plan=plan, resilience=config, max_queue_depth=512,
    )
    try:
        spec = LoadGenerator(seed=seed).spec
        rng = random.Random(seed)
        for __ in range(8):
            gateway.submit(spec.form, spec.clean_payload(rng), spec.cleared_users[0])
        LoadGenerator(seed=seed).run(gateway, count=60, threads=1)
        live = gateway.live_scorecard(
            ENTITY, required_fields=easychair.ALL_REVIEW_FIELDS,
            bounds=easychair.SCORE_BOUNDS, max_age=500,
        )
        rescan = gateway.rescan_scorecard(
            ENTITY, required_fields=easychair.ALL_REVIEW_FIELDS,
            bounds=easychair.SCORE_BOUNDS, max_age=500,
        )
        assert live is not None
        for live_line, rescan_line in zip(live, rescan):
            assert live_line.characteristic == rescan_line.characteristic
            assert live_line.evidence == rescan_line.evidence
            if live_line.characteristic in EXACT_LINES:
                assert live_line.score == rescan_line.score
            else:
                assert scores_close(live_line.score, rescan_line.score)
    finally:
        gateway.close()
