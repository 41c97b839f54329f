"""Streaming DQ telemetry: accumulators vs the full-rescan oracle.

The contract pinned here is the module's reason to exist: every live
reading — field statistics, scorecard lines, profiler suggestions — must
match what a full rescan of the stored records computes, exactly for the
integer-ratio lines and to ``scores_close`` tolerance for the
float-summation ones, with the documented degradations (approximate
``distinct`` and the Precision fallback) only after a spill.
"""

import pytest

from repro.casestudy import easychair
from repro.dq.metadata import Clock
from repro.dq.profiling import DataProfiler, FieldProfile
from repro.dq.scorecard import Scorecard
from repro.dq.streaming import (
    DEFAULT_SPILL_THRESHOLD,
    EntityAccumulator,
    FieldAccumulator,
    KMVSketch,
    merge_accumulators,
    scores_close,
)

ENTITY = "Add all data as result of review"


class Meta:
    """A minimal metadata sidecar for direct accumulator tests."""

    def __init__(self, stored_by="u", stored_date=0, security_level=0,
                 last_modified_date=None):
        self.stored_by = stored_by
        self.stored_date = stored_date
        self.security_level = security_level
        self.last_modified_date = last_modified_date


def oracle_profile(values) -> FieldProfile:
    profile = FieldProfile("field")
    for value in values:
        profile.add(value)
    return profile


def assert_field_parity(accumulator: FieldAccumulator, values) -> None:
    profile = oracle_profile(values)
    assert accumulator.total == profile.total
    assert accumulator.missing == profile.missing
    assert accumulator.present == profile.present
    assert accumulator.completeness == profile.completeness
    assert accumulator.distinct == profile.distinct
    assert accumulator.is_numeric == profile.is_numeric
    assert accumulator.numeric_range() == profile.numeric_range()
    assert accumulator.is_textual == profile.is_textual
    assert accumulator.matched_pattern() == profile.matched_pattern()
    assert accumulator.looks_like_enum() == profile.looks_like_enum()
    assert accumulator.value_domain() == profile.value_domain()
    assert accumulator.has_duplicates() == profile.has_duplicates()


MIXED = [
    "alice", "alice", "bob", "", "   ", None, 3, 3, -7, 2.5, 2.5,
    True, False, ("tuple",), "x" * 40,
]

PATTERNED = {
    "email": ["a@b.org", "c@d.io", "e@f.net"],
    "iso-date": ["2026-01-01", "2026-08-05", "1999-12-31"],
    "identifier": ["rev-1", "rev-2", "PC_3"],
}


class TestKMVSketch:
    def test_exact_below_k(self):
        sketch = KMVSketch(64)
        for i in range(50):
            sketch.add(f"v{i}")
            sketch.add(f"v{i}")  # duplicates are free
        assert sketch.estimate() == 50

    def test_estimate_within_tolerance(self):
        sketch = KMVSketch(256)
        for i in range(20_000):
            sketch.add(f"value-{i}")
        estimate = sketch.estimate()
        assert abs(estimate - 20_000) / 20_000 < 0.2

    def test_merge_is_union(self):
        left, right, both = KMVSketch(64), KMVSketch(64), KMVSketch(64)
        for i in range(30):
            left.add(f"l{i}")
            both.add(f"l{i}")
        for i in range(30):
            right.add(f"r{i}")
            both.add(f"r{i}")
        left.merge(right)
        assert left.estimate() == both.estimate() == 60


class TestFieldAccumulator:
    def test_mixed_values_match_oracle(self):
        accumulator = FieldAccumulator("field")
        for value in MIXED:
            accumulator.add(value)
        assert_field_parity(accumulator, MIXED)

    @pytest.mark.parametrize("label", sorted(PATTERNED))
    def test_patterned_fields_match_oracle(self, label):
        values = PATTERNED[label]
        accumulator = FieldAccumulator("field")
        for value in values:
            accumulator.add(value)
        assert_field_parity(accumulator, values)
        assert accumulator.matched_pattern()[0] == label

    def test_enum_field_matches_oracle(self):
        values = ["weak", "strong", "weak", "borderline"] * 3
        accumulator = FieldAccumulator("field")
        for value in values:
            accumulator.add(value)
        assert_field_parity(accumulator, values)
        assert accumulator.looks_like_enum()

    def test_remove_mirrors_add(self):
        accumulator = FieldAccumulator("field")
        for value in MIXED:
            accumulator.add(value)
        removed = MIXED[::2]
        for value in removed:
            accumulator.remove(value)
        remaining = list(MIXED)
        for value in removed:
            remaining.remove(value)
        assert_field_parity(accumulator, remaining)

    def test_count_in_bounds_exact(self):
        accumulator = FieldAccumulator("field")
        for value in [1, 2, 2, 3, 10, -5, 2.5]:
            accumulator.add(value)
        assert accumulator.count_in_bounds(1, 3) == 5
        assert accumulator.count_in_bounds(0, 0) == 0

    def test_spill_keeps_exact_tallies_drops_tables(self):
        accumulator = FieldAccumulator("field", spill_threshold=32)
        values = [f"u{i}@example.org" for i in range(200)]
        for value in values:
            accumulator.add(value)
        assert accumulator.spilled
        # documented degradations: approximate distinct, no domain table
        assert accumulator.value_domain() == []
        assert not accumulator.looks_like_enum()
        assert accumulator.count_in_bounds(0, 1) is None
        # pattern tallies are running counters — exact after the spill
        assert accumulator.matched_pattern()[0] == "email"
        assert accumulator.present == 200

    def test_spilled_numeric_field_falls_back_to_none_bounds(self):
        accumulator = FieldAccumulator("field", spill_threshold=16)
        for value in range(100):
            accumulator.add(value)
        assert accumulator.spilled
        assert accumulator.count_in_bounds(0, 50) is None
        assert accumulator.numeric_range() == (0, 99)  # sums survive
        assert accumulator.mean == pytest.approx(49.5)

    def test_merge_split_equals_single(self):
        single = FieldAccumulator("field")
        left = FieldAccumulator("field")
        right = FieldAccumulator("field")
        for index, value in enumerate(MIXED * 3):
            single.add(value)
            (left if index % 2 else right).add(value)
        left.merge(right)
        assert_field_parity(left, MIXED * 3)
        assert left.distinct == single.distinct

    def test_merge_with_spilled_side_spills(self):
        left = FieldAccumulator("field", spill_threshold=16)
        right = FieldAccumulator("field", spill_threshold=16)
        for i in range(40):
            left.add(f"left-{i}")
        for i in range(5):
            right.add(f"right-{i}")
        assert left.spilled and not right.spilled
        right.merge(left)
        assert right.spilled
        assert right.total == 45


class TestEntityAccumulator:
    def test_observe_rows_ticks_updates_once_per_chunk(self):
        accumulator = EntityAccumulator(ENTITY)
        rows = [
            (i, {"name": f"n{i}", "score": i}, Meta(last_modified_date=i))
            for i in range(10)
        ]
        accumulator.observe_rows(rows)
        assert accumulator.updates == 1
        assert accumulator.records == 10
        assert accumulator.present_of("name") == 10

    def test_delete_retires_metadata(self):
        accumulator = EntityAccumulator(ENTITY)
        accumulator.observe_row(
            1, {"name": "a"}, Meta(security_level=2, last_modified_date=5)
        )
        accumulator.observe_row(
            2, {"name": "b"}, Meta(security_level=2, last_modified_date=9)
        )
        accumulator.observe_delete_row(1, {"name": "a"})
        assert accumulator.records == 1
        assert accumulator.traced == 1
        assert accumulator.protected_count(2) == 1
        assert accumulator.currentness_total(9, 100) == pytest.approx(1.0)

    def test_ts_min_survives_retire_then_admit(self):
        """Regression: retiring the minimum timestamp invalidates the
        running min; admitting a *newer* stamp afterwards must not claim
        it as the minimum — the table may still hold older entries, and
        a too-high minimum wrongly takes the O(1) all-fresh fast path."""
        accumulator = EntityAccumulator(ENTITY)
        accumulator.observe_row(1, {}, Meta(last_modified_date=10))
        accumulator.observe_row(2, {}, Meta(last_modified_date=50))
        accumulator.observe_delete_row(1, {})       # retires the minimum
        accumulator.observe_row(3, {}, Meta(last_modified_date=100))
        # record 2 is stale at now=160 / max_age=70; record 3 scores
        # 1 - 60/70.  The buggy fast path returned a negative total.
        total = accumulator.currentness_total(160, 70)
        assert total == pytest.approx(1.0 - 60 / 70)

    def test_currentness_fast_path_equals_bucket_iteration(self):
        accumulator = EntityAccumulator(ENTITY)
        stamps = [3, 7, 7, 12, 20]
        for index, stamp in enumerate(stamps):
            accumulator.observe_row(index, {}, Meta(last_modified_date=stamp))
        oracle = sum(
            max(0.0, 1.0 - (25 - stamp) / 30) for stamp in stamps
        )
        assert accumulator.currentness_total(25, 30) == pytest.approx(oracle)
        oracle_stale = sum(
            1.0 - (25 - stamp) / 10
            for stamp in stamps if 25 - stamp < 10
        )
        assert accumulator.currentness_total(25, 10) == pytest.approx(
            oracle_stale
        )

    def test_merge_propagates_invalidated_ts_min(self):
        left = EntityAccumulator(ENTITY)
        right = EntityAccumulator(ENTITY)
        left.observe_row(1, {}, Meta(last_modified_date=10))
        right.observe_row(2, {}, Meta(last_modified_date=5))
        right.observe_row(3, {}, Meta(last_modified_date=40))
        right.observe_delete_row(2, {})  # right's running min invalidated
        left.merge(right)
        assert left._ts_min is None  # recomputed lazily, never guessed
        assert left.currentness_total(45, 100) == pytest.approx(
            (1.0 - 35 / 100) + (1.0 - 5 / 100)
        )

    def test_absorb_replays_the_deferred_queue_in_order(self):
        synchronous = EntityAccumulator(ENTITY)
        deferred = EntityAccumulator(ENTITY)
        meta = Meta(last_modified_date=4)
        restamped = Meta(security_level=3, last_modified_date=8)
        synchronous.observe_row(1, {"name": "a", "score": 1}, meta)
        synchronous.observe_metadata(1, restamped)
        synchronous.observe_update({"name": "a", "score": 1},
                                   {"name": "b", "score": 2})
        synchronous.observe_rows([(2, {"name": "c"}, meta)])
        synchronous.observe_delete_row(2, {"name": "c"})
        deferred.absorb([
            ("row", 1, {"name": "a", "score": 1}, meta),
            ("meta", 1, restamped),
            ("update", {"name": "a", "score": 1}, {"name": "b", "score": 2}),
            ("rows", [(2, {"name": "c"}, meta)]),
            ("delete", 2, {"name": "c"}),
        ])
        assert deferred.updates == synchronous.updates == 5
        assert deferred.records == synchronous.records == 1
        assert deferred.protected_count(3) == 1
        assert deferred.field("name").value_domain() == ["b"]
        assert deferred.currentness_total(10, 100) == pytest.approx(
            synchronous.currentness_total(10, 100)
        )

    def test_snapshot_is_independent(self):
        accumulator = EntityAccumulator(ENTITY)
        accumulator.observe_row(1, {"name": "a"}, Meta())
        snapshot = accumulator.snapshot()
        accumulator.observe_row(2, {"name": "b"}, Meta())
        assert snapshot.records == 1
        assert accumulator.records == 2

    def test_merge_accumulators_refuses_partial_merges(self):
        accumulator = EntityAccumulator(ENTITY)
        assert merge_accumulators([accumulator, None]) is None
        merged = merge_accumulators([accumulator])
        assert merged is not accumulator


def accumulator_fingerprint(accumulator: EntityAccumulator) -> str:
    """A canonical rendering of every *observable* bit of accumulator
    state — the equality oracle for the merge laws.

    Canonicalizes what is not observable: table iteration order (sorted
    by key repr), KMV heap layout (the member set is the state) and the
    ``_hash_memo`` cache.
    """
    def table(mapping) -> list:
        return sorted((repr(key), value) for key, value in mapping.items())

    fields = []
    for name, f in accumulator._fields.items():
        fields.append((
            name, f.total, f.missing, f.spilled, f.spill_threshold,
            f._num_n, repr(f._num_sum), repr(f._num_sumsq),
            repr(f._num_min), repr(f._num_max),
            f._string_count, tuple(f._pattern_counts),
            table(f._other_counts),
            table(f._numeric_counts),
            (
                sorted(
                    (value, entry[0], tuple(entry[1]))
                    for value, entry in f._strings.items()
                )
                if f._strings is not None else None
            ),
            (
                (f._sketch.k, sorted(f._sketch._members))
                if f._sketch is not None else None
            ),
        ))
    return repr((
        accumulator.entity,
        accumulator.spill_threshold,
        accumulator.records,
        accumulator.updates,
        accumulator._traced,
        accumulator._ts_sum,
        accumulator._ts_count,
        accumulator._ts_min,
        table(accumulator._levels),
        table(accumulator._timestamps),
        list(accumulator._fields),  # field discovery order is observable
        sorted(fields, key=lambda item: item[0]),
    ))


def _fill(accumulator, rows, base_id=0):
    for offset, data in enumerate(rows):
        accumulator.observe_row(
            base_id + offset, data,
            Meta(stored_date=offset, last_modified_date=offset,
                 security_level=offset % 3),
        )


def _three_shards(spill_threshold=DEFAULT_SPILL_THRESHOLD):
    shards = []
    for shard in range(3):
        accumulator = EntityAccumulator(
            ENTITY, spill_threshold=spill_threshold
        )
        _fill(
            accumulator,
            [
                {"name": f"s{shard}-r{i}", "score": shard * 100 + i,
                 "email": None if i % 4 == 0 else f"u{i}@ex.org"}
                for i in range(20 + shard * 7)
            ],
            base_id=shard * 1000,
        )
        shards.append(accumulator)
    return shards


class TestSnapshotMergeLaws:
    """Merging shard snapshots — the copies ``telemetry_snapshot()``
    hands to the cluster merge — commutes and associates, across a KMV
    spill handover too.  Numeric fields use integers: int sums are
    exact, so associativity holds bit for bit."""

    def test_merge_commutes(self):
        left, right, _ = _three_shards()
        ab = merge_accumulators([left.snapshot(), right.snapshot()])
        ba = merge_accumulators([right.snapshot(), left.snapshot()])
        assert accumulator_fingerprint(ab) == accumulator_fingerprint(ba)

    def test_merge_associates(self):
        a, b, c = (shard.snapshot() for shard in _three_shards())
        left_first = merge_accumulators([merge_accumulators([a, b]), c])
        right_first = merge_accumulators([a, merge_accumulators([b, c])])
        assert accumulator_fingerprint(left_first) == (
            accumulator_fingerprint(right_first)
        )

    def test_merge_with_spill_handover(self):
        # one side spilled to the KMV sketch, the other still exact: the
        # merge must land in the same state from snapshots as from the
        # live accumulators, and spill
        spilled = EntityAccumulator(ENTITY, spill_threshold=16)
        _fill(spilled, [{"name": f"many-{i}"} for i in range(50)])
        exact = EntityAccumulator(ENTITY, spill_threshold=16)
        _fill(exact, [{"name": f"few-{i}"} for i in range(5)], base_id=500)
        assert spilled._fields["name"].spilled
        assert not exact._fields["name"].spilled

        live = merge_accumulators([exact, spilled])
        snapshots = merge_accumulators([exact.snapshot(), spilled.snapshot()])
        assert live._fields["name"].spilled
        assert accumulator_fingerprint(snapshots) == (
            accumulator_fingerprint(live)
        )
        assert accumulator_fingerprint(snapshots.snapshot()) == (
            accumulator_fingerprint(snapshots)
        )

    def test_merge_none_stays_none(self):
        shard = _three_shards()[0].snapshot()
        assert merge_accumulators([shard, None]) is None
        assert merge_accumulators([None]) is None


@pytest.fixture()
def app():
    app = easychair.build_app(Clock())
    for __ in range(6):
        app.post(
            easychair.REVIEW_PATH, easychair.complete_review(),
            user="pc_member_1",
        )
    return app


class TestStoreTelemetry:
    def test_writes_enqueue_and_reads_drain(self, app):
        store = app.store.entity(ENTITY)
        assert store._telemetry_pending  # writes only enqueued so far
        accumulator = store.telemetry
        assert store._telemetry_pending == []
        assert accumulator.records == 6
        store.insert({"first_name": "Zoe"})
        assert len(store._telemetry_pending) == 1
        assert store.telemetry.records == 7

    def test_disable_then_reenable_rebuilds_once(self, app):
        store = app.store.entity(ENTITY)
        store.set_telemetry(False)
        assert store.telemetry is None
        assert store.telemetry_snapshot() is None
        assert store.measure_telemetry(lambda a: a.records) is None
        store.insert({"first_name": "Ann"})  # unobserved while disabled
        store.set_telemetry(True)
        accumulator = store.telemetry
        assert store.telemetry_rebuilds == 1
        assert accumulator.records == len(store.all()) == 7
        store.telemetry  # further reads reuse the rebuilt accumulator
        assert store.telemetry_rebuilds == 1

    def test_update_and_delete_track_the_oracle(self, app):
        store = app.store.entity(ENTITY)
        first = store.all()[0]
        store.update(first.record_id, {"first_name": "Renamed"})
        store.delete(store.all()[-1].record_id)
        accumulator = store.telemetry
        oracle = DataProfiler().add_records(
            [stored.data for stored in store.all()]
        )
        assert accumulator.records == oracle.records_seen
        for profile in oracle.fields:
            live = accumulator.field(profile.name)
            assert live.present == profile.present
            assert live.distinct == profile.distinct

    def test_store_many_observes_one_chunk(self, app):
        store = app.store.entity(ENTITY)
        before = store.telemetry.updates
        rows = [{"first_name": f"bulk{i}"} for i in range(8)]
        stored = store.insert_many(rows)
        store.observe_inserted(stored)
        accumulator = store.telemetry
        assert accumulator.updates == before + 1  # one tick per chunk
        assert accumulator.records == 14


class TestScorecardLive:
    def make_cards(self, app):
        kwargs = dict(
            required_fields=easychair.ALL_REVIEW_FIELDS,
            bounds=easychair.SCORE_BOUNDS,
            max_age=1000,
        )
        return (
            Scorecard(app, ENTITY, live=True, **kwargs),
            Scorecard(app, ENTITY, **kwargs),
        )

    def assert_equivalent(self, live_lines, rescan_lines):
        exact = {"Precision", "Traceability", "Confidentiality"}
        for live, rescan in zip(live_lines, rescan_lines):
            assert live.characteristic == rescan.characteristic
            assert live.evidence == rescan.evidence
            if live.characteristic in exact:
                assert live.score == rescan.score
            else:
                assert scores_close(live.score, rescan.score)

    def test_live_matches_rescan(self, app):
        store = app.store.entity(ENTITY)
        store.insert({"first_name": None, "overall_evaluation": 99})
        first = store.all()[0]
        store.update(first.record_id, {"overall_evaluation": -1})
        app.clock.now()
        live, rescan = self.make_cards(app)
        self.assert_equivalent(live.lines(), rescan.lines())
        assert scores_close(live.overall(), rescan.overall())

    def test_live_falls_back_when_telemetry_disabled(self, app):
        app.store.entity(ENTITY).set_telemetry(False)
        live, rescan = self.make_cards(app)
        self.assert_equivalent(live.lines(), rescan.lines())

    def test_precision_falls_back_after_spill(self, app):
        store = app.store.entity(ENTITY)
        # push a bounded field past exact distinct tracking
        for value in range(DEFAULT_SPILL_THRESHOLD + 100):
            store.insert({"overall_evaluation": value})
        live, rescan = self.make_cards(app)
        accumulator = store.telemetry
        assert accumulator.field("overall_evaluation").spilled
        assert live.precision().score == rescan.precision().score


class TestLiveProfile:
    def test_suggestions_match_the_sampled_profiler(self, app):
        store = app.store.entity(ENTITY)
        oracle = DataProfiler().add_records(
            [stored.data for stored in store.all()]
        )
        live = DataProfiler.live(store)
        assert live.records_seen == oracle.records_seen
        assert live.suggest() == oracle.suggest()
        assert live.report() == oracle.report()

    def test_live_raises_while_disabled(self, app):
        store = app.store.entity(ENTITY)
        store.set_telemetry(False)
        with pytest.raises(ValueError, match="telemetry is disabled"):
            DataProfiler.live(store)

    def test_accepts_a_bare_accumulator(self):
        accumulator = EntityAccumulator(ENTITY)
        for i in range(6):
            accumulator.observe_row(i, {"email": f"u{i}@x.org"}, Meta())
        live = DataProfiler.live(accumulator)
        patterns = [
            s for s in live.suggest() if s.patterns is not None
        ]
        assert patterns and "email" in patterns[0].patterns


class TestFieldProfileCaching:
    def test_derived_views_are_cached_and_invalidated_on_add(self):
        profile = FieldProfile("field")
        for value in ["a", "b", "a"]:
            profile.add(value)
        assert profile.distinct == 2
        assert profile._cache  # populated by the read
        profile.add("c")
        assert profile.distinct == 3  # append invalidated the cache
        assert profile.string_values() == ["a", "b", "a", "c"]

    def test_direct_values_append_also_invalidates(self):
        profile = FieldProfile("field")
        profile.add(1)
        assert profile.numeric_values() == [1]
        profile.values.append(2)  # bypasses add(); cache keys on length
        assert profile.numeric_values() == [1, 2]
        assert profile.numeric_range() == (1, 2)
