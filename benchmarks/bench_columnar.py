"""Columnar bench (ours): spine sweeps, zone maps, column absorption.

The columnar EntityStore must be *invisible on writes and decisive on
sweeps*: admission mirrors each chunk into the column arrays at C speed
(one set comparison + per-field ``extend``), store-resident DQ sweeps
run the compiled plan down the columns against write-time zone maps at
>= 2x the row ``check_batch`` oracle, telemetry absorbs whole column
chunks at >= 2x the row walk, and every answer stays byte-equal to the
row-oracle path.  The slow test is the CLI floors (``cluster-bench
--columnar``); the micro-benchmarks pin the per-op costs underneath —
chunk admission, the memoized sweep, column scans, zone-pruned misses
and confidentiality reads.
"""

import random

import pytest

from repro.casestudy import easychair
from repro.cluster import easychair_spec, run_columnar_bench
from repro.dq.metadata import Clock
from repro.dq.streaming import EntityAccumulator
from repro.runtime.storage import ContentStore, EntityStore

pytestmark = pytest.mark.columnar

SEED = 23


def _bound_rows(count, seed=SEED):
    app = easychair.build_app()
    spec = easychair_spec()
    form = app.form(spec.form)
    rng = random.Random(seed)
    return spec, form, [
        form.bind(spec.clean_payload(rng)) for _ in range(count)
    ]


@pytest.mark.slow
def test_columnar_floors_hold():
    result = run_columnar_bench(records=4_000, rounds=3)
    print()
    print(result.render())
    assert result.passed, "\n".join(result.floor_failures())


def test_chunk_admission(benchmark):
    """One 256-row ``insert_many`` chunk down the batch spine path."""
    spec, _form, rows = _bound_rows(256)

    def admit():
        store = EntityStore(spec.entity)
        store.insert_many(rows)
        return store

    store = benchmark(admit)
    stats = store.columnar_stats()
    assert stats["slots"] == 256 and not stats["irregular"]


def test_warm_sweep(benchmark):
    """The memoized store-resident sweep: zone maps prove columns clean."""
    spec, form, rows = _bound_rows(2_000)
    plan = form.compiled_plan()
    store = EntityStore(spec.entity)
    store.insert_many(rows)
    store.revalidate(plan)  # memoize the zone maps

    verdicts = benchmark(store.revalidate, plan)
    assert len(verdicts) == 2_000 and not any(verdicts.values())


def test_column_scan(benchmark):
    """``find_by`` without an index: one C-level column equality scan."""
    spec, _form, rows = _bound_rows(2_000)
    store = EntityStore(spec.entity)
    store.insert_many(rows)
    target = rows[0]["overall_evaluation"]

    found = benchmark(store.find_by, "overall_evaluation", target)
    assert found and all(
        record.data["overall_evaluation"] == target for record in found
    )


def test_zone_pruned_miss(benchmark):
    """A probe outside the zone-map envelope: answered without touching
    a single cell (the domain-audit fast path)."""
    spec, _form, rows = _bound_rows(2_000)
    store = EntityStore(spec.entity)
    store.insert_many(rows)
    store.find_by("overall_evaluation", 99)  # sync the zone maps once

    found = benchmark(store.find_by, "overall_evaluation", 99)
    assert found == []


def test_readable_rows(benchmark):
    """A confidentiality-filtered read off the cached readable-id set."""
    spec, _form, rows = _bound_rows(1_000)
    content = ContentStore(Clock())
    content.define(spec.entity)
    rng = random.Random(SEED)
    for payload in rows:
        content.store(
            spec.entity, payload, "ada",
            security_level=rng.randint(0, 2),
        )
    entity = content.entity(spec.entity)
    entity.readable_rows("bob", 1)  # warm the id-set cache

    readable = benchmark(entity.readable_rows, "bob", 1)
    assert isinstance(readable, list) and readable


def test_column_absorption(benchmark):
    """Absorbing one layout-uniform 256-row chunk as captured "cols"
    ops: spine column slices plus census hints, no row transpose."""
    spec, _form, rows = _bound_rows(256)
    store = EntityStore(spec.entity)
    stored_list = store.insert_many(rows)
    store.observe_inserted(stored_list)
    ops = store.pending_telemetry_ops()
    assert ops and ops[0][0] == "cols"

    def absorb():
        accumulator = EntityAccumulator(spec.entity)
        accumulator.absorb(ops)
        return accumulator

    accumulator = benchmark(absorb)
    assert accumulator.stats()["records"] == 256


def test_row_absorption(benchmark):
    """The legacy row-walk absorption path, kept as the oracle baseline
    the column path is measured against."""
    spec, _form, rows = _bound_rows(256)
    store = EntityStore(spec.entity)
    stored_list = store.insert_many(rows)
    ops = [("rows", [
        (stored.record_id, stored.data, stored.metadata)
        for stored in stored_list
    ])]

    def absorb():
        accumulator = EntityAccumulator(spec.entity)
        accumulator.absorb(ops)
        return accumulator

    accumulator = benchmark(absorb)
    assert accumulator.stats()["records"] == 256
