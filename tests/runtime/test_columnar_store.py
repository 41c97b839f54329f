"""Property suite pinning the columnar spine to its row-dict oracles.

The columnar :class:`~repro.runtime.storage.EntityStore` layout is a
performance change only if every observable answer stays bit-equal to
the row-oriented path it replaced.  Hypothesis drives random operation
sequences — single and batched admission, reordered and ragged payloads,
updates, deletes, scans — against a plain ``{id: data}`` dict oracle,
holds :meth:`~repro.runtime.storage.EntityStore.revalidate` equal to the
fused row ``check_batch`` over the authoritative snapshots, pins the
telemetry column paths (``add_column``, the ``absorb`` transpose) to
per-value absorption including a forced mid-column spill, and re-runs
the seeded kill-restart and topology-fault drills to show the spine
never leaks into the recovery or determinism contracts.
"""

import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudy import easychair
from repro.cluster import easychair_spec, run_chaos, run_topology_chaos
from repro.dq.streaming import (
    EntityAccumulator,
    FieldAccumulator,
    KMVSketch,
    census_hint,
)
from repro.runtime.storage import EntityStore

pytestmark = pytest.mark.columnar

scalars = st.one_of(
    st.text(max_size=6),
    st.integers(-50, 50),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
)
LAYOUT = ("alpha", "beta", "gamma")


@st.composite
def regular_payloads(draw, shuffled=False):
    """A payload carrying exactly the layout fields (maybe reordered)."""
    names = list(LAYOUT)
    if shuffled and draw(st.booleans()):
        names = draw(st.permutations(names))
    return {name: draw(scalars) for name in names}


@st.composite
def ragged_payloads(draw):
    """A payload that must demote to the irregular set."""
    names = draw(
        st.sampled_from([("alpha",), ("alpha", "beta"), LAYOUT + ("delta",)])
    )
    return {name: draw(scalars) for name in names}


@st.composite
def op_sequences(draw):
    """Mixed single/batched/ragged admission with updates and deletes."""
    ops = []
    live = 0
    for _ in range(draw(st.integers(1, 14))):
        choices = ["insert", "insert", "insert_many", "ragged"]
        if live:
            choices += ["update", "update", "delete"]
        kind = draw(st.sampled_from(choices))
        if kind == "insert":
            ops.append(("insert", draw(regular_payloads(shuffled=True))))
            live += 1
        elif kind == "insert_many":
            chunk = draw(
                st.lists(regular_payloads(), min_size=1, max_size=6)
            )
            ops.append(("insert_many", chunk))
            live += len(chunk)
        elif kind == "ragged":
            ops.append(("insert", draw(ragged_payloads())))
            live += 1
        elif kind == "update":
            ops.append((
                "update",
                draw(st.integers(0, live - 1)),
                draw(st.sampled_from(LAYOUT)),
                draw(scalars),
            ))
        else:
            ops.append(("delete", draw(st.integers(0, live - 1))))
    return ops


def apply_to_both(store, oracle, ops):
    """Run the sequence against the store and the ``{id: data}`` oracle."""
    ids = []
    for op in ops:
        if op[0] == "insert":
            stored = store.insert(dict(op[1]))
            oracle[stored.record_id] = dict(op[1])
            ids.append(stored.record_id)
        elif op[0] == "insert_many":
            for stored, payload in zip(
                store.insert_many([dict(row) for row in op[1]]), op[1]
            ):
                oracle[stored.record_id] = dict(payload)
                ids.append(stored.record_id)
        elif op[0] == "update":
            record_id = ids[op[1]]
            if record_id in oracle:
                store.update(record_id, {op[2]: op[3]})
                updated = dict(oracle[record_id])
                updated[op[2]] = op[3]
                oracle[record_id] = updated
        else:
            record_id = ids[op[1]]
            if record_id in oracle:
                store.delete(record_id)
                del oracle[record_id]


@given(ops=op_sequences())
@settings(max_examples=80, deadline=None)
def test_columnar_store_matches_dict_oracle(ops):
    store = EntityStore("Entity", fields=LAYOUT)
    oracle: dict = {}
    apply_to_both(store, oracle, ops)

    assert {
        stored.record_id: stored.data for stored in store.all()
    } == oracle

    # every scan answer must match the oracle's predicate walk, and the
    # spine must account for exactly the live records
    stats = store.columnar_stats()
    assert stats["slots"] + stats["irregular"] == len(oracle)
    for field_name in LAYOUT:
        # find_by's equality semantic is ``data.get(field) == value``
        # (a record without the field matches ``None``), so the oracle
        # scan must use the same probe
        seen = {data.get(field_name) for data in oracle.values()}
        for value in list(seen)[:3]:
            expected = sorted(
                record_id
                for record_id, data in oracle.items()
                if data.get(field_name) == value
            )
            found = sorted(
                stored.record_id
                for stored in store.find_by(field_name, value)
            )
            assert found == expected


@given(rows=st.lists(regular_payloads(), min_size=1, max_size=16))
@settings(max_examples=60, deadline=None)
def test_batched_admission_equals_single(rows):
    """``insert_many`` down the batch spine ≡ one ``insert`` per row."""
    batched = EntityStore("Entity", fields=LAYOUT)
    batched.insert_many([dict(row) for row in rows])
    single = EntityStore("Entity", fields=LAYOUT)
    for row in rows:
        single.insert(dict(row))

    assert [
        (stored.record_id, stored.data) for stored in batched.all()
    ] == [(stored.record_id, stored.data) for stored in single.all()]
    left, right = batched.columnar_stats(), single.columnar_stats()
    for key in ("layout", "slots", "tombstones", "irregular", "zone_maps"):
        assert left[key] == right[key]


@given(seed=st.integers(0, 100_000))
@settings(max_examples=25, deadline=None)
def test_revalidate_matches_check_batch(seed):
    """The columnar DQ sweep ≡ the fused row scan, clean or dirty."""
    rng = random.Random(seed)
    spec = easychair_spec()
    form = easychair.build_app().form(spec.form)
    plan = form.compiled_plan()
    store = EntityStore(spec.entity)
    store.insert_many([
        form.bind(
            spec.defective_payload(rng)
            if rng.random() < 0.4
            else spec.clean_payload(rng)
        )
        for _ in range(rng.randint(1, 50))
    ])
    ids = [stored.record_id for stored in store.all()]
    for record_id in rng.sample(ids, min(6, len(ids))):
        store.update(record_id, {"overall_evaluation": rng.randint(-4, 4)})
    for record_id in rng.sample(ids, min(3, len(ids))):
        store.delete(record_id)

    live = store.all()
    oracle = dict(zip(
        [stored.record_id for stored in live],
        plan.check_batch([stored.data for stored in live], False),
    ))
    assert store.revalidate(plan) == oracle


# -- type-changing writes ----------------------------------------------------
#
# An overwrite that changes a column's type widens its sticky zone map;
# the pruned scans must still answer exactly as the dict oracle does.

irregular_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=False),
    st.none(),
    st.text(max_size=4),
    st.integers(-1_000, 1_000),
)


@given(
    base=st.lists(st.integers(-1_000, 1_000), min_size=4, max_size=20),
    stages=st.lists(irregular_values, min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_type_changing_overwrites_keep_scans_exact(base, stages):
    """int→float→None→str overwrites of an all-int column: scan answers
    stay oracle-equal at every stage."""
    store = EntityStore("Entity", fields=LAYOUT)
    stored = store.insert_many([
        {"alpha": value, "beta": value, "gamma": float(value)}
        for value in base
    ])

    oracle = {record.record_id: dict(record.data) for record in stored}
    for index, value in enumerate(stages):
        record_id = stored[index % len(stored)].record_id
        store.update(record_id, {"alpha": value})
        oracle[record_id] = {**oracle[record_id], "alpha": value}
        for probe in (value, base[0], None, 10**7):
            if isinstance(probe, float) and probe != probe:
                continue  # NaN matches nothing on either path
            expected = sorted(
                rid for rid, data in oracle.items()
                if data.get("alpha") == probe
            )
            found = sorted(
                record.record_id
                for record in store.find_by("alpha", probe)
            )
            assert found == expected


@given(ops=op_sequences())
@settings(max_examples=40, deadline=None)
def test_kernel_modes_agree_on_scans(ops):
    """``find_by``'s two lanes ≡ the dict oracle: the zone-map-pruned
    column scan and the row scan a store falls back to once it holds a
    ragged record answer alike, for seen values and for probes of each
    kind that no drawn value can equal."""
    column_store = EntityStore("Entity", fields=LAYOUT)
    oracle: dict = {}
    apply_to_both(column_store, oracle, ops)
    row_store = EntityStore("Entity", fields=LAYOUT)
    apply_to_both(row_store, {}, ops)
    # the ragged record sends every scan of ``row_store`` down the row
    # lane; its cells equal none of the probes below
    row_store.insert({name: "zz-ragged" for name in LAYOUT + ("delta",)})
    assert row_store.columnar_stats()["irregular"] >= 1

    for field_name in LAYOUT:
        seen = sorted(
            {data.get(field_name) for data in oracle.values()},
            key=repr,
        )
        for probe in seen[:3] + ["zz-miss", 10**9]:
            expected = sorted(
                rid for rid, data in oracle.items()
                if data.get(field_name) == probe
            )
            for store in (column_store, row_store):
                found = sorted(
                    record.record_id
                    for record in store.find_by(field_name, probe)
                )
                assert found == expected


@given(seed=st.integers(0, 100_000))
@settings(max_examples=15, deadline=None)
def test_kernel_modes_agree_on_sweep_and_telemetry(seed):
    """The column sweep and the captured ``cols`` telemetry op answer
    identically to the row oracles.  The op carries the zone maps'
    census hints (``"int"`` for the EasyChair scores), so absorbing it
    skips the type walk the row walk pays."""
    rng = random.Random(seed)
    spec = easychair_spec()
    form = easychair.build_app().form(spec.form)
    plan = form.compiled_plan()
    rows = [
        form.bind(
            spec.defective_payload(rng)
            if rng.random() < 0.3
            else spec.clean_payload(rng)
        )
        for _ in range(rng.randint(8, 40))
    ]
    store = EntityStore(spec.entity)
    stored_list = store.insert_many(rows)
    store.observe_inserted(stored_list)
    ops = store.pending_telemetry_ops()
    [(kind, _layout, _columns, _meta, hints)] = ops
    assert kind == "cols" and "int" in hints
    row_triples = [
        (stored.record_id, stored.data, stored.metadata)
        for stored in stored_list
    ]

    live = store.all()
    assert store.revalidate(plan) == dict(zip(
        [stored.record_id for stored in live],
        plan.check_batch([stored.data for stored in live], False),
    ))
    walked = EntityAccumulator(spec.entity)
    walked.observe_rows(row_triples)
    absorbed = EntityAccumulator(spec.entity)
    absorbed.absorb(ops)
    assert absorbed.stats() == walked.stats()


NO_NUMPY_SCRIPT = """
import random
import sys

import repro
import repro.cluster
from repro.casestudy import easychair
from repro.cluster import easychair_spec
from repro.dq.metadata import Clock
from repro.runtime.storage import ContentStore

spec = easychair_spec()
form = easychair.build_app().form(spec.form)
rng = random.Random(7)
rows = [form.bind(spec.clean_payload(rng)) for _ in range(64)]
content = ContentStore(Clock())
content.define(spec.entity)
content.store_many(spec.entity, rows, "chair")
entity = content.entity(spec.entity)
assert len(entity.revalidate(form.compiled_plan())) == 64
assert entity.find_by("overall_evaluation", rows[0]["overall_evaluation"])
assert entity.telemetry_snapshot().stats()["records"] == 64
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_the_columnar_paths_never_import_numpy():
    """One kernel mode: loading a chunk, sweeping it, scanning it and
    reading its telemetry is pure stdlib in a fresh process."""
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    fresh = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": src},
    )
    assert fresh.returncode == 0, fresh.stderr


@given(
    values=st.lists(
        st.floats(allow_nan=True, allow_infinity=True), max_size=30
    ),
    threshold=st.integers(4, 10),
)
@settings(max_examples=60, deadline=None)
def test_add_column_nan_parity(values, threshold):
    """Float columns with NaN/inf cells absorb identically to the
    per-value walk (state compared by repr: NaN breaks ``==``)."""
    columnar = FieldAccumulator("field", spill_threshold=threshold)
    columnar.add_column(values)
    rowwise = FieldAccumulator("field", spill_threshold=threshold)
    for value in values:
        rowwise.add(value)
    assert repr(field_state(columnar)) == repr(field_state(rowwise))


@given(payload=regular_payloads(), level=st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_snapshot_fast_clone_is_isolated(payload, level):
    """The ``object.__new__`` snapshot clone equals the dataclass path
    and never aliases the live record's containers."""
    store = EntityStore("Entity", fields=LAYOUT)
    stored = store.insert(dict(payload))
    stored.metadata.restrict(
        security_level=level, available_to=("ada", "bob")
    )
    snapshot = stored.snapshot()
    assert snapshot.data == stored.data
    assert snapshot.metadata.as_dict() == stored.metadata.as_dict()

    snapshot.data["alpha"] = object()
    snapshot.metadata.available_to.add("eve")
    snapshot.metadata.extra["note"] = "tampered"
    assert stored.data == dict(payload)
    assert "eve" not in stored.metadata.available_to
    assert "note" not in stored.metadata.extra


def field_state(accumulator: FieldAccumulator) -> dict:
    """Every observable slot, with the KMV sketch order-normalized and
    the post-spill hash/mask cache dropped (a pure cache: which entries
    it holds depends on the path taken, never the resulting state)."""
    state = {}
    for slot in FieldAccumulator.__slots__:
        if slot == "_hash_memo":
            continue
        value = getattr(accumulator, slot)
        if isinstance(value, KMVSketch):
            value = (value.k, sorted(value._members))
        elif slot == "_strings" and value is not None:
            value = {key: tuple(entry) for key, entry in value.items()}
        elif isinstance(value, dict):
            value = dict(value)
        elif isinstance(value, list):
            value = tuple(value)
        state[slot] = value
    return state


@given(
    values=st.lists(scalars, max_size=50),
    threshold=st.integers(4, 12),
    split=st.integers(0, 50),
    hinted=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_add_column_equals_per_value_add(values, threshold, split, hinted):
    """Column absorption ≡ per-value ``add``, spill point included.

    A small ``spill_threshold`` forces the exact→sketch handover to
    land mid-column, and splitting the column in two arbitrary chunks
    moves the handover relative to the chunk boundary — the states must
    still converge bit-for-bit.  ``hinted`` passes each chunk the census
    hint the capture side would (``"int"`` or ``"str"`` when the chunk
    is exactly that type).
    """
    columnar = FieldAccumulator("field", spill_threshold=threshold)
    for chunk in (values[:split], values[split:]):
        hint = census_hint(set(map(type, chunk))) if hinted else None
        columnar.add_column(chunk, hint)
    rowwise = FieldAccumulator("field", spill_threshold=threshold)
    for value in values:
        rowwise.add(value)
    assert field_state(columnar) == field_state(rowwise)


@given(seed=st.integers(0, 100_000), count=st.integers(8, 40))
@settings(max_examples=25, deadline=None)
def test_absorb_transpose_equals_row_walk(seed, count):
    """The ``absorb`` layout-uniform transpose ≡ the row walk."""
    rng = random.Random(seed)
    spec = easychair_spec()
    form = easychair.build_app().form(spec.form)
    store = EntityStore(spec.entity)
    stored_list = store.insert_many([
        form.bind(spec.clean_payload(rng)) for _ in range(count)
    ])
    ops = [("rows", [
        (stored.record_id, stored.data, stored.metadata)
        for stored in stored_list
    ])]

    transposed = EntityAccumulator(spec.entity)
    transposed.absorb(ops)
    walked = EntityAccumulator(spec.entity)
    walked.observe_rows(ops[0][1])
    assert transposed.stats() == walked.stats()


@pytest.mark.chaos
def test_chaos_kill_restart_deterministic(tmp_path):
    """Same-seed kill-restart storms reproduce their report exactly."""
    runs = [
        run_chaos(
            23, shard_count=2, count=120, preload=12, kills=2,
            persistence="file", data_dir=tmp_path / side,
        )
        for side in ("a", "b")
    ]
    assert runs[0].restarts >= 1
    assert runs[0].ok, "\n".join(str(v) for v in runs[0].violations)
    assert runs[0].render() == runs[1].render()


@pytest.mark.chaos
def test_topology_faults_deterministic():
    """Same-seed topology storms reproduce report and state checksum."""
    first = run_topology_chaos(23, shard_count=3, count=120, preload=12)
    second = run_topology_chaos(23, shard_count=3, count=120, preload=12)
    assert first.checksum == second.checksum
    assert first.render() == second.render()
