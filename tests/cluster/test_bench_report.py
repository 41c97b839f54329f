"""The bench floor table and ``BenchReport``, on constructed reports.

No bench runs here: every report is built by hand, so the floor
arithmetic, the effective bounds, rendering and the JSON shape are
checked in milliseconds.  The real floors run in the smoke tests.
"""

import json

import pytest

from repro.cluster import BenchReport, HotpathRow
from repro.cluster.bench import FLOORS

#: What the computed bounds read, per bench.
DETAILS = {
    "columnar": {"kernels": {"mode": "numpy"}},
    "durability": {
        "backend": "file", "records": 20_000, "storm": {"kills_planned": 3},
    },
    "replication": {"staleness_bound": 16},
}

CASES = [
    (bench, floor.metric) for bench, floors in FLOORS.items()
    for floor in floors
]


def report_on_bounds(bench, details=None, smoke=False) -> BenchReport:
    """A report whose every floored value sits exactly on its bound."""
    report = BenchReport(
        bench, f"{bench} bench", 23,
        [HotpathRow("lane", 10, 0.5, [0.04, 0.05, 0.06])], {},
        dict(DETAILS.get(bench, {}), **(details or {})), smoke,
    )
    for floor in FLOORS[bench]:
        report.values[floor.metric] = floor.bound_for(report)
    return report


def effective_bound(bench, metric, details=None, smoke=False):
    report = report_on_bounds(bench, details, smoke)
    for floor, _value, bound, _held in report.floor_checks():
        if floor.metric == metric:
            return bound
    raise KeyError(metric)


@pytest.mark.parametrize("bench, metric", CASES)
def test_a_value_on_the_bound_holds_and_one_past_it_fails(bench, metric):
    report = report_on_bounds(bench)
    assert report.passed, report.floor_failures()
    floor = next(f for f in FLOORS[bench] if f.metric == metric)
    step = -1e-9 if floor.op == ">=" else 1e-9
    report.values[metric] += step
    assert not report.passed
    [failure] = report.floor_failures()
    assert failure.startswith(f"{bench} {metric} ")
    assert f"floor {floor.op} " in failure


def test_every_floor_is_a_ge_or_le_bound():
    ops = {floor.op for floors in FLOORS.values() for floor in floors}
    assert ops == {">=", "<="}


@pytest.mark.parametrize("bench, metric, details, smoke, bound", [
    ("comparison", "cached_vs_baseline", None, True, 2.0),
    ("comparison", "faulted_retention", None, True, 0.5),
    ("hotpath", "cow_read_vs_deepcopy", None, False, 3.0),
    ("hotpath", "batched_vs_unbatched_writes", None, False, 1.5),
    ("hotpath", "indexed_vs_scan_lookups", None, False, 1.0),
    ("validate", "fused_single_vs_legacy", None, False, 3.0),
    ("validate", "fused_batch_vs_legacy", None, False, 5.0),
    ("validate", "equivalence_diffs", None, False, 0),
    ("validate", "plan_cache_hits", None, False, 1),
    ("dqtelemetry", "scorecard_live_vs_rescan", None, False, 10.0),
    ("dqtelemetry", "write_overhead", None, False, 0.10),
    ("dqtelemetry", "equivalence_diffs", None, False, 0),
    ("columnar", "columnar_sweep_warm_vs_row_oracle", None, False, 2.0),
    ("columnar", "columnar_sweep_cold_vs_row_oracle", None, False, 1.0),
    ("columnar", "column_absorb_vs_row_walk", None, False, 3.0),
    ("columnar", "column_absorb_vs_row_walk",
     {"kernels": {"mode": "array"}}, False, 2.0),
    ("columnar", "column_absorb_vs_row_walk", None, True, 1.8),
    ("columnar", "column_absorb_vs_row_walk",
     {"kernels": {"mode": "array"}}, True, 1.8),
    ("columnar", "column_scan_vs_dict_scan", None, False, 1.5),
    ("columnar", "column_scan_vs_dict_scan",
     {"kernels": {"mode": "array"}}, False, 1.0),
    ("columnar", "column_scan_vs_dict_scan", None, True, 1.2),
    ("columnar", "equivalence_diffs", None, False, 0),
    ("durability", "write_overhead", None, False, 0.25),
    ("durability", "write_overhead", {"backend": "sqlite"}, False, 0.40),
    ("durability", "write_overhead", None, True, 0.40),
    ("durability", "recovery_s", None, False, 1.0),
    ("durability", "recovery_s", {"records": 3_000}, False, 0.5),
    ("durability", "recovery_s", {"records": 200_000}, False, 10.0),
    ("durability", "oracle_diffs", None, False, 0),
    ("durability", "storm_violations", None, False, 0),
    ("durability", "storm_restarts", None, False, 1),
    ("durability", "storm_restarts",
     {"storm": {"kills_planned": 0}}, False, 0),
    ("replication", "split_retention", None, False, 0.4),
    ("replication", "split_retention", None, True, 0.25),
    ("replication", "oracle_diffs", None, False, 0),
    ("replication", "failover_state_diffs", None, False, 0),
    ("replication", "storm_violations", None, False, 0),
    ("replication", "max_served_lag", None, False, 16),
    ("replication", "max_served_lag", {"staleness_bound": 4}, False, 4),
    ("replication", "migrated", None, False, 1),
])
def test_effective_bounds(bench, metric, details, smoke, bound):
    assert effective_bound(bench, metric, details, smoke) == bound


def test_the_table_has_exactly_the_documented_floors():
    assert {b: len(floors) for b, floors in FLOORS.items()} == {
        "comparison": 2, "hotpath": 3, "validate": 4, "dqtelemetry": 3,
        "columnar": 5, "durability": 5, "replication": 6,
    }


@pytest.mark.parametrize("bench", sorted(FLOORS))
def test_render_shows_every_floor_value_and_bound(bench):
    report = report_on_bounds(bench)
    report.values["informational"] = 7
    lines = report.render().splitlines()
    assert lines[0] == f"{bench} bench, seed 23"
    assert [cell.strip() for cell in lines[1].split("|")] == [
        "Path", "Ops", "Ops/s", "p50 µs", "p99 µs",
    ]
    assert [cell.strip() for cell in lines[3].split("|")] == [
        "lane", "10", "20", "50000.0", "60000.0",
    ]
    for floor, value, bound, _held in report.floor_checks():
        shown = f"{bound:.3f}" if isinstance(bound, float) else str(bound)
        assert (
            f"  floor {floor.metric}: {shown} {floor.op} {shown} — met"
        ) in lines
    assert "  informational: 7" in lines
    assert lines[-1] == f"{bench} floors met"


def test_render_marks_missed_and_smoke_bounds():
    report = report_on_bounds("replication", smoke=True)
    report.values["migrated"] = 0
    rendered = report.render()
    assert "  floor split_retention: 0.250 >= 0.250 (smoke) — met" in rendered
    assert "  floor migrated: 0 >= 1 — MISSED" in rendered
    assert rendered.splitlines()[-1] == "replication floors MISSED"


@pytest.mark.parametrize("met", [True, False])
def test_as_dict_floors_met_follows_passed(met, tmp_path):
    report = report_on_bounds("validate", {"plan_cache": {"hits": 3}})
    if not met:
        report.values["equivalence_diffs"] = 1
    assert report.passed is met
    as_dict = report.as_dict()
    assert as_dict["floors"]["met"] is met
    assert as_dict["benchmark"] == "validate"
    assert as_dict["seed"] == 23
    assert as_dict["plan_cache"] == {"hits": 3}
    assert as_dict["rows"] == [{
        "name": "lane", "operations": 10, "elapsed_s": 0.5,
        "ops_per_second": 20.0, "p50_us": 50000.0, "p99_us": 60000.0,
    }]
    path = tmp_path / "BENCH_validate.json"
    report.write_json(path)
    assert json.loads(path.read_text()) == json.loads(
        json.dumps(as_dict)
    )
