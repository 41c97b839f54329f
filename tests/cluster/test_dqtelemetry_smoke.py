"""Streaming-DQ-telemetry floors, wired into tier-1 at smoke scale.

A sized-down ``run_dqtelemetry_bench`` must keep the acceptance numbers
of the incremental-telemetry work: live cluster scorecards at least
**10x** the full rescan, telemetry-on writes within **10%** of
telemetry-off, and **zero** live-vs-rescan diffs on the equivalence
sweep.  Wall-clock floors retry up to three times so only a repeated
miss — a real regression, not a loaded machine — fails the suite.
"""

import io
import json
import random

import pytest

from repro.casestudy import easychair
from repro.cli import main
from repro.cluster import (
    BenchReport,
    HotpathRow,
    LoadGenerator,
    ShardedGateway,
    run_dqtelemetry_bench,
)

pytestmark = pytest.mark.dqbench

FORM = "Add all data as result of review form"
ENTITY = "Add all data as result of review"


def small_bench(seed: int = 23):
    return run_dqtelemetry_bench(
        shard_count=2,
        records=1_500,
        write_records=1_000,
        live_reads=40,
        rescan_reads=5,
        suggest_reads=10,
        equivalence_ops=100,
        seed=seed,
        rounds=2,
    )


def test_floors_hold_at_smoke_scale():
    result = small_bench()
    for attempt in range(2):
        if result.passed:
            break
        result = small_bench(seed=23 + attempt + 1)  # retry: machine load
    print()
    print(result.render())
    assert result.passed, "\n".join(result.floor_failures())
    assert result.values["equivalence_diffs"] == 0
    assert result.details["telemetry"]["records"] > 0


def test_batched_submit_ticks_accumulators_once_per_chunk():
    """``submit_many`` batches same-shard writes into chunks; the
    telemetry accumulators must absorb each chunk as ONE update — the
    per-chunk (not per-record) half of the write-overhead contract."""
    gateway = ShardedGateway.from_design(
        easychair.build_design(), shard_count=2, users=easychair.USERS,
        max_queue_depth=1024,
    )
    try:
        rng = random.Random(5)
        spec = LoadGenerator(seed=5).spec
        payloads = [spec.clean_payload(rng) for _ in range(64)]
        before = gateway.telemetry_stats()["updates"]
        responses = gateway.submit_many(FORM, payloads, spec.cleared_users[0])
        assert all(r.status == 201 for r in responses)
        chunk_ceiling = sum(
            -(-positions // gateway.write_batch_max)
            for positions in (
                sum(
                    1 for r in responses
                    if r.body["shard"] == shard_index
                )
                for shard_index in range(2)
            )
            if positions
        )
        ticks = gateway.telemetry_stats()["updates"] - before
        assert ticks == chunk_ceiling
        assert ticks < len(payloads)  # far fewer ticks than records
    finally:
        gateway.close()


def telemetry_report(write_overhead: float = 0.04) -> BenchReport:
    """A constructed dqtelemetry report: floors checked without a run."""
    return BenchReport(
        "dqtelemetry", "dq telemetry bench", 23,
        [HotpathRow("scorecard live", 40, 0.01, [0.00025] * 40)],
        {
            "scorecard_live_vs_rescan": 250.0,
            "suggest_live_vs_rescan": 20.0,
            "write_overhead": write_overhead,
            "equivalence_checks": 9,
            "equivalence_diffs": 0,
        },
        {"telemetry": {"records": 40}},
    )


def run_cli(monkeypatch, tmp_path, report):
    import repro.cluster

    captured = {}

    def fake_bench(shard_count, seed):
        captured.update(shard_count=shard_count, seed=seed)
        return report

    monkeypatch.setattr(repro.cluster, "run_dqtelemetry_bench", fake_bench)
    out = io.StringIO()
    json_path = tmp_path / "BENCH_dqtelemetry.json"
    code = main(
        ["cluster-bench", "--dqtelemetry", "--json", str(json_path)],
        out=out,
    )
    assert captured == {"shard_count": 4, "seed": 23}
    rendered = out.getvalue()
    assert "dq telemetry bench" in rendered
    assert f"wrote {json_path}" in rendered
    return code, rendered, json.loads(json_path.read_text())


def test_cli_dqtelemetry_mode(monkeypatch, tmp_path):
    code, rendered, report = run_cli(monkeypatch, tmp_path, telemetry_report())
    assert code == 0
    assert "dqtelemetry floors met" in rendered
    assert report["benchmark"] == "dqtelemetry"
    assert report["floors"]["met"] is True


def test_cli_dqtelemetry_mode_exits_one_on_a_missed_floor(
    monkeypatch, tmp_path
):
    code, rendered, report = run_cli(
        monkeypatch, tmp_path, telemetry_report(write_overhead=0.11)
    )
    assert code == 1
    assert "floor write_overhead: 0.110 <= 0.100 — MISSED" in rendered
    assert report["floors"]["met"] is False


def test_smoke_report_includes_telemetry_floors():
    from repro.cluster.bench import SmokeResult

    class StubComparison:
        def render(self):
            return "comparison table"

    result = SmokeResult(
        comparison=StubComparison(), reports=[telemetry_report()],
        attempts=1,
    )
    rendered = result.render()
    assert "floor scorecard_live_vs_rescan: 250.000 >= 10.000 — met" in (
        rendered
    )
    assert "floor write_overhead: 0.040 <= 0.100 — met" in rendered
    assert "floor equivalence_diffs: 0 <= 0 — met" in rendered
    assert "  equivalence_checks: 9" in rendered
