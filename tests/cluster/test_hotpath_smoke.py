"""Fast performance floors, wired into tier-1 (``cluster-bench --smoke``).

A sized-down run of every bench but the hot-path one must keep the
floors in ``repro.cluster.bench.FLOORS`` at their smoke bounds —
including the scaling extension's headline guarantees: the cached
4-shard gateway at least **2x** the single-shard uncached baseline, and
at least **50%** of healthy throughput retained with shard 0 crashed.
``run_smoke`` retries a missed floor up to three times so only a
repeated miss — a real regression, not a loaded machine — fails the
suite.  The CLI wiring is checked on constructed results.
"""

import io

import pytest

import repro.cluster
from repro.cli import main
from repro.cluster import BenchReport, run_smoke
from repro.cluster.bench import SmokeResult


@pytest.mark.bench
def test_smoke_floors_hold():
    result = run_smoke()
    print()
    print(result.render())
    assert result.passed, result.render()
    assert result.comparison.speedup >= 2.0
    assert result.comparison.degradation >= 0.5
    # the comparison itself stayed violation-free on every row
    for row in result.comparison.rows:
        assert row.report.leaks == []
        assert row.report.untagged_stale == []


class StubComparison:
    def render(self):
        return "comparison table"


def smoke_result(cached_vs_baseline: float) -> SmokeResult:
    report = BenchReport(
        "comparison", "gateway comparison", 23, [],
        {"cached_vs_baseline": cached_vs_baseline, "faulted_retention": 0.9},
        smoke=True,
    )
    return SmokeResult(StubComparison(), [report], attempts=1)


def run_smoke_cli(monkeypatch, result):
    captured = {}

    def fake_smoke(shard_count, seed):
        captured.update(shard_count=shard_count, seed=seed)
        return result

    monkeypatch.setattr(repro.cluster, "run_smoke", fake_smoke)
    out = io.StringIO()
    code = main(["cluster-bench", "--smoke", "--seed", "5"], out=out)
    assert captured == {"shard_count": 4, "seed": 5}
    return code, out.getvalue()


def test_cli_smoke_mode_exits_zero(monkeypatch):
    code, rendered = run_smoke_cli(monkeypatch, smoke_result(2.5))
    assert code == 0, rendered
    assert "comparison table" in rendered
    assert "floor cached_vs_baseline: 2.500 >= 2.000 — met" in rendered
    assert rendered.rstrip().splitlines()[-1] == (
        "smoke: PASS — every floor met (1 attempt(s))"
    )


def test_cli_smoke_mode_exits_one_on_a_missed_floor(monkeypatch):
    code, rendered = run_smoke_cli(monkeypatch, smoke_result(1.5))
    assert code == 1
    assert "floor cached_vs_baseline: 1.500 >= 2.000 — MISSED" in rendered
    assert rendered.rstrip().splitlines()[-1] == (
        "smoke: FAIL — first violated floor: "
        "comparison cached_vs_baseline 1.500, floor >= 2.000"
    )
