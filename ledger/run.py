"""The end-to-end ledger: one seeded workload through the DQ gateway.

Usage (from the repository root)::

    python3 ledger/run.py --workload review-read --seed 1 --seconds 20 --trace 0

A run is made of ``ROUNDS`` rounds.  Each round builds and preloads a
fresh fleet ``SETUPS`` times (timed: ``setup_s`` is the median of every
set-up of the run), keeps the last one, warms up, drives its own stream
of the seeded plan for its share of ``--seconds`` with the collector on,
and checks every answer.  Per-round p50s and rates are reported as their
median over rounds, p99s over the pooled samples, so one noisy round
does not move a run's figures.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, each traced round replaying the stream of
the untraced round before it, and prints the per-layer metrics of the
traced rounds plus the tracing overhead (untraced against traced).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, where ``metrics``
holds the metrics ``BENCHMARK.json`` lists for the chosen mode.  The
lines before it name every metric with its unit and sample count, the
per-layer predictions and the run's provenance.  The command exits 1
when a correctness check fails and 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Rounds per run; in a traced run they alternate untraced and traced.
ROUNDS = 5
#: Timed set-ups per round (the fleet of the last one is driven).
SETUPS = 3


def _fail(message: str) -> int:
    print(f"ledger: {message}", file=sys.stderr)
    return 2


def _commit() -> str:
    """The checked-out commit read from ``.git`` (``unknown`` outside a
    git checkout)."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """SHA-256 over every Python file under ``src/`` (path and bytes),
    which identifies the program where no commit is known."""
    hasher = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        hasher.update(str(path.relative_to(src)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def provenance(workload: str, seed: int, plan_digest: str) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "plan_sha256": plan_digest,
        "REPRO_NO_NUMPY": os.environ.get("REPRO_NO_NUMPY"),
        "REPRO_NO_INTERCHANGE": os.environ.get("REPRO_NO_INTERCHANGE"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def _apps(gateway):
    """Every app of the fleet: primaries, then followers."""
    apps = list(gateway.shards)
    for replica_set in getattr(gateway, "replica_sets", None) or ():
        if replica_set is not None:
            apps.extend(replica_set.followers)
    return apps


#: Counters that are levels, not flows: reported as read after the window.
LEVELS = ("spilled_fields", "audit_events_held", "max_served_lag")


def layer_counters(gateway) -> dict:
    """Program counters, read outside the traced window."""
    stats = gateway.cache.stats
    updates = spilled = demotions = held = 0
    for app in _apps(gateway):
        held += len(app.audit.events)
        for name in app.store.entity_names:
            store = app.store.entity(name)
            demotions += getattr(store, "_kernel_demotions", 0)
            reading = store.measure_telemetry(
                lambda acc: (acc.updates, acc.stats()["spilled_fields"])
            )
            if reading is not None:
                updates += reading[0]
                spilled += reading[1]
    return {
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "cache_invalidations": stats.invalidations,
        "cache_evictions": stats.evictions,
        "telemetry_updates": updates,
        "column_demotions": demotions,
        "spilled_fields": spilled,
        "audit_events_held": held,
        "max_served_lag": getattr(gateway, "max_served_lag", 0),
    }


class Round:
    """One fleet: timed set-ups, untimed warm-up, the timed window, then
    every correctness check."""

    def __init__(self, workload, config, plan, prepared, work_dir,
                 seconds, tracer=None):
        from . import checks, drive, fleet, plans
        from .trace import Tracer

        self.plan = plan
        self.setups = []
        self.recover_ns = 0
        setup_tracer = None
        if tracer is not None:
            setup_tracer = Tracer()
            setup_tracer.install(only_layers={"persistence"})
        try:
            for _ in range(SETUPS):
                if self.setups:
                    gateway.close()
                gateway, acked, setup_s = fleet.setup(
                    workload, plan, prepared, work_dir
                )
                self.setups.append(setup_s)
        finally:
            if setup_tracer is not None:
                setup_tracer.restore()
                self.recover_ns = sum(
                    end - start
                    for _, _, _, name, start, end, _ in setup_tracer.spans
                    if name == "persistence.recover_app"
                ) / SETUPS
        self.state = drive.State(acked)
        self.recorder = drive.Recorder()
        try:
            index = drive.warm_up(gateway, plan, self.state, self.recorder,
                                  config["warmup_ops"])
            plan.op(index + config["plan_ops"])
            before = layer_counters(gateway) if tracer else None
            gc.collect()
            self.gc_before = gc.get_stats()
            if tracer is not None:
                tracer.install()
            try:
                if config["loop"] == "open":
                    drive.open_loop(gateway, plan, self.state, self.recorder,
                                    index, seconds, config["rate_per_s"])
                else:
                    drive.closed_loop(gateway, plan, self.state,
                                      self.recorder, index, seconds)
            finally:
                if tracer is not None:
                    tracer.restore()
            self.gc_after = gc.get_stats()
            if tracer is not None:
                after = layer_counters(gateway)
                self.counters = {
                    key: after[key] if key in LEVELS
                    else after[key] - before[key]
                    for key in after
                }
            self.violations = checks.check_outcomes(
                plan, self.recorder.outcomes
            )
            self.violations += checks.check_audit(gateway, self.state)
            entity, bounds = (
                (plans.ORDER_ENTITY, plans.ORDER_BOUNDS)
                if workload == "shop-ingest"
                else (plans.REVIEW_ENTITY, plans.REVIEW_BOUNDS)
            )
            self.violations += checks.check_scorecard(gateway, entity,
                                                      bounds)
            if workload == "shop-ingest":
                self.violations += checks.check_restart(gateway, self.state)
        finally:
            gateway.close()


def _user_bytes(plan, indexes) -> int:
    """JSON bytes of every payload the timed operations sent."""
    from . import plans

    total = 0
    for index in indexes:
        op = plan.op(index)
        if op.kind in (plans.CREATE, plans.UPDATE):
            total += len(json.dumps(op.payload))
        elif op.kind == plans.BATCH:
            total += sum(len(json.dumps(row)) for row in op.payload)
    return total


def _gc_totals(rounds) -> list[int]:
    """Collections per generation over the rounds' timed windows."""
    from . import metrics

    totals = [0, 0, 0]
    for r in rounds:
        for generation, count in enumerate(
                metrics.gc_counts(r.gc_before, r.gc_after)):
            totals[generation] += count
    return totals


def _print_metrics(title: str, rows) -> None:
    print(title)
    for name, value, unit, samples in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        tail = f"  (n={samples})" if samples is not None else ""
        print(f"  {name:<34} {shown:>14} {unit:<7}{tail}")


def _end_to_end(workload, config, streams, prepared, work_dir, args):
    from . import metrics

    rounds = [
        Round(workload, config, streams[index], prepared, work_dir,
              args.seconds / ROUNDS)
        for index in range(ROUNDS)
    ]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = metrics.end_to_end(
        [r.recorder for r in rounds], [s for r in rounds for s in r.setups],
        peak_rss_mb, config["loop"] == "open",
    )
    collections = _gc_totals(rounds)
    rows = [(name, value, unit, samples)
            for name, (value, unit, samples) in report.items()]
    for name, values in metrics.round_values(
            [r.recorder for r in rounds]).items():
        rows.append((f"{name} by round",
                     " ".join(f"{v:.4g}" for v in values), "", None))
    rows.append(("gc collections gen0/gen1/gen2",
                 "/".join(str(count) for count in collections), "", None))
    _print_metrics(
        f"end-to-end, {workload}, seed {args.seed}, {config['loop']} loop, "
        f"{ROUNDS} rounds of {args.seconds / ROUNDS:g} s", rows,
    )
    return report, rounds


def _per_layer(workload, config, streams, prepared, work_dir, args):
    from . import fleet, metrics
    from .trace import Attribution, Tracer

    tracer = Tracer()
    rounds = [
        Round(workload, config, streams[index // 2], prepared, work_dir,
              args.seconds / ROUNDS, tracer=tracer if index % 2 else None)
        for index in range(ROUNDS)
    ]
    plain, traced = rounds[0::2], rounds[1::2]
    open_loop = config["loop"] == "open"
    base = metrics.end_to_end([r.recorder for r in plain], [0.0], 0.0,
                              open_loop)
    seen = metrics.end_to_end([r.recorder for r in traced], [0.0], 0.0,
                              open_loop)
    if open_loop:
        overhead = 100.0 * (seen["view_p50_us"][0]
                            / base["view_p50_us"][0] - 1.0)
    else:
        overhead = 100.0 * (1.0 - seen["throughput_ops_s"][0]
                            / base["throughput_ops_s"][0])
    counters: dict = {}
    for r in traced:
        for key, value in r.counters.items():
            counters[key] = (max(counters.get(key, 0), value)
                             if key in LEVELS
                             else counters.get(key, 0) + value)
    collections = _gc_totals(traced)
    counters["gc_collections"] = sum(collections)
    counters["gc_gen2_collections"] = collections[2]
    attribution = Attribution(tracer.spans)
    report = metrics.per_layer(
        attribution, tracer, counters,
        [i for r in traced for i in r.recorder.intervals],
        sum(_user_bytes(r.plan, r.recorder.timed) for r in traced),
        sum(r.recover_ns for r in traced) / len(traced) / 1e9,
        overhead, fleet.SHARDS,
    )
    _print_metrics(
        f"per-layer, {workload}, seed {args.seed}, {len(traced)} traced "
        f"round(s) of {args.seconds / ROUNDS:g} s "
        f"({attribution.requests} requests, {len(tracer.spans)} spans)",
        [(name, value, unit, None)
         for name, (value, unit) in report.items()],
    )
    print(f"  tracing overhead: {overhead:.2f}% "
          + ("(view p50)" if open_loop else "(throughput)"))
    print(f"  self-time partition: max |sum(self) - root| = "
          f"{attribution.max_partition_error_ns:.3f} ns over "
          f"{attribution.requests} requests")
    if tracer.missing:
        print(f"  not present in this build: {sorted(set(tracer.missing))}")
    if not attribution.partition_holds():
        traced[0].violations.append(
            "layer self times do not sum to their root spans"
        )
    return report, rounds


def run(args, benchmark: dict, rationale: dict) -> int:
    from . import fleet, plans

    workload = args.workload
    config = rationale["workloads"][workload]
    streams = [plans.Plan(workload, args.seed, stream=index)
               for index in range(ROUNDS)]
    print(json.dumps({"provenance": provenance(
        workload, args.seed, plans.digest(streams))}))
    work_root = ROOT / ".ledger_work"
    work_dir = work_root / f"{workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        prepared = fleet.prepare(workload, streams[0], work_dir)
        measure = _per_layer if args.trace else _end_to_end
        report, rounds = measure(workload, config, streams, prepared,
                                 work_dir, args)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    if args.trace:
        wanted = benchmark["per_layer"]
        for name, predictions in rationale["per_layer"].items():
            print(f"  {name} -> " + "; ".join(predictions))
    else:
        wanted = benchmark["end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in report]
    if absent:
        return _fail(f"{workload}: cannot report {absent} (too few "
                     "samples beyond the percentile)")
    violations = [v for r in rounds for v in r.violations]
    answers = sum(len(r.recorder.outcomes) for r in rounds)
    print(f"checks: {'all passed' if not violations else 'FAILED'} "
          f"({answers} answers checked)")
    for line in violations[:20]:
        print(f"  WRONG: {line}")
    if len(violations) > 20:
        print(f"  ... {len(violations) - 20} more")
    print(json.dumps({
        "correct": not violations,
        "attempted": sum(r.recorder.attempted for r in rounds),
        "failed": sum(r.recorder.failed for r in rounds),
        "metrics": {
            m["name"]: {"value": report[m["name"]][0],
                        "unit": report[m["name"]][1]}
            for m in wanted
        },
    }))
    return 0 if not violations else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program source under {ROOT / 'src'}")
    try:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        rationale = json.loads((HERE / "rationale.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read the benchmark definition: {exc}")
    if args.workload not in rationale["workloads"]:
        parser.error(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from ledger.run import run as run_in_package

    return run_in_package(args, benchmark, rationale)


if __name__ == "__main__":
    sys.exit(main())
