"""The ``repro`` command-line interface (``python -m repro``).

Subcommands mirror the pipeline stages:

* ``tables [1|2|3|all]`` — print the paper's tables;
* ``figures [1..7|all] [--format plantuml|mermaid]`` — print the figures;
* ``validate MODEL`` — well-formedness check a requirements model file
  (``.json`` or ``.xmi``); exit code 1 on errors;
* ``transform MODEL -o DESIGN.json`` — run req2design, optionally printing
  the transformation trace;
* ``codegen DESIGN.json -o app.py`` — generate the application module;
* ``srs MODEL -o SRS.md`` — generate the requirements specification;
* ``assess MODEL`` — grade the model against the ten methodology steps;
* ``diff LEFT RIGHT [--impact]`` — compare two models; with ``--impact``,
  follow each change through the transformation trace;
* ``demo [--count N] [--seed S]`` — run the EasyChair case study workload
  through the DQ-aware app and the baseline, print the comparison and the
  DQ scorecard;
* ``experiments`` — regenerate the measured EXPERIMENTS.md numbers;
* ``cluster-bench`` — measure the sharded gateway (our scaling extension)
  against the single-shard serving path on the read-heavy mix; with
  ``--faults``, add a row with one shard crashed to measure how much
  throughput the resilience layer retains.  One mode flag runs a
  component bench instead — ``--hotpath``, ``--validate``,
  ``--dqtelemetry``, ``--durability``, ``--replication`` or
  ``--columnar`` (``--json PATH`` also writes the machine-readable
  report) — or ``--smoke`` for all but the hot-path bench at tier-1
  scale; each prints its floors from ``repro.cluster.bench.FLOORS`` and
  exits 1 on a missed floor;
* ``chaos`` — run the deterministic fault-injection harness against the
  sharded gateway and verify every DQ guarantee held; ``--durability``
  (or ``--backend file|sqlite`` with ``--kills N``) puts a durable
  backend under every shard and layers seeded kill-restart faults over
  the storm; ``--topology`` upgrades the storm to the replicated
  consistent-hash ring — followers serving tagged 203 reads, a live
  shard split and merge mid-run, seeded replica-lag and failover
  faults layered in; exit code 1 on any violation.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.core import global_registry
from repro.core.serialization import jsonio, xmi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DQ_WebRE reproduction — capture, validate, transform "
                    "and run data quality requirements for web applications",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    tables = commands.add_parser("tables", help="print the paper's tables")
    tables.add_argument(
        "which", nargs="?", default="all", choices=["1", "2", "3", "all"]
    )

    figures = commands.add_parser("figures", help="print the paper's figures")
    figures.add_argument(
        "which", nargs="?", default="all",
        choices=[str(n) for n in range(1, 8)] + ["all"],
    )
    figures.add_argument(
        "--format", default="plantuml", choices=["plantuml", "mermaid"]
    )

    validate = commands.add_parser(
        "validate", help="well-formedness check a requirements model file"
    )
    validate.add_argument("model", help="path to a .json or .xmi model")

    transform = commands.add_parser(
        "transform", help="requirements model -> design model"
    )
    transform.add_argument("model", help="path to a .json or .xmi model")
    transform.add_argument("-o", "--output", help="design model output path")
    transform.add_argument(
        "--trace", action="store_true", help="print the transformation trace"
    )

    codegen = commands.add_parser(
        "codegen", help="design model -> Python application module"
    )
    codegen.add_argument("design", help="path to a design .json model")
    codegen.add_argument("-o", "--output", help="generated module path")

    demo = commands.add_parser(
        "demo", help="run the EasyChair case study comparison"
    )
    demo.add_argument("--count", type=_positive_int, default=200)
    demo.add_argument("--seed", type=int, default=7)

    srs = commands.add_parser(
        "srs", help="generate the software requirements specification"
    )
    srs.add_argument("model", help="path to a .json or .xmi model")
    srs.add_argument("-o", "--output", help="markdown output path")

    assess = commands.add_parser(
        "assess", help="grade a model against the DQ_WebRE methodology steps"
    )
    assess.add_argument("model", help="path to a .json or .xmi model")

    experiments = commands.add_parser(
        "experiments",
        help="re-run the measured experiments (the EXPERIMENTS.md numbers)",
    )
    experiments.add_argument("--count", type=_positive_int, default=300)
    experiments.add_argument("--seed", type=int, default=42)

    cluster_bench = commands.add_parser(
        "cluster-bench",
        help="single-shard vs sharded-gateway throughput comparison "
             "(beyond the paper)",
    )
    cluster_bench.add_argument("--shards", type=_positive_int, default=4)
    cluster_bench.add_argument("--count", type=_positive_int, default=600)
    cluster_bench.add_argument(
        "--preload", type=_non_negative_int, default=400
    )
    cluster_bench.add_argument("--seed", type=int, default=23)
    cluster_bench.add_argument("--threads", type=_positive_int, default=1)
    cluster_bench.add_argument(
        "--cache-capacity", type=_non_negative_int, default=512
    )
    cluster_bench.add_argument(
        "--include-uncached", action="store_true",
        help="add an uncached N-shard row (isolates sharding vs caching)",
    )
    cluster_bench.add_argument(
        "--faults", action="store_true",
        help="add a row with shard 0 crashed (measures resilience-layer "
             "throughput retention)",
    )
    cluster_bench.add_argument(
        "--metrics", action="store_true",
        help="also print each configuration's gateway metrics",
    )
    modes = cluster_bench.add_mutually_exclusive_group()
    for mode, help_text in (
        ("smoke", "the fast floor check (the comparison plus every bench "
                  "below but --hotpath, at tier-1 scale)"),
        ("hotpath", "the hot-path microbenchmarks (copy-on-write reads "
                    "and write batching)"),
        ("validate", "the compiled-validation bench (fused plans vs the "
                     "legacy interpreted chain, with the zero-diff "
                     "equivalence sweep)"),
        ("dqtelemetry", "the streaming-DQ-telemetry bench (live "
                        "scorecards and profiler suggestions from "
                        "mergeable accumulators vs full rescans, with the "
                        "zero-diff equivalence sweep)"),
        ("durability", "the durability bench (WAL write overhead vs "
                       "in-memory, crash-recovery time, the post-recovery "
                       "oracle sweep and a seeded kill-restart storm)"),
        ("replication", "the replication bench (serving throughput during "
                        "a live split/merge, the fixed-topology oracle, a "
                        "failover drill and a seeded topology storm)"),
        ("columnar", "the columnar-spine bench (store-resident DQ sweeps "
                     "down the column arrays with zone maps, telemetry "
                     "column absorption and column scans vs their row "
                     "oracles)"),
    ):
        modes.add_argument(
            f"--{mode}", dest="mode", action="store_const", const=mode,
            help=f"run {help_text} instead of the comparison; exit 1 on a "
                 "missed floor",
        )
    cluster_bench.add_argument(
        "--backend", default="file", choices=["file", "sqlite"],
        help="with --durability: the durable backend to measure "
             "(default: file — the append-only WAL plus snapshots)",
    )
    cluster_bench.add_argument(
        "--records", type=_positive_int, default=20_000,
        help="with --durability: records loaded before the timed "
             "crash recovery",
    )
    cluster_bench.add_argument(
        "--json", metavar="PATH", default=None,
        help="with a bench mode other than --smoke: also write the "
             "machine-readable report (e.g. BENCH_hotpath.json)",
    )

    chaos = commands.add_parser(
        "chaos",
        help="deterministic fault-injection run against the sharded "
             "gateway, with a DQ-guarantee verdict (beyond the paper)",
    )
    chaos.add_argument("--seed", type=int, default=11)
    chaos.add_argument("--shards", type=_positive_int, default=4)
    chaos.add_argument("--count", type=_positive_int, default=400)
    chaos.add_argument("--preload", type=_non_negative_int, default=32)
    chaos.add_argument("--threads", type=_positive_int, default=1)
    chaos.add_argument(
        "--metrics", action="store_true",
        help="also print the gateway metrics snapshot",
    )
    chaos.add_argument(
        "--durability", action="store_true",
        help="run the storm on a durable backend with kill-restart "
             "faults layered in (shorthand for --backend file --kills 3)",
    )
    chaos.add_argument(
        "--backend", default=None, choices=["file", "sqlite"],
        help="durable backend to put under every shard (implies "
             "durability faults are survivable)",
    )
    chaos.add_argument(
        "--kills", type=_non_negative_int, default=None,
        help="seeded kill-restart faults to inject (default 3 when "
             "--durability or --backend is given, else 0)",
    )
    chaos.add_argument(
        "--data-dir", default=None,
        help="directory for the shards' durable state (default: a "
             "temporary directory, removed afterwards)",
    )
    chaos.add_argument(
        "--topology", action="store_true",
        help="run the topology storm instead: a replicated consistent-"
             "hash ring with a live shard split and merge mid-run, plus "
             "seeded replica-lag and failover faults layered over the "
             "usual storm",
    )
    chaos.add_argument(
        "--replicas", type=_non_negative_int, default=1,
        help="with --topology: followers per shard (reads are served "
             "from followers as tagged 203s)",
    )
    chaos.add_argument(
        "--staleness-bound", type=_non_negative_int, default=16,
        help="with --topology: the maximum acked-ops lag a follower "
             "read may serve",
    )

    diff = commands.add_parser(
        "diff", help="compare two model files (requirements review aid)"
    )
    diff.add_argument("left", help="the base model (.json or .xmi)")
    diff.add_argument("right", help="the edited model (.json or .xmi)")
    diff.add_argument(
        "--impact", action="store_true",
        help="follow each change through the transformation trace and "
             "list the affected design elements",
    )

    return parser


def _int_at_least(minimum: int, kind: str):
    """An argparse ``type`` for integers of at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be a {kind} integer, got {text!r}"
            )
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


class _BadInput(Exception):
    """Bad command-line input that only shows after parsing; ``main``
    reports it the way argparse reports a parse error."""


def _load_model(path: str):
    try:
        if path.endswith(".xmi") or path.endswith(".xml"):
            return xmi.load(path, global_registry)
        return jsonio.load(path, global_registry)
    except OSError as exc:
        raise _BadInput(
            f"cannot read model {path!r}: {exc.strerror or exc}"
        ) from None


def _command_tables(args, out) -> int:
    from repro.reports import tables

    if args.which in ("1", "all"):
        print(tables.table1(), file=out)
    if args.which in ("2", "all"):
        print(tables.table2(), file=out)
    if args.which in ("3", "all"):
        print(tables.table3(), file=out)
    return 0


def _command_figures(args, out) -> int:
    from repro.reports import figures

    wanted = (
        list(figures.ALL_FIGURES)
        if args.which == "all"
        else [int(args.which)]
    )
    mermaid_variants = {
        1: figures.figure1_mermaid,
        6: figures.figure6_mermaid,
        7: figures.figure7_mermaid,
    }
    for number in wanted:
        if args.format == "mermaid":
            generator = mermaid_variants.get(number)
            if generator is None:
                print(
                    f"(figure {number} has no mermaid variant; "
                    "use --format plantuml)",
                    file=out,
                )
                continue
        else:
            generator = figures.ALL_FIGURES[number]
        print(f"-- Figure {number} --", file=out)
        print(generator(), file=out)
    return 0


def _command_validate(args, out) -> int:
    from repro.dqwebre.wellformedness import validate

    model = _load_model(args.model)
    report = validate(model)
    print(report.render(), file=out)
    return 0 if report.ok else 1


def _command_transform(args, out) -> int:
    from repro.transform.req2design import transform

    model = _load_model(args.model)
    result = transform(model)
    if args.trace:
        print(result.trace.render(), file=out)
    design = result.primary
    print(
        f"design {design.name!r}: {len(design.entities)} entities, "
        f"{len(design.forms)} forms, {len(design.validators)} validators, "
        f"{len(design.policies)} policies, {len(design.routes)} routes",
        file=out,
    )
    if args.output:
        jsonio.dump(design, args.output)
        print(f"wrote {args.output}", file=out)
    return 0


def _command_codegen(args, out) -> int:
    from repro.transform.codegen import generate_app_module

    design = _load_model(args.design)
    source = generate_app_module(design)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(source)
        print(
            f"wrote {args.output} ({len(source.splitlines())} lines)",
            file=out,
        )
    else:
        print(source, file=out)
    return 0


def _command_demo(args, out) -> int:
    from repro.casestudy import easychair
    from repro.casestudy.workloads import compare_dq_vs_baseline
    from repro.dq.metadata import Clock
    from repro.dq.scorecard import Scorecard

    app = easychair.build_app(Clock())
    baseline = easychair.build_baseline(Clock())
    comparison = compare_dq_vs_baseline(
        app, baseline, count=args.count, seed=args.seed
    )
    print("DQ-aware :", comparison["dq"].render(), file=out)
    print("baseline :", comparison["baseline"].render(), file=out)
    scorecard = Scorecard(
        app,
        "Add all data as result of review",
        required_fields=easychair.ALL_REVIEW_FIELDS,
        bounds=easychair.SCORE_BOUNDS,
        max_age=10_000,
    )
    print(file=out)
    print(scorecard.render(), file=out)
    return 0


def _command_srs(args, out) -> int:
    from repro.transform.docgen import generate_srs

    model = _load_model(args.model)
    document = generate_srs(model)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document)
        print(f"wrote {args.output}", file=out)
    else:
        print(document, file=out)
    return 0


def _command_assess(args, out) -> int:
    from repro.dqwebre.methodology import assess

    model = _load_model(args.model)
    report = assess(model)
    print(report.render(), file=out)
    return 0 if report.complete else 1


def _command_experiments(args, out) -> int:
    from repro.reports.experiments import full_report

    print(full_report(count=args.count, seed=args.seed), file=out)
    return 0


#: ``cluster-bench`` mode -> the call that runs it (``cluster`` is the
#: ``repro.cluster`` package, looked up at call time).
_BENCH_MODES = {
    "smoke": lambda cluster, args: cluster.run_smoke(
        shard_count=args.shards, seed=args.seed,
    ),
    "hotpath": lambda cluster, args: cluster.run_hotpath_bench(
        shard_count=args.shards, seed=args.seed,
    ),
    "validate": lambda cluster, args: cluster.run_validation_bench(
        seed=args.seed,
    ),
    "dqtelemetry": lambda cluster, args: cluster.run_dqtelemetry_bench(
        shard_count=args.shards, seed=args.seed,
    ),
    "durability": lambda cluster, args: cluster.run_durability_bench(
        shard_count=args.shards, records=args.records,
        backend=args.backend, seed=args.seed,
    ),
    "replication": lambda cluster, args: cluster.run_replication_bench(
        shard_count=max(2, min(args.shards, 4)), seed=args.seed,
    ),
    "columnar": lambda cluster, args: cluster.run_columnar_bench(
        seed=args.seed,
    ),
}


def _command_cluster_bench(args, out) -> int:
    import repro.cluster as cluster

    if args.mode is not None:
        result = _BENCH_MODES[args.mode](cluster, args)
        print(result.render(), file=out)
        if args.json and args.mode != "smoke":
            result.write_json(args.json)
            print(f"wrote {args.json}", file=out)
        return 0 if result.passed else 1

    result = cluster.run_comparison(
        shard_count=args.shards,
        count=args.count,
        preload=args.preload,
        seed=args.seed,
        threads=args.threads,
        cache_capacity=args.cache_capacity,
        include_uncached=args.include_uncached,
        include_faulted=args.faults,
    )
    print(result.render(), file=out)
    for row in result.rows:
        violations = row.report.leaks + row.report.untagged_stale
        if violations:  # pragma: no cover - would be a gateway bug
            print(f"!! {row.label}: {len(violations)} violation(s)", file=out)
            return 1
    if args.metrics:
        for row in result.rows:
            print(file=out)
            print(f"-- {row.label} --", file=out)
            print(row.metrics_text, file=out)
    return 0


def _command_chaos(args, out) -> int:
    from repro.persistence import RecoveryError

    try:
        return _run_chaos(args, out)
    except RecoveryError as exc:
        raise _BadInput(f"unrecoverable durable state: {exc}") from None


def _run_chaos(args, out) -> int:
    from repro.cluster import run_chaos, run_topology_chaos

    backend = args.backend
    if backend is None and args.durability:
        backend = "file"
    kills = args.kills
    if kills is None:
        kills = 3 if backend is not None else 0
    if args.topology:
        topology_result = run_topology_chaos(
            seed=args.seed,
            shard_count=args.shards,
            count=args.count,
            preload=args.preload,
            threads=args.threads,
            replicas=args.replicas,
            staleness_bound=args.staleness_bound,
            persistence=backend,
            kills=kills,
            data_dir=args.data_dir,
        )
        print(topology_result.render(), file=out)
        return 0 if topology_result.ok else 1
    result = run_chaos(
        seed=args.seed,
        shard_count=args.shards,
        count=args.count,
        preload=args.preload,
        threads=args.threads,
        persistence=backend,
        kills=kills,
        data_dir=args.data_dir,
    )
    print(result.render(), file=out)
    if args.metrics:
        print(file=out)
        import json

        print(json.dumps(result.metrics, indent=2, default=str), file=out)
    return 0 if result.ok else 1


def _command_diff(args, out) -> int:
    from repro.core.diff import diff as model_diff

    left = _load_model(args.left)
    right = _load_model(args.right)
    if args.impact:
        from repro.transform.impact import analyse_impact

        report = analyse_impact(left, right)
        print(report.render(), file=out)
        return 1 if report.requires_regeneration else 0
    changes = model_diff(left, right)
    if not changes:
        print("models are identical", file=out)
        return 0
    for change in changes:
        print(change.describe(), file=out)
    print(f"{len(changes)} change(s)", file=out)
    return 1


_COMMANDS = {
    "tables": _command_tables,
    "figures": _command_figures,
    "validate": _command_validate,
    "transform": _command_transform,
    "codegen": _command_codegen,
    "demo": _command_demo,
    "srs": _command_srs,
    "assess": _command_assess,
    "experiments": _command_experiments,
    "diff": _command_diff,
    "cluster-bench": _command_cluster_bench,
    "chaos": _command_chaos,
}


def main(argv: Optional[list[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except _BadInput as exc:
        parser.exit(2, f"{parser.prog} {args.command}: error: {exc}\n")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
