"""End-to-end and per-layer metrics from one run's samples and spans."""

from __future__ import annotations

import bisect

from . import stats
from .trace import Attribution, layer_of

US = 1e-3
MS = 1e-6

#: The latency percentiles reported per operation class.
PERCENTILES = {"view": (50, 99), "list": (50, 99), "write": (50, 99),
               "scorecard": (50,)}


def round_values(recorders) -> dict:
    """Each round's p50s and throughput, for the report: how far the
    rounds of one run agree."""
    result = {}
    for klass in ("view", "list", "write"):
        per_round = [r.latency_ns.get(klass, []) for r in recorders]
        if all(stats.reportable(len(samples), 50) for samples in per_round):
            result[f"{klass}_p50_us"] = [
                stats.percentile(sorted(samples), 50) * US
                for samples in per_round
            ]
    result["throughput_ops_s"] = [
        r.attempted / (r.window_ns / 1e9) for r in recorders
    ]
    return result


def _per_round(recorders, q, pick):
    """The median over rounds of ``pick(recorder)``'s ``q``-th percentile
    when every round has enough samples for it, else the percentile of
    the pooled samples (``None`` when even those are too few)."""
    per_round = [pick(recorder) for recorder in recorders]
    if all(stats.reportable(len(samples), q) for samples in per_round):
        return stats.median(
            [stats.percentile(sorted(samples), q) for samples in per_round]
        )
    return stats.summarize([v for samples in per_round for v in samples], q)


def end_to_end(recorders, setups, peak_rss_mb, open_loop: bool) -> dict:
    """``name -> (value, unit, samples)`` for every metric these rounds
    can report.  p50s and rates are medians over rounds; p99s come from
    the pooled samples; a percentile with fewer than ten samples beyond
    it is left out."""
    result = {}
    for klass, percentiles in PERCENTILES.items():
        count = sum(len(r.latency_ns.get(klass, ())) for r in recorders)
        for q in percentiles:
            name = f"{klass}_p{q}_us"
            if q == 50:
                value = _per_round(
                    recorders, q, lambda r: r.latency_ns.get(klass, [])
                )
            else:
                value = stats.summarize(
                    [v for r in recorders for v in r.latency_ns.get(klass, ())],
                    q,
                )
            if value is not None:
                result[name] = (value * US, "us", count)
    if all(r.batch_ns for r in recorders):
        result["batch_rows_per_s"] = (
            stats.median([r.batch_rows / (r.batch_ns / 1e9)
                          for r in recorders]),
            "rows/s",
            sum(len(r.latency_ns.get("batch", ())) for r in recorders),
        )
    attempted = sum(r.attempted for r in recorders)
    result["throughput_ops_s"] = (
        stats.median([r.attempted / (r.window_ns / 1e9)
                      for r in recorders]),
        "ops/s", attempted,
    )
    if open_loop:
        lags = [v for r in recorders for v in r.send_lag_ns]
        lag = stats.summarize(lags, 99)
        if lag is not None:
            result["send_lag_p99_us"] = (lag * US, "us", len(lags))
    result["setup_s"] = (stats.median(setups), "s", len(setups))
    result["peak_rss_mb"] = (peak_rss_mb, "MB", 1)
    result["fail_ratio"] = (
        sum(r.failed for r in recorders) / max(attempted, 1), "ratio",
        attempted,
    )
    return result


def gc_counts(before, after) -> list[int]:
    """Collections per generation between two ``gc.get_stats()``
    readings."""
    return [b["collections"] - a["collections"]
            for a, b in zip(before, after)]


def _p(values, q):
    """A percentile for a per-layer diagnostic: nearest rank over
    whatever samples exist (0 when there are none)."""
    return stats.percentile(sorted(values), q) if values else 0.0


def tail_overlap_share(intervals, pauses) -> float:
    """Share of requests above their class's p99 whose interval overlaps
    a collector pause.  Classes with too few samples for a p99 with ten
    beyond it are skipped."""
    by_class: dict[str, list] = {}
    for klass, start, end in intervals:
        by_class.setdefault(klass, []).append((end - start, start, end))
    pauses = sorted(pauses)
    starts = [pause[0] for pause in pauses]
    tail = overlapping = 0
    for members in by_class.values():
        if not stats.reportable(len(members), 99):
            continue
        cut = stats.percentile(sorted(m[0] for m in members), 99)
        for duration, start, end in members:
            if duration <= cut:
                continue
            tail += 1
            # any pause starting before the request ends and ending
            # after it starts
            index = bisect.bisect_left(starts, end)
            if any(pauses[i][1] > start for i in range(index)):
                overlapping += 1
    return overlapping / tail if tail else 0.0


def per_layer(attribution: Attribution, tracer, counters: dict, intervals,
              user_bytes: int, recover_s: float, overhead_pct: float,
              shards: int) -> dict:
    """``name -> (value, unit)`` for every per-layer metric.  A listing
    reads every one of the ``shards``, so rows per list add up the
    ``readable_by`` calls of one gather."""
    spans = tracer.spans
    self_ms = {layer: ns * MS for layer, ns in
               attribution.layer_self_ns.items()}
    infos = attribution.name_infos
    durations = attribution.name_durations
    count = attribution.name_count
    name_self = attribution.name_self_ns

    def layer_ms(layer):
        return self_ms.get(layer, 0.0)

    waits = infos.get("gateway.dispatch", [])
    validated = infos.get("vpipeline.validate", []) + infos.get(
        "vpipeline.validate_batch", [])
    records = sum(info[0] for info in validated)
    rejected = sum(info[1] for info in validated)
    written = (sum(infos.get("storage.store", []))
               + sum(infos.get("storage.store_many", []))
               + sum(infos.get("storage.modify", [])))
    write_ns = sum(name_self.get(f"storage.{name}", 0.0)
                   for name in ("store", "store_many", "modify"))
    lists = infos.get("storage.readable_by", [])
    coded = outermost_infos(spans, "interchange")
    audit_events = (sum(infos.get("audit.record", []))
                    + sum(infos.get("audit.record_many", [])))
    wal_bytes = (sum(infos.get("persistence.sync", []))
                 + sum(infos.get("persistence.checkpoint", [])))
    catchups = infos.get("replication.catch_up", [])
    pauses = tracer.gc_pauses
    gen2 = [p for p in pauses if p[2] == 2]
    hits = counters["cache_hits"]
    lookups = hits + counters["cache_misses"]
    metric = {
        "gateway.self_ms": (layer_ms("gateway"), "ms"),
        "gateway.dispatch_wait_p50_us": (_p(waits, 50) * US, "us"),
        "gateway.dispatch_wait_p99_us": (_p(waits, 99) * US, "us"),
        "routing.calls": (attribution.layer_entries.get("routing", 0),
                          "count"),
        "routing.busy_ms": (layer_ms("routing"), "ms"),
        "cache.busy_ms": (layer_ms("cache"), "ms"),
        "cache.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "cache.invalidations": (counters["cache_invalidations"], "count"),
        "cache.evictions": (counters["cache_evictions"], "count"),
        "resilience.busy_ms": (layer_ms("resilience"), "ms"),
        "app.calls": (attribution.layer_entries.get("app", 0), "count"),
        "app.self_ms": (layer_ms("app"), "ms"),
        "vpipeline.records": (records, "count"),
        "vpipeline.busy_ms": (layer_ms("vpipeline"), "ms"),
        "vpipeline.us_per_record": (
            layer_ms("vpipeline") * 1e3 / records if records else 0.0, "us"),
        "vpipeline.reject_ratio": (
            rejected / records if records else 0.0, "ratio"),
        "storage.busy_ms": (layer_ms("storage"), "ms"),
        "storage.write_us_per_record": (
            write_ns * US / written if written else 0.0, "us"),
        "storage.rows_per_list": (
            sum(lists) * shards / len(lists) if lists else 0.0, "rows"),
        "storage.column_demotions": (counters["column_demotions"], "count"),
        "streaming.busy_ms": (layer_ms("streaming"), "ms"),
        "streaming.updates_absorbed": (counters["telemetry_updates"],
                                       "count"),
        "streaming.spilled_fields": (counters["spilled_fields"], "count"),
        "interchange.busy_ms": (layer_ms("interchange"), "ms"),
        "interchange.bytes": (sum(coded), "bytes"),
        "audit.events": (audit_events, "count"),
        "audit.busy_ms": (layer_ms("audit"), "ms"),
        "audit.events_held": (counters["audit_events_held"], "count"),
        "persistence.appends": (count.get("persistence.append", 0),
                                "count"),
        "persistence.append_busy_ms": (
            name_self.get("persistence.append", 0.0) * MS, "ms"),
        "persistence.syncs": (count.get("persistence.sync", 0), "count"),
        "persistence.sync_busy_ms": (
            name_self.get("persistence.sync", 0.0) * MS, "ms"),
        "persistence.sync_p99_us": (
            _p(durations.get("persistence.sync", []), 99) * US, "us"),
        "persistence.checkpoints": (
            count.get("persistence.checkpoint", 0), "count"),
        "persistence.checkpoint_ms": (
            name_self.get("persistence.checkpoint", 0.0) * MS, "ms"),
        "persistence.bytes_per_user_byte": (
            wal_bytes / user_bytes if user_bytes else 0.0, "ratio"),
        "persistence.recover_s": (recover_s, "s"),
        "replication.catchups": (count.get("replication.catch_up", 0),
                                 "count"),
        "replication.busy_ms": (layer_ms("replication"), "ms"),
        "replication.ops_per_catchup": (
            sum(catchups) / len(catchups) if catchups else 0.0, "ops"),
        "replication.catchup_p99_us": (
            _p(durations.get("replication.catch_up", []), 99) * US, "us"),
        "replication.max_served_lag": (counters["max_served_lag"], "ops"),
        "gc.collections": (counters["gc_collections"], "count"),
        "gc.gen2_collections": (counters["gc_gen2_collections"], "count"),
        "gc.pause_ms": (sum(e - s for s, e, _ in pauses) * MS, "ms"),
        "gc.gen2_pause_ms": (sum(e - s for s, e, _ in gen2) * MS, "ms"),
        "gc.tail_overlap_share": (
            tail_overlap_share(intervals, pauses), "ratio"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return metric


def outermost_infos(spans, layer: str) -> list:
    """Infos of ``layer``'s entry spans (calls from another layer), so
    nested calls inside the layer are not counted twice."""
    names = {span[0]: span[3] for span in spans}
    return [
        span[6] for span in spans
        if span[6] is not None and layer_of(span[3]) == layer
        and layer_of(names.get(span[1], "")) != layer
    ]
