"""Deterministic folds of per-shard results into one global view.

Everything here folds in **shard_id order**, never in worker completion
order, so the merged documents are independent of OS scheduling: same
seed, same shard count → byte-identical output (the property bench E19
asserts).  Merge semantics per instrument kind:

* counters — summed (flows add across independent systems);
* gauges — summed (levels read as fleet totals: free frames across
  all shard systems, active sessions across all listeners);
* histograms — count/sum/min/max folded, mean recomputed;
* clock — the **max** shard clock (the fleet is done when its slowest
  member is);
* audit summaries — seen/denials summed, per-shard rows kept;
* timelines — folded per interval *index* (all shards sample the same
  simulated cadence): counter deltas and gauge levels summed like the
  snapshot fold, histogram count/sum summed, percentile estimates
  folded with **max** (the conservative worst-shard bound — exact
  cross-shard quantiles would need the raw reservoirs), breach rows
  concatenated with their shard_id and sorted by (t, shard_id, rule).

Wall-clock numbers never enter the merged snapshot — they ride beside
it — so the deterministic documents stay stable across runs and hosts.
"""

from __future__ import annotations

from repro.obs.registry import SCHEMA, SCHEMA_VERSION, MetricsRegistry
from repro.workloads.driver import WorkloadReport
from repro.workloads.shards.spec import ShardResult


class MergeMetrics:
    """The merge layer's own ``shard.*`` instruments.

    Follows the repo's hot-path migration rule: plain integer
    attributes, registered as instrument sources on a private
    registry whose snapshot is folded into the global document.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.shards = 0
        self.users = 0
        self.folds = 0
        self.spawn_failures = 0
        self.registry.gauge(
            "shard.count", "shard workers in this run",
            source=lambda: self.shards,
        )
        self.registry.counter(
            "shard.users", "users partitioned across the shards",
            source=lambda: self.users,
        )
        self.registry.counter(
            "shard.merge.folds",
            "per-shard snapshots folded into the global document",
            source=lambda: self.folds,
        )
        self.registry.counter(
            "shard.spawn_failures",
            "process-pool launches that fell back to the serial path",
            source=lambda: self.spawn_failures,
        )


def merge_reports(results: list[ShardResult]) -> WorkloadReport:
    """Fold per-shard workload reports (shard_id order) into one.

    ``wall_seconds`` is left at 0 — the orchestrator stamps the outer
    wall time; summing per-worker walls would double-count overlap.
    """
    ordered = sorted(results, key=lambda r: r.shard_id)
    merged = WorkloadReport()
    for result in ordered:
        report = result.report
        merged.users += report.users
        merged.admitted += report.admitted
        merged.login_failures += report.login_failures
        merged.jobs_completed += report.jobs_completed
        merged.jobs_failed += report.jobs_failed
        merged.latencies.extend(report.latencies)
    clocks = [r.report for r in ordered if r.report.users]
    if clocks:
        merged.start_clock = min(r.start_clock for r in clocks)
        merged.end_clock = max(r.end_clock for r in clocks)
    return merged


def _fold_histogram(into: dict, summary: dict) -> None:
    into["count"] += summary["count"]
    into["sum"] += summary["sum"]
    for key, pick in (("min", min), ("max", max)):
        if summary[key] is not None:
            into[key] = (
                summary[key]
                if into[key] is None
                else pick(into[key], summary[key])
            )
    into["mean"] = into["sum"] / into["count"] if into["count"] else 0.0


def merge_snapshots(
    results: list[ShardResult], metrics: MergeMetrics | None = None
) -> dict:
    """Fold per-shard ``repro.obs/v1`` snapshots into one document.

    The result validates against :func:`repro.obs.validate_snapshot`;
    when ``metrics`` is given its ``shard.*`` instruments are folded in
    alongside the shard systems' own names.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    clock = 0
    for result in sorted(results, key=lambda r: r.shard_id):
        snap = result.snapshot
        if snap.get("clock") is not None:
            clock = max(clock, snap["clock"])
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            gauges[name] = gauges.get(name, 0) + value
        for name, summary in snap.get("histograms", {}).items():
            into = histograms.setdefault(
                name,
                {"count": 0, "sum": 0, "min": None, "max": None, "mean": 0.0},
            )
            _fold_histogram(into, summary)
        if metrics is not None:
            metrics.folds += 1
    if metrics is not None:
        own = metrics.registry.snapshot()
        counters.update(own["counters"])
        gauges.update(own["gauges"])
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "clock": clock,
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }


def merge_timelines(results: list[ShardResult]) -> dict | None:
    """Fold per-shard ``repro.timeline/v1`` documents into one.

    Returns None when no shard carried a timeline.  All shards of one
    run sample the same cadence from the same construction time, so
    samples align on interval *index*; shards whose documents disagree
    on ``t0`` or ``interval`` cannot be aligned and raise
    ``ValueError``.  Within an index bucket ``t``/``dt`` take the max
    (the bucket is covered when its slowest shard is).  The merged
    document validates against :func:`repro.obs.timeline.validate_timeline`.
    """
    from repro.obs.timeline import SCHEMA as TIMELINE_SCHEMA
    from repro.obs.timeline import SCHEMA_VERSION as TIMELINE_VERSION

    ordered = [
        r for r in sorted(results, key=lambda r: r.shard_id)
        if r.timeline is not None
    ]
    if not ordered:
        return None
    base = ordered[0].timeline
    buckets: dict[int, dict] = {}
    breaches: list[dict] = []
    dropped = 0
    capacity = 0
    for result in ordered:
        doc = result.timeline
        if (doc["t0"], doc["interval"]) != (base["t0"], base["interval"]):
            raise ValueError(
                f"shard {result.shard_id} timeline (t0={doc['t0']}, "
                f"interval={doc['interval']}) does not align with shard "
                f"{ordered[0].shard_id} (t0={base['t0']}, "
                f"interval={base['interval']})"
            )
        dropped += doc["dropped"]
        capacity = max(capacity, doc["capacity"])
        for sample in doc["samples"]:
            into = buckets.setdefault(sample["index"], {
                "index": sample["index"], "t": 0, "dt": 0,
                "counters": {}, "gauges": {}, "histograms": {},
            })
            into["t"] = max(into["t"], sample["t"])
            into["dt"] = max(into["dt"], sample["dt"])
            for name, value in sample["counters"].items():
                into["counters"][name] = (
                    into["counters"].get(name, 0) + value
                )
            for name, value in sample["gauges"].items():
                into["gauges"][name] = into["gauges"].get(name, 0) + value
            for name, row in sample["histograms"].items():
                fold = into["histograms"].setdefault(
                    name, {"count": 0, "sum": 0}
                )
                fold["count"] += row["count"]
                fold["sum"] += row["sum"]
                for key, value in row.items():
                    if not key.startswith("p") or value is None:
                        continue
                    prior = fold.get(key)
                    fold[key] = (
                        value if prior is None else max(prior, value)
                    )
        for breach in doc["breaches"]:
            breaches.append({**breach, "shard_id": result.shard_id})
    samples = [
        {
            **bucket,
            "counters": dict(sorted(bucket["counters"].items())),
            "gauges": dict(sorted(bucket["gauges"].items())),
            "histograms": dict(sorted(bucket["histograms"].items())),
        }
        for _, bucket in sorted(buckets.items())
    ]
    breaches.sort(key=lambda b: (b["t"], b["shard_id"], b["rule"]))
    return {
        "schema": TIMELINE_SCHEMA,
        "schema_version": TIMELINE_VERSION,
        "t0": base["t0"],
        "interval": base["interval"],
        "capacity": capacity,
        "dropped": dropped,
        "n_shards": len(ordered),
        "samples": samples,
        "breaches": breaches,
    }


def merge_audits(results: list[ShardResult]) -> dict:
    """Fold per-shard audit summaries: totals plus per-shard rows."""
    ordered = sorted(results, key=lambda r: r.shard_id)
    merged = {"seen": 0, "denials": 0, "per_shard": []}
    for result in ordered:
        for key in ("seen", "denials"):
            merged[key] += result.audit.get(key, 0)
        merged["per_shard"].append(
            {"shard_id": result.shard_id, **result.audit}
        )
    return merged
