"""Tests for shard-parallel workload execution (repro.workloads.sharded
and the shards/ plumbing): the stable UID partition, the picklable wire
format, the deterministic merge folds, and the orchestrator end to end
at small scale — serial, 1-shard-equivalence, and one real spawn-pool
run.
"""

import json
import pickle

import pytest

from repro import MulticsSystem, kernel_config
from repro.obs import validate_snapshot
from repro.workloads import (
    ShardSpec,
    WorkloadDriver,
    WorkloadReport,
    assign_shard,
    generate_population,
    partition_population,
    run_sharded,
)
from repro.workloads.shards import (
    MergeMetrics,
    ShardResult,
    materialize_population,
    merge_audits,
    merge_reports,
    merge_snapshots,
    merge_timelines,
    run_shard,
)

N_SMOKE = 20
SEED = 1975


class TestPartition:
    def test_assignment_is_stable_and_in_range(self):
        for n_shards in (1, 2, 3, 8):
            for i in range(64):
                person = f"U{i:05d}"
                shard = assign_shard(person, n_shards)
                assert 0 <= shard < n_shards
                assert shard == assign_shard(person, n_shards)

    def test_one_shard_takes_everyone(self):
        assert all(
            assign_shard(f"U{i:05d}", 1) == 0 for i in range(32)
        )

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError):
            assign_shard("U00000", 0)

    def test_partition_covers_population_exactly_once(self):
        population = generate_population(100, seed=SEED)
        slices = partition_population(population, 4)
        assert len(slices) == 4
        rejoined = [spec for part in slices for spec in part]
        assert sorted(rejoined, key=lambda s: s.person) == sorted(
            population, key=lambda s: s.person
        )
        # UID-hash balance is rough, but no shard should be empty or
        # hold everything at this size.
        sizes = [len(part) for part in slices]
        assert all(0 < size < 100 for size in sizes)

    def test_partition_is_independent_of_input_order(self):
        population = generate_population(60, seed=SEED)
        forward = partition_population(population, 3)
        backward = partition_population(list(reversed(population)), 3)
        for a, b in zip(forward, backward):
            assert sorted(a, key=lambda s: s.person) == sorted(
                b, key=lambda s: s.person
            )


class TestShardSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardSpec(shard_id=0, n_shards=0, seed=1, n_users=10)
        with pytest.raises(ValueError):
            ShardSpec(shard_id=2, n_shards=2, seed=1, n_users=10)
        with pytest.raises(ValueError):
            ShardSpec(shard_id=0, n_shards=1, seed=1, n_users=-1)

    def test_spec_and_result_pickle(self):
        spec = ShardSpec(shard_id=1, n_shards=2, seed=SEED, n_users=100,
                         config=kernel_config())
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        result = ShardResult(
            shard_id=1,
            report=WorkloadReport(users=3, admitted=3),
            snapshot={"counters": {"a.b": 1}},
            audit={"seen": 2, "denials": 1},
        )
        back = pickle.loads(pickle.dumps(result))
        assert back.shard_id == 1
        assert back.report.admitted == 3
        assert back.audit["denials"] == 1

    def test_materialize_slices_union_to_the_population(self):
        population = generate_population(80, seed=SEED)
        specs = [
            ShardSpec(shard_id=k, n_shards=3, seed=SEED, n_users=80)
            for k in range(3)
        ]
        rejoined = [
            user for spec in specs for user in materialize_population(spec)
        ]
        assert sorted(rejoined, key=lambda s: s.person) == sorted(
            population, key=lambda s: s.person
        )

    def test_materialize_one_shard_is_the_full_population(self):
        spec = ShardSpec(shard_id=0, n_shards=1, seed=SEED, n_users=40)
        assert materialize_population(spec) == generate_population(
            40, seed=SEED
        )

    def test_explicit_users_bypass_regeneration_and_filter(self):
        users = tuple(generate_population(6, seed=3))
        spec = ShardSpec(shard_id=0, n_shards=4, seed=SEED, n_users=6,
                         users=users)
        assert materialize_population(spec) == list(users)


def _result(shard_id, *, counters=None, gauges=None, histograms=None,
            clock=0, report=None, audit=None):
    return ShardResult(
        shard_id=shard_id,
        report=report or WorkloadReport(),
        snapshot={
            "schema": "repro.obs/v1", "schema_version": 1, "clock": clock,
            "counters": counters or {}, "gauges": gauges or {},
            "histograms": histograms or {},
        },
        audit=audit or {"seen": 0, "denials": 0},
    )


class TestMerge:
    def test_reports_fold_in_shard_id_order(self):
        a = WorkloadReport(users=2, admitted=2, jobs_completed=2,
                           start_clock=5, end_clock=50,
                           latencies=[1, 2])
        b = WorkloadReport(users=3, admitted=2, login_failures=1,
                           jobs_completed=1, jobs_failed=1,
                           start_clock=3, end_clock=80,
                           latencies=[9])
        # Completion order reversed: shard_id order must win.
        merged = merge_reports([
            _result(1, report=b), _result(0, report=a),
        ])
        assert merged.users == 5
        assert merged.admitted == 4
        assert merged.login_failures == 1
        assert merged.jobs_completed == 3
        assert merged.jobs_failed == 1
        assert merged.start_clock == 3
        assert merged.end_clock == 80
        assert merged.latencies == [1, 2, 9]
        assert merged.wall_seconds == 0.0  # stamped by the orchestrator

    def test_snapshots_sum_counters_and_gauges(self):
        merged = merge_snapshots([
            _result(0, counters={"x.a": 2, "x.b": 1}, gauges={"g.l": 3},
                    clock=10),
            _result(1, counters={"x.a": 5}, gauges={"g.l": 4, "g.m": 1},
                    clock=40),
        ])
        assert merged["counters"] == {"x.a": 7, "x.b": 1}
        assert merged["gauges"] == {"g.l": 7, "g.m": 1}
        assert merged["clock"] == 40
        assert validate_snapshot(merged) == []

    def test_histograms_fold_and_mean_recomputes(self):
        h0 = {"count": 2, "sum": 10, "min": 2, "max": 8, "mean": 5.0}
        h1 = {"count": 3, "sum": 30, "min": 1, "max": 20, "mean": 10.0}
        empty = {"count": 0, "sum": 0, "min": None, "max": None,
                 "mean": 0.0}
        merged = merge_snapshots([
            _result(0, histograms={"w.lat": h0, "w.idle": empty}),
            _result(1, histograms={"w.lat": h1}),
        ])
        assert merged["histograms"]["w.lat"] == {
            "count": 5, "sum": 40, "min": 1, "max": 20, "mean": 8.0,
        }
        assert merged["histograms"]["w.idle"] == empty

    def test_merge_metrics_inject_shard_names(self):
        metrics = MergeMetrics()
        metrics.shards = 2
        metrics.users = 100
        merged = merge_snapshots(
            [_result(0), _result(1)], metrics
        )
        assert merged["gauges"]["shard.count"] == 2
        assert merged["counters"]["shard.users"] == 100
        assert merged["counters"]["shard.merge.folds"] == 2
        assert merged["counters"]["shard.spawn_failures"] == 0
        assert validate_snapshot(merged) == []

    def test_audits_sum_with_per_shard_rows(self):
        merged = merge_audits([
            _result(1, audit={"seen": 10, "denials": 4}),
            _result(0, audit={"seen": 7, "denials": 2}),
        ])
        assert merged["seen"] == 17
        assert merged["denials"] == 6
        assert [row["shard_id"] for row in merged["per_shard"]] == [0, 1]


class TestRunSharded:
    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            run_sharded(4, 1, SEED, mode="threads")
        with pytest.raises(ValueError, match="shard"):
            run_sharded(4, 0, SEED)

    def test_serial_small_end_to_end(self):
        sharded = run_sharded(N_SMOKE, 2, SEED, mode="serial")
        assert sharded.mode == "serial"
        assert sharded.n_shards == 2
        report = sharded.report
        assert report.users == N_SMOKE
        assert report.admitted == N_SMOKE
        assert report.jobs_completed == N_SMOKE
        assert report.jobs_failed == 0
        assert len(report.latencies) == N_SMOKE
        assert validate_snapshot(sharded.snapshot) == []
        assert sharded.audit["seen"] > 0
        assert len(sharded.audit["per_shard"]) == 2
        assert sharded.wall_seconds > 0
        # workload.* counters folded across both shard systems.
        assert sharded.snapshot["counters"]["workload.logins"] == N_SMOKE

    def test_same_seed_same_bytes(self):
        a = run_sharded(N_SMOKE, 2, SEED, mode="serial")
        b = run_sharded(N_SMOKE, 2, SEED, mode="serial")
        assert a.canonical_json() == b.canonical_json()
        c = run_sharded(N_SMOKE, 2, SEED + 1, mode="serial")
        assert a.canonical_json() != c.canonical_json()

    def test_wall_clock_stays_out_of_the_canonical_doc(self):
        sharded = run_sharded(N_SMOKE, 2, SEED, mode="serial")
        canonical = json.dumps(sharded.canonical_dict())
        assert "wall" not in canonical
        assert "users_per_sec" not in canonical
        full = sharded.to_dict()
        assert "wall_seconds" in full
        assert "shard_walls" in full

    def test_one_shard_equals_the_plain_driver(self):
        system = MulticsSystem(kernel_config()).boot()
        direct = WorkloadDriver(system, n_cpus=2).run(
            generate_population(N_SMOKE, seed=SEED)
        )
        direct_snapshot = system.metrics.snapshot()
        sharded = run_sharded(N_SMOKE, 1, SEED, n_cpus=2)
        assert sharded.mode == "serial"  # auto: 1 shard stays in-process
        merged = sharded.report
        assert merged.admitted == direct.admitted
        assert merged.start_clock == direct.start_clock
        assert merged.end_clock == direct.end_clock
        assert merged.latencies == direct.latencies
        assert sharded.shards[0].snapshot == direct_snapshot

    def test_run_shard_is_a_pure_function_of_its_spec(self):
        spec = ShardSpec(shard_id=0, n_shards=2, seed=SEED,
                         n_users=N_SMOKE, config=kernel_config(),
                         n_cpus=2)
        a = run_shard(spec)
        b = run_shard(spec)
        assert a.snapshot == b.snapshot
        assert a.report.latencies == b.report.latencies
        assert a.audit == b.audit

    def test_explicit_population_pre_partitions(self):
        population = generate_population(N_SMOKE, seed=SEED)
        sharded = run_sharded(0, 2, SEED, mode="serial",
                              population=population)
        assert sharded.report.users == N_SMOKE
        assert sharded.report.admitted == N_SMOKE

    def test_unimportable_main_falls_back_instead_of_hanging(self, monkeypatch):
        """A stdin-sourced __main__ (python - <<EOF, process
        substitution) cannot be replayed by spawn: Pool would respawn
        crashing workers forever.  The guard must refuse the pool up
        front so auto mode degrades to serial — and a forced
        ``processes`` run must raise rather than hang."""
        import sys

        monkeypatch.setattr(
            sys.modules["__main__"], "__file__", "/tmp/<stdin>",
            raising=False,
        )
        sharded = run_sharded(N_SMOKE, 2, SEED)
        assert sharded.mode == "serial"
        assert sharded.snapshot["counters"]["shard.spawn_failures"] == 1
        with pytest.raises(RuntimeError, match="re-importable"):
            run_sharded(N_SMOKE, 2, SEED, mode="processes")

    def test_process_pool_matches_serial_bytes(self):
        """One real spawn-pool run: scheduling must not leak into the
        merged bytes, and the pool must actually engage (or fall back
        gracefully where the sandbox forbids it — both are recorded)."""
        pooled = run_sharded(N_SMOKE, 2, SEED)
        serial = run_sharded(N_SMOKE, 2, SEED, mode="serial")
        assert pooled.mode in ("processes", "serial")
        if pooled.mode == "serial":
            # The fallback path must have been counted.
            spawn_failures = pooled.snapshot["counters"][
                "shard.spawn_failures"
            ]
            assert spawn_failures == 1
        assert pooled.canonical_json() == serial.canonical_json()


class TestMergeEdgeCases:
    """Degenerate shard results the folds must absorb, not trip over."""

    def test_empty_shard_result_is_the_identity(self):
        # A shard whose slice got no users: default report, empty
        # tables, empty audit.  Folding it in changes nothing.
        busy = _result(0, counters={"x.a": 3}, gauges={"g.l": 2},
                       clock=40,
                       report=WorkloadReport(users=2, admitted=2,
                                             start_clock=1, end_clock=40),
                       audit={"seen": 5, "denials": 1})
        idle = _result(1)
        merged = merge_snapshots([busy, idle])
        assert merged["counters"] == {"x.a": 3}
        assert merged["gauges"] == {"g.l": 2}
        assert merged["clock"] == 40
        report = merge_reports([busy, idle])
        assert (report.users, report.admitted) == (2, 2)
        audit = merge_audits([busy, idle])
        assert (audit["seen"], audit["denials"]) == (5, 1)
        assert len(audit["per_shard"]) == 2

    def test_disjoint_metric_names_union(self):
        # Shards need not register the same instruments (a chaos
        # controller only wired on shard 0, say): the fold is a union,
        # with absent names contributing nothing.
        merged = merge_snapshots([
            _result(0, counters={"only.left": 2}, gauges={"l.g": 1}),
            _result(1, counters={"only.right": 5}, gauges={"r.g": 4}),
        ])
        assert merged["counters"] == {"only.left": 2, "only.right": 5}
        assert merged["gauges"] == {"l.g": 1, "r.g": 4}
        assert validate_snapshot(merged) == []

    def test_zero_sample_histogram_folds_to_empty(self):
        empty = {"count": 0, "sum": 0, "min": None, "max": None,
                 "mean": 0.0}
        merged = merge_snapshots([
            _result(0, histograms={"w.lat": dict(empty)}),
            _result(1, histograms={"w.lat": dict(empty)}),
        ])
        assert merged["histograms"]["w.lat"] == empty

    def test_empty_audits_sum_to_zero(self):
        merged = merge_audits([_result(0), _result(1)])
        assert (merged["seen"], merged["denials"]) == (0, 0)
        assert [row["shard_id"] for row in merged["per_shard"]] == [0, 1]

    def test_timeline_merge_skips_timelineless_shards(self):
        doc = {
            "schema": "repro.timeline/v1", "schema_version": 1,
            "t0": 0, "interval": 100, "capacity": 8, "dropped": 0,
            "samples": [{"index": 1, "t": 100, "dt": 100,
                         "counters": {"x.a": 2}, "gauges": {},
                         "histograms": {}}],
            "breaches": [],
        }
        with_tl = _result(0)
        with_tl.timeline = doc
        without = _result(1)
        merged = merge_timelines([without, with_tl])
        assert merged["n_shards"] == 1
        assert merged["samples"][0]["counters"] == {"x.a": 2}

    def test_timeline_zero_sample_histogram_row_folds(self):
        base = {
            "schema": "repro.timeline/v1", "schema_version": 1,
            "t0": 0, "interval": 100, "capacity": 8, "dropped": 0,
            "breaches": [],
        }
        a = _result(0)
        a.timeline = dict(base, samples=[
            {"index": 1, "t": 100, "dt": 100, "counters": {},
             "gauges": {},
             "histograms": {"h.x": {"count": 0, "sum": 0,
                                    "p50": None, "p95": None}}},
        ])
        b = _result(1)
        b.timeline = dict(base, samples=[
            {"index": 1, "t": 120, "dt": 120, "counters": {},
             "gauges": {},
             "histograms": {"h.x": {"count": 2, "sum": 9,
                                    "p50": 4, "p95": 5}}},
        ])
        merged = merge_timelines([a, b])
        [row] = merged["samples"]
        assert row["histograms"]["h.x"] == \
            {"count": 2, "sum": 9, "p50": 4, "p95": 5}
