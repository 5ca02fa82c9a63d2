"""E20 — the time-series telemetry plane: interval timeline sampler,
SLO health monitor, and the cross-shard timeline merge.

The observability contract extends to the time axis: turning the
sampler on changes **nothing** the simulation computes (the simulated
clock and every report number are identical on or off — sampling reads
instruments, never charges cycles), and everything it records is a
simulated quantity, so timelines are byte-reproducible per shard and
merged.  Four legs:

* **overhead** — the same workload with the timeline off and on:
  identical end clock, identical report, bounded wall-clock overhead;
* **chaos** — a 10k-user run under a timed storm (CPU lost, then
  restored): the HealthMonitor's breach log is confined to the storm
  window, every post-recovery sample is breach-free, and the timeline
  itself shows the throughput (busy-cycle density) collapse and
  recovery aligned with the scenario storyboard;
* **determinism** — same seed → byte-identical timeline documents;
  same seed + shard count → byte-identical merged canonical JSON
  across repeat sharded runs;
* **1-shard identity** — a 1-shard serial run's timeline equals the
  in-process driver's document byte for byte.

The chaos leg also checks audit completeness — the paper's guarantee
that every *deny* is recorded — after the storm: the audit log's
refused gate calls must equal the per-gate meters' denial count, and
its ACL/MAC refusals the reference monitor's own count.  An SLO rule
cannot make that comparison (rules read one metric each), so it is a
post-run check rather than a rule.
"""

import json
import os
import pathlib
import time

from repro import MulticsSystem, kernel_config
from repro.workloads import WorkloadDriver, generate_population, run_sharded

SEED = 1975
N_CPUS = 2
INTERVAL = 10_000
USERS_SMALL = 400
USERS_CHAOS = 10_000
USERS_CHAOS_QUICK = 1_000

#: Same memory hierarchy as E18/E19, so this bench's workload numbers
#: are comparable with the engine benches.
FRAMES = dict(page_size=16, core_frames=16384, bulk_frames=32768,
              disk_frames=65536)

#: The SLO rule set: capacity floor (breaches exactly while a CPU is
#: out) and job-failure ceiling (never breaches — faults cost time,
#: not data).
RULES = [
    {"name": "capacity", "kind": "gauge_floor",
     "metric": "smp.cpus", "min": N_CPUS},
    {"name": "no_job_failures", "kind": "rate_ceiling",
     "metric": "smp.jobs_failed", "max": 0},
]

#: Storm storyboard offsets (simulated cycles from the engine's t0)
#: for a 1k-user run: one CPU out at LOSS_AT, back at RESTORE_AT.
#: ``storm_offsets`` scales them with the population so the window
#: lands mid-execution at every scale (a 10k-user run spends the
#: first few million cycles admitting users; a storm placed there
#: would degrade an idle machine).
LOSS_AT = 400_000
RESTORE_AT = 1_200_000


def storm_offsets(n_users):
    scale = max(1, n_users // USERS_CHAOS_QUICK)
    return LOSS_AT * scale, RESTORE_AT * scale


def chaos_interval(n_users):
    """Sampling interval for the chaos leg, scaled with the population
    like the storm offsets so the whole run — storm window included —
    fits the sample ring instead of evicting its own evidence."""
    return INTERVAL * max(1, n_users // USERS_CHAOS_QUICK)

#: Wall-overhead ceiling for the sampler (ratio of sampled to
#: unsampled wall time).  Generous — wall clocks are noisy — but a
#: regression that makes polling O(samples·instruments) would blow
#: through it.
WALL_OVERHEAD_CEILING = 1.5


def _config(timeline=None):
    return kernel_config(timeline=timeline, **FRAMES)


def _timeline_spec(capacity=1024, interval=INTERVAL):
    return {"interval": interval, "capacity": capacity, "rules": RULES}


def run_workload(n_users, timeline=None, seed=SEED):
    """(system, report) for one in-process driver run."""
    system = MulticsSystem(_config(timeline)).boot()
    driver = WorkloadDriver(system, n_cpus=N_CPUS, batch_size=32)
    report = driver.run(generate_population(n_users, seed=seed))
    return system, report


def overhead_leg(n_users=USERS_SMALL):
    """Sampler on/off: identical simulation, bounded wall overhead."""
    t0 = time.perf_counter()
    sys_off, rep_off = run_workload(n_users)
    wall_off = time.perf_counter() - t0
    t0 = time.perf_counter()
    sys_on, rep_on = run_workload(n_users, timeline=_timeline_spec())
    wall_on = time.perf_counter() - t0

    def sim_only(report):
        doc = report.to_dict()
        for wall_key in ("wall_seconds", "users_per_sec", "cycles_per_sec"):
            doc.pop(wall_key, None)
        return doc

    identical = (rep_off.end_clock == rep_on.end_clock
                 and sim_only(rep_off) == sim_only(rep_on))
    doc = sys_on.timeline_document()
    ratio = wall_on / wall_off if wall_off else 0.0
    return {
        "clock_identical": identical,
        "end_clock": rep_on.end_clock,
        "samples": len(doc["samples"]),
        "wall_off_seconds": round(wall_off, 4),
        "wall_on_seconds": round(wall_on, 4),
        "wall_overhead_ratio": round(ratio, 3),
    }


def chaos_run(n_users, seed=SEED):
    """One run under the timed loss/restore storm, timeline on."""
    system = MulticsSystem(
        _config(_timeline_spec(interval=chaos_interval(n_users)))
    ).boot()
    driver = WorkloadDriver(system, n_cpus=N_CPUS, batch_size=32)
    loss_at, restore_at = storm_offsets(n_users)
    scenario = {
        "name": "e20-storm", "seed": 7,
        "controllers": [{"type": "timed", "events": [
            {"at": loss_at, "site": "cpu.loss", "kind": "offline"},
            {"at": restore_at, "site": "cpu.restore", "kind": "online"},
        ]}],
    }
    engine = system.chaos_engine(scenario, complex_=driver.complex)
    driver.on_round = engine.step
    report = driver.run(generate_population(n_users, seed=seed))
    return system, report, engine, system.timeline_document()


def busy_density(samples, lo, hi):
    """Executed cycles per elapsed cycle over samples in [lo, hi] —
    the timeline's own throughput view."""
    busy = elapsed = 0
    for sample in samples:
        if lo <= sample["t"] <= hi:
            busy += sample["counters"].get("smp.busy_cycles", 0)
            elapsed += sample["dt"]
    return busy / elapsed if elapsed else 0.0


def chaos_leg(n_users):
    """The storm's degradation window, read from the timeline."""
    system, report, engine, doc = chaos_run(n_users)
    # The raw timeline document is itself an export: the schema guard
    # (scripts/check_bench_schema.py) validates it by its schema tag.
    results = pathlib.Path(__file__).parent / "results"
    results.mkdir(exist_ok=True)
    (results / "timeline_e20.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )
    loss_t = next(t for t, s, _ in engine.applied if s == "cpu.loss")
    restore_t = next(t for t, s, _ in engine.applied if s == "cpu.restore")
    breaches = doc["breaches"]
    # Breaches land at sample times; the first sample at or after the
    # restore may still cover pre-restore time, hence the one-interval
    # grace on the right edge.
    confined = all(
        loss_t <= b["t"] <= restore_t + doc["interval"] for b in breaches
    )
    post = [s for s in doc["samples"]
            if s["t"] > restore_t + doc["interval"]]
    recovered = bool(post) and all(
        s["gauges"].get("smp.cpus") == N_CPUS for s in post
    )
    density_in = busy_density(doc["samples"], loss_t, restore_t)
    density_after = busy_density(
        doc["samples"], restore_t + doc["interval"], report.end_clock
    )
    checks = system.services.audit_cross_check()
    return {
        "users": n_users,
        "jobs_completed": report.jobs_completed,
        "jobs_failed": report.jobs_failed,
        "events_applied": len(engine.applied),
        "loss_t": loss_t,
        "restore_t": restore_t,
        "breaches": len(breaches),
        "breach_rules": sorted({b["rule"] for b in breaches}),
        "breaches_confined": confined,
        "recovered_after": recovered,
        "busy_density_storm": round(density_in, 3),
        "busy_density_after": round(density_after, 3),
        "audit_denials": system.audit.denials,
        "audit_complete": all(a == c for a, c in checks.values()),
    }, system.metrics.snapshot()


def determinism_legs(n_users=USERS_SMALL):
    """Byte-identity: repeat runs, sharded repeats, 1-shard == driver."""
    sys_a, _ = run_workload(n_users, timeline=_timeline_spec())
    sys_b, _ = run_workload(n_users, timeline=_timeline_spec())
    doc_a = json.dumps(sys_a.timeline_document(), sort_keys=True)
    doc_b = json.dumps(sys_b.timeline_document(), sort_keys=True)

    config = _config(_timeline_spec())
    sharded_a = run_sharded(n_users, 2, SEED, config, mode="serial",
                            n_cpus=N_CPUS, batch_size=32)
    sharded_b = run_sharded(n_users, 2, SEED, config, mode="serial",
                            n_cpus=N_CPUS, batch_size=32)
    one_shard = run_sharded(n_users, 1, SEED, config, mode="serial",
                            n_cpus=N_CPUS, batch_size=32)
    shard_doc = json.dumps(one_shard.shards[0].timeline, sort_keys=True)
    return {
        "same_seed_identical": doc_a == doc_b,
        "sharded_identical":
            sharded_a.canonical_json() == sharded_b.canonical_json(),
        "merged_has_timeline": sharded_a.timeline is not None,
        "merged_shards": (sharded_a.timeline or {}).get("n_shards"),
        "one_shard_matches_driver": shard_doc == doc_a,
    }


def test_e20_timeline(report, export):
    t0 = time.perf_counter()

    overhead = overhead_leg()
    assert overhead["clock_identical"], \
        "sampler on/off must not change the simulation"
    assert overhead["samples"] > 0

    chaos, snapshot = chaos_leg(USERS_CHAOS_QUICK)
    assert chaos["jobs_completed"] == USERS_CHAOS_QUICK
    assert chaos["jobs_failed"] == 0
    assert chaos["events_applied"] == 2
    assert chaos["breaches"] > 0, "the storm must register in the log"
    assert chaos["breach_rules"] == ["capacity"], \
        "only the capacity floor may breach: faults cost time, not data"
    assert chaos["breaches_confined"], \
        "breaches must be confined to the storm window"
    assert chaos["recovered_after"], \
        "every post-recovery sample must show full capacity"
    assert 0 < chaos["busy_density_storm"] < chaos["busy_density_after"], \
        "the timeline must show a loaded machine degrading, not an idle one"
    assert chaos["audit_complete"], \
        "the audit log must agree with the meters and the monitor"

    determinism = determinism_legs()
    assert all(determinism[k] for k in (
        "same_seed_identical", "sharded_identical",
        "merged_has_timeline", "one_shard_matches_driver",
    ))

    wall = time.perf_counter() - t0
    export("E20", snapshot, extra={
        **{f"overhead_{k}": v for k, v in overhead.items()},
        **{f"chaos_{k}": v for k, v in chaos.items()},
        **determinism,
        "wall_seconds": round(wall, 4),
    })
    report("E20", [
        "E20: interval timeline + SLO health monitor (sampling reads",
        "     instruments only: simulated results identical on/off)",
        f"  chaos: {chaos['breaches']} breaches confined to "
        f"[{chaos['loss_t']}, {chaos['restore_t']}] cycles",
        f"  busy density {chaos['busy_density_storm']} in-storm vs "
        f"{chaos['busy_density_after']} recovered",
        "  same-seed timelines byte-identical; 1-shard == driver",
    ])


def bench_numbers(quick: bool = False) -> tuple[dict, dict]:
    """(derived numbers, snapshot) for scripts/run_benches.py.

    ``quick`` shrinks the chaos leg to 1k users so a local ``--quick``
    run stays interactive; the full run is the 10k-user storm.
    """
    t0 = time.perf_counter()
    overhead = overhead_leg()
    if not overhead["clock_identical"]:
        raise AssertionError("sampler on/off changed the simulation")
    if overhead["wall_overhead_ratio"] > WALL_OVERHEAD_CEILING:
        raise AssertionError(
            f"sampler wall overhead {overhead['wall_overhead_ratio']}x "
            f"exceeds the {WALL_OVERHEAD_CEILING}x ceiling"
        )

    users = USERS_CHAOS_QUICK if quick else USERS_CHAOS
    chaos, snapshot = chaos_leg(users)
    for key in ("breaches_confined", "recovered_after", "audit_complete"):
        if not chaos[key]:
            raise AssertionError(f"chaos leg failed {key}")
    if chaos["jobs_completed"] != users or chaos["jobs_failed"]:
        raise AssertionError("storm must cost time, never jobs")
    if not chaos["breaches"]:
        raise AssertionError("the storm must register in the breach log")
    if not 0 < chaos["busy_density_storm"] < chaos["busy_density_after"]:
        raise AssertionError(
            "the storm window must show a loaded machine degrading"
        )

    determinism = determinism_legs()
    for key, value in determinism.items():
        if key != "merged_shards" and not value:
            raise AssertionError(f"determinism leg failed {key}")

    derived = {
        "cores": os.cpu_count() or 1,
        **{f"overhead_{k}": v for k, v in overhead.items()},
        **{f"chaos_{k}": v for k, v in chaos.items()},
        **determinism,
        "wall_seconds": round(time.perf_counter() - t0, 4),
    }
    return derived, snapshot


def main():  # pragma: no cover - manual entry point
    derived, _ = bench_numbers(quick=True)
    print(json.dumps(derived, indent=2))


if __name__ == "__main__":  # pragma: no cover
    main()
