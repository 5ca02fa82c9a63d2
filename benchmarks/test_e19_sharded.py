"""E19 — shard-parallel workload execution: past one Python process's
ceiling, the population partitions by user UID across N OS-process
shards (:func:`repro.workloads.run_sharded`), each an independent
deterministically seeded system + driver, merged back into one global
report whose bytes are independent of worker scheduling order.

Measured: admitted users/sec at 1, 2, and 4 shards, plus a 100k-user
end-to-end leg — ten times E18's ceiling.  Guarded by three identity
legs that make the throughput claim citable:

* 1 shard in-process equals the unsharded ``WorkloadDriver`` exactly
  (same report numbers, same ``repro.obs/v1`` snapshot);
* same seed + same shard count → byte-identical canonical documents
  across repeat runs;
* the serial fallback (``mode="serial"``) produces the same bytes as
  the process pool — losing ``multiprocessing`` degrades speed only.

The >= 1.8x speedup floor at 2 shards applies on hosts with >= 2 cores
(OS processes cannot beat the core count); single-core hosts export
their honest numbers with ``speedup_asserted: false``.
"""

import json
import os
import time

from repro import MulticsSystem, kernel_config
from repro.workloads import WorkloadDriver, generate_population, run_sharded

SPEEDUP_FLOOR_2SHARD = 1.8
SEED = 1975
N_CPUS = 2
USERS_EQUIV = 600
USERS_SCALE = 10_000
USERS_SCALE_QUICK = 1_000
USERS_100K = 100_000
SHARDS_100K = 4

#: Same memory hierarchy as E18, so per-shard behaviour matches the
#: single-process engine the equivalence leg compares against.
FRAMES = dict(page_size=16, core_frames=16384, bulk_frames=32768,
              disk_frames=65536)


def _config():
    return kernel_config(**FRAMES)


def sharded_run(n_users: int, n_shards: int, mode: str = "auto",
                seed: int = SEED):
    return run_sharded(n_users, n_shards, seed, _config(),
                       mode=mode, n_cpus=N_CPUS)


def one_shard_equivalent(n_users: int, seed: int = SEED) -> bool:
    """1-shard-in-process vs the plain driver: same computation."""
    system = MulticsSystem(_config()).boot()
    direct = WorkloadDriver(system, n_cpus=N_CPUS).run(
        generate_population(n_users, seed=seed)
    )
    direct_snapshot = system.metrics.snapshot()
    sharded = sharded_run(n_users, 1)
    merged = sharded.report
    return (
        sharded.mode == "serial"
        and merged.users == direct.users
        and merged.admitted == direct.admitted
        and merged.login_failures == direct.login_failures
        and merged.jobs_completed == direct.jobs_completed
        and merged.jobs_failed == direct.jobs_failed
        and merged.start_clock == direct.start_clock
        and merged.end_clock == direct.end_clock
        and merged.latencies == direct.latencies
        and sharded.shards[0].snapshot == direct_snapshot
    )


def test_e19_sharded(report, export):
    t0 = time.perf_counter()
    cores = os.cpu_count() or 1

    # (a) 1 shard in-process == the unsharded driver, exactly.
    assert one_shard_equivalent(USERS_EQUIV)

    # (b) scaling legs at a bench-sized population; every user admitted
    # and completed at every shard count.
    n = 1_200
    runs = {k: sharded_run(n, k) for k in (1, 2)}
    for run in runs.values():
        assert run.report.admitted == n
        assert run.report.jobs_completed == n
        assert run.report.jobs_failed == 0

    # (c) deterministic merge: repeat run and serial fallback are
    # byte-identical to the process-pool run.
    again = sharded_run(n, 2)
    serial = sharded_run(n, 2, mode="serial")
    assert serial.mode == "serial"
    assert runs[2].canonical_json() == again.canonical_json()
    assert runs[2].canonical_json() == serial.canonical_json()

    # (d) informational speedup at this bench-sized population; the
    # hard >= 1.8x floor is enforced by bench_numbers() at full scale,
    # where spawn/boot overhead stops dominating the measurement.
    speedup = (runs[2].users_per_sec / runs[1].users_per_sec
               if runs[1].users_per_sec else 0.0)

    wall = time.perf_counter() - t0
    export("E19", runs[2].snapshot, extra={
        "cores": cores,
        "scale_users": n,
        "users_per_sec_1shard": round(runs[1].users_per_sec, 2),
        "users_per_sec_2shard": round(runs[2].users_per_sec, 2),
        "speedup_2shard": round(speedup, 3),
        "speedup_asserted": cores >= 2,
        "one_shard_equivalent": True,
        "deterministic_merge": True,
        "serial_fallback_identical": True,
        "wall_seconds": round(wall, 4),
    })
    report("E19", [
        "E19: shard-parallel workload (UID partition, OS-process",
        "     shards, deterministic merge)",
        f"  2-shard speedup at {n} users: {speedup:.2f}x "
        f"(floor {SPEEDUP_FLOOR_2SHARD}x on >=2 cores; host has {cores})",
        "  1-shard == unsharded driver; process == serial bytes",
    ])


def bench_numbers(quick: bool = False) -> tuple[dict, dict]:
    """(derived numbers, merged snapshot) for scripts/run_benches.py.

    ``quick`` shrinks the scaling legs and skips the 100k-user leg so
    a local ``--quick`` run stays interactive.
    """
    t0 = time.perf_counter()
    cores = os.cpu_count() or 1
    scale = USERS_SCALE_QUICK if quick else USERS_SCALE

    equivalent = one_shard_equivalent(USERS_EQUIV)

    runs = {k: sharded_run(scale, k) for k in (1, 2, 4)}
    serial = sharded_run(scale, 2, mode="serial")
    deterministic = (
        runs[2].canonical_json() == serial.canonical_json()
        and runs[2].canonical_json() == sharded_run(scale, 2).canonical_json()
    )
    rate = {k: run.users_per_sec for k, run in runs.items()}
    speedup_2 = rate[2] / rate[1] if rate[1] else 0.0
    speedup_4 = rate[4] / rate[1] if rate[1] else 0.0

    derived = {
        "cores": cores,
        "scale_users": scale,
        "users_per_sec_1shard": round(rate[1], 2),
        "users_per_sec_2shard": round(rate[2], 2),
        "users_per_sec_4shard": round(rate[4], 2),
        "speedup_2shard": round(speedup_2, 3),
        "speedup_4shard": round(speedup_4, 3),
        "speedup_asserted": cores >= 2,
        "one_shard_equivalent": equivalent,
        "deterministic_merge": deterministic,
        "mode_2shard": runs[2].mode,
    }
    # The floor only binds at full scale on a host that can express
    # parallelism — quick runs are overhead-dominated by design.
    if not quick and cores >= 2 and speedup_2 < SPEEDUP_FLOOR_2SHARD:
        raise AssertionError(
            f"2 shards {speedup_2:.2f}x < {SPEEDUP_FLOOR_2SHARD}x floor "
            f"on {cores} cores"
        )
    if not equivalent:
        raise AssertionError("1-shard run diverged from the plain driver")

    snapshot = runs[4].snapshot
    if not quick:
        big = sharded_run(USERS_100K, SHARDS_100K)
        derived.update({
            "users_100k": USERS_100K,
            "shards_100k": SHARDS_100K,
            "admitted_100k": big.report.admitted,
            "jobs_completed_100k": big.report.jobs_completed,
            "jobs_failed_100k": big.report.jobs_failed,
            "users_per_sec_100k": round(big.users_per_sec, 2),
            "p50_latency_cycles_100k": big.report.p50_latency,
            "p95_latency_cycles_100k": big.report.p95_latency,
            "mode_100k": big.mode,
        })
        snapshot = big.snapshot
    derived["wall_seconds"] = round(time.perf_counter() - t0, 4)
    return derived, snapshot


def main():  # pragma: no cover - manual entry point
    derived, _ = bench_numbers(quick=True)
    print(json.dumps(derived, indent=2))


if __name__ == "__main__":  # pragma: no cover
    main()
