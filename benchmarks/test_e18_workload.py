"""E18 — multi-user workload at scale: the kernel the paper describes
served an interactive time-sharing population, so the simulator must
sustain one.  A seeded population of mixed user profiles (shell,
compile, io, paging) logs in through the non-privileged E14 listener
path under a Poisson arrival process and runs its interactive bursts
through the SMP complex (:mod:`repro.workloads`).

Measured: wall-clock throughput (simulated cycles/sec and admitted
users/sec) at 1k and 10k users, asserting that the interpreter's
compiled superblocks (:class:`repro.hw.cpu.BlockTable`) run the 1k
population >= 2x faster in wall time than the same interpreter run one
instruction at a time (``tests.interpreter_oracle.per_instruction``) —
guarded by an architectural-equivalence leg: the two runs must produce
byte-identical grant/deny audit traces, job results, metrics snapshots,
and final simulated clocks, and the block run must match the 1k
fingerprint recorded from the pre-superblock classic core
(``tests/golden/interpreter.json``).  The speedup claim is only
citable because the runs are the same computation.
"""

import json
import time

from tests.interpreter_oracle import (
    WORKLOAD_SEED, load_golden, per_instruction, run_workload,
    workload_fingerprint,
)

SPEEDUP_FLOOR = 2.0
USERS_1K = 1_000
USERS_10K = 10_000
SEED = WORKLOAD_SEED


def workload_run(n_users: int, blocks: bool = True,
                 seed: int = SEED) -> dict:
    """Boot, drive a seeded population, return numbers + identity
    artifacts (trace/clock/snapshot serialized before the system is
    torn down, so a later boot's cam broadcasts cannot touch them).
    ``blocks=False`` runs every instruction one at a time."""
    if not blocks:
        with per_instruction():
            return workload_run(n_users, seed=seed)
    system, driver, report = run_workload(n_users, seed=seed)
    return {
        "report": report,
        "derived": report.to_dict(),
        "trace": [
            (r.action, r.object, r.outcome) for r in system.audit.records
        ],
        "final_clock": system.clock.now,
        "snapshot_json": system.metrics.to_json(),
        "fingerprint": workload_fingerprint(system, driver, report),
    }


def equivalent(block_run: dict, reference_run: dict) -> bool:
    """The architectural-equivalence guard: same traces, same clock,
    same snapshot, and the recorded 1k fingerprint."""
    return (
        block_run["trace"] == reference_run["trace"]
        and block_run["final_clock"] == reference_run["final_clock"]
        and block_run["snapshot_json"] == reference_run["snapshot_json"]
        and block_run["fingerprint"] == load_golden()["workload/1000"]
    )


def test_e18_workload(report, export):
    t0 = time.perf_counter()
    blocks_1k = workload_run(USERS_1K)
    reference_1k = workload_run(USERS_1K, blocks=False)

    # (a) equivalence: blocks on/off is the same computation, byte for
    # byte — grant/deny trace, final clock, metrics snapshot — and the
    # one the pre-superblock classic core recorded.
    assert blocks_1k["trace"] == reference_1k["trace"]
    assert blocks_1k["final_clock"] == reference_1k["final_clock"]
    assert blocks_1k["snapshot_json"] == reference_1k["snapshot_json"]
    assert blocks_1k["fingerprint"] == load_golden()["workload/1000"]

    # (b) nothing was refused or contained at 1k either way.
    for leg in (blocks_1k, reference_1k):
        d = leg["derived"]
        assert d["admitted"] == USERS_1K
        assert d["login_failures"] == 0
        assert d["jobs_failed"] == 0
        assert d["jobs_completed"] == USERS_1K

    # (c) blocks clear the wall-clock floor on the identical
    # computation.
    speedup = (reference_1k["report"].wall_seconds
               / blocks_1k["report"].wall_seconds)
    assert speedup >= SPEEDUP_FLOOR, (
        f"superblocks {speedup:.2f}x < {SPEEDUP_FLOOR}x floor"
    )

    # (d) scale: 10k users end-to-end, every one admitted, every burst
    # completed.
    blocks_10k = workload_run(USERS_10K)
    d10 = blocks_10k["derived"]
    assert d10["admitted"] == USERS_10K
    assert d10["login_failures"] == 0
    assert d10["jobs_failed"] == 0
    assert d10["jobs_completed"] == USERS_10K
    wall = time.perf_counter() - t0

    snapshot = json.loads(blocks_10k["snapshot_json"])
    d1 = blocks_1k["derived"]
    export("E18", snapshot, extra={
        "users_1k": USERS_1K,
        "users_10k": USERS_10K,
        "wall_speedup_1k": round(speedup, 3),
        "equivalent": True,
        "users_per_sec_1k": d1["users_per_sec"],
        "cycles_per_sec_1k": d1["cycles_per_sec"],
        "users_per_sec_10k": d10["users_per_sec"],
        "cycles_per_sec_10k": d10["cycles_per_sec"],
        "p50_latency_cycles_10k": d10["p50_latency_cycles"],
        "p95_latency_cycles_10k": d10["p95_latency_cycles"],
        "wall_seconds": round(wall, 4),
    })
    report("E18", [
        "E18: multi-user workload engine (seeded profiles, Poisson",
        "     arrivals, E14 bulk login, SMP batches)",
        f"  superblock vs per-instruction at {USERS_1K} users: "
        f"{speedup:.2f}x wall (floor {SPEEDUP_FLOOR}x), byte-identical "
        "traces/clock/snapshot, golden fingerprint matched",
        f"  {USERS_10K} users end-to-end: "
        f"{d10['users_per_sec']:.0f} users/sec, "
        f"{d10['cycles_per_sec']:.0f} simulated cycles/sec",
        f"  latency p50/p95 at 10k: {d10['p50_latency_cycles']} / "
        f"{d10['p95_latency_cycles']} cycles",
    ])


def bench_numbers(quick: bool = False) -> tuple[dict, dict]:
    """(derived numbers, metrics snapshot) for scripts/run_benches.py.

    ``quick`` skips the 10k-user leg (its keys are then absent) so a
    local ``--quick`` run stays interactive.
    """
    t0 = time.perf_counter()
    blocks_1k = workload_run(USERS_1K)
    reference_1k = workload_run(USERS_1K, blocks=False)
    d1 = blocks_1k["derived"]
    derived = {
        "users_1k": USERS_1K,
        "equivalent": equivalent(blocks_1k, reference_1k),
        "wall_speedup_1k": round(
            reference_1k["report"].wall_seconds
            / blocks_1k["report"].wall_seconds, 3,
        ),
        "users_per_sec_1k": d1["users_per_sec"],
        "cycles_per_sec_1k": d1["cycles_per_sec"],
    }
    snapshot = json.loads(blocks_1k["snapshot_json"])
    if not quick:
        blocks_10k = workload_run(USERS_10K)
        d10 = blocks_10k["derived"]
        derived.update({
            "users_10k": USERS_10K,
            "users_per_sec_10k": d10["users_per_sec"],
            "cycles_per_sec_10k": d10["cycles_per_sec"],
            "p50_latency_cycles_10k": d10["p50_latency_cycles"],
            "p95_latency_cycles_10k": d10["p95_latency_cycles"],
            "admitted_10k": d10["admitted"],
            "jobs_failed_10k": d10["jobs_failed"],
        })
        snapshot = json.loads(blocks_10k["snapshot_json"])
    derived["wall_seconds"] = round(time.perf_counter() - t0, 4)
    return derived, snapshot
