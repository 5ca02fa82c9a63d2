"""Fixed benchmark of the simulated Multics security kernel.

Run from the repository root::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats set-up and a run of the seeded population until
``--seconds`` have passed (at least twice), then makes one untimed run
whose retained heap it measures.  It reports the end-to-end metrics:
throughput from the fastest repetition of each window (``best_rate``),
set-up time as the median repetition, simulated metrics exactly.
``--trace 1`` alternates two untraced and two traced runs (class-level
span wrappers, see ``spans.py``), writes the last traced run's spans
to ``perfbench/out/``, and reports the per-layer metrics.  Every run
checks its outputs and that same-seed runs are identical.  Every
metric is printed as ``metric <name> <value> <unit>``; the last line
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Repetitions a timed run makes however short ``--seconds`` is: the
#: determinism check compares them.
MIN_REPEATS = 2


def provenance(workload, seed: int) -> dict:
    """What produced a result: source, host, interpreter, config."""
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        source.update(path.read_bytes())
    config = json.dumps(dataclasses.asdict(workload.config()),
                        sort_keys=True, default=str)
    return {
        "commit": commit,
        "source_digest": source.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "config_digest": hashlib.sha256(config.encode()).hexdigest()[:16],
        "workload": workload.name,
        "seed": seed,
        "users": workload.users,
    }


class Tally:
    """Users attempted and failed, and the problems checks found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, outcome) -> None:
        self.attempted += outcome.users
        self.failed += outcome.users - outcome.correct_users
        self.problems += outcome.problems

    def same(self, a, b, what: str) -> None:
        if a.identity() != b.identity():
            self.problems.append(f"{what}: same seed, different sim "
                                 f"metrics, clock or audit digest")


def live_heap_bytes() -> int:
    """Bytes held by live Python objects: every object the collector
    tracks plus the untracked objects (ints, strings) they refer to,
    each counted once.  On a 1000-user system a walk takes under a
    second, where ``tracemalloc`` slowed the interactive run itself
    about fifty-fold (2-core x86-64 host, CPython 3.11)."""
    gc.collect()
    size, tracked = sys.getsizeof, gc.is_tracked
    seen: set[int] = set()
    total = 0
    for obj in gc.get_objects():
        total += size(obj)
        for ref in gc.get_referents(obj):
            if not tracked(ref) and id(ref) not in seen:
                seen.add(id(ref))
                total += size(ref)
    return total


def fresh_run(harness, workload, seed: int):
    """Set up and run once, after freeing the previous run's system."""
    gc.collect()
    return harness.Prepared(workload, seed).run()


def best_rate(outcomes, tally: Tally) -> float:
    """Correct users per second of the timed phase, taking each window
    from its fastest repetition.

    On a host shared with other tenants the same work took from 35 to
    78 ms from one moment to the next, and the median of 8-second
    windows moved by a fifth, while the fastest repetition moved by
    about 3%: other tenants only ever add time.  Repetitions of one
    seed cut identical windows, so the sum of the per-window minima is
    the timed phase as the program runs it uncontended.
    """
    if len({len(o.windows) for o in outcomes}) != 1:
        tally.problems.append("repetitions cut different windows")
    best = sum(map(min, zip(*(o.windows for o in outcomes))))
    return outcomes[0].correct_users / best


def timed(harness, workload, seed: int, seconds: float, tally: Tally):
    outcomes = []
    start = time.perf_counter()
    while (len(outcomes) < MIN_REPEATS
           or time.perf_counter() - start < seconds):
        outcome = fresh_run(harness, workload, seed)
        tally.add(outcome)
        if outcomes:
            tally.same(outcomes[0], outcome, f"repeat {len(outcomes)}")
        outcomes.append(outcome)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Retained heap per user, from its own untimed run.
    gc.collect()
    prepared = harness.Prepared(workload, seed)
    heap0 = live_heap_bytes()
    outcome = prepared.run()
    outcome.windows.clear()  # the harness's timing data, not the kernel's
    heap1 = live_heap_bytes()
    tally.add(outcome)
    tally.same(outcomes[0], outcome, "heap run")

    other = harness.population(workload, seed + 1)
    if other == harness.population(workload, seed):
        tally.problems.append("seed does not reach the population")

    first = outcomes[0]
    return {
        "users_per_s": best_rate(outcomes, tally),
        "setup_s": statistics.median(o.setup_s for o in outcomes),
        "peak_rss_mib": peak_rss_mib,
        "heap_kib_per_user": (heap1 - heap0) / 1024 / outcome.users,
        "sim_cycles_per_user": first.sim["sim_cycles_per_user"],
        "sim_latency_p50_cycles": first.sim["sim_latency_p50_cycles"],
        "sim_latency_p99_cycles": first.sim["sim_latency_p99_cycles"],
    }, {"repeats": len(outcomes),
        "latency_samples": first.sim["latency_samples"],
        "final_clock": first.final_clock,
        "audit_digest": first.audit_digest[:16]}


def traced(harness, spans_mod, workload, seed: int, tally: Tally, prov):
    """Untraced and traced runs, interleaved twice; the per-layer
    metrics come from the last traced run's spans."""
    plain, wrapped = [], []
    for _ in range(2):
        outcome = fresh_run(harness, workload, seed)
        plain.append(outcome)
        gc.collect()
        prepared = harness.Prepared(workload, seed)
        recorder = spans_mod.SpanRecorder()
        with recorder:
            outcome = prepared.run()
        wrapped.append(outcome)
        if spans_mod.installed():
            tally.problems.append(f"wrappers left installed: "
                                  f"{spans_mod.installed()}")
    for outcome in plain + wrapped:
        tally.add(outcome)
        tally.same(plain[0], outcome, "traced and untraced runs")
    last = wrapped[-1]
    stats = spans_mod.SpanStats(recorder.spans)
    if stats.total_self_ns / 1e9 > last.outer_s:
        tally.problems.append("span self times exceed the traced wall")
    metrics = layer_metrics(stats, recorder, last)
    metrics["trace.overhead_ratio"] = (best_rate(plain, tally)
                                       / best_rate(wrapped, tally))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload.name}-seed{seed}.json.gz"
    with gzip.open(path, "wt") as fh:
        json.dump({"provenance": prov, "fields": spans_mod.FIELDS,
                   "spans": recorder.spans, "metrics": metrics}, fh)
    return metrics, {"spans": len(recorder.spans),
                     "spans_file": str(path.relative_to(ROOT))}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats, recorder, outcome) -> dict:
    c = dict.fromkeys(("smp.am_hits", "smp.am_misses", "smp.rounds",
                       "smp.busy_cycles", "smp.stall_cycles"), 0)
    c.update(outcome.counters)  # no SMP complex in gate-churn
    faults = c["pc.faults_serviced"]
    hits = c["am.hits"] + c["smp.am_hits"]
    misses = c["am.misses"] + c["smp.am_misses"]
    gates = "GateTable.call"
    login = "LoginListener.login"
    services = ("KernelServices.directory_by_segno",
                "KernelServices.revoke_branch_access")
    return {
        "hw.cpu.instructions": outcome.instructions,
        "hw.cpu.ns_per_instr": _ratio(
            stats.self_s("SmpComplex.run_jobs") * 1e9, outcome.instructions),
        "hw.smp.rounds": c["smp.rounds"],
        "hw.smp.stall_cycles": c["smp.stall_cycles"],
        "hw.smp.busy_ratio": _ratio(
            c["smp.busy_cycles"], c["smp.busy_cycles"] + c["smp.stall_cycles"]),
        "vm.page_control.faults": faults,
        "vm.page_control.evictions": (c["pc.core_evictions"]
                                      + c["pc.bulk_evictions"]),
        "vm.page_control.refault_ratio": _ratio(
            faults - len(recorder.first_touches), faults),
        "vm.page_control.self_s": stats.self_s("PageControl.service_sync"),
        "vm.page_control.us_p99": stats.us_quantile(
            "PageControl.service_sync", 0.99),
        "hw.memory.transfers": c["mem.transfers"],
        "kernel.locks.ptl_contentions": c["lock.ptl.contentions"],
        "kernel.locks.ptl_wait_cycles": c["lock.ptl.contention_cycles"],
        "hw.assoc.hit_ratio": _ratio(hits, hits + misses),
        "hw.assoc.invalidations": (c["am.invalidations"]
                                   + outcome.cpu_am_invalidations),
        "user.login.calls": stats.calls.get(login, 0),
        "user.login.self_s": stats.self_s(login),
        "user.login.us_p50": stats.us_quantile(login, 0.50),
        "user.login.us_p99": stats.us_quantile(login, 0.99),
        "user.search_rules.calls": stats.calls.get(
            "UserSearchRules.resolve", 0),
        "user.search_rules.self_s": stats.self_s("UserSearchRules.resolve"),
        "kernel.gates.calls": stats.calls.get(gates, 0),
        "kernel.gates.denied": stats.raised.get(gates, 0),
        "kernel.gates.self_s": stats.self_s(gates),
        "kernel.gates.us_p50": stats.us_quantile(gates, 0.50),
        "kernel.gates.us_p99": stats.us_quantile(gates, 0.99),
        "kernel.gates.sim_cycles": c["gate.cycles"],
        "security.reference_monitor.checks": stats.calls.get(
            "ReferenceMonitor.check", 0),
        "security.reference_monitor.denials": stats.raised.get(
            "ReferenceMonitor.check", 0),
        "security.reference_monitor.self_s": stats.self_s(
            "ReferenceMonitor.check"),
        "security.audit.records": stats.calls.get("AuditLog.log", 0),
        "security.audit.records_per_user": _ratio(
            stats.calls.get("AuditLog.log", 0), outcome.users),
        "security.audit.self_s": stats.self_s("AuditLog.log"),
        "kernel.services.lookups": stats.calls.get(services[0], 0),
        "kernel.services.revocations": stats.calls.get(services[1], 0),
        "kernel.services.self_s": stats.self_s(*services),
        "obs.meters.exec_cycles": c["meter.exec_cycles"],
        "obs.meters.am_hit_cycles": c["meter.am_hit_cycles"],
        "obs.meters.walk_cycles": c["meter.walk_cycles"],
        "obs.meters.gate_cycles": c["meters.gate_cycles"],
        "obs.meters.smp_stall_cycles": c["meter.smp_stall_cycles"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no kernel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import spans

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(harness.WORKLOADS)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}

    workload = harness.WORKLOADS[args.workload]
    prov = provenance(workload, args.seed)
    tally = Tally()
    if args.trace:
        values, notes = traced(harness, spans, workload, args.seed, tally,
                               prov)
    else:
        values, notes = timed(harness, workload, args.seed, args.seconds,
                              tally)
    missing = set(units) - set(values)
    if missing:
        tally.problems.append(f"metrics not measured: {sorted(missing)}")

    print("provenance " + json.dumps(prov, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    if args.trace:
        for layer, (moves, most, least) in spans.LAYERS.items():
            print(f"layer {layer} moves {moves}; most work {most}; "
                  f"least {least}")
    for problem in tally.problems:
        print(f"problem {problem}")
    for name, unit in units.items():
        print(f"metric {name} {values.get(name)} {unit}")
    print(f"metric failed_ratio {tally.failed / tally.attempted} fraction")
    print(json.dumps({
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
