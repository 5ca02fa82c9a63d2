"""R2 — chaos storm: the degradation invariant under rolling faults.

R1 proves containment one hand-placed fault plan at a time; R2 proves
it under a *rolling storm*: a multi-host topology with plan-driven
link noise, a scenario engine commanding partitions, flaps, latency
spikes and a mid-burst CPU loss, all while an 8-job SMP workload and
cross-host traffic are in flight.  The paper's claim, asserted end to
end: every failure is denial of use —

* completed work matches the fault-free golden run (zero wrong data);
* every message that arrives is one that was sent, intact (loss is
  total, never corrupting);
* every injected fault is booked in the audit trail (nothing vanishes
  silently) and Eve's probes stay denied throughout;
* two same-seed storms produce byte-identical audit and metrics
  exports (the storm is part of the deterministic state);
* after the storm the system can crash, salvage, and report a clean
  hierarchy.
"""

import json
import time

from repro.errors import AccessDenied, KernelDenial
from repro.faults.harness import (
    crash,
    harness_config,
    hierarchy_violations,
    security_decisions,
    vandalize,
)
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.salvager import MAGIC_CLEAN, read_marker
from repro.system import MulticsSystem

from conftest import fmt_row
from test_e17_smp import N_JOBS, PARALLEL_FRAMES, _prepare

SEED = 23

TOPOLOGY = {
    "hosts": ["east", "west", "relay"],
    "links": [
        {"name": "east_up", "a": "east", "b": "multics"},
        {"name": "west_relay", "a": "west", "b": "relay"},
        {"name": "relay_up", "a": "relay", "b": "multics"},
    ],
}

#: Plan-driven background noise on every link, under the storm.
LINK_NOISE = [
    FaultSpec("link.*", "drop", rate=0.04),
    FaultSpec("link.east_up", "latency_spike", rate=0.08),
]

#: The rolling storm: a storyboard (partition, then CPU loss), random
#: link faults, and a targeted controller chasing the busiest link.
STORM = {
    "name": "r2-rolling-storm",
    "controllers": [
        {"type": "timed", "events": [
            {"at": 800, "site": "link.east_up", "kind": "partition"},
            {"at": 2400, "site": "cpu.loss", "kind": "offline", "cpu": 1},
        ]},
        {"type": "random", "every": 700,
         "sites": ["link.east_up", "link.west_relay", "link.relay_up"],
         "kinds": ["drop", "flap", "latency_spike"]},
        {"type": "targeted", "every": 1100, "kind": "flap"},
    ],
}

HOSTS = ("east", "west")


def storm_run(storm: bool, seed: int = SEED, salvage: bool = False) -> dict:
    """One full run; ``storm=False`` is the fault-free golden run."""
    config = harness_config(
        topology=TOPOLOGY,
        fault_plan=FaultPlan(LINK_NOISE, seed=seed) if storm else None,
        **PARALLEL_FRAMES,
    )
    system = MulticsSystem(config).boot()
    system.register_user("Alice", "Crypto", "alice-pw")
    system.register_user("Eve", "Spies", "eve-pw")
    jobs, _sessions = _prepare(system)
    cx = system.cpu_complex(n_cpus=2)
    engine = (
        system.chaos_engine(dict(STORM, seed=seed), complex_=cx)
        if storm else None
    )
    sent: list[str] = []
    rounds = [0]

    def on_round(_cx):
        # The round's traffic goes out first, then the storm turns —
        # so messages race real outage windows instead of always
        # walking into a link the controller just downed.
        rounds[0] += 1
        host = HOSTS[rounds[0] % len(HOSTS)]
        body = f"r2 {host} {rounds[0]}"
        sent.append(body)
        system.topology.send(host, body)
        if engine is not None:
            engine.step()
        # Drain deliveries the lockstep clock has already passed.
        system.run(until=system.clock.now)

    cx.run_jobs(jobs, on_round=on_round)
    system.run()  # quiesce: late deliveries, interrupts
    received = []
    while (message := system.services.network.receive()) is not None:
        received.append(message.body)

    # Eve probes Alice's job data mid-aftermath: denial, storm or calm.
    eve = system.login("Eve", "Spies", "eve-pw")
    probes_denied = 0
    for path in (">udd>Crypto>Alice>data0", ">udd>Crypto>Alice>sum3"):
        try:
            eve.initiate(path)
        except (AccessDenied, KernelDenial):
            probes_denied += 1
    eve.logout()
    eve_grants = [
        d for d in security_decisions(system.services.audit)
        if d[0].startswith("Eve") and d[3] == "granted" and "Alice" in d[1]
    ]

    injector = system.services.injector
    out = {
        "results": [job.result for job in jobs],
        "errors": [job.error for job in jobs if job.error is not None],
        "sent": sent,
        "received": received,
        "probes_denied": probes_denied,
        "eve_grants": len(eve_grants),
        "injected": injector.injected_count if injector else 0,
        "chaos_events": list(engine.applied) if engine else [],
        "chaos_skipped": list(engine.skipped) if engine else [],
        "cpus_lost": cx.cpus_lost,
        "jobs_requeued": cx.jobs_requeued,
        "online_cpus": cx.online_count(),
        "elapsed": system.clock.now,
        "link_report": system.topology.link_report(),
        "lost_messages": system.topology.lost,
        "audit_json": system.audit.to_json(),
        "metrics_json": system.metrics.to_json(),
        "audit_injected": sum(
            1 for r in system.audit.records if r.outcome == "injected"
        ),
    }
    if salvage:
        # The aftermath: crash where the storm left us, vandalize the
        # hierarchy, reboot — the salvager must report clean.
        crash(system)
        damage = vandalize(system.services, seed=seed)
        rebooted = MulticsSystem(services=system.services).boot()
        report = rebooted.salvage_report
        assert report is not None, "unclean marker must trigger salvage"
        out["salvage_damage"] = len(damage)
        out["salvage_handled"] = report.damage_found
        out["violations_after"] = hierarchy_violations(rebooted.services)
        rebooted.shutdown()
        out["clean_marker"] = read_marker(rebooted.services) == MAGIC_CLEAN
    return out


def check_invariants(run: dict, golden: dict) -> None:
    """The degradation invariant, asserted against the golden run."""
    # Completed work is *right*, not merely finished: same results as
    # the fault-free run, no job died, every CPU loss only cost time.
    assert run["results"] == golden["results"] == [96] * N_JOBS
    assert run["errors"] == []
    # Message loss is total, never corrupting: everything received was
    # sent, byte for byte; losses are accounted, not silent.
    assert set(run["received"]) <= set(run["sent"])
    assert len(run["received"]) == len(run["sent"]) - run["lost_messages"]
    # The storm really stormed, and every injected fault is in the
    # audit trail — the failure story is complete.
    assert run["injected"] >= 1
    assert run["chaos_events"]
    assert run["audit_injected"] == run["injected"]
    assert run["cpus_lost"] == 1 and run["online_cpus"] == 1
    # The CPU loss displaced a running job; it restarted and finished.
    assert run["jobs_requeued"] == 1
    # Some traffic survived the storm — degraded, not dead.
    assert run["received"]
    # Security never wavers: probes denied, zero Eve grants.
    assert run["probes_denied"] == golden["probes_denied"] == 2
    assert run["eve_grants"] == golden["eve_grants"] == 0


def test_r2_chaos(benchmark, report, export):
    t0 = time.perf_counter()
    golden = storm_run(storm=False)
    first = storm_run(storm=True, salvage=True)
    second = storm_run(storm=True)

    # Fault-free topology delivers everything.
    assert golden["received"] and golden["lost_messages"] == 0
    assert set(golden["received"]) == set(golden["sent"])

    check_invariants(first, golden)

    # Same seed, same scenario: the whole storm replays byte-for-byte.
    assert first["audit_json"] == second["audit_json"]
    assert first["metrics_json"] == second["metrics_json"]
    assert first["elapsed"] == second["elapsed"]

    # The aftermath salvages clean.
    assert first["violations_after"] == []
    assert first["clean_marker"] is True

    benchmark(lambda: storm_run(storm=True))
    wall = time.perf_counter() - t0

    delivered = len(first["received"])
    export("R2", json.loads(first["metrics_json"]), extra={
        "seed": SEED,
        "jobs": N_JOBS,
        "golden_elapsed": golden["elapsed"],
        "storm_elapsed": first["elapsed"],
        "chaos_events": len(first["chaos_events"]),
        "chaos_skipped": len(first["chaos_skipped"]),
        "faults_injected": first["injected"],
        "audit_injected_records": first["audit_injected"],
        "cpus_lost": first["cpus_lost"],
        "jobs_requeued": first["jobs_requeued"],
        "messages_sent": len(first["sent"]),
        "messages_delivered": delivered,
        "messages_lost": first["lost_messages"],
        "link_report": first["link_report"],
        "probes_denied": first["probes_denied"],
        "eve_grants": first["eve_grants"],
        "salvage_damage": first["salvage_damage"],
        "salvage_handled": first["salvage_handled"],
        "violations_after": len(first["violations_after"]),
        "clean_marker": first["clean_marker"],
        "deterministic_replay": first["audit_json"] == second["audit_json"],
        "wall_seconds": round(wall, 4),
    })
    report("R2", [
        "R2: chaos storm (rolling link faults + CPU loss; denial of use",
        "    is the only failure mode)",
        fmt_row("chaos events / faults injected",
                len(first["chaos_events"]), first["injected"]),
        fmt_row("jobs completed right (of 8, vs golden)",
                sum(1 for r in first["results"] if r == 96)),
        fmt_row("CPUs lost / jobs requeued",
                first["cpus_lost"], first["jobs_requeued"]),
        fmt_row("messages sent / delivered / lost",
                len(first["sent"]), delivered, first["lost_messages"]),
        fmt_row("Eve probes denied / grants",
                first["probes_denied"], first["eve_grants"]),
        fmt_row("salvage: damage handled / violations after",
                first["salvage_handled"], len(first["violations_after"])),
        fmt_row("same-seed replay byte-identical",
                first["audit_json"] == second["audit_json"]),
    ])


def bench_numbers() -> tuple[dict, dict]:
    """(derived numbers, metrics snapshot) for scripts/run_benches.py."""
    t0 = time.perf_counter()
    golden = storm_run(storm=False)
    first = storm_run(storm=True, salvage=True)
    second = storm_run(storm=True)
    check_invariants(first, golden)
    derived = {
        "wall_seconds": round(time.perf_counter() - t0, 4),
        "seed": SEED,
        "jobs": N_JOBS,
        "golden_elapsed": golden["elapsed"],
        "storm_elapsed": first["elapsed"],
        "chaos_events": len(first["chaos_events"]),
        "faults_injected": first["injected"],
        "cpus_lost": first["cpus_lost"],
        "jobs_requeued": first["jobs_requeued"],
        "messages_sent": len(first["sent"]),
        "messages_delivered": len(first["received"]),
        "messages_lost": first["lost_messages"],
        "probes_denied": first["probes_denied"],
        "eve_grants": first["eve_grants"],
        "salvage_clean": first["violations_after"] == []
        and first["clean_marker"],
        "deterministic_replay": first["audit_json"] == second["audit_json"]
        and first["metrics_json"] == second["metrics_json"],
    }
    return derived, json.loads(first["metrics_json"])
