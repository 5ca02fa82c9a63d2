"""Reproducibility guarantee: the simulation is a pure function of
(config, workload).  Two fresh boots with the same seed/config must
produce byte-identical ``repro.obs/v1`` metrics snapshots, identical
audit-trail exports, and the identical final simulated clock — with 1
or 2 CPUs, with tracing and metering on or off, fault-free or
thrashing.  No wall clock, thread scheduling, or hash ordering may
leak into results (this is what makes every bench in EXPERIMENTS.md
citable)."""

import pytest

from repro.faults.harness import standard_workload

from tests.test_smp import make_jobs, smp_system

FAULT_HEAVY = dict(core_frames=8, bulk_frames=32, disk_frames=256)


def boot_and_run(n_cpus: int, tracing: bool, metering: bool,
                 sizing: dict | None = None):
    """One fresh system: gate workload + SMP jobs; returns the
    byte-level artifacts a reproduction would publish."""
    overrides = dict(sizing or {})
    overrides.update(tracing=tracing, metering=metering, n_cpus=n_cpus)
    system = smp_system(**overrides)
    system.register_user("Eve", "Spies", "eve-pw")
    standard_workload(system, tag="det")
    jobs, _ = make_jobs(system)
    cx = system.cpu_complex()
    cx.run_jobs(jobs)
    assert [j.result for j in jobs] == [96] * 8
    return (
        system.metrics.to_json(),
        system.audit.to_json(),
        system.clock.now,
    )


@pytest.mark.parametrize("tracing,metering", [
    (False, True),    # the default observability posture
    (True, True),     # everything on
    (False, False),   # everything off
])
@pytest.mark.parametrize("n_cpus", [1, 2])
def test_two_boots_are_byte_identical(n_cpus, tracing, metering):
    first = boot_and_run(n_cpus, tracing, metering)
    second = boot_and_run(n_cpus, tracing, metering)
    assert first[0] == second[0]      # metrics snapshot, byte for byte
    assert first[1] == second[1]      # audit trail export
    assert first[2] == second[2]      # final simulated clock


def test_fault_heavy_contention_is_reproducible():
    """Lock contention and page-fault interleaving are part of the
    deterministic state, not noise: the thrashing 2-CPU run reproduces
    exactly, including lock.* and smp.* counters."""
    first = boot_and_run(2, False, True, sizing=FAULT_HEAVY)
    second = boot_and_run(2, False, True, sizing=FAULT_HEAVY)
    assert first == second


def test_observability_is_free_in_simulated_time():
    """Tracing and metering never charge simulated cycles: every
    posture reaches the same final clock (so turning diagnostics on in
    a reproduction cannot perturb the numbers being reproduced)."""
    clocks = {
        (tracing, metering): boot_and_run(2, tracing, metering)[2]
        for tracing in (False, True)
        for metering in (False, True)
    }
    assert len(set(clocks.values())) == 1


def test_cpu_count_changes_timing_not_results():
    """Different CPU counts legitimately produce different clocks —
    the determinism claim is per-config, not across configs."""
    one = boot_and_run(1, False, True)
    two = boot_and_run(2, False, True)
    assert one[2] != two[2]


# ---------------------------------------------------------------------------
# chaos storms are part of the pure function too
# ---------------------------------------------------------------------------

STORM_TOPOLOGY = {
    "hosts": ["east", "west"],
    "links": [
        {"name": "east_up", "a": "east", "b": "multics"},
        {"name": "west_up", "a": "west", "b": "multics"},
    ],
}

STORM = {
    "name": "det-storm",
    "seed": 11,
    "controllers": [
        {"type": "timed", "events": [
            {"at": 500, "site": "link.east_up", "kind": "partition"},
            {"at": 2000, "site": "cpu.loss", "kind": "offline", "cpu": 1},
        ]},
        {"type": "random", "every": 400,
         "sites": ["link.east_up", "link.west_up"],
         "kinds": ["drop", "flap", "latency_spike"]},
        {"type": "targeted", "every": 900, "kind": "flap"},
    ],
}


def storm_run(seed: int):
    """A chaotic 2-CPU run: SMP jobs under a scenario storm with
    cross-host traffic sent between rounds."""
    from repro.faults.plan import FaultPlan, FaultSpec

    scenario = dict(STORM, seed=seed)
    system = smp_system(
        n_cpus=2,
        topology=STORM_TOPOLOGY,
        fault_plan=FaultPlan(
            [FaultSpec("link.*", "drop", rate=0.05)], seed=seed,
        ),
    )
    jobs, _ = make_jobs(system)
    cx = system.cpu_complex()
    engine = system.chaos_engine(scenario, complex_=cx)
    counter = [0]

    def on_round(_cx):
        engine.step()
        counter[0] += 1
        host = ("east", "west")[counter[0] % 2]
        system.topology.send(host, f"traffic-{counter[0]}")
        system.run(until=system.clock.now)  # drain scheduled deliveries

    cx.run_jobs(jobs, on_round=on_round)
    system.run()
    assert [j.result for j in jobs] == [96] * 8
    assert engine.applied  # the storm actually fired
    return (
        system.metrics.to_json(),
        system.audit.to_json(),
        system.clock.now,
    )


def test_same_seed_storm_is_byte_identical():
    """Same seed + same scenario: the whole storm — injections, link
    outages, CPU loss, requeues — replays exactly, down to the audit
    and metrics export bytes."""
    assert storm_run(11) == storm_run(11)


def test_storm_seed_changes_the_storm():
    a = storm_run(11)
    b = storm_run(12)
    assert a[1] != b[1]  # different injections → different audit trail
