"""E21 — specialized per-workload kernels with a penetration-regression
gate (ROADMAP item 2: the MultiK/KASR direction).

For each workload class (shell, compile, io, paging) a training run of
the seeded workload is profiled by :class:`KernelProfiler`;
``specialize()`` then generates a kernel whose gate table populates
only the profiled gates, everything else a deny-and-audit stub.

Measured, per profile:

* gate-count and protected-statement reduction vs. the full kernel
  (the sweep; the acceptance floor is >= 40% gate reduction);
* byte-identity: the specialized kernel replays its own training
  workload with the identical grant/deny audit trace, final simulated
  clock, and metrics snapshot (modulo the ``specialize.*`` names that
  exist only on the specialized system) — and zero deny-stub hits;
* the headline regression gate: the full E11 penetration suite reruns
  against every specialized kernel, requiring all attacks denied and
  the audit log deny-complete: its refused gate calls equal the
  per-gate meters' denials and its ACL/MAC refusals the reference
  monitor's own count.

An orchestrator leg runs all four specialized kernels side-by-side
over one shared substrate, each tenant class admitted through its own
listener and denied (audited) on the first cross-class gate.
"""

import json
import time

from repro import MulticsSystem, kernel_config
from repro.errors import SpecializationDenial
from repro.kernel.orchestrator import KernelOrchestrator
from repro.kernel.specialize import KernelProfiler, specialize
from repro.security.flaws import run_penetration_suite
from repro.workloads import WorkloadDriver, generate_population

PROFILE_NAMES = ("shell", "compile", "io", "paging")
TRAIN_USERS = 240
QUICK_USERS = 80
SEED = 1975
N_CPUS = 2
GATE_REDUCTION_FLOOR = 0.40

#: E18's VM shape: small pages, a hierarchy deep enough to page.
FRAMES = dict(page_size=16, core_frames=16384, bulk_frames=32768,
              disk_frames=65536)

#: Report/derived keys that depend on host wall-clock, not the
#: simulated computation (excluded from the identity comparison).
WALL_KEYS = ("wall_seconds", "users_per_sec", "cycles_per_sec")


def _strip_specialize(snapshot_json: str) -> str:
    """Drop ``specialize.*`` names: they exist only on the system that
    actually built specialized tables."""
    doc = json.loads(snapshot_json)
    for section in ("counters", "gauges", "histograms"):
        doc[section] = {
            name: value
            for name, value in doc[section].items()
            if not name.startswith("specialize.")
        }
    return json.dumps(doc, indent=2)


def _sim_derived(derived: dict) -> dict:
    return {k: v for k, v in derived.items() if k not in WALL_KEYS}


def audit_complete(system) -> bool:
    """The audit log agrees with the denial counters kept outside it."""
    checks = system.services.audit_cross_check()
    return all(audited == counted for audited, counted in checks.values())


def training_run(profile_name: str, n_users: int, kernel=None) -> dict:
    """Drive a single-class seeded population; optionally through a
    pre-installed specialized kernel (the replay leg)."""
    system = MulticsSystem(kernel_config(**FRAMES))
    specialized = None
    if kernel is not None:
        specialized = kernel(system)
        system.install_supervisor(specialized)
    system.boot()
    profiler = KernelProfiler(system)
    driver = WorkloadDriver(system, n_cpus=N_CPUS)
    population = generate_population(
        n_users, seed=SEED, mix={profile_name: 1.0}
    )
    report = driver.run(population)
    return {
        "system": system,
        "specialized": specialized,
        "profile": profiler.profile(profile_name),
        "derived": report.to_dict(),
        "trace": [
            (r.action, r.object, r.outcome) for r in system.audit.records
        ],
        "final_clock": system.clock.now,
        "snapshot_json": system.metrics.to_json(),
    }


def identical(train: dict, replay: dict) -> bool:
    """Byte-identity of the training and specialized replay runs."""
    return (
        train["trace"] == replay["trace"]
        and train["final_clock"] == replay["final_clock"]
        and _strip_specialize(train["snapshot_json"])
        == _strip_specialize(replay["snapshot_json"])
        and _sim_derived(train["derived"]) == _sim_derived(replay["derived"])
    )


def penetration_leg(profile) -> dict:
    """Rerun the full E11 suite against a specialized kernel built
    from ``profile`` over a fresh system."""
    system = MulticsSystem(kernel_config()).boot()
    kernel = specialize(system, profile)
    report = run_penetration_suite(system, supervisor=kernel)
    return {
        "system_kind": report.system_kind,
        "attempted": report.attempted,
        "successes": report.successes,
        "deny_complete": audit_complete(system),
        "denials": len(system.audit.denied()),
    }


def specialize_sweep(n_users: int) -> dict:
    """Train, specialize, replay, and penetration-test every profile."""
    per_profile = {}
    for name in PROFILE_NAMES:
        train = training_run(name, n_users)
        profile = train["profile"]
        replay = training_run(
            name, n_users, kernel=lambda s, p=profile: specialize(s, p)
        )
        surface = replay["specialized"].surface_report()
        pen = penetration_leg(profile)
        per_profile[name] = {
            "train": train,
            "replay": replay,
            "surface": surface,
            "pen": pen,
            "identical": identical(train, replay),
            "replay_stub_hits": replay["specialized"].gates.deny_stub_hits,
        }
    return per_profile


def orchestrator_leg(per_profile: dict) -> dict:
    """All four specialized kernels over one substrate: every tenant's
    own ops granted, the first cross-class gate denied and audited."""
    system = MulticsSystem(kernel_config()).boot()
    orch = KernelOrchestrator(system)
    for name, leg in per_profile.items():
        orch.add_tenant(name, leg["train"]["profile"])
    sessions = {}
    for i, name in enumerate(per_profile):
        sessions[name] = orch.login(
            name, f"T{i}", "Load", f"t{i}-pw"
        )
    # Own-class work: granted by each tenant's own kernel.
    for name, session in sessions.items():
        segno = session.create_segment(f"{name}_data", n_pages=1)
        session.write_words(segno, [1, 2, 3])
        session.read_words(segno, 3)
    own_stub_hits = sum(
        orch.kernel_for(name).gates.deny_stub_hits for name in per_profile
    )
    # Cross-class probe: no workload profile ever trained a network
    # gate, so every tenant's kernel must refuse it (the full kernel
    # on the same substrate would grant it).
    cross_denials = 0
    for name, session in sessions.items():
        assert "net_$send" in system.supervisor.gates
        try:
            orch.call(session.process, "net_$send", "remote-host", "leak")
        except SpecializationDenial:
            cross_denials += 1
    snapshot = system.metrics.snapshot()
    return {
        "tenants": len(per_profile),
        "own_stub_hits": own_stub_hits,
        "cross_denials": cross_denials,
        "routed_calls": orch.routed_calls,
        "deny_complete": audit_complete(system),
        "snapshot_json": system.metrics.to_json(),
        "gauges": snapshot["gauges"],
    }


def _derive(per_profile: dict, orch: dict, n_users: int) -> dict:
    derived = {
        "train_users": n_users,
        "gates_total": next(
            iter(per_profile.values())
        )["surface"]["gates_total"],
        "max_gate_reduction": max(
            leg["surface"]["gate_reduction"] for leg in per_profile.values()
        ),
        "all_identical": all(
            leg["identical"] for leg in per_profile.values()
        ),
        "pen_successes_total": sum(
            leg["pen"]["successes"] for leg in per_profile.values()
        ),
        "pen_attempted_total": sum(
            leg["pen"]["attempted"] for leg in per_profile.values()
        ),
        "all_deny_complete": all(
            leg["pen"]["deny_complete"] for leg in per_profile.values()
        ),
        "orchestrator_tenants": orch["tenants"],
        "orchestrator_cross_denials": orch["cross_denials"],
        "orchestrator_own_stub_hits": orch["own_stub_hits"],
    }
    for name, leg in per_profile.items():
        surface = leg["surface"]
        derived[f"{name}_gates_live"] = surface["gates_live"]
        derived[f"{name}_gate_reduction"] = surface["gate_reduction"]
        derived[f"{name}_statement_reduction"] = surface["statement_reduction"]
        derived[f"{name}_pen_successes"] = leg["pen"]["successes"]
        derived[f"{name}_identical"] = leg["identical"]
    return derived


def test_e21_specialize(report, export):
    t0 = time.perf_counter()
    per_profile = specialize_sweep(TRAIN_USERS)

    for name, leg in per_profile.items():
        surface = leg["surface"]
        # (a) the specialized kernel replays its own training workload
        # byte-identically, never touching a deny stub.
        assert leg["identical"], f"{name}: replay diverged"
        assert leg["replay_stub_hits"] == 0
        d = leg["replay"]["derived"]
        assert d["admitted"] == TRAIN_USERS
        assert d["login_failures"] == 0
        assert d["jobs_failed"] == 0
        # (b) the headline gate: the full E11 suite, all attacks
        # denied, deny-complete audit trail.
        assert leg["pen"]["successes"] == 0, (
            f"{name}: {leg['pen']}"
        )
        assert leg["pen"]["deny_complete"]
        assert leg["pen"]["system_kind"] == f"specialized:{name}"
        # (c) the census partitions the full inventory.
        assert surface["gates_live"] + surface["deny_stubs"] \
            == surface["gates_total"]

    # (d) the sweep clears the reduction floor.
    max_reduction = max(
        leg["surface"]["gate_reduction"] for leg in per_profile.values()
    )
    assert max_reduction >= GATE_REDUCTION_FLOOR

    # (e) orchestrated side-by-side kernels: own work granted,
    # cross-class work denied and audited.
    orch = orchestrator_leg(per_profile)
    assert orch["own_stub_hits"] == 0
    assert orch["cross_denials"] == orch["tenants"] == len(PROFILE_NAMES)
    assert orch["deny_complete"]
    assert orch["gauges"]["specialize.tenants"] == len(PROFILE_NAMES)

    derived = _derive(per_profile, orch, TRAIN_USERS)
    derived["wall_seconds"] = round(time.perf_counter() - t0, 4)
    snapshot = json.loads(orch["snapshot_json"])
    export("E21", snapshot, extra=derived)
    rows = [
        "E21: specialized per-workload kernels (profiler -> deny stubs)",
        f"  full inventory: {derived['gates_total']} gates; floor "
        f">= {GATE_REDUCTION_FLOOR:.0%} reduction for one profile",
    ]
    for name, leg in per_profile.items():
        surface = leg["surface"]
        rows.append(
            f"  {name:<8} live {surface['gates_live']:>2}/"
            f"{surface['gates_total']} gates "
            f"({surface['gate_reduction']:.0%} cut, "
            f"{surface['statement_reduction']:.0%} statements), "
            f"E11 {leg['pen']['successes']}/{leg['pen']['attempted']} "
            f"attacks, identical={leg['identical']}"
        )
    rows.append(
        f"  orchestrator: {orch['tenants']} tenants side-by-side, "
        f"{orch['cross_denials']} cross-class denials, "
        f"0 own-class stub hits"
    )
    report("E21", rows)


def bench_numbers(quick: bool = False) -> tuple[dict, dict]:
    """(derived numbers, metrics snapshot) for scripts/run_benches.py."""
    t0 = time.perf_counter()
    n_users = QUICK_USERS if quick else TRAIN_USERS
    per_profile = specialize_sweep(n_users)
    orch = orchestrator_leg(per_profile)
    derived = _derive(per_profile, orch, n_users)
    derived["wall_seconds"] = round(time.perf_counter() - t0, 4)
    return derived, json.loads(orch["snapshot_json"])
