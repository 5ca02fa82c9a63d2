"""E16 — metering & audit: every simulated cycle the system charges is
attributed to a process, metering itself is free in simulated time, and
every denial raised by the penetration workload appears in the audit
log and its export.

Measured: attribution coverage (attributed/total cycles) on a combined
workload exercising all four charging sites (scheduler charges, gate
costs, CPU execution, page-fault waits); simulated-clock identity with
metering on vs off; deny-completeness of the audit log under the E11
attack suite, against the denial counts the per-gate meters and the
reference monitor keep outside it.
"""

import json

from repro import MulticsSystem
from repro.faults.harness import harness_config, standard_workload
from repro.hw.cpu import Instruction as I, Op
from repro.proc.ipc import Charge
from repro.proc.process import Process
from repro.security.flaws import run_penetration_suite
from repro.user.object_format import ObjectSegment

COVERAGE_FLOOR = 0.95

SUMMER = ObjectSegment(
    "summer",
    code=[
        I(Op.PUSHI, 0), I(Op.STOREF, 0),
        I(Op.PUSHI, 0), I(Op.STOREF, 1),
        I(Op.LOADF, 1), I(Op.PUSHI, 32), I(Op.LT), I(Op.JZ, 18),
        I(Op.LOADF, 0), I(Op.LOADF, 1), I(Op.LOADI, 0),   # segno patched
        I(Op.ADD), I(Op.STOREF, 0),
        I(Op.LOADF, 1), I(Op.PUSHI, 1), I(Op.ADD), I(Op.STOREF, 1),
        I(Op.JMP, 4),
        I(Op.LOADF, 0), I(Op.RET),
    ],
    definitions={"main": 0},
)


def combined_workload(metering: bool = True) -> MulticsSystem:
    """Exercise all four charging sites on one booted kernel system."""
    config = harness_config()
    config.metering = metering
    system = MulticsSystem(config).boot()
    system.register_user("Alice", "Crypto", "alice-pw")
    system.register_user("Eve", "Spies", "eve-pw")

    # Gate costs + reference-monitor traffic (with denial probes).
    standard_workload(system, tag="e16")
    # The E11 attack suite: every denial must reach the audit log.
    run_penetration_suite(system)

    # Scheduler charges + discrete-event page-fault waits.
    alice = system.login("Alice", "Crypto", "alice-pw")
    services = system.services
    segno = alice.create_segment("stormpages", n_pages=6)
    aseg = services.ast.get(alice.process.dseg.get(segno).uid)
    pc = services.page_control

    def worker(proc):
        for _sweep in range(2):
            for page in range(6):
                yield from pc.touch(proc, aseg, page)
                yield Charge(40)

    for i in range(3):
        system.add_process(Process(f"w{i}", body=worker, ring=4))
    system.run()

    # CPU execution (instruction, translation, and call cycles).
    data_segno = alice.create_segment("bigdata", n_pages=4)
    alice.write_words(data_segno, [3] * 32)
    program = ObjectSegment(
        SUMMER.name,
        code=[
            I(Op.LOADI, data_segno) if inst.op is Op.LOADI else inst
            for inst in SUMMER.code
        ],
        definitions=dict(SUMMER.definitions),
    )
    prog_segno = alice.install_object("summer", program)
    assert alice.run_program(prog_segno) == 96
    return system


def test_e16_metering_and_audit(benchmark, report, export):
    system = benchmark(combined_workload)
    meters = system.meters

    # (a) attribution coverage: >= 95% of all charged cycles land in
    # some process bucket (the wiring is complete, so it is 100%).
    coverage = meters.coverage()
    total = meters.total_cycles()
    assert total > 0
    assert coverage >= COVERAGE_FLOOR

    # (b) metering is free in simulated time: the identical workload
    # with the plane disabled reaches the identical simulated clock.
    unmetered = combined_workload(metering=False)
    assert unmetered.clock.now == system.clock.now
    assert unmetered.meters.enabled is False

    # (c) audit completeness: the log's refused gate calls match the
    # per-gate meters' denials, its ACL/MAC refusals match the
    # reference monitor's own count, and the repro.audit/v1 export
    # carries every denied record.
    checks = system.services.audit_cross_check()
    assert checks["gate"][0] > 0 and checks["monitor"][0] > 0
    for audited, counted in checks.values():
        assert audited == counted
    doc = json.loads(system.audit.to_json())
    exported = [r for r in doc["records"] if r["decision"] == "denied"]
    assert len(exported) == doc["denials"] == len(system.audit.denied())

    snapshot = system.metrics.snapshot()
    export("E16", snapshot, extra={
        "coverage": round(coverage, 4),
        "attributed_cycles": meters.attributed_cycles(),
        "total_cycles": total,
        "simulated_clock_metered": system.clock.now,
        "simulated_clock_unmetered": unmetered.clock.now,
        "gate_denials_audited": checks["gate"][0],
        "gate_denials_metered": checks["gate"][1],
        "monitor_denials_audited": checks["monitor"][0],
        "monitor_denials_counted": checks["monitor"][1],
    })
    report("E16", [
        "E16: metering & audit (every charged cycle attributed; metering",
        "     free in simulated time; every deny reaches the audit log)",
        f"  attribution coverage: {coverage:.2%} "
        f"({meters.attributed_cycles()}/{total} cycles; floor "
        f"{COVERAGE_FLOOR:.0%})",
        f"  simulated clock metered/unmetered: {system.clock.now}/"
        f"{unmetered.clock.now} (identical)",
        f"  gate denials audited/metered: {checks['gate'][0]}/"
        f"{checks['gate'][1]}; ACL/MAC denials audited/monitor: "
        f"{checks['monitor'][0]}/{checks['monitor'][1]}",
    ])
