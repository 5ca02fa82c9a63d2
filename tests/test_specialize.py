"""Specialized per-workload kernels (ROADMAP item 2, bench E21).

The profiler folds a training run's audit/meter traces into a
GateProfile; specialize() generates a kernel whose table populates
only the profiled gates; everything else is a deny-and-audit stub.
The penetration suite is the regression gate: full, specialized, and
empty-profile kernels must all hold it, and the empty profile must
deny *everything*.
"""

import pytest

from repro import MulticsSystem, kernel_config
from repro.config import USER_RING
from repro.errors import (
    AccessViolation,
    KernelDenial,
    SpecializationDenial,
)
from repro.kernel.orchestrator import KernelOrchestrator
from repro.kernel.specialize import (
    EMPTY_PROFILE,
    GateProfile,
    KernelProfiler,
    SpecializedKernel,
    full_kernel_gates,
    specialize,
)
from repro.security.flaws import run_penetration_suite
from repro.security.mac import BOTTOM

#: A syntactically valid argument for every validator spec, so a call
#: reaches the handler (or its deny stub) instead of dying in
#: argument validation.
DUMMY_ARGS = {
    "int": 0,
    "uint": 0,
    "segno": 0,
    "str": "x",
    "name": "x",
    "path": ">x",
    "mode": "r",
    "pattern": "*.*.*",
    "label": BOTTOM,
    "words": [0],
    "any": 0,
}


def dummy_args(gate):
    return tuple(DUMMY_ARGS[spec] for spec in gate.signature)


def train(system, person="Alice", project="Crypto", password="alice-pw"):
    """A small training workload: the session ops the workload engine's
    profiles are built from."""
    session = system.login(person, project, password)
    segno = session.create_segment("training_data", n_pages=2)
    session.write_words(segno, [1, 2, 3])
    session.read_words(segno, 3)
    session.set_acl("training_data", f"*.{project}", "r")
    session.status("training_data")
    session.delete("training_data")
    session.logout()


# ---------------------------------------------------------------------------
# GateProfile
# ---------------------------------------------------------------------------

class TestGateProfile:
    def test_coerces_iterables_to_frozensets(self):
        p = GateProfile("p", gates=["a", "b", "a"], services=("fs",))
        assert p.gates == frozenset({"a", "b"})
        assert isinstance(p.services, frozenset)

    def test_contains(self):
        p = GateProfile("p", gates={"hcs_$initiate"})
        assert "hcs_$initiate" in p
        assert "net_$send" not in p

    def test_round_trip(self):
        p = GateProfile("p", gates={"a"}, fault_paths={"page_fault"},
                        services={"fs"}, trained_calls=7)
        assert GateProfile.from_dict(p.to_dict()) == p

    def test_merge_unions_everything(self):
        a = GateProfile("a", gates={"g1"}, services={"fs"}, trained_calls=2)
        b = GateProfile("b", gates={"g2"}, fault_paths={"interrupt"},
                        trained_calls=3)
        m = a.merge(b)
        assert m.name == "a+b"
        assert m.gates == {"g1", "g2"}
        assert m.fault_paths == {"interrupt"}
        assert m.services == {"fs"}
        assert m.trained_calls == 5

    def test_empty_profile_has_no_gates(self):
        assert not EMPTY_PROFILE.gates
        assert EMPTY_PROFILE.trained_calls == 0


# ---------------------------------------------------------------------------
# KernelProfiler
# ---------------------------------------------------------------------------

class TestKernelProfiler:
    def test_profile_covers_the_training_workload(self, kernel_system):
        profiler = KernelProfiler(kernel_system)
        train(kernel_system)
        profile = profiler.profile("training")
        # The workload's session ops, the login path, and the naming
        # machinery all show up.
        for gate in ("hcs_$proc_create", "hcs_$create_segment",
                     "hcs_$acl_add", "hcs_$delete_entry",
                     "hcs_$initiate", "hcs_$proc_destroy"):
            assert gate in profile.gates
        assert profile.trained_calls > 0
        assert "fs" in profile.services
        assert "process" in profile.services
        # 2-page writes through a tiny core: the page-fault path ran.
        assert "page_fault" in profile.fault_paths

    def test_ring_denied_gates_are_not_entered(self, kernel_system):
        profiler = KernelProfiler(kernel_system)
        session = kernel_system.login("Alice", "Crypto", "alice-pw")
        root = session.call("hcs_$get_root")
        with pytest.raises(AccessViolation):
            session.call("hcs_$set_quota", root, 10**9)
        profile = profiler.profile("probe")
        assert "hcs_$set_quota" not in profile.gates
        assert "hcs_$get_root" in profile.gates

    def test_mark_resets_the_baseline(self, kernel_system):
        profiler = KernelProfiler(kernel_system)
        train(kernel_system)
        first = profiler.profile("first", remark=True)
        assert first.gates
        quiet = profiler.profile("quiet")
        assert quiet.gates == frozenset()
        assert quiet.trained_calls == 0


# ---------------------------------------------------------------------------
# SpecializedKernel
# ---------------------------------------------------------------------------

class TestSpecializedKernel:
    @pytest.fixture
    def trained(self, kernel_system):
        """(system, profile) after a training run."""
        profiler = KernelProfiler(kernel_system)
        train(kernel_system)
        return kernel_system, profiler.profile("trained")

    def test_census_partitions_the_full_inventory(self, trained):
        system, profile = trained
        kernel = specialize(system, profile)
        total = len(full_kernel_gates())
        assert kernel.gate_count() == total  # perimeter census unchanged
        assert kernel.gates.live_gate_count() == len(profile.gates)
        assert kernel.gates.stub_count() == total - len(profile.gates)

    def test_own_workload_runs_without_stub_hits(self, trained):
        system, profile = trained
        kernel = specialize(system, profile)
        previous = system.install_supervisor(kernel)
        try:
            train(system, person="Bob", password="bob-pw")
        finally:
            system.install_supervisor(previous)
        assert kernel.gates.deny_stub_hits == 0

    def test_unprofiled_gate_denied_and_audited(self, trained):
        system, profile = trained
        assert "net_$send" not in profile.gates
        kernel = specialize(system, profile)
        session = system.login("Eve", "Spies", "eve-pw")
        denials_before = len(system.audit.denied())
        audited, metered = system.services.audit_cross_check()["gate"]
        with pytest.raises(SpecializationDenial):
            kernel.call(session.process, "net_$send", "remote", "data")
        assert kernel.gates.deny_stub_hits == 1
        # One funnel: the denial is in the audit log, and the per-gate
        # meters counted it independently.
        denied = system.audit.denied()
        assert len(denied) == denials_before + 1
        assert denied[-1].object == "net_$send"
        assert denied[-1].category == "gate"
        assert system.services.audit_cross_check()["gate"] == (
            audited + 1, metered + 1)

    def test_stub_keeps_ring_brackets(self, trained):
        system, profile = trained
        kernel = specialize(system, profile)
        session = system.login("Eve", "Spies", "eve-pw")
        # hcs_$set_quota is privileged *and* unprofiled: the ring check
        # still fires first, exactly as on the full kernel.
        root = session.call("hcs_$get_root")
        with pytest.raises(AccessViolation):
            kernel.call(session.process, "hcs_$set_quota", root, 10**9)
        assert kernel.gates.deny_stub_hits == 0

    def test_surface_report_measures_reduction(self, trained):
        system, profile = trained
        kernel = specialize(system, profile)
        report = kernel.surface_report()
        assert report["gates_live"] + report["deny_stubs"] == report["gates_total"]
        assert 0 < report["gate_reduction"] < 1
        assert report["reachable_statements"] < report["full_statements"]
        assert 0 < report["statement_reduction"] < 1

    def test_empty_profile_denies_every_user_gate(self):
        system = MulticsSystem(kernel_config()).boot()
        kernel = specialize(system, EMPTY_PROFILE)
        from repro.proc.process import Process
        from repro.security.principal import Principal

        process = Process("probe", ring=USER_RING,
                          principal=Principal("Probe", "Test"))
        user_gates = privileged = 0
        for gate in full_kernel_gates():
            args = dummy_args(gate)
            if gate.user_available():
                user_gates += 1
                with pytest.raises(SpecializationDenial):
                    kernel.call(process, gate.name, *args)
            else:
                privileged += 1
                with pytest.raises(AccessViolation):
                    kernel.call(process, gate.name, *args)
        assert user_gates + privileged == len(full_kernel_gates())
        # Every user-reachable gate hit the stub; the ring check kept
        # the privileged ones from ever entering.
        assert kernel.gates.deny_stub_hits == user_gates
        assert kernel.gates.live_gate_count() == 0

    def test_install_supervisor_rejects_foreign_services(self, kernel_system):
        other = MulticsSystem(kernel_config())
        foreign = specialize(other, EMPTY_PROFILE)
        with pytest.raises(ValueError):
            kernel_system.install_supervisor(foreign)

    def test_specialize_metrics_registered(self, trained):
        system, profile = trained
        kernel = specialize(system, profile)
        names = system.metrics.names()
        for name in ("specialize.kernels", "specialize.gates",
                     "specialize.deny_stubs", "specialize.deny_stub_hits",
                     "specialize.reachable_statements"):
            assert name in names
        snapshot = system.metrics.snapshot()
        assert snapshot["gauges"]["specialize.kernels"] == 1
        assert snapshot["gauges"]["specialize.gates"] == len(profile.gates)


# ---------------------------------------------------------------------------
# The penetration-regression gate (satellite for E11/E21)
# ---------------------------------------------------------------------------

class TestPenetrationRegression:
    def _deny_complete(self, system):
        checks = system.services.audit_cross_check()
        return all(audited == counted for audited, counted in checks.values())

    def test_full_kernel_still_holds(self, kernel_system):
        report = run_penetration_suite(kernel_system)
        assert report.successes == 0
        assert report.attempted == len(report.results)

    def test_specialized_kernel_holds(self):
        system = MulticsSystem(kernel_config()).boot()
        system.register_user("Alice", "Crypto", "alice-pw")
        profiler = KernelProfiler(system)
        train(system)
        kernel = specialize(system, profiler.profile("trained"))
        report = run_penetration_suite(system, supervisor=kernel)
        assert report.system_kind == "specialized:trained"
        assert report.successes == 0
        assert self._deny_complete(system)
        # The injection was transient: the full kernel is back.
        assert system.supervisor is not kernel

    def test_empty_profile_denies_everything(self):
        system = MulticsSystem(kernel_config()).boot()
        kernel = specialize(system, EMPTY_PROFILE)
        stub_hits_before = kernel.gates.deny_stub_hits
        report = run_penetration_suite(system, supervisor=kernel)
        assert report.successes == 0
        # Not one attack got past login: every result is an up-front
        # denial, and each one is on the audit trail.
        for result in report.results:
            assert "denied before the attack could run" in result.detail
        assert kernel.gates.deny_stub_hits > stub_hits_before
        assert self._deny_complete(system)

    def test_legacy_suite_unchanged_by_parameterization(self, legacy_system):
        report = run_penetration_suite(legacy_system)
        assert report.successes >= 3  # the legacy flaws still reproduce


# ---------------------------------------------------------------------------
# KernelOrchestrator
# ---------------------------------------------------------------------------

class TestKernelOrchestrator:
    @pytest.fixture
    def orchestrated(self, kernel_system):
        """System + orchestrator with two trained tenant classes."""
        profiler = KernelProfiler(kernel_system)
        train(kernel_system)
        fs_profile = profiler.profile("fs_tenant", remark=True)
        net_profile = GateProfile(
            "net_tenant",
            gates=fs_profile.gates | {"net_$attach", "net_$send",
                                      "net_$status"},
            services=fs_profile.services | {"io_network"},
            trained_calls=fs_profile.trained_calls,
        )
        orch = KernelOrchestrator(kernel_system)
        orch.add_tenant("fs", fs_profile)
        orch.add_tenant("net", net_profile)
        return kernel_system, orch

    def test_legacy_substrate_rejected(self, legacy_system):
        with pytest.raises(ValueError):
            KernelOrchestrator(legacy_system)

    def test_duplicate_tenant_rejected(self, orchestrated):
        _, orch = orchestrated
        with pytest.raises(ValueError):
            orch.add_tenant("fs", EMPTY_PROFILE)

    def test_unknown_tenant_rejected(self, orchestrated):
        _, orch = orchestrated
        with pytest.raises(ValueError):
            orch.kernel_for("nosuch")
        with pytest.raises(ValueError):
            orch.login("nosuch", "Alice", "Crypto", "alice-pw")

    def test_sessions_route_to_their_tenant_kernel(self, orchestrated):
        system, orch = orchestrated
        fs_user = orch.login("fs", "Fay", "Load", "fay-pw")
        net_user = orch.login("net", "Ned", "Load", "ned-pw")
        assert orch.tenant_of(fs_user.process) == "fs"
        assert orch.tenant_of(net_user.process) == "net"
        assert fs_user._sup is orch.kernel_for("fs")
        # Each tenant's own workload is granted by its own kernel.
        segno = fs_user.create_segment("fs_data", n_pages=1)
        fs_user.write_words(segno, [7])
        net_user.call("net_$attach")
        net_user.call("net_$send", "remote-host", "hello")
        assert orch.kernel_for("fs").gates.deny_stub_hits == 0
        assert orch.kernel_for("net").gates.deny_stub_hits == 0

    def test_cross_tenant_gate_is_denied_and_audited(self, orchestrated):
        system, orch = orchestrated
        fs_user = orch.login("fs", "Fay", "Load", "fay-pw")
        denials_before = len(system.audit.denied())
        with pytest.raises(SpecializationDenial):
            orch.call(fs_user.process, "net_$send", "remote-host", "leak")
        assert orch.kernel_for("fs").gates.deny_stub_hits == 1
        assert orch.routed_calls == 1
        denied = system.audit.denied()
        assert denied[-1].object == "net_$send"
        # The same call through the *full* kernel would have been
        # granted: shared substrate, per-tenant perimeter.
        assert "net_$send" in system.supervisor.gates

    def test_unrouted_process_falls_back_to_full_kernel(self, orchestrated):
        system, orch = orchestrated
        session = system.login("Alice", "Crypto", "alice-pw")
        root = orch.call(session.process, "hcs_$get_root")
        assert root == session.call("hcs_$get_root")
        assert orch.unrouted_calls == 1

    def test_installed_restores_the_system(self, orchestrated):
        system, orch = orchestrated
        before_sup, before_listener = system.supervisor, system.listener
        with orch.installed("fs") as kernel:
            assert system.supervisor is kernel
            assert system.listener is orch.listeners["fs"]
        assert system.supervisor is before_sup
        assert system.listener is before_listener

    def test_logout_goes_through_the_tenant_listener(self, orchestrated):
        system, orch = orchestrated
        fs_user = orch.login("fs", "Fay", "Load", "fay-pw")
        assert orch.listeners["fs"].active_count == 1
        orch.logout(fs_user)
        assert orch.listeners["fs"].active_count == 0
        assert orch.tenant_of(fs_user.process) is None
        with pytest.raises(ValueError):
            orch.logout(fs_user)

    def test_route_process_binds_existing_processes(self, orchestrated):
        system, orch = orchestrated
        session = system.login("Bob", "Crypto", "bob-pw")
        orch.route_process(session.process, "fs")
        assert orch.tenant_of(session.process) == "fs"
        orch.call(session.process, "hcs_$get_root")
        assert orch.routed_calls == 1

    def test_orchestrator_metrics(self, orchestrated):
        system, orch = orchestrated
        snapshot = system.metrics.snapshot()
        assert snapshot["gauges"]["specialize.tenants"] == 2
        assert snapshot["gauges"]["specialize.kernels"] == 2
        assert "specialize.routed_calls" in snapshot["counters"]
        assert "specialize.unrouted_calls" in snapshot["counters"]
