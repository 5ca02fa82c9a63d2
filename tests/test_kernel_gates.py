"""Tests for the gate registry, validators, and the perimeter censuses."""

import pytest

from repro.config import SystemConfig
from repro.errors import AccessViolation, InvalidArgument
from repro.kernel import metrics
from repro.kernel.gates import Gate, GateTable, GateViolationError, VALIDATORS
from repro.kernel.kernel import build_kernel
from repro.kernel.legacy import build_legacy
from repro.kernel.services import KernelServices
from repro.proc.process import Process
from repro.security.principal import Principal


@pytest.fixture
def kernel(config):
    return build_kernel(config)


@pytest.fixture
def legacy(config):
    return build_legacy(config)


def user_process(name="u", ring=4):
    return Process(name, ring=ring, principal=Principal("Test", "Proj"))


class TestValidators:
    @pytest.mark.parametrize(
        "spec,good,bad",
        [
            ("int", 5, "five"),
            ("int", -5, 1.5),
            ("uint", 0, -1),
            ("segno", 8, True),
            ("str", "x", 9),
            ("name", "notes", "with>sep"),
            ("path", ">a>b", "relative"),
            ("mode", "rw", "rx"),
            ("pattern", "Alice.Crypto", "a.b.c.d"),
            ("words", [1, 2], [1, "a"]),
        ],
    )
    def test_specs(self, spec, good, bad):
        VALIDATORS[spec](good)
        with pytest.raises(InvalidArgument):
            VALIDATORS[spec](bad)

    def test_label_spec(self):
        from repro.security.mac import SecurityLabel

        VALIDATORS["label"](SecurityLabel(1))
        with pytest.raises(InvalidArgument):
            VALIDATORS["label"]("secret")

    def test_any_accepts_everything(self):
        VALIDATORS["any"](object())


class TestGateTable:
    def make_table(self, config):
        services = KernelServices(config)
        return services, GateTable(services, services.audit)

    def test_register_and_call(self, config):
        services, table = self.make_table(config)
        table.register(
            Gate("t_$add", "test", lambda s, p, a, b: a + b, ("int", "int"))
        )
        assert table.call(user_process(), "t_$add", 2, 3) == 5
        assert table.calls == 1

    def test_duplicate_name_rejected(self, config):
        services, table = self.make_table(config)
        gate = Gate("t_$x", "test", lambda s, p: None)
        table.register(gate)
        with pytest.raises(ValueError):
            table.register(gate)
        # Still exactly one registration; the table is unchanged.
        assert table.names().count("t_$x") == 1

    def test_unknown_gate(self, config):
        services, table = self.make_table(config)
        with pytest.raises(GateViolationError):
            table.call(user_process(), "no_such_gate")

    def test_unregistered_gate_lookup(self, config):
        services, table = self.make_table(config)
        with pytest.raises(GateViolationError):
            table.gate("hcs_$never_registered")
        assert "hcs_$never_registered" not in table

    def test_claim_metrics_rebinds_to_the_claiming_table(self, config):
        services, first = self.make_table(config)
        first.register(Gate("t_$x", "test", lambda s, p: None, ()))
        first.call(user_process(), "t_$x")
        second = GateTable(services, services.audit)  # claims on init
        assert services.metrics.snapshot()["counters"]["gate.calls"] == 0
        first.claim_metrics()
        assert services.metrics.snapshot()["counters"]["gate.calls"] == 1
        assert second.calls == 0

    def test_argument_count_enforced(self, config):
        services, table = self.make_table(config)
        table.register(Gate("t_$one", "test", lambda s, p, a: a, ("int",)))
        with pytest.raises(InvalidArgument):
            table.call(user_process(), "t_$one")
        with pytest.raises(InvalidArgument):
            table.call(user_process(), "t_$one", 1, 2)

    def test_argument_validated_before_handler(self, config):
        services, table = self.make_table(config)
        ran = []
        table.register(
            Gate("t_$w", "test", lambda s, p, a: ran.append(a), ("uint",))
        )
        with pytest.raises(InvalidArgument):
            table.call(user_process(), "t_$w", -3)
        assert ran == []  # handler never saw the bad argument
        assert table.rejections == 1

    def test_privileged_gate_ring_checked(self, config):
        from repro.kernel.gates import PRIVILEGED_GATE

        services, table = self.make_table(config)
        table.register(
            Gate("t_$admin", "test", lambda s, p: "ok", (),
                 brackets=PRIVILEGED_GATE)
        )
        with pytest.raises(AccessViolation):
            table.call(user_process(ring=4), "t_$admin")
        assert table.call(user_process(ring=1), "t_$admin") == "ok"

    def test_handler_crash_is_supervisor_incident(self, config):
        services, table = self.make_table(config)

        def bad_handler(s, p):
            raise IndexError("walked off the input")

        table.register(Gate("t_$crash", "test", bad_handler, ()))
        with pytest.raises(IndexError):
            table.call(user_process(), "t_$crash")
        assert services.supervisor_incidents == 1

    def test_handler_crash_is_an_error_not_a_denial(self, config):
        """A crashed handler logs one ``error`` record and one incident;
        the ``audit.denials`` counter counts exactly what ``denied()``
        returns, so the crash is not counted as a refusal."""
        services, table = self.make_table(config)

        def bad_handler(s, p):
            raise IndexError("walked off the input")

        table.register(Gate("t_$crash", "test", bad_handler, ()))
        table.register(Gate("t_$one", "test", lambda s, p, a: a, ("int",)))
        with pytest.raises(InvalidArgument):
            table.call(user_process(), "t_$one", "x")
        with pytest.raises(IndexError):
            table.call(user_process(), "t_$crash")
        error = services.audit.records[-1]
        assert (error.object, error.outcome) == ("t_$crash", "error")
        assert services.supervisor_incidents == 1
        counters = services.metrics.snapshot()["counters"]
        assert counters["audit.denials"] == len(services.audit.denied()) == 1

    def test_cross_ring_cost_charged(self, config):
        from repro.config import RingMode

        config.ring_mode = RingMode.SOFTWARE_645
        services, table = self.make_table(config)
        table.register(Gate("t_$x", "test", lambda s, p: None, ()))
        process = user_process()
        table.call(process, "t_$x")
        assert process.cpu_cycles >= config.costs.cross_ring_penalty_645

    def test_calls_audited(self, config):
        services, table = self.make_table(config)
        table.register(Gate("t_$x", "test", lambda s, p: None, ()))
        table.call(user_process(), "t_$x")
        assert services.audit.records[-1].outcome == "granted"

    def test_ring_restored_after_call(self, config):
        services, table = self.make_table(config)
        table.register(Gate("t_$x", "test", lambda s, p: p.ring, ()))
        process = user_process(ring=4)
        # The handler runs in ring 0; the caller returns to ring 4.
        assert table.call(process, "t_$x") == 0
        assert process.ring == 4


class TestUnknownGate:
    """A call naming a gate the supervisor does not export is a refusal
    like any other: audited, and counted as a rejection."""

    def test_unknown_gate_call_is_audited_and_rejected(self):
        from repro import MulticsSystem, kernel_config
        from repro.config import USER_RING
        from repro.kernel.specialize import KernelProfiler

        system = MulticsSystem(kernel_config()).boot()
        system.register_user("Alice", "Crypto", "alice-pw")
        session = system.login("Alice", "Crypto", "alice-pw")
        gates = system.supervisor.gates
        profiler = KernelProfiler(system)
        before, rejections = len(system.audit), gates.rejections
        with pytest.raises(GateViolationError):
            session.call("hcs_$no_such_gate", 1)
        (record,) = system.audit.records[before:]
        assert (record.object, record.action, record.outcome,
                record.category, record.ring) == (
            "hcs_$no_such_gate", "call", "denied", "unknown_gate",
            USER_RING)
        assert gates.rejections == rejections + 1
        # The name is caller-chosen: no per-name meter, no profile entry.
        assert "hcs_$no_such_gate" not in system.meters.gate_usage()
        assert "hcs_$no_such_gate" not in profiler.profile("probe").gates
        checks = system.services.audit_cross_check()
        assert all(audited == counted for audited, counted in checks.values())


class TestDenyStubGates:
    """Edge cases of the specialized table's deny stubs: the stub
    keeps the original gate's brackets and signature, so everything
    the choke point enforces fires before (or instead of) the stub."""

    def make_table(self, config, profile_gates=()):
        from repro.kernel.specialize import GateProfile, SpecializedGateTable

        services = KernelServices(config)
        table = SpecializedGateTable(
            services, services.audit, GateProfile("edge", profile_gates)
        )
        return services, table

    def test_duplicate_stub_registration_rejected(self, config):
        services, table = self.make_table(config)
        gate = Gate("t_$x", "test", lambda s, p: None)
        table.register_stub(gate)
        with pytest.raises(ValueError):
            table.register_stub(gate)
        with pytest.raises(ValueError):
            table.register(gate)

    def test_stub_keeps_privileged_brackets(self, config):
        from repro.errors import SpecializationDenial
        from repro.kernel.gates import PRIVILEGED_GATE

        services, table = self.make_table(config)
        table.register_stub(
            Gate("t_$admin", "test", lambda s, p: "ok", (),
                 brackets=PRIVILEGED_GATE)
        )
        # From the user ring the bracket check fires first: an
        # AccessViolation, not a SpecializationDenial, and no stub hit.
        with pytest.raises(AccessViolation) as excinfo:
            table.call(user_process(ring=4), "t_$admin")
        assert not isinstance(excinfo.value, SpecializationDenial)
        assert table.deny_stub_hits == 0
        # From a trusted ring the bracket admits the call — into the
        # stub, which refuses.
        with pytest.raises(SpecializationDenial):
            table.call(user_process(ring=1), "t_$admin")
        assert table.deny_stub_hits == 1

    def test_stub_validates_arguments_before_denying(self, config):
        from repro.errors import InvalidArgument, SpecializationDenial

        services, table = self.make_table(config)
        table.register_stub(
            Gate("t_$one", "test", lambda s, p, a: a, ("uint",))
        )
        with pytest.raises(InvalidArgument):
            table.call(user_process(), "t_$one", -3)
        assert table.deny_stub_hits == 0  # validation fired first
        with pytest.raises(SpecializationDenial):
            table.call(user_process(), "t_$one", 3)
        assert table.deny_stub_hits == 1


class TestPerimeterCensus:
    """Experiments E1 and E2: the before/after gate counts."""

    def test_legacy_larger_than_kernel(self, kernel, legacy):
        assert legacy.gate_count() > kernel.gate_count()
        assert legacy.user_available_count() > kernel.user_available_count()

    def test_e1_linker_is_about_ten_percent(self, legacy):
        comparison = metrics.linker_removal(legacy)
        assert comparison.removed == 10
        assert 0.08 <= comparison.fraction_removed <= 0.14

    def test_e2_linker_plus_naming_about_one_third(self, legacy):
        comparison = metrics.linker_and_naming_removal(legacy)
        assert 0.30 <= comparison.fraction_removed <= 0.42

    def test_kernel_has_no_removable_gates(self, kernel):
        census = metrics.gate_census(kernel)
        assert set(census.by_removal) == {"kept"}

    def test_legacy_removal_tags(self, legacy):
        census = metrics.gate_census(legacy)
        assert census.by_removal["linker"] == 10
        assert census.by_removal["naming"] == 23
        assert census.by_removal["device_io"] == 11

    def test_kernel_keeps_exactly_the_kept_gates(self, kernel, legacy):
        legacy_kept = {
            g.name for g in legacy.gates.user_available_gates()
            if g.removed_by is None
        }
        kernel_names = {g.name for g in kernel.gates.user_available_gates()}
        assert kernel_names == legacy_kept


class TestCodeSizeMetrics:
    """Experiment E3 and the protected-code reports."""

    def test_count_statements_excludes_docstrings(self):
        source = '''
def f(x):
    """Docstring."""
    y = x + 1
    return y
'''
        assert metrics.count_statements(source) == 3  # def, assign, return

    def test_e3_address_space_code_shrinks(self, kernel, legacy):
        ratio = metrics.address_space_reduction(legacy, kernel)
        assert ratio > 3.0  # paper claims 10x; see EXPERIMENTS.md

    def test_protected_code_report(self, kernel, legacy):
        kernel_size = metrics.protected_code_report(kernel).total
        legacy_size = metrics.protected_code_report(legacy).total
        assert legacy_size > kernel_size
        assert kernel_size > 0

    def test_legacy_protected_modules_superset(self, kernel, legacy):
        kernel_mods = {m.__name__ for m in kernel.protected_modules()}
        legacy_mods = {m.__name__ for m in legacy.protected_modules()}
        assert kernel_mods < legacy_mods
