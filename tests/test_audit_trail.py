"""Tests for the kernel's audit log (repro.security.audit): queries,
counters, the ``repro.audit/v1`` export, and the completeness
guarantee — every deny raised anywhere appears in the log, and the log
agrees with the denial counters kept outside it."""

import json

import pytest

from repro.errors import AccessDenied, AccessViolation, InvalidArgument
from repro.fs.acl import Acl
from repro.hw.segmentation import AccessMode
from repro.obs import MetricsRegistry
from repro.security.audit import AuditLog
from repro.security.mac import SecurityLabel
from repro.security.reference_monitor import ReferenceMonitor
from repro.system import MulticsSystem

from tests.test_security_reference_monitor import branch, subject


class TestTrailMechanics:
    def test_queries(self):
        log = AuditLog()
        log.log(1, "Alice.Crypto", "a", "r", "granted", category="acl")
        log.log(2, "Eve.Spies", "a", "w", "denied", category="mac")
        assert len(log.denied()) == 1
        assert len(log.by_subject("Eve.Spies")) == 1
        assert len(log.by_category("mac")) == 1

    def test_json_export_round_trips(self):
        log = AuditLog()
        log.log(3, "Alice.Crypto", "data", "r", "granted", category="acl")
        log.log(5, "Alice.Crypto", "data", "rw", "denied",
                "acl grants only 'r'", ring=4, category="acl")
        doc = json.loads(log.to_json())
        assert doc["schema"] == "repro.audit/v1"
        assert (doc["seen"], doc["denials"]) == (2, 1)
        assert [r["seq"] for r in doc["records"]] == [1, 2]
        assert doc["records"][1] == {
            "seq": 2, "time": 5, "principal": "Alice.Crypto",
            "object": "data", "action": "rw", "ring": 4,
            "category": "acl", "decision": "denied",
            "detail": "acl grants only 'r'",
        }


class TestLogForwarding:
    """Every decision point forwards into the one log: direct entries,
    and the reference monitor's branch and sink checks."""

    def test_every_log_entry_reaches_the_trail(self):
        """Every entry lands in the records and in ``audit.seen``;
        ``denials`` is ``len(denied())`` — errors and other non-granted
        outcomes are not refusals."""
        log = AuditLog()
        log.log(1, "p", "o", "r", "granted")
        log.log(2, "p", "o", "w", "denied", "no", ring=4, category="mac")
        log.log(3, "p", "o", "call", "error", "boom", category="gate")
        log.log(4, "kernel", "site", "drop", "injected")
        assert log.denials == len(log.denied()) == 1
        registry = MetricsRegistry()
        log.register_metrics(registry)
        counters = registry.snapshot()["counters"]
        assert (counters["audit.seen"], counters["audit.denials"]) == (4, 1)

    def test_monitor_denials_land_in_trail_with_category(self):
        rm = ReferenceMonitor(audit=AuditLog())
        with pytest.raises(AccessDenied):
            rm.check(subject(), branch(acl=Acl.make(("*.*.*", "r"))),
                     AccessMode.W, ring=4)
        with pytest.raises(AccessDenied):
            rm.check(subject(level=0), branch(label=SecurityLabel(2)),
                     AccessMode.R)
        with pytest.raises(AccessDenied):
            rm.check(subject(level=2), branch(label=SecurityLabel(0)),
                     AccessMode.W)
        denied = rm.audit.denied()
        assert [r.category for r in denied] == ["acl", "mac", "mac"]
        assert denied[0].ring == 4
        assert rm.denials == rm.audit.denials == 3

    def test_sink_write_is_a_monitor_decision(self):
        rm = ReferenceMonitor(audit=AuditLog())
        rm.check_sink_write(subject(level=0), "net:h", SecurityLabel(0),
                            "the channel")
        with pytest.raises(AccessDenied):
            rm.check_sink_write(subject(level=2), "net:h",
                                SecurityLabel(0), "the channel", ring=4)
        (record,) = rm.audit.records  # a grant is not logged
        assert (record.object, record.category, record.ring) == (
            "net:h", "mac", 4)
        assert (rm.checks, rm.denials) == (2, 1)


class TestSystemCompleteness:
    """Replayed deny scenarios against a booted system: each refusal
    has its record in the kernel's AuditLog."""

    def make_system(self):
        from repro import kernel_config

        system = MulticsSystem(kernel_config()).boot()
        system.register_user("Alice", "Crypto", "alice-pw")
        system.register_user("Eve", "Spies", "eve-pw")
        return system

    def provoke_denials(self, system):
        alice = system.login("Alice", "Crypto", "alice-pw")
        eve = system.login("Eve", "Spies", "eve-pw")
        segno = alice.create_segment("secret")
        alice.write_words(segno, [7])
        alice.set_acl("secret", "Alice.Crypto", "rw")
        # ACL denial: Eve initiates Alice's segment.
        with pytest.raises(AccessDenied):
            eve.initiate(f"{alice.home_path}>secret")
        # Argument denial: malformed gate argument.
        with pytest.raises(InvalidArgument):
            alice.call("hcs_$initiate", -1, "secret")
        # Ring denial: a user-ring call to a privileged gate.
        with pytest.raises(AccessViolation):
            alice.call("hcs_$proc_list")
        return alice, eve

    def test_every_deny_has_a_trail_record(self):
        """Each refusal provoked above is in the log, and the log
        agrees with the counters the meters and the reference monitor
        keep on their own."""
        system = self.make_system()
        self.provoke_denials(system)
        denied = system.audit.denied()
        assert [r.category for r in denied] == ["acl", "gate", "args",
                                                "ring"]
        assert system.audit.denials == len(denied)
        checks = system.services.audit_cross_check()
        assert checks == {"gate": (3, 3), "monitor": (1, 1)}
        doc = json.loads(system.audit.to_json())
        exported = [r for r in doc["records"] if r["decision"] == "denied"]
        assert [(r["time"], r["principal"], r["object"])
                for r in exported] == [
            (r.time, r.subject, r.object) for r in denied]

    def test_revocation_sweeps_are_recorded(self):
        system = self.make_system()
        alice = system.login("Alice", "Crypto", "alice-pw")
        alice.create_segment("shared")
        alice.set_acl("shared", "Eve.Spies", "r")
        revocations = system.audit.by_category("revocation")
        assert revocations
        assert all(r.action == "revoke" for r in revocations)
