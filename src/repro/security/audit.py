"""The kernel's audit log: every security-relevant decision, in order.

Every reference-monitor decision and every gate invocation is recorded
here — the kernel's one audit store.  The penetration experiments use
the log to demonstrate that no attack produced an ``allowed`` record it
should not have, and its completeness guarantee is structural: there is
no other place a denial can be recorded, and the log drops nothing.

Each record carries the principal, the object, the ring the request
came from, a category naming the mechanism that decided (``acl``,
``mac``, ``ring``, ``gate``, ``args``, ``unknown_gate``,
``revocation``), the outcome, and the simulated timestamp.
:meth:`AuditLog.to_json` exports the whole log as one ``repro.audit/v1``
document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class AuditRecord:
    time: int
    subject: str        #: principal string
    object: str         #: what was referenced (path, uid, gate name)
    action: str         #: requested access or gate name
    outcome: str        #: "granted" | "denied" | "error" | ...
    detail: str = ""
    #: Ring the request was made from (None when not applicable).
    ring: int | None = None
    #: Deciding mechanism: "acl", "mac", "ring", "gate", "args", ...
    category: str = ""


@dataclass
class AuditLog:
    records: list[AuditRecord] = field(default_factory=list)
    #: Records whose outcome is ``denied`` — always ``len(denied())``,
    #: kept as the log grows so samplers can poll it for free.
    denials: int = field(default=0, init=False)

    def log(
        self,
        time: int,
        subject: str,
        obj: str,
        action: str,
        outcome: str,
        detail: str = "",
        ring: int | None = None,
        category: str = "",
    ) -> None:
        self.records.append(
            AuditRecord(time, subject, obj, action, outcome, detail,
                        ring, category)
        )
        if outcome == "denied":
            self.denials += 1

    # -- queries -----------------------------------------------------------

    def granted(self) -> list[AuditRecord]:
        return [r for r in self.records if r.outcome == "granted"]

    def denied(self) -> list[AuditRecord]:
        return [r for r in self.records if r.outcome == "denied"]

    def by_subject(self, subject: str) -> list[AuditRecord]:
        return [r for r in self.records if r.subject == subject]

    def by_object(self, obj: str) -> list[AuditRecord]:
        return [r for r in self.records if r.object == obj]

    def by_category(self, category: str) -> list[AuditRecord]:
        return [r for r in self.records if r.category == category]

    def __len__(self) -> int:
        return len(self.records)

    def tail(self, n: int = 10) -> list[AuditRecord]:
        return self.records[-n:]

    # -- export and metrics ------------------------------------------------

    def to_json(self, indent: int | None = 2) -> str:
        """The whole log as one self-describing JSON document; ``seq``
        is each record's 1-based position."""
        return json.dumps(
            {
                "schema": "repro.audit/v1",
                "seen": len(self.records),
                "denials": self.denials,
                "records": [
                    {"seq": seq, "time": r.time, "principal": r.subject,
                     "object": r.object, "action": r.action,
                     "ring": r.ring, "category": r.category,
                     "decision": r.outcome, "detail": r.detail}
                    for seq, r in enumerate(self.records, start=1)
                ],
            },
            indent=indent,
        )

    def register_metrics(self, registry) -> None:
        """Expose the log under ``audit.*`` in the shared registry."""
        registry.counter("audit.seen", "decisions recorded",
                         source=lambda: len(self.records))
        registry.counter("audit.denials", "records with outcome denied",
                         source=lambda: self.denials)
