"""In-memory host-time spans around the kernel's public layer calls.

A :class:`SpanRecorder` replaces a fixed set of methods *at class level*
with wrappers that record one span per call: name, start, end, parent
span, user id, and whether the call raised.  The wrappers exist only
between :meth:`SpanRecorder.install` and :meth:`SpanRecorder.remove`,
so untraced runs execute the unmodified classes.

Every wrapped method is looked up through the instance or class at call
time by its callers (no caller binds one at import time), so a
class-level wrapper sees every call.  The one layer that has no public
method of its own on the hot path -- the interpreter loop inside
``CPU`` -- is timed through its nearest public caller,
``SmpComplex.run_jobs``, less the page-control spans nested inside it.
"""

from __future__ import annotations

import functools
import time

from repro.hw.smp import SmpComplex
from repro.kernel.gates import GateTable
from repro.kernel.services import KernelServices
from repro.security.audit import AuditLog
from repro.security.reference_monitor import ReferenceMonitor
from repro.user.login import LoginListener
from repro.user.search_rules import UserSearchRules
from repro.vm.page_control import PageControl

#: Order of the fields in each recorded span (and in the written file).
FIELDS = ("name", "start_ns", "end_ns", "parent", "user", "raised")


def _person(process) -> str | None:
    principal = getattr(process, "principal", None)
    return principal.person if principal is not None else None


#: (class, method, user-id extractor over the call's positional args).
#: A ``None`` extractor inherits the user of the enclosing span.
WRAPPED = (
    (SmpComplex, "run_jobs", None),
    (PageControl, "service_sync", None),
    (LoginListener, "login", lambda a: a[1]),
    (UserSearchRules, "resolve", lambda a: _person(a[0]._process)),
    (GateTable, "call", lambda a: _person(a[1])),
    (ReferenceMonitor, "check", lambda a: a[1].person),
    (AuditLog, "log", lambda a: a[2].split(".", 1)[0]),
    (KernelServices, "directory_by_segno", lambda a: _person(a[1])),
    (KernelServices, "revoke_branch_access", None),
)


def installed() -> list[str]:
    """The wrapped methods currently replaced by a span wrapper."""
    return [f"{cls.__name__}.{attr}" for cls, attr, _ in WRAPPED
            if hasattr(cls.__dict__[attr], "span_name")]


class SpanRecorder:
    """Records spans while installed; see module docstring."""

    def __init__(self) -> None:
        #: One list per span, laid out as :data:`FIELDS`.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[type, str, object]] = []
        #: Distinct (segment uid, page) pairs that took a missing-page
        #: fault while installed: the first touches.
        self.first_touches: set[tuple[int, int]] = set()

    def install(self) -> "SpanRecorder":
        if self._installed:
            raise RuntimeError("span wrappers already installed")
        for cls, attr, user_of in WRAPPED:
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrapper(
                f"{cls.__name__}.{attr}", original, user_of,
                self._note_fault if attr == "service_sync" else None,
            ))
            self._installed.append((cls, attr, original))
        return self

    def remove(self) -> None:
        while self._installed:
            cls, attr, original = self._installed.pop()
            setattr(cls, attr, original)

    def __enter__(self) -> "SpanRecorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def _note_fault(self, args) -> None:
        aseg, pageno = args[1], args[2]
        if not aseg.ptws[pageno].in_core:
            self.first_touches.add((aseg.uid, pageno))

    def _wrapper(self, name, original, user_of, on_enter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            user = user_of(args) if user_of is not None else None
            if user is None and parent >= 0:
                user = spans[parent][4]
            if on_enter is not None:
                on_enter(args)
            span = [name, 0, 0, parent, user, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return original(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()

        wrapper.span_name = name
        return wrapper


class SpanStats:
    """Per-name aggregates over recorded spans (self time excludes the
    time child spans cover)."""

    def __init__(self, spans: list[list]) -> None:
        child_ns = [0] * len(spans)
        for start, end, parent in ((s[1], s[2], s[3]) for s in spans):
            if parent >= 0:
                child_ns[parent] += end - start
        self.calls: dict[str, int] = {}
        self.raised: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.durations_ns: dict[str, list[int]] = {}
        for i, (name, start, end, _parent, _user, raised) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.raised[name] = self.raised.get(name, 0) + raised
            self.self_ns[name] = (self.self_ns.get(name, 0)
                                  + end - start - child_ns[i])
            self.durations_ns.setdefault(name, []).append(end - start)
        self.total_self_ns = sum(self.self_ns.values())

    def self_s(self, *names: str) -> float:
        return sum(self.self_ns.get(n, 0) for n in names) / 1e9

    def us_quantile(self, name: str, q: float) -> float:
        """Nearest-rank per-call duration quantile, microseconds."""
        values = sorted(self.durations_ns.get(name, ()))
        if not values:
            return 0.0
        return values[round(q * (len(values) - 1))] / 1e3


#: Layer -> (end-to-end metrics it should move, workload where it does
#: the most work, workload where it does the least).  Printed with every
#: traced run so a per-layer change can be read against its prediction.
LAYERS = {
    "hw.cpu": ("users_per_s", "interactive", "gate-churn"),
    "hw.smp": ("sim_latency_p99_cycles", "paging-thrash", "interactive"),
    "vm.page_control": ("users_per_s sim_latency_p99_cycles",
                        "paging-thrash", "interactive"),
    "hw.memory": ("sim_latency_p99_cycles", "paging-thrash", "gate-churn"),
    "kernel.locks": ("sim_latency_p99_cycles", "paging-thrash",
                     "interactive"),
    "hw.assoc": ("sim_cycles_per_user", "paging-thrash gate-churn",
                 "interactive"),
    "user.login": ("users_per_s", "gate-churn", "paging-thrash"),
    "user.search_rules": ("users_per_s", "gate-churn", "paging-thrash"),
    "kernel.gates": ("users_per_s sim_cycles_per_user", "gate-churn",
                     "paging-thrash"),
    "security.reference_monitor": ("users_per_s", "gate-churn",
                                   "interactive"),
    "security.audit": ("users_per_s heap_kib_per_user", "gate-churn",
                       "paging-thrash"),
    "kernel.services": ("users_per_s", "gate-churn", "interactive"),
    "obs.meters": ("sim_cycles_per_user", "each split its own",
                   "each split its own"),
}
