"""The public API: a whole simulated Multics in one object.

:class:`MulticsSystem` assembles the hardware substrate, a supervisor
(legacy or security kernel, per configuration), an initialization
strategy (bootstrap or memory image), and an interrupt-handling design,
then boots.  :meth:`MulticsSystem.login` yields a :class:`Session`
whose methods mirror what a logged-in user could do: create and share
segments, walk the hierarchy, run programs on the simulated CPU with
dynamic linking.

The same ``Session`` API works against both supervisors — path
resolution goes through the in-kernel naming gates on the legacy
system and through the user-ring search machinery on the kernel — so
examples and benches exercise identical workloads on both.
"""

from __future__ import annotations

from repro.config import (
    InitKind,
    InterruptKind,
    SupervisorKind,
    SystemConfig,
    USER_RING,
)
from repro.errors import KernelDenial
from repro.faults.salvager import (
    HierarchySalvager,
    SalvageReport,
    mark_clean,
    mark_running,
)
from repro.fs.directory import SEP
from repro.hw.cpu import CPU
from repro.init.bootstrap import BootstrapInitializer
from repro.init.image import ImageBuilder, boot_from_image
from repro.kernel.kernel import SecurityKernel
from repro.kernel.legacy import LegacySupervisor
from repro.kernel.services import KernelServices
from repro.proc.interrupt_procs import (
    DedicatedProcessDispatch,
    InProcessDispatch,
)
from repro.proc.ipc import Charge, Wakeup
from repro.proc.process import Process
from repro.security.mac import BOTTOM, SecurityLabel
from repro.security.principal import KERNEL_PRINCIPAL
from repro.user.linker import UserRingLinker
from repro.user.login import LoginListener
from repro.user.refnames import ReferenceNameManager
from repro.user.search_rules import UserSearchRules


class MulticsSystem:
    """A complete system instance."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        services: KernelServices | None = None,
    ) -> None:
        """Build a system, optionally over *existing* kernel services.

        Passing ``services`` models rebooting a machine from the same
        backing store: the memory hierarchy, file system, and audit log
        survive; supervisor and dispatch structures are rebuilt.  The
        crash-recovery harness uses this to reboot after a simulated
        crash and let the salvager repair what it finds.
        """
        if services is not None:
            if config is not None and config is not services.config:
                raise ValueError(
                    "pass either a config or existing services, not both"
                )
            self.config = services.config
            self.services = services
        else:
            self.config = config or SystemConfig()
            self.config.validate()
            self.services = KernelServices(self.config)
        if self.config.supervisor is SupervisorKind.LEGACY:
            self.supervisor = LegacySupervisor(self.services)
        else:
            self.supervisor = SecurityKernel(self.services)
        self._install_interrupt_dispatch()
        # The initializer: the kernel's own agent for boot-time actions.
        self.initializer = Process(
            "initializer", ring=0, principal=KERNEL_PRINCIPAL
        )
        self.boot_privileged_steps = 0
        self.image = None
        self.listener: LoginListener | None = None
        self.salvage_report: SalvageReport | None = None
        self._booted = False

    # -- construction details --------------------------------------------------

    def _install_interrupt_dispatch(self) -> None:
        costs = self.config.costs
        if self.config.interrupts is InterruptKind.DEDICATED:
            self.interrupt_dispatch = DedicatedProcessDispatch(
                self.services.interrupts, self.services.scheduler, costs
            )
        else:
            self.interrupt_dispatch = InProcessDispatch(
                self.services.interrupts, self.services.scheduler, costs
            )
        # One handler per device line: acknowledge and wake anyone
        # waiting for that device.
        for line in range(1, 7):
            channel = self.services.scheduler.create_channel(f"dev.done.{line}")

            def handler(payload, _channel=channel):
                yield Charge(30)  # the device-specific acknowledgement work
                yield Wakeup(_channel, payload)

            self.interrupt_dispatch.register(line, handler)

    # -- boot ----------------------------------------------------------------------

    def boot(self) -> "MulticsSystem":
        """Initialize per the configured strategy; idempotent.

        When the ``salvager_data`` marker shows the previous session
        never shut down cleanly, the hierarchy salvager runs *before*
        initialization — a privileged boot step — so the strategy's
        manifest finds a consistent tree.
        """
        if self._booted:
            return self
        salvager = HierarchySalvager(self.services)
        salvage_steps = 0
        if salvager.needed():
            self.salvage_report = salvager.salvage()
            salvage_steps = 1
        if self.config.init is InitKind.BOOTSTRAP:
            initializer = BootstrapInitializer()
            initializer.boot(self.services)
            self.boot_privileged_steps = initializer.privileged_steps_run
        else:
            # The image is generated in a user environment "of a
            # previous system"; boot is verify + manifest.
            self.image = ImageBuilder().build(self.config)
            self.boot_privileged_steps = boot_from_image(
                self.services, self.image
            )
        self.boot_privileged_steps += salvage_steps
        if self.config.supervisor is SupervisorKind.SECURITY_KERNEL:
            # The user-ring login listener, running as a daemon.
            listener_proc = Process(
                "login_listener", ring=USER_RING, principal=KERNEL_PRINCIPAL
            )
            self.listener = LoginListener(self.supervisor, listener_proc)
        # From here on, anything but shutdown() is an unclean end.
        mark_running(self.services)
        self._booted = True
        return self

    def shutdown(self) -> None:
        """Orderly shutdown: write the clean marker so the next boot
        skips the salvager.  The system object can boot() again."""
        if not self._booted:
            return
        mark_clean(self.services)
        self.services.audit.log(
            self.services.sim.clock.now,
            str(KERNEL_PRINCIPAL),
            "system",
            "shutdown",
            "granted",
            "clean shutdown marker written",
        )
        self._booted = False

    # -- supervisor swap (specialized kernels) ---------------------------------

    def install_supervisor(self, supervisor) -> object:
        """Swap the active supervisor (e.g. a ``SpecializedKernel``)
        over the *same* kernel services; returns the previous one.

        The new supervisor's gate table claims the ``gate.*`` metric
        sources (latest owner wins), and on a booted kernel system the
        login listener is rebuilt so new logins mint processes through
        the installed perimeter.  Installing before :meth:`boot` means
        the system runs specialized from its first gate call.
        """
        if supervisor.services is not self.services:
            raise ValueError(
                "supervisor was built over different kernel services"
            )
        previous = self.supervisor
        self.supervisor = supervisor
        supervisor.gates.claim_metrics()
        if self._booted and self.config.supervisor is not SupervisorKind.LEGACY:
            listener_proc = Process(
                "login_listener", ring=USER_RING, principal=KERNEL_PRINCIPAL
            )
            self.listener = LoginListener(self.supervisor, listener_proc)
        return previous

    # -- user management -----------------------------------------------------------

    def register_user(
        self,
        person: str,
        project: str,
        password: str,
        clearance: SecurityLabel = BOTTOM,
    ) -> None:
        self.services.register_user(person, [project], password, clearance)

    def login(
        self, person: str, project: str, password: str, source: str = "network"
    ) -> "Session":
        """Log a user in; returns a live session."""
        if not self._booted:
            raise RuntimeError("boot() first")
        if self.config.supervisor is SupervisorKind.LEGACY:
            # The in-kernel answering service does everything.
            driver = Process("tty_driver", ring=USER_RING,
                             principal=KERNEL_PRINCIPAL)
            session_id = self.supervisor.call(
                driver, "as_$login", person, project, password, "tty1"
            )
            svc = self.services.answering_service
            pid = svc.sessions[session_id].pid
        else:
            user_session = self.listener.login(
                person, project, password, source=source
            )
            session_id = user_session.session_id
            pid = user_session.pid
        process = self.services.created_processes[pid]
        session = Session(self, process, session_id)
        session._ensure_home()
        return session

    # -- running the simulation -----------------------------------------------------

    def run(self, until: int | None = None, max_events: int = 10_000_000) -> None:
        self.services.sim.run(until=until, max_events=max_events)

    def add_process(self, process: Process) -> None:
        self.services.scheduler.add_process(process)

    def cpu_complex(self, n_cpus: int | None = None) -> "SmpComplex":
        """Build the SMP execution complex over this system's kernel.

        ``n_cpus`` defaults to ``config.cpu_count()``.  The complex's
        CPUs share core memory, page control (under the page-table
        lock), and the traffic-control lock with the rest of the
        system; each has its own associative memory.  Execution is
        deterministic lockstep — see :mod:`repro.hw.smp`.
        """
        from repro.hw.smp import SmpComplex

        services = self.services
        return SmpComplex(
            sim=services.sim,
            config=self.config,
            core=services.hierarchy.core,
            page_control=services.page_control,
            ast=services.ast,
            tc_lock=services.scheduler.tc_lock,
            metrics=services.metrics,
            tracer=services.tracer,
            meters=services.meters,
            n_cpus=n_cpus,
            timeline=services.timeline,
        )

    def chaos_engine(self, scenario, complex_=None) -> "ChaosEngine":
        """Wire a chaos scenario to this system's topology and injector.

        ``scenario`` is a :class:`repro.faults.ChaosScenario` or the
        dict form of one.  When the system booted without a fault plan
        there is no hardware injector; a bookkeeping-only injector over
        an empty plan is built so commanded faults still land in the
        audit trail and ``faults.*`` books.
        """
        from repro.faults.chaos import ChaosEngine, ChaosScenario
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan

        if isinstance(scenario, dict):
            scenario = ChaosScenario.from_dict(scenario)
        services = self.services
        injector = services.injector
        if injector is None:
            injector = FaultInjector(
                FaultPlan([], seed=scenario.seed),
                audit=services.audit,
                clock=services.sim.clock,
                metrics=services.metrics,
            )
        return ChaosEngine(
            scenario,
            services.topology,
            injector,
            complex_=complex_,
            metrics=services.metrics,
            tracer=services.tracer,
        )

    # -- convenience handles ------------------------------------------------------------

    @property
    def scheduler(self):
        return self.services.scheduler

    @property
    def topology(self):
        """The simulated network topology around the attachment."""
        return self.services.topology

    @property
    def clock(self):
        return self.services.sim.clock

    @property
    def audit(self):
        return self.services.audit

    @property
    def metrics(self):
        """The system-wide metrics registry (repro.obs)."""
        return self.services.metrics

    @property
    def tracer(self):
        """The system-wide event tracer (repro.obs)."""
        return self.services.tracer

    @property
    def meters(self):
        """The system-wide metering plane (repro.obs)."""
        return self.services.meters

    @property
    def timeline(self):
        """The interval timeline sampler, or None when off (repro.obs)."""
        return self.services.timeline

    @property
    def health(self):
        """The SLO health monitor, or None when off (repro.obs)."""
        return self.services.health

    def timeline_document(self) -> dict | None:
        """The run's ``repro.timeline/v1`` document (None when off)."""
        return self.services.timeline_document()


class Session:
    """A logged-in user's handle on the system.

    Paths are Multics tree names (``>udd>Proj>person>file``) or names
    relative to the session's working directory.
    """

    def __init__(self, system: MulticsSystem, process: Process,
                 session_id: int) -> None:
        self.system = system
        self.process = process
        self.session_id = session_id
        self._sup = system.supervisor
        self._legacy = system.config.supervisor is SupervisorKind.LEGACY
        if not self._legacy:
            # User-ring naming environment (the removal's destination).
            self.search = UserSearchRules(self._sup, process)
            self.refnames = ReferenceNameManager(self._sup, process)
            self.linker = UserRingLinker(
                self._sup, process, self.refnames, self.search
            )
        else:
            self.search = None
            self.refnames = None
            self.linker = None

    # -- raw gate access ------------------------------------------------------------

    def call(self, gate: str, *args):
        return self._sup.call(self.process, gate, *args)

    @property
    def principal(self):
        return self.process.principal

    # -- home directory -----------------------------------------------------------------

    def _ensure_home(self) -> None:
        p = self.process.principal
        self.home_path = f">udd>{p.project}>{p.person}"
        for path in (f">udd>{p.project}", self.home_path):
            try:
                self._mkdir_abs(path)
            except KernelDenial:
                continue  # already exists (or another session made it)
            # Multics convention: project members may read (traverse)
            # the project and home directories; only the owner writes.
            try:
                self.set_acl(path, f"*.{p.project}", "r")
            except KernelDenial:
                pass
        try:
            self.set_working_dir(self.home_path)
        except KernelDenial:
            # A highly cleared user may be unable to create a home under
            # the unclassified >udd (the *-property forbids the write);
            # such sessions start at the root and work in upgraded
            # directories they create explicitly.
            self.home_path = SEP
            self.set_working_dir(SEP)

    def _mkdir_abs(self, path: str) -> int:
        parts = [p for p in path.split(SEP) if p]
        if self._legacy:
            return self.call("hcs_$create_dir_path", path)
        dir_segno = self.search.resolve_dir(SEP + SEP.join(parts[:-1]))
        return self.call(
            "hcs_$create_directory", dir_segno, parts[-1],
            self.process.principal.clearance,
        )

    # -- naming operations (two implementations, one API) ----------------------------------

    def set_working_dir(self, path: str) -> None:
        if self._legacy:
            self.call("hcs_$set_wdir", path)
        else:
            self.search.set_working_dir(path)
            self._wdir_path = path

    def working_dir(self) -> str:
        if self._legacy:
            return self.call("hcs_$get_wdir")
        # User-ring: the session tracks it itself; reconstruct lazily.
        return self._wdir_path if hasattr(self, "_wdir_path") else SEP

    def resolve_parent(self, path: str) -> tuple[int, str]:
        """(directory segno, entry name) for a path."""
        if self._legacy:
            full = self.call("hcs_$expand_pathname", path)
            parts = [p for p in full.split(SEP) if p]
            parent = SEP + SEP.join(parts[:-1])
            dir_segno = self.call("hcs_$initiate_path", parent)
            return dir_segno, parts[-1]
        return self.search.resolve(path)

    def initiate(self, path: str) -> int:
        if self._legacy:
            return self.call("hcs_$initiate_path", path)
        return self.search.initiate_path(path)

    # -- segment lifecycle ------------------------------------------------------------------

    def create_segment(self, path: str, n_pages: int = 1,
                       label: SecurityLabel | None = None) -> int:
        """Create a segment; returns its segment number (initiated)."""
        label = label if label is not None else self.process.principal.clearance
        dir_segno, name = self.resolve_parent(path)
        self.call("hcs_$create_segment", dir_segno, name, n_pages, label)
        return self.call("hcs_$initiate", dir_segno, name)

    def create_dir(self, path: str,
                   label: SecurityLabel | None = None) -> int:
        label = label if label is not None else self.process.principal.clearance
        dir_segno, name = self.resolve_parent(path)
        return self.call("hcs_$create_directory", dir_segno, name, label)

    def delete(self, path: str) -> int:
        dir_segno, name = self.resolve_parent(path)
        return self.call("hcs_$delete_entry", dir_segno, name)

    def list_dir(self, path: str = "") -> list[dict]:
        if path:
            if self._legacy:
                return self.call("hcs_$list_path", path)
            return self.call(
                "hcs_$list_directory", self.search.resolve_dir(path)
            )
        if self._legacy:
            return self.call("hcs_$list_path", self.call("hcs_$get_wdir"))
        return self.call(
            "hcs_$list_directory", self.search.working_dir_segno
        )

    def set_acl(self, path: str, pattern: str, mode: str) -> int:
        dir_segno, name = self.resolve_parent(path)
        return self.call("hcs_$acl_add", dir_segno, name, pattern, mode)

    def status(self, path: str) -> dict:
        dir_segno, name = self.resolve_parent(path)
        return self.call("hcs_$status", dir_segno, name)

    # -- data access (hardware-checked loads/stores) --------------------------------------------

    def write_words(self, segno: int, words: list[int], offset: int = 0) -> None:
        self.system.services.write_segment_words(
            self.process, segno, words, offset
        )

    def read_words(self, segno: int, count: int, offset: int = 0) -> list[int]:
        return [
            self.system.services.read_word(self.process, segno, offset + i)
            for i in range(count)
        ]

    # -- program execution on the simulated CPU ---------------------------------------------------

    def make_cpu(self) -> CPU:
        """A CPU wired to this session's fault handlers.

        Missing pages are serviced by page control; linkage faults by
        the user-ring linker (kernel system) or the in-kernel linker
        gates (legacy system).
        """
        services = self.system.services

        def on_missing_page(ctx, segno, pageno):
            uid = ctx.dseg.get(segno).uid
            services.page_control.service_sync(services.ast.get(uid), pageno)

        if self._legacy:
            def on_linkage_fault(ctx, index):
                self.call("lk_$snap", index)
        else:
            on_linkage_fault = self.linker.fault_handler()

        return CPU(
            core=services.hierarchy.core,
            costs=self.system.config.costs,
            ring_mode=self.system.config.ring_mode,
            page_size=self.system.config.page_size,
            on_missing_page=on_missing_page,
            on_linkage_fault=on_linkage_fault,
            am_enabled=self.system.config.am_enabled,
            metrics=services.metrics,
            tracer=services.tracer,
            meters=services.meters,
        )

    def install_object(self, path: str, obj, n_pages: int | None = None) -> int:
        """Write an object segment into the file system and make it
        executable; returns its segment number."""
        from repro.user.object_format import encode_object

        words = encode_object(obj)
        page_size = self.system.config.page_size
        pages = n_pages or (len(words) + page_size - 1) // page_size + 1
        segno = self.create_segment(path, n_pages=pages)
        self.write_words(segno, words)
        dir_segno, name = self.resolve_parent(path)
        self.call("hcs_$set_bit_count", dir_segno, name, len(words) * 36)
        return segno

    def load_program(self, segno: int):
        """Parse + register the object segment for execution."""
        if self._legacy:
            return self.call("lk_$make_linkage", segno)
        return self.linker.load_object(segno)

    def program_job(self, segno: int, entry: str = "main",
                    args: list[int] | None = None,
                    max_instructions: int = 1_000_000,
                    label: str = ""):
        """A :class:`repro.hw.smp.CpuJob` running an installed program
        as this session's process (for ``MulticsSystem.cpu_complex``).

        The program is loaded (linked) first if needed, so the complex
        never takes a linkage fault mid-round.
        """
        from repro.hw.smp import CpuJob

        code = self.process.code_segments.get(segno)
        if code is None:
            self.load_program(segno)
            code = self.process.code_segments[segno]
        return CpuJob(
            ctx=self.process,
            segno=segno,
            entry=code.entry_points.get(entry, 0),
            args=list(args or []),
            max_instructions=max_instructions,
            label=label or f"{self.process.name}:{entry}",
        )

    def run_program(self, segno: int, entry: str = "main",
                    args: list[int] | None = None) -> int:
        """Execute an installed program on the simulated CPU."""
        code = self.process.code_segments.get(segno)
        if code is None:
            self.load_program(segno)
            code = self.process.code_segments[segno]
        offset = code.entry_points.get(entry, 0)
        cpu = self.make_cpu()
        return cpu.execute(self.process, segno, offset, args or [])

    def logout(self) -> None:
        # Process destruction deactivates the address space: resident
        # pages are written back to disk homes (their residue fate is
        # then the storage system's clearing policy — experiment E11).
        services = self.system.services
        for sdw in list(self.process.dseg):
            if sdw.uid is not None and sdw.uid in services.ast:
                aseg = services.ast.get(sdw.uid)
                services.page_control.deactivate_segment(aseg)
        if self._legacy:
            driver = Process("tty_driver", ring=USER_RING,
                             principal=KERNEL_PRINCIPAL)
            self._sup.call(driver, "as_$logout", self.session_id)
        else:
            self.system.listener.logout(self.session_id)
