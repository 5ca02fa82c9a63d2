"""Population generation and the batch session driver.

The driver realizes a seeded population against one booted system:

1. every user principal is registered, and a single *author* session
   builds the shared program library (``>workload``) — one object
   segment per profile, ACL'd executable for the whole project, parsed
   once so ten thousand processes share one decoded
   :class:`~repro.hw.cpu.CodeSegment`, the simulated analogue of
   Multics' shared pure-procedure segments;
2. users arrive under the population's arrival process and log in
   through the non-privileged E14 listener path (``quiet`` — no
   per-terminal transcript at bulk scale), skipping the home-directory
   ceremony: each bulk session gets a private data segment in the
   library directory instead;
3. each session's interactive burst is compiled from its profile and
   fed through the SMP complex in batches; a burst's *interactive
   latency* is the simulated-cycle span from the user's arrival to its
   job completing (queueing included).

Everything is driven off the simulated clock and seeded generators, so
a run is a pure function of (config, population) — bench E18 leans on
that to compare the interpreter's superblocks against its
per-instruction body, and against a recorded fingerprint, byte for
byte.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.config import SupervisorKind
from repro.errors import AuthenticationError, KernelDenial
from repro.hw.cpu import CodeSegment
from repro.hw.smp import CpuJob
from repro.workloads.arrivals import bursty_arrivals, poisson_arrivals
from repro.workloads.profiles import (
    DEFAULT_MIX,
    PROFILES,
    Profile,
    build_program,
    rebind_data_segno,
)

#: Where the shared program library and the bulk data segments live.
LIBRARY_PATH = ">workload"


@dataclass(frozen=True)
class UserSpec:
    """One simulated user: who they are, how they behave, when they
    arrive (simulated cycles)."""

    person: str
    project: str
    password: str
    profile: Profile
    arrival: int


def generate_population(
    n: int,
    seed: int,
    mix: dict[str, float] | None = None,
    process: str = "poisson",
    mean_gap: float = 400.0,
    burst_size: int = 32,
    mean_lull: float = 20_000.0,
    project: str = "Load",
) -> list[UserSpec]:
    """A seeded population of ``n`` users.

    Profiles are drawn from ``mix`` (name -> weight, default
    :data:`~repro.workloads.profiles.DEFAULT_MIX`); arrivals come from
    the named ``process`` (``"poisson"`` or ``"bursty"``).  Same seed,
    same population.
    """
    weights = mix or DEFAULT_MIX
    unknown = set(weights) - set(PROFILES)
    if unknown:
        raise ValueError(f"unknown profiles in mix: {sorted(unknown)}")
    rng = random.Random(seed)
    names = list(weights)
    chosen = rng.choices(names, weights=[weights[k] for k in names], k=n)
    arrival_seed = rng.randrange(2**32)
    if process == "poisson":
        arrivals = poisson_arrivals(n, mean_gap, arrival_seed)
    elif process == "bursty":
        arrivals = bursty_arrivals(n, burst_size, mean_lull, arrival_seed)
    else:
        raise ValueError(f"unknown arrival process {process!r}")
    return [
        UserSpec(
            person=f"U{i:05d}",
            project=project,
            password="wl-pw",
            profile=PROFILES[name],
            arrival=when,
        )
        for i, (name, when) in enumerate(zip(chosen, arrivals))
    ]


@dataclass
class WorkloadReport:
    """What one driver run measured.

    Latencies are simulated cycles from a user's arrival to its burst
    completing; throughput numbers divide by the *wall* seconds the run
    took, which is what bench E18 compares across interpreter cores.
    """

    users: int = 0
    admitted: int = 0
    login_failures: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    start_clock: int = 0
    end_clock: int = 0
    wall_seconds: float = 0.0
    latencies: list[int] = field(default_factory=list, repr=False)

    @property
    def elapsed_cycles(self) -> int:
        return self.end_clock - self.start_clock

    def latency_percentile(self, q: float) -> int:
        """Nearest-rank percentile of the latency sample (0 if empty).

        ``q`` is clamped to [0, 1], so a degenerate quantile request
        never indexes off either end of the sample.
        """
        if not self.latencies:
            return 0
        ordered = sorted(self.latencies)
        index = int(q * (len(ordered) - 1) + 0.5)
        return ordered[max(0, min(len(ordered) - 1, index))]

    @property
    def p50_latency(self) -> int:
        return self.latency_percentile(0.50)

    @property
    def p95_latency(self) -> int:
        return self.latency_percentile(0.95)

    @property
    def users_per_sec(self) -> float:
        return self.admitted / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def cycles_per_sec(self) -> float:
        if not self.wall_seconds:
            return 0.0
        return self.elapsed_cycles / self.wall_seconds

    def to_dict(self) -> dict:
        return {
            "users": self.users,
            "admitted": self.admitted,
            "login_failures": self.login_failures,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "elapsed_cycles": self.elapsed_cycles,
            "wall_seconds": round(self.wall_seconds, 4),
            "users_per_sec": round(self.users_per_sec, 2),
            "cycles_per_sec": round(self.cycles_per_sec, 2),
            "p50_latency_cycles": self.p50_latency,
            "p95_latency_cycles": self.p95_latency,
        }


class WorkloadDriver:
    """Feed a population through one booted system's SMP complex."""

    AUTHOR = "Workload"

    def __init__(self, system, n_cpus: int | None = None,
                 batch_size: int = 64, quantum: int | None = None,
                 max_instructions: int = 1_000_000,
                 seed_words: int = 8, on_round=None) -> None:
        if system.config.supervisor is SupervisorKind.LEGACY:
            raise ValueError(
                "the workload driver logs in through the E14 listener; "
                "boot a kernel-supervisor system"
            )
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.system = system
        self.batch_size = batch_size
        self.quantum = quantum
        self.max_instructions = max_instructions
        self.seed_words = seed_words
        self.complex = system.cpu_complex(n_cpus)
        #: Forwarded to every ``run_jobs`` call — the hook a bench wires
        #: its chaos engine through at workload scale.
        self.on_round = on_round
        #: The system's timeline sampler (None when off): polled at
        #: burst boundaries so idle admission gaps still land in the
        #: right interval, and flushed once at run end.
        self._timeline = system.services.timeline
        self._listener = system.listener
        # The shared library: profile name -> (object, parsed code).
        self._library: dict[str, CodeSegment] = {}
        self._objects: dict[str, object] = {}
        self._author = None
        self._data_segno: int | None = None
        # Accounting (the workload.* metric sources).
        self.arrivals = 0
        self.logins = 0
        self.login_failures = 0
        self.batches = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.code_rebinds = 0
        self._register_metrics(system.metrics)

    def _register_metrics(self, metrics) -> None:
        metrics.counter("workload.arrivals", "users the driver admitted "
                        "to the login queue", source=lambda: self.arrivals)
        metrics.counter("workload.logins",
                        "bulk sessions admitted via the E14 listener",
                        source=lambda: self.logins)
        metrics.counter("workload.login_failures",
                        "bulk logins the kernel refused",
                        source=lambda: self.login_failures)
        metrics.counter("workload.batches",
                        "session batches fed to the SMP complex",
                        source=lambda: self.batches)
        metrics.counter("workload.jobs_completed",
                        "interactive bursts that returned",
                        source=lambda: self.jobs_completed)
        metrics.counter("workload.jobs_failed",
                        "interactive bursts contained after a fault",
                        source=lambda: self.jobs_failed)
        metrics.counter("workload.code_rebinds",
                        "sessions needing a private program copy",
                        source=lambda: self.code_rebinds)
        metrics.gauge("workload.active_sessions",
                      "sessions currently logged in",
                      source=lambda: self._listener.active_count)
        self._latency = metrics.histogram(
            "workload.latency",
            "arrival-to-completion interactive latency, simulated cycles",
        )

    # -- the shared program library --------------------------------------

    def _ensure_author(self):
        if self._author is None:
            self.system.register_user(self.AUTHOR, "Load", "wl-author-pw")
            self._author = self.system.login(
                self.AUTHOR, "Load", "wl-author-pw"
            )
            self._author.create_dir(LIBRARY_PATH)
            # Project members create their data segments here and
            # execute the library; "rw" on the directory covers entry
            # creation, per-object ACLs cover execution.
            self._author.set_acl(LIBRARY_PATH, "*.*", "rw")
        return self._author

    def _install_library(self, data_segno: int) -> None:
        """Install + parse every profile program, baked for
        ``data_segno`` (the segno bulk sessions' data lands on)."""
        author = self._ensure_author()
        page_size = self.system.config.page_size
        for name, profile in PROFILES.items():
            obj = build_program(profile, data_segno, page_size)
            path = f"{LIBRARY_PATH}>wl_{name}"
            segno = author.install_object(path, obj)
            author.set_acl(path, "*.*", "re")
            author.load_program(segno)
            self._objects[name] = obj
            # One parsed, decoded and block-compiled image for the
            # whole population.
            self._library[name] = author.process.code_segments[segno]

    # -- sessions ---------------------------------------------------------

    def _admit(self, spec: UserSpec, index: int) -> tuple | None:
        """Log one user in and stage its burst; None if login failed."""
        from repro.system import Session

        clock = self.system.clock
        if spec.arrival > clock.now:
            clock.advance_to(spec.arrival)
        self.arrivals += 1
        try:
            user = self._listener.login(
                spec.person, spec.project, spec.password,
                source="workload", quiet=True,
            )
        except (AuthenticationError, KernelDenial):
            self.login_failures += 1
            return None
        self.logins += 1
        process = self.system.services.created_processes[user.pid]
        session = Session(self.system, process, user.session_id)
        data = session.create_segment(
            f"{LIBRARY_PATH}>d{user.pid}", n_pages=spec.profile.data_pages
        )
        if self._data_segno is None:
            self._data_segno = data
            self._install_library(data)
        session.write_words(
            data,
            [(index * 7 + k) % 509 + 1 for k in range(self.seed_words)],
        )
        code_segno = session.initiate(
            f"{LIBRARY_PATH}>wl_{spec.profile.name}"
        )
        if data == self._data_segno:
            code = self._library[spec.profile.name]
        else:
            # This session's address space initiated in a different
            # order (it existed before the run, say); give it a private
            # image re-baked for where its data actually landed.
            self.code_rebinds += 1
            obj = rebind_data_segno(self._objects[spec.profile.name], data)
            code = CodeSegment(
                instructions=obj.code, entry_points=dict(obj.definitions)
            )
        process.code_segments[code_segno] = code
        job = CpuJob(
            ctx=process, segno=code_segno,
            entry=code.entry_points.get("main", 0),
            max_instructions=self.max_instructions,
            label=f"{spec.person}:{spec.profile.name}",
        )
        return job, spec

    # -- the run ----------------------------------------------------------

    def run(self, population: list[UserSpec]) -> WorkloadReport:
        """Admit the population in arrival order, run every burst, and
        report."""
        ordered = sorted(population, key=lambda spec: spec.arrival)
        self._ensure_author()  # the library directory must pre-date login
        for spec in ordered:
            self.system.register_user(spec.person, spec.project,
                                      spec.password)
        report = WorkloadReport(users=len(ordered))
        report.start_clock = self.system.clock.now
        wall0 = time.perf_counter()
        for at in range(0, len(ordered), self.batch_size):
            batch = ordered[at:at + self.batch_size]
            staged = [
                admitted
                for i, spec in enumerate(batch, start=at)
                if (admitted := self._admit(spec, i)) is not None
            ]
            if not staged:
                if self._timeline is not None:
                    self._timeline.poll()
                continue
            self.complex.run_jobs([job for job, _ in staged],
                                  quantum=self.quantum,
                                  on_round=self.on_round)
            self.batches += 1
            for job, spec in staged:
                if job.error is not None:
                    self.jobs_failed += 1
                    continue
                self.jobs_completed += 1
                latency = job.finished - spec.arrival
                self._latency.observe(latency)
                report.latencies.append(latency)
            if self._timeline is not None:
                self._timeline.poll()
        if self._timeline is not None:
            # Flush trailing activity mid-interval so the last sample
            # always covers through end_clock.
            self._timeline.poll(force=True)
        report.wall_seconds = time.perf_counter() - wall0
        report.end_clock = self.system.clock.now
        report.admitted = self.logins
        report.login_failures = self.login_failures
        report.jobs_completed = self.jobs_completed
        report.jobs_failed = self.jobs_failed
        return report
