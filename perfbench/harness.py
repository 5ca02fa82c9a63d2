"""The benchmark's three workloads: configs, seeded inputs, runs, checks.

Every run boots the kernel supervisor from the default
:class:`~repro.config.SystemConfig`, changing only the frame sizes and
the simulated CPU count, and drives users through public entry points:

* ``interactive`` -- bench E18's population (``DEFAULT_MIX``, Poisson
  arrivals) through :meth:`WorkloadDriver.run` on large memories, so
  page faults are first touches and the interpreter dominates.
* ``paging-thrash`` -- half ``paging``, half ``io`` users through the
  same driver on 64 core and 256 bulk frames, so working sets far
  exceed core and page control, transfers and the page-table lock work.
* ``gate-churn`` -- no CPU bursts: each user logs in through the
  listener and runs a fixed sequence of ``Session`` gate calls (create,
  write and read back, a neighbour denied / granted / revoked, status,
  delete, logout).  Gate calls are synchronous and charge cycles
  without advancing the simulated clock, so the harness serves users
  one after another on a simulated listener: the clock moves to each
  arrival and then on by the gate cycles the user's step charged.

``BENCHMARK.json`` lists gate-churn and paging-thrash; interactive
stays runnable by name.  Each run checks its own outputs; a check that
fails marks the user failed and records a problem string in
:class:`Outcome`.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time
from dataclasses import dataclass, field

from repro import MulticsSystem, SystemConfig
from repro.errors import AccessViolation, KernelDenial
from repro.system import Session
from repro.workloads import (
    DEFAULT_MIX,
    WorkloadDriver,
    generate_population,
    poisson_arrivals,
)

N_CPUS = 2
#: Bench E18's memories: 10k users' working sets fit, faults are first
#: touches only.
E18_FRAMES = dict(page_size=16, core_frames=16384, bulk_frames=32768,
                  disk_frames=65536)
#: Working sets far beyond core and bulk store.
THRASH_FRAMES = dict(page_size=16, core_frames=64, bulk_frames=256,
                     disk_frames=65536)
THRASH_MIX = {"paging": 0.5, "io": 0.5}
#: Words each driver session's data segment is seeded with, and the
#: formula it uses (``WorkloadDriver._admit``); the result model below
#: replays the program over the same words.
SEED_WORDS = 8
#: Mean simulated cycles between gate-churn arrivals: a login storm
#: faster than the listener serves it, so latency is queueing.
CHURN_MEAN_GAP = 40.0
CHURN_DIR = ">churn"
CHURN_PROJECT = "Churn"
#: Audit records one refused ``hcs_$initiate`` leaves: the reference
#: monitor's denial and the gate boundary's.
AUDITED_PER_DENIAL = 2


class CheckFailed(Exception):
    """An output of the kernel differs from what the workload expects."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Workload:
    name: str
    users: int
    frames: dict
    #: Driver profile mix; None for gate-churn.
    mix: dict | None

    def config(self) -> SystemConfig:
        return SystemConfig(n_cpus=N_CPUS, **self.frames)


WORKLOADS = {
    w.name: w for w in (
        Workload("interactive", 2000, E18_FRAMES, DEFAULT_MIX),
        Workload("gate-churn", 1000, E18_FRAMES, None),
        Workload("paging-thrash", 1000, THRASH_FRAMES, THRASH_MIX),
    )
}


@dataclass
class Outcome:
    """What one run measured and what its checks found."""

    users: int
    correct_users: int
    #: Host seconds of boot, population, registration and directories.
    setup_s: float
    #: Host seconds of the timed phase (users served).
    wall_s: float
    #: The timed phase cut into consecutive windows, in host seconds:
    #: one per SMP round and one per batch admission, or one per
    #: gate-churn user.  The same seed cuts the same windows, so the
    #: windows of repetitions line up.
    windows: list[float]
    #: Host seconds from the start of ``run`` to its end (timed phase
    #: plus the driver's own registration and library set-up).
    outer_s: float
    sim: dict
    final_clock: int
    audit_digest: str
    #: Counter deltas over ``run`` (repro.obs/v1 names).
    counters: dict
    instructions: int
    #: Invalidations of the SMP complex's private AMs (not in am.*).
    cpu_am_invalidations: int
    problems: list[str] = field(default_factory=list)

    def identity(self) -> tuple:
        """What two same-seed runs must reproduce exactly."""
        return (self.sim, self.final_clock, self.audit_digest)


def _counters(system) -> dict:
    values = dict(system.metrics.snapshot()["counters"])
    values["meters.gate_cycles"] = sum(
        g.cycles for g in system.meters.gate_usage().values()
    )
    return values


def _audit_digest(system) -> str:
    digest = hashlib.sha256()
    for record in system.audit.records:
        digest.update(repr(record).encode())
    return digest.hexdigest()


def _percentile(values: list[int], q: float) -> int:
    ordered = sorted(values)
    return ordered[round(q * (len(ordered) - 1))] if ordered else 0


def population(workload: Workload, seed: int):
    """The seeded inputs of one workload (same seed, same inputs)."""
    if workload.mix is not None:
        return generate_population(workload.users, seed=seed,
                                   mix=workload.mix)
    rng = random.Random(seed)
    arrivals = poisson_arrivals(workload.users, CHURN_MEAN_GAP,
                                rng.randrange(2**32))
    return [
        (f"C{i:05d}", arrival, [rng.randrange(1, 2**20) for _ in range(8)])
        for i, arrival in enumerate(arrivals)
    ]


def program_result(profile, words: list[int], page_size: int) -> int:
    """Pure-Python model of ``build_program(profile)`` over a data
    segment holding ``words`` at offset 0 and zeros after."""
    span = profile.data_pages * page_size
    memory = dict(enumerate(words))
    acc = 0
    for i in range(profile.iters):
        offset = (i * profile.stride) % span
        acc += memory.get(offset, 0)
        if profile.stores:
            memory[offset] = acc
        for _ in range(profile.alu):
            acc = acc * 3 % 8191
    return acc


class Prepared:
    """A booted system with its population registered, ready to run."""

    def __init__(self, workload: Workload, seed: int) -> None:
        t0 = time.perf_counter()
        self.workload = workload
        self.system = MulticsSystem(workload.config()).boot()
        self.population = population(workload, seed)
        if workload.mix is not None:
            #: Host time at the end of every SMP round and batch.
            self.stamps: list[float] = []
            self.driver = WorkloadDriver(self.system, n_cpus=N_CPUS,
                                         on_round=self._stamp)
            self.jobs = []
            self.driver.complex.run_jobs = self._capturing(
                self.driver.complex
            )
        else:
            for person, _arrival, _words in self.population:
                self.system.register_user(person, CHURN_PROJECT, "pw")
            self.system.register_user("Owner", CHURN_PROJECT, "owner-pw")
            owner = self.system.login("Owner", CHURN_PROJECT, "owner-pw")
            owner.create_dir(CHURN_DIR)
            owner.set_acl(CHURN_DIR, "*.*", "rw")
        # Collect set-up's garbage here, so no full collection of it
        # lands in the timed phase.
        gc.collect()
        self.setup_s = time.perf_counter() - t0

    def _stamp(self, _complex) -> None:
        self.stamps.append(time.perf_counter())

    def _capturing(self, complex_):
        """Instance-level wrapper recording every batch's jobs.  It
        calls the class's ``run_jobs`` at call time, so a traced run's
        class-level span wrapper still sees the call."""
        jobs, stamps = self.jobs, self.stamps

        def run_jobs(batch, *args, **kwargs):
            jobs.extend(batch)
            done = type(complex_).run_jobs(complex_, batch, *args, **kwargs)
            stamps.append(time.perf_counter())
            return done

        return run_jobs

    def run(self) -> Outcome:
        system = self.system
        before = _counters(system)
        t0 = time.perf_counter()
        if self.workload.mix is not None:
            outcome = self._run_driver()
        else:
            outcome = self._run_churn()
        outcome.outer_s = time.perf_counter() - t0
        # The driver registers its population and builds its library
        # directory inside run(), before its own timed phase.
        outcome.setup_s = self.setup_s + outcome.outer_s - outcome.wall_s
        after = _counters(system)
        outcome.counters = {k: after[k] - before.get(k, 0) for k in after}
        outcome.sim["sim_cycles_per_user"] = (
            outcome.counters["meter.total_cycles"] / outcome.users
        )
        outcome.final_clock = system.clock.now
        outcome.audit_digest = _audit_digest(system)
        return outcome

    # -- interactive and paging-thrash -----------------------------------

    def _run_driver(self) -> Outcome:
        report = self.driver.run(self.population)
        stamps = self.stamps
        # The first window runs from the driver's own start, so it
        # takes what the stamped windows leave of its timed phase.
        windows = [report.wall_seconds - (stamps[-1] - stamps[0])]
        windows += [t - t_prev for t_prev, t in zip(stamps, stamps[1:])]
        outcome = self._outcome(
            wall_s=report.wall_seconds, windows=windows,
            latencies=report.latencies,
            instructions=sum(job.instructions for job in self.jobs),
            cpu_am_invalidations=sum(
                cpu.private_am.invalidations
                for cpu in self.driver.complex.cpus
            ),
        )
        problems = outcome.problems
        if report.login_failures or report.jobs_failed:
            problems.append(f"{report.login_failures} refused logins, "
                            f"{report.jobs_failed} contained jobs")
        ordered = sorted(self.population, key=lambda spec: spec.arrival)
        index = {spec.person: i for i, spec in enumerate(ordered)}
        page_size = self.workload.frames["page_size"]
        expected_cache: dict = {}
        correct = set()
        for job in self.jobs:
            person = job.label.split(":", 1)[0]
            i = index[person]
            profile = ordered[i].profile
            # The driver's seed words repeat with period 509 in i.
            key = (profile.name, i % 509)
            if key not in expected_cache:
                words = [(i * 7 + k) % 509 + 1 for k in range(SEED_WORDS)]
                expected_cache[key] = program_result(profile, words,
                                                     page_size)
            if job.error is None and job.result == expected_cache[key]:
                correct.add(person)
            elif len(problems) < 10:
                problems.append(f"{job.label}: result {job.result} "
                                f"error {job.error!r}, expected "
                                f"{expected_cache[key]}")
        if len(self.jobs) != outcome.users:
            problems.append(f"{len(self.jobs)} jobs for "
                            f"{outcome.users} users")
        outcome.correct_users = len(correct)
        denied = len(self.system.audit.denied())
        if denied:
            problems.append(f"{denied} audited denials, expected 0")
        # Drop the harness's own references, so a heap measurement
        # after the run sees only what the kernel and driver retain.
        self.jobs.clear()
        self.stamps.clear()
        return outcome

    def _outcome(self, wall_s, windows, latencies, instructions=0,
                 cpu_am_invalidations=0) -> Outcome:
        return Outcome(
            users=len(self.population), correct_users=0,
            setup_s=self.setup_s, wall_s=wall_s, windows=windows,
            outer_s=0.0,
            sim={
                "sim_latency_p50_cycles": _percentile(latencies, 0.50),
                "sim_latency_p99_cycles": _percentile(latencies, 0.99),
                "latency_samples": len(latencies),
            },
            final_clock=0, audit_digest="", counters={},
            instructions=instructions,
            cpu_am_invalidations=cpu_am_invalidations,
        )

    # -- gate-churn -------------------------------------------------------

    def _run_churn(self) -> Outcome:
        system = self.system
        services = system.services
        clock = system.clock
        problems: list[str] = []
        failed: set[str] = set()
        latencies: list[int] = []
        expected_denials = 0
        previous = None  # (person, session, path)
        windows: list[float] = []
        last = len(self.population)
        t0 = window_start = time.perf_counter()
        for i, (person, arrival, words) in enumerate(self.population, 1):
            if arrival > clock.now:
                clock.advance_to(arrival)
            charged = services.gate_cycles
            try:
                current = self._churn_step(person, words, previous)
            except (KernelDenial, AccessViolation, CheckFailed) as exc:
                failed.add(person)
                if len(problems) < 10:
                    problems.append(f"{person}: {type(exc).__name__}: {exc}")
                current = None
            if previous is not None:
                expected_denials += AUDITED_PER_DENIAL
                self._leave(previous, failed, problems)
            previous = current
            if i == last and previous is not None:
                self._leave(previous, failed, problems)
            clock.advance(services.gate_cycles - charged)
            latencies.append(clock.now - arrival)
            now = time.perf_counter()
            windows.append(now - window_start)
            window_start = now
        wall_s = time.perf_counter() - t0
        outcome = self._outcome(wall_s, windows, latencies)
        outcome.problems = problems
        outcome.correct_users = outcome.users - len(failed)
        denied = len(system.audit.denied())
        if denied != expected_denials:
            problems.append(f"{denied} audited denials, expected "
                            f"{expected_denials}")
        return outcome

    def _churn_step(self, person, words, previous):
        """One user's session up to (not including) its logout."""
        user = self.system.listener.login(person, CHURN_PROJECT, "pw",
                                          source="bench", quiet=True)
        process = self.system.services.created_processes[user.pid]
        session = Session(self.system, process, user.session_id)
        path = f"{CHURN_DIR}>s{person}"
        segno = session.create_segment(path, n_pages=1)
        session.write_words(segno, words)
        check(session.read_words(segno, len(words)) == words,
              "read-back differs from the words written")
        if previous is not None:
            neighbour = previous[1]
            pattern = f"{previous[0]}.{CHURN_PROJECT}"
            try:
                neighbour.initiate(path)
            except KernelDenial:
                pass
            else:
                raise CheckFailed("neighbour initiated before any grant")
            session.set_acl(path, pattern, "r")
            shared = neighbour.initiate(path)
            check(neighbour.read_words(shared, len(words)) == words,
                  "neighbour read differs after grant")
            dir_segno, name = session.resolve_parent(path)
            session.call("hcs_$acl_delete", dir_segno, name, pattern)
            try:
                neighbour.read_words(shared, 1)
            except AccessViolation:
                pass
            else:
                raise CheckFailed("neighbour read after revocation")
        status = session.status(path)
        check(status["type"] == "segment" and status.get("n_pages") == 1
              and status["author"].startswith(f"{person}."),
              f"status mismatch: {status}")
        return person, session, path

    @staticmethod
    def _leave(previous, failed, problems) -> None:
        """The previous user deletes its own segment and logs out."""
        person, session, path = previous
        try:
            session.delete(path)
            session.logout()
        except (KernelDenial, AccessViolation) as exc:
            failed.add(person)
            if len(problems) < 10:
                problems.append(f"{person} leaving: {exc}")

