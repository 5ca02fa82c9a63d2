"""Hot-core equivalence: the simulator's delay-0 event bucket against a
heap-only reference, and the CPU's compiled superblocks against the
same interpreter run one instruction at a time
(:func:`tests.interpreter_oracle.per_instruction`).

Everything architectural must be byte-identical either way — results,
cycle charges, AM counters, grant/deny traces, snapshots, the final
simulated clock.  Only wall-clock speed may differ (bench E18 measures
that half and asserts the >=2x).  The per-instruction leg is itself
held to the fingerprints recorded from the pre-superblock classic core
(``tests/golden/interpreter.json``)."""

import pytest

from repro import MulticsSystem, kernel_config
from repro.errors import BoundsViolation, IllegalInstruction
from repro.hw import cpu as cpu_module
from repro.hw.clock import Simulator
from repro.hw.cpu import Instruction as I, Op
from repro.user.object_format import ObjectSegment

from tests.interpreter_oracle import (
    complex_fingerprint, fingerprint, load_golden, per_instruction,
    run_workload, workload_fingerprint,
)
from tests.test_blocks import revocation_run
from tests.test_smp import make_jobs, smp_system


# ---------------------------------------------------------------------------
# the discrete-event core
# ---------------------------------------------------------------------------

class _HeapOnly(Simulator):
    """The reference scheduler: every event on the heap, none in the
    delay-0 bucket."""

    __slots__ = ()

    def schedule(self, delay, fn):
        if delay < 0:
            raise ValueError("cannot schedule in the past")
        self.schedule_at(self.clock.now + delay, fn)


class TestSimulatorBucket:
    def run_interleaving(self, sim: Simulator) -> tuple[list, int, int]:
        """A mix of delay-0, delayed, and absolute-time events, with
        events scheduling further delay-0 events while running."""
        order: list[str] = []

        def ev(tag):
            return lambda: order.append(tag)

        def chain(tag, n):
            def fire():
                order.append(tag)
                if n:
                    sim.schedule(0, chain(f"{tag}+", n - 1))
            return fire

        sim.schedule(5, ev("d5"))
        sim.schedule(0, ev("z1"))
        sim.schedule_at(0, ev("at0"))   # heap event at the same time
        sim.schedule(0, chain("z2", 2))
        sim.schedule(5, ev("d5b"))
        sim.schedule(2, ev("d2"))
        sim.run()
        sim.schedule(0, ev("tail"))
        pending_mid = sim.pending
        sim.run()
        return order, pending_mid, sim.clock.now

    def test_event_order_identical_fast_and_classic(self):
        assert (self.run_interleaving(Simulator())
                == self.run_interleaving(_HeapOnly()))

    def test_classic_order_is_time_then_seq(self):
        order, pending_mid, now = self.run_interleaving(Simulator())
        assert order == ["z1", "at0", "z2", "z2+", "z2++", "d2",
                         "d5", "d5b", "tail"]
        assert pending_mid == 1
        assert now == 5

    def test_pending_and_clear_cover_the_bucket(self):
        sim = Simulator()
        sim.schedule(0, lambda: None)
        sim.schedule(3, lambda: None)
        assert sim.pending == 2
        assert sim.clear_pending() == 2
        assert sim.pending == 0
        assert sim.run() is None  # nothing left; no error

    def test_step_picks_earliest_across_bucket_and_heap(self):
        sim = Simulator()
        seen = []
        sim.schedule(0, lambda: seen.append("bucket"))
        sim.schedule_at(0, lambda: seen.append("heap"))
        assert sim.step() and sim.step()
        assert seen == ["bucket", "heap"]  # seq order within time 0

    def test_run_until_stops_before_late_bucketless_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(0, lambda: seen.append("now"))
        sim.schedule(10, lambda: seen.append("later"))
        sim.run(until=4)
        assert seen == ["now"]
        assert sim.clock.now == 4
        sim.run()
        assert seen == ["now", "later"]

    def test_events_run_counted_in_fast_loop(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(0, lambda: None)
        sim.run()
        assert sim.events_run == 5

    def test_event_budget_still_enforced(self):
        sim = Simulator()

        def again():
            sim.schedule(0, again)

        sim.schedule(0, again)
        with pytest.raises(RuntimeError, match="event budget"):
            sim.run(max_events=50)


# ---------------------------------------------------------------------------
# the CPU interpreter
# ---------------------------------------------------------------------------

SPIN_AND_TOUCH = ObjectSegment(
    "spin",
    code=[
        # for i in 0..N: acc += M[data][i % 24]; plus some pure compute
        I(Op.PUSHI, 0), I(Op.STOREF, 0),            # acc
        I(Op.PUSHI, 0), I(Op.STOREF, 1),            # i
        I(Op.LOADF, 1), I(Op.LOADF, 2), I(Op.LT), I(Op.JZ, 24),
        I(Op.LOADF, 0),
        I(Op.LOADF, 1), I(Op.PUSHI, 24), I(Op.MOD),
        I(Op.LOADI, 0),                              # segno patched
        I(Op.ADD),
        I(Op.PUSHI, 3), I(Op.MUL), I(Op.PUSHI, 2), I(Op.DIV),
        I(Op.STOREF, 0),
        I(Op.LOADF, 1), I(Op.PUSHI, 1), I(Op.ADD), I(Op.STOREF, 1),
        I(Op.JMP, 4),
        I(Op.LOADF, 0), I(Op.RET),
    ],
    definitions={"main": 0},
)

PAGING = dict(core_frames=4, bulk_frames=32, disk_frames=256, page_size=16)

#: (golden name, program, the fault it must raise)
FAULT_PROGRAMS = [
    # stack underflow in a binop
    ("binop-underflow",
     ObjectSegment("bad", code=[I(Op.ADD), I(Op.RET)],
                   definitions={"main": 0}), IllegalInstruction),
    # negative-offset reference
    ("negative-offset",
     ObjectSegment("bad", code=[I(Op.PUSHI, -3), I(Op.LOADI, 0),
                                I(Op.RET)],
                   definitions={"main": 0}), BoundsViolation),
    # out-of-bound reference
    ("out-of-bound",
     ObjectSegment("bad", code=[I(Op.PUSHI, 4096), I(Op.LOADI, 0),
                                I(Op.RET)],
                   definitions={"main": 0}), BoundsViolation),
    # jump off the end of the segment
    ("jump-off-end",
     ObjectSegment("bad", code=[I(Op.JMP, 99)],
                   definitions={"main": 0}), IllegalInstruction),
    # DUP of an empty stack
    ("dup-underflow",
     ObjectSegment("bad", code=[I(Op.DUP), I(Op.RET)],
                   definitions={"main": 0}), IllegalInstruction),
    # SWAP with one value
    ("swap-underflow",
     ObjectSegment("bad", code=[I(Op.PUSHI, 1), I(Op.SWAP), I(Op.RET)],
                   definitions={"main": 0}), IllegalInstruction),
]


def patched(obj: ObjectSegment, data_segno: int) -> ObjectSegment:
    return ObjectSegment(
        obj.name,
        code=[
            I(Op.LOADI, data_segno) if inst.op is Op.LOADI else inst
            for inst in obj.code
        ],
        definitions=dict(obj.definitions),
    )


def cpu_run(program=None, sizing: dict | None = None, iters: int = 200):
    """One login session running a memory-touching loop; returns the
    architectural fingerprint of the run."""
    overrides = dict(core_frames=256, bulk_frames=512, disk_frames=2048)
    overrides.update(sizing or {})
    system = MulticsSystem(kernel_config(**overrides)).boot()
    system.register_user("Alice", "Crypto", "pw")
    session = system.login("Alice", "Crypto", "pw")
    data = session.create_segment("data", n_pages=2)
    session.write_words(data, [7] * 32)
    segno = session.install_object("prog", patched(program or SPIN_AND_TOUCH,
                                                   data))
    session.load_program(segno)
    cpu = session.make_cpu()
    result = None
    error = ""
    try:
        result = cpu.execute(session.process, segno,
                             args=[0, 0, iters])
    except Exception as exc:  # noqa: BLE001 - fingerprinting faults too
        error = f"{type(exc).__name__}: {exc}"
    return fingerprint(system, [cpu], [session.process.dseg.am],
                       result, error)


def per_instruction_run(run, *args, **kwargs):
    """``run(*args, **kwargs)`` with block compilation substituted out."""
    with per_instruction():
        return run(*args, **kwargs)


class TestCpuEquivalence:
    def test_compute_and_memory_loop_identical(self):
        assert cpu_run() == per_instruction_run(cpu_run)

    def test_paging_pressure_identical(self):
        """Tiny core: evictions break AM witnesses mid-run, forcing the
        inline hit path to fall back exactly where the full walk
        would."""
        blocks = cpu_run(sizing=PAGING, iters=120)
        reference = per_instruction_run(cpu_run, sizing=PAGING, iters=120)
        assert blocks == reference
        assert blocks["am"][0][2] > 0  # invalidations actually happened

    def test_am_off_identical(self):
        sizing = dict(am_enabled=False)
        assert cpu_run(sizing=sizing) == per_instruction_run(
            cpu_run, sizing=sizing)

    @pytest.mark.parametrize("bad_program,exc",
                             [case[1:] for case in FAULT_PROGRAMS])
    def test_faults_identical(self, bad_program, exc):
        blocks = cpu_run(program=bad_program)
        reference = per_instruction_run(cpu_run, program=bad_program)
        assert blocks == reference
        assert exc.__name__ in blocks["error"]


def test_per_instruction_runs_no_block(monkeypatch):
    """The reference leg is what it claims: under the helper no
    compiled block runs, and without it the same program runs some."""
    calls = []
    compile_block = cpu_module._BlockCompiler.compile

    def counting(self):
        block = compile_block(self)
        if not block:
            return block
        fn = block[0]

        def counted(*args):
            calls.append(self.start)
            return fn(*args)

        return (counted,) + block[1:]

    monkeypatch.setattr(cpu_module._BlockCompiler, "compile", counting)
    reference = per_instruction_run(cpu_run)
    assert calls == []
    assert cpu_run() == reference
    assert calls


# ---------------------------------------------------------------------------
# the whole complex: snapshots, audit, clock
# ---------------------------------------------------------------------------

FAULT_HEAVY = dict(core_frames=6)


def complex_run(n_cpus: int, sizing: dict | None = None) -> dict:
    system = smp_system(n_cpus=n_cpus, **(sizing or {}))
    jobs, _ = make_jobs(system)
    cx = system.cpu_complex()
    cx.run_jobs(jobs)
    assert [j.result for j in jobs] == [96] * 8
    return complex_fingerprint(system, cx, jobs)


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_complex_byte_identical_fast_vs_classic(n_cpus):
    """Metrics snapshot and audit log byte for byte, the final clock,
    and every CPU's counters."""
    assert complex_run(n_cpus) == per_instruction_run(complex_run, n_cpus)


# ---------------------------------------------------------------------------
# the frozen oracle
# ---------------------------------------------------------------------------

def _revocation(revoke_after: int) -> dict:
    system, cx, jobs, _ = revocation_run(revoke_after)
    return complex_fingerprint(system, cx, jobs)


def _workload(n_users: int) -> dict:
    return workload_fingerprint(*run_workload(n_users))


#: Every workload with a recorded fingerprint in the golden fixture.
GOLDEN_WORKLOADS = {
    "cpu_run/default": cpu_run,
    "cpu_run/paging": lambda: cpu_run(sizing=PAGING, iters=120),
    "cpu_run/am-off": lambda: cpu_run(sizing=dict(am_enabled=False)),
    **{f"cpu_run/fault/{name}": (lambda program=program:
                                 cpu_run(program=program))
       for name, program, _ in FAULT_PROGRAMS},
    **{f"complex/{n}cpu/{kind}": (lambda n=n, sizing=sizing:
                                  complex_run(n, sizing))
       for kind, sizing in (("roomy", None), ("fault-heavy", FAULT_HEAVY))
       for n in (1, 2)},
    "revocation/after-1": lambda: _revocation(1),
    "revocation/after-3": lambda: _revocation(3),
    "workload/200": lambda: _workload(200),
    # Checked by bench E18, which runs the 1k population anyway.
    "workload/1000": lambda: _workload(1000),
}


@pytest.mark.parametrize("name", [n for n in GOLDEN_WORKLOADS
                                  if n != "workload/1000"])
def test_golden_fingerprint(name):
    """The one interpreter reproduces the pre-superblock classic core's
    recorded outcome, with and without blocks."""
    golden = load_golden()[name]
    assert GOLDEN_WORKLOADS[name]() == golden
    assert per_instruction_run(GOLDEN_WORKLOADS[name]) == golden


def test_golden_covers_every_workload():
    assert sorted(load_golden()) == sorted(GOLDEN_WORKLOADS)
