"""Fast-path equivalence: ``SystemConfig.fast_path`` selects between
the refactored hot cores (delay-0 event bucket in the simulator,
inlined/decoded CPU interpreter) and the pre-refactor implementations.
Everything architectural must be byte-identical either way — results,
cycle charges, AM counters, grant/deny traces, snapshots, the final
simulated clock.  Only wall-clock speed may differ (bench E18 measures
that half and asserts the >=2x)."""

import pytest

from repro import MulticsSystem, kernel_config
from repro.errors import BoundsViolation, IllegalInstruction
from repro.hw.clock import Simulator
from repro.hw.cpu import Instruction as I, Op
from repro.user.object_format import ObjectSegment

from tests.test_smp import make_jobs, smp_system


# ---------------------------------------------------------------------------
# the discrete-event core
# ---------------------------------------------------------------------------

class TestSimulatorBucket:
    def run_interleaving(self, fast: bool) -> tuple[list, int, int]:
        """A mix of delay-0, delayed, and absolute-time events, with
        events scheduling further delay-0 events while running."""
        sim = Simulator(fast_path=fast)
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
        assert self.run_interleaving(True) == self.run_interleaving(False)

    def test_classic_order_is_time_then_seq(self):
        order, pending_mid, now = self.run_interleaving(False)
        assert order == ["z1", "at0", "z2", "z2+", "z2++", "d2",
                         "d5", "d5b", "tail"]
        assert pending_mid == 1
        assert now == 5

    def test_pending_and_clear_cover_the_bucket(self):
        sim = Simulator(fast_path=True)
        sim.schedule(0, lambda: None)
        sim.schedule(3, lambda: None)
        assert sim.pending == 2
        assert sim.clear_pending() == 2
        assert sim.pending == 0
        assert sim.run() is None  # nothing left; no error

    def test_step_picks_earliest_across_bucket_and_heap(self):
        sim = Simulator(fast_path=True)
        seen = []
        sim.schedule(0, lambda: seen.append("bucket"))
        sim.schedule_at(0, lambda: seen.append("heap"))
        assert sim.step() and sim.step()
        assert seen == ["bucket", "heap"]  # seq order within time 0

    def test_run_until_stops_before_late_bucketless_event(self):
        sim = Simulator(fast_path=True)
        seen = []
        sim.schedule(0, lambda: seen.append("now"))
        sim.schedule(10, lambda: seen.append("later"))
        sim.run(until=4)
        assert seen == ["now"]
        assert sim.clock.now == 4
        sim.run()
        assert seen == ["now", "later"]

    def test_events_run_counted_in_fast_loop(self):
        sim = Simulator(fast_path=True)
        for _ in range(5):
            sim.schedule(0, lambda: None)
        sim.run()
        assert sim.events_run == 5

    def test_event_budget_still_enforced(self):
        sim = Simulator(fast_path=True)

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
        I(Op.LOADF, 1), I(Op.LOADF, 2), I(Op.LT), I(Op.JZ, 22),
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


def patched(obj: ObjectSegment, data_segno: int) -> ObjectSegment:
    return ObjectSegment(
        obj.name,
        code=[
            I(Op.LOADI, data_segno) if inst.op is Op.LOADI else inst
            for inst in obj.code
        ],
        definitions=dict(obj.definitions),
    )


def cpu_run(fast: bool, program=None, sizing: dict | None = None,
            iters: int = 200):
    """One login session running a memory-touching loop; returns the
    architectural fingerprint of the run."""
    overrides = dict(core_frames=256, bulk_frames=512, disk_frames=2048)
    overrides.update(sizing or {})
    system = MulticsSystem(
        kernel_config(fast_path=fast, **overrides)
    ).boot()
    system.register_user("Alice", "Crypto", "pw")
    session = system.login("Alice", "Crypto", "pw")
    data = session.create_segment("data", n_pages=2)
    session.write_words(data, [7] * 32)
    segno = session.install_object("prog", patched(program or SPIN_AND_TOUCH,
                                                   data))
    session.load_program(segno)
    cpu = session.make_cpu()
    assert cpu.fast_path is fast
    result = None
    error = ""
    try:
        result = cpu.execute(session.process, segno,
                             args=[0, 0, iters])
    except Exception as exc:  # noqa: BLE001 - fingerprinting faults too
        error = f"{type(exc).__name__}: {exc}"
    am = session.process.dseg.am
    return {
        "result": result,
        "error": error,
        "cycles": cpu.cycles,
        "instructions": cpu.instructions_executed,
        "am_hit_cycles": cpu.am_hit_cycles,
        "walk_cycles": cpu.walk_cycles,
        "am": (am.hits, am.misses, am.invalidations, am.cams,
               am.capacity_evictions),
        "clock": system.clock.now,
        "trace": [(r.action, r.object, r.outcome)
                  for r in system.audit.records],
    }


class TestCpuEquivalence:
    def test_compute_and_memory_loop_identical(self):
        assert cpu_run(True) == cpu_run(False)

    def test_paging_pressure_identical(self):
        """Tiny core: evictions break AM witnesses mid-run, forcing the
        inline hit path to fall back exactly where the classic walk
        would."""
        sizing = dict(core_frames=4, bulk_frames=32, disk_frames=256,
                      page_size=16)
        fast = cpu_run(True, sizing=sizing, iters=120)
        classic = cpu_run(False, sizing=sizing, iters=120)
        assert fast == classic
        assert fast["am"][2] > 0  # invalidations actually happened

    def test_am_off_identical(self):
        sizing = dict(am_enabled=False)
        assert cpu_run(True, sizing=sizing) == cpu_run(False, sizing=sizing)

    @pytest.mark.parametrize("bad_program,exc", [
        # stack underflow in a binop
        (ObjectSegment("bad", code=[I(Op.ADD), I(Op.RET)],
                       definitions={"main": 0}), IllegalInstruction),
        # negative-offset reference
        (ObjectSegment("bad", code=[I(Op.PUSHI, -3), I(Op.LOADI, 0),
                                    I(Op.RET)],
                       definitions={"main": 0}), BoundsViolation),
        # out-of-bound reference
        (ObjectSegment("bad", code=[I(Op.PUSHI, 4096), I(Op.LOADI, 0),
                                    I(Op.RET)],
                       definitions={"main": 0}), BoundsViolation),
        # jump off the end of the segment
        (ObjectSegment("bad", code=[I(Op.JMP, 99)],
                       definitions={"main": 0}), IllegalInstruction),
        # DUP of an empty stack
        (ObjectSegment("bad", code=[I(Op.DUP), I(Op.RET)],
                       definitions={"main": 0}), IllegalInstruction),
        # SWAP with one value
        (ObjectSegment("bad", code=[I(Op.PUSHI, 1), I(Op.SWAP), I(Op.RET)],
                       definitions={"main": 0}), IllegalInstruction),
    ])
    def test_faults_identical(self, bad_program, exc):
        fast = cpu_run(True, program=bad_program)
        classic = cpu_run(False, program=bad_program)
        assert fast == classic
        assert exc.__name__ in fast["error"]


# ---------------------------------------------------------------------------
# the whole complex: snapshots, audit, clock
# ---------------------------------------------------------------------------

def complex_run(fast: bool, n_cpus: int):
    system = smp_system(fast_path=fast, n_cpus=n_cpus)
    jobs, _ = make_jobs(system)
    cx = system.cpu_complex()
    cx.run_jobs(jobs)
    assert [j.result for j in jobs] == [96] * 8
    return (
        system.metrics.to_json(),
        system.audit.to_json(),
        system.clock.now,
    )


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_complex_byte_identical_fast_vs_classic(n_cpus):
    fast = complex_run(True, n_cpus)
    classic = complex_run(False, n_cpus)
    assert fast[0] == classic[0]   # metrics snapshot, byte for byte
    assert fast[1] == classic[1]   # audit trail (grant/deny trace)
    assert fast[2] == classic[2]   # final simulated clock
