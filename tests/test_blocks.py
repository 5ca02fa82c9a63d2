"""The superblocks (repro.hw.cpu.BlockTable) against the same interpreter
run one instruction at a time (tests.interpreter_oracle.per_instruction).

* **Differential fuzzing** (hypothesis, derandomized): small programs
  over all 30 opcodes — jumps into the middle of blocks, DIV/MOD by a
  constant or computed zero, frame-slot growth, in-bounds, negative and
  out-of-bounds indirect references, calls and linkage calls — run
  with and without blocks, on a single CPU and in a 1- or 2-CPU SMP
  complex with a random quantum.  Results, errors, cycles,
  instruction counts, translation-cost splits, AM counters and the
  per-round instruction counts must all be identical.
* **A frozen sample**: fuzz cases and hand-written edge cases whose
  fingerprints were recorded from the classic per-instruction
  interpreter (``tests/golden/blocks_fuzz.json``); both legs must
  still produce them.
* **Revocation between quanta**: revoking execute access to a running
  code segment between two lockstep rounds must fault the job on its
  next fetch, with and without blocks, even though the CPU's private AM had the
  fetch decision cached.
* **Long chains**: an expression hundreds of ops deep compiles to one
  block with bounded nesting, and a block CPython refuses to compile
  runs per instruction; either way the result matches the reference.
* **Generated-source hygiene**: only ``int`` operands ever reach
  compiled source.
"""

import dis
import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import MulticsSystem
from repro.errors import AccessViolation
from repro.faults.harness import harness_config
from repro.hw.cpu import (
    BlockTable, CodeSegment, Instruction as I, Op, _decoded_for, block_table,
)
from repro.hw.segmentation import Intent
from repro.user.object_format import ObjectSegment
from repro.workloads.profiles import PROFILES, build_program

from tests.interpreter_oracle import GOLDEN_PATH, per_instruction

#: Placeholder operands, bound when a program is installed.
DATA, SELF = "data", "self"
MAX_INSTRUCTIONS = 300
STUB = ObjectSegment("stub", code=[I(Op.HALT)], definitions={"main": 0})


#: Half the draws come from ops that push, so programs run a while
#: before they underflow.
OPS = st.one_of(st.sampled_from(list(Op)),
                st.sampled_from([Op.PUSHI, Op.LOADF, Op.LOADI, Op.DUP]))


def _instruction(draw, length: int) -> list[tuple]:
    op = draw(OPS)
    target = st.integers(0, length)  # `length` itself runs off the end
    if op is Op.PUSHI:
        return [(op, draw(st.sampled_from(
            [0, 1, 2, 3, -3, 7, 16, 31, 32, 40, 2 ** 1100])), 0, 0)]
    if op in (Op.LOAD, Op.STORE):
        return [(op, DATA, draw(st.sampled_from([-1, 0, 5, 17, 31, 32])),
                 0)]
    if op in (Op.LOADI, Op.STOREI):
        # An offset pushed first: in bounds, negative, or past the bound.
        off = draw(st.sampled_from([0, 3, 5, 17, 20, 31, -2, 32, 999]))
        return [(Op.PUSHI, off, 0, 0), (op, DATA, 0, 0)]
    if op in (Op.LOADF, Op.STOREF):
        return [(op, draw(st.integers(-1, 6)), 0, 0)]
    if op in (Op.DIV, Op.MOD):
        # By a constant (maybe zero) or by whatever the stack holds.
        divisor = draw(st.sampled_from([None, 0, 3, -7]))
        pre = [] if divisor is None else [(Op.PUSHI, divisor, 0, 0)]
        return pre + [(op, 0, 0, 0)]
    if op in (Op.JMP, Op.JZ, Op.JNZ):
        return [(op, draw(target), 0, 0)]
    if op is Op.CALL:
        return [(op, SELF, draw(st.integers(0, length - 1)),
                 draw(st.integers(0, 2)))]
    if op is Op.CALLL:
        return [(op, draw(st.integers(0, 1)), draw(st.integers(0, 2)), 0)]
    return [(op, 0, 0, 0)]


@st.composite
def programs(draw):
    length = draw(st.integers(2, 16))
    code = [(Op.PUSHI, draw(st.integers(-1, 40)), 0, 0)
            for _ in range(draw(st.integers(0, 3)))]
    top = len(code)
    while len(code) < length:
        code += _instruction(draw, length)
    if draw(st.booleans()):
        code.append((Op.JMP, top, 0, 0))  # loop until something gives
    return code


def bind(program, data: int, self_segno: int) -> CodeSegment:
    place = {DATA: data, SELF: self_segno}
    return CodeSegment(
        instructions=[I(op, place.get(a, a) if isinstance(a, str) else a,
                        b, c) for op, a, b, c in program],
        entry_points={"main": 0},
    )


def outcome(fn) -> str:
    try:
        return repr(fn())
    except Exception as exc:  # noqa: BLE001 - fingerprinting faults too
        return f"{type(exc).__name__}: {exc}"


def session_with(system, program, tag: str):
    """A fresh login session running ``program`` at a new segno."""
    session = system.login("Alice", "Crypto", "pw")
    data = session.create_segment(f"data{tag}", n_pages=2)
    session.write_words(data, [(7 * k) % 13 for k in range(32)])
    segno = session.install_object(f"prog{tag}", STUB)
    session.load_program(segno)
    session.process.code_segments[segno] = bind(program, data, segno)
    return session, segno


def differential_run(blocks: bool, program, args, n_cpus: int,
                     quantum: int,
                     max_instructions: int = MAX_INSTRUCTIONS,
                     **config) -> dict:
    """The run's fingerprint; ``blocks=False`` is the reference leg.
    ``config`` overrides the system configuration (``am_enabled``)."""
    if not blocks:
        with per_instruction():
            return differential_run(True, program, args, n_cpus, quantum,
                                    max_instructions, **config)
    system = MulticsSystem(harness_config(
        core_frames=6, bulk_frames=64, disk_frames=512, page_size=16,
        **config,
    )).boot()
    system.register_user("Alice", "Crypto", "pw")

    # Single CPU, per-process AM.
    session, segno = session_with(system, program, "s")
    cpu = session.make_cpu()
    single = outcome(lambda: cpu.execute(
        session.process, segno, 0, list(args), max_instructions))
    am = session.process.dseg.am
    print_am = (am.hits, am.misses, am.invalidations, am.cams,
                am.capacity_evictions)

    # The SMP complex: two jobs of the program, per-CPU AMs.
    jobs = []
    for tag in "ab":
        s, n = session_with(system, program, tag)
        jobs.append(s.program_job(n, args=list(args),
                                  max_instructions=max_instructions))
    cx = system.cpu_complex(n_cpus=n_cpus)
    rounds = []
    # Host errors (a TypeError from a non-int operand, a float overflow
    # in DIV) are not contained by the complex; they must still match.
    escaped = outcome(lambda: cx.run_jobs(
        jobs, quantum=quantum, on_round=lambda c: rounds.append(
            [(u.instructions_executed, u.cycles, u.stall_cycles)
             for u in c.cpus])))
    return {
        "single": (single, cpu.cycles, cpu.instructions_executed,
                   cpu.am_hit_cycles, cpu.walk_cycles, print_am),
        "jobs": [(j.result, repr(j.error), j.cycles, j.instructions,
                  j.stall_cycles, j.cpu_id) for j in jobs],
        "cpus": [(u.cycles, u.instructions_executed, u.am_hit_cycles,
                  u.walk_cycles) + (
                      (u.private_am.hits, u.private_am.misses,
                       u.private_am.invalidations, u.private_am.cams)
                      if u.private_am is not None else ())
                 for u in cx.cpus],
        "rounds": rounds,
        "escaped": escaped if "Error" in escaped else None,
        "clock": system.clock.now,
    }


class TestDifferential:
    @settings(max_examples=80, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=programs(),
           args=st.lists(st.integers(-2, 9), max_size=3),
           n_cpus=st.sampled_from([1, 2]),
           quantum=st.integers(1, 60))
    def test_fast_core_matches_classic(self, program, args, n_cpus,
                                       quantum):
        blocks = differential_run(True, program, args, n_cpus, quantum)
        reference = differential_run(False, program, args, n_cpus, quantum)
        assert blocks == reference

    def test_workload_programs_run_in_blocks(self):
        """Every profile's loop body compiles; the only instructions
        outside blocks are the final RET."""
        for profile in PROFILES.values():
            code = CodeSegment(build_program(profile, 9, 16).code)
            table = block_table(code)
            covered = set()
            for pc in sorted(table.leaders):
                if pc < len(code) and table.build(pc):
                    covered.update(range(pc, pc + table.blocks[pc][1]))
            assert set(range(len(code))) - covered == {len(code) - 1}
            assert block_table(code) is table  # cached on the segment


# ---------------------------------------------------------------------------
# the frozen fuzz sample
# ---------------------------------------------------------------------------

#: Fuzz cases, each with the sha256 of its :func:`differential_run`
#: fingerprint as recorded from the classic per-instruction interpreter
#: (commit 7aac9f3), before the block-compiling loop became the only
#: one.  Calls, returns, HALT, fetch misses, memory operations after an
#: AM miss and every run with the AM off take the per-instruction body
#: on both legs of the fuzz; this sample is their reference.  Named
#: cases are hand-written edge cases (HALT or RET on an empty stack, a
#: CALL short of arguments, ...), each on 1 and 2 CPUs with the AM on
#: and off; the rest are the distinct-outcome draws among 800 seeded
#: draws of the fuzz's own strategies, the AM on or off.
FUZZ_GOLDEN = GOLDEN_PATH.parent / "blocks_fuzz.json"


def _canonical(x):
    """``x`` as JSON-ready data with every int in hex (an int past the
    decimal digit limit has no ``repr``)."""
    if isinstance(x, int) and not isinstance(x, bool):
        return hex(x)
    if isinstance(x, (list, tuple)):
        return [_canonical(v) for v in x]
    if isinstance(x, dict):
        return {k: _canonical(v) for k, v in x.items()}
    return x


def fuzz_digest(fingerprint: dict) -> str:
    text = json.dumps(_canonical(fingerprint), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def golden_fuzz_run(blocks: bool, case: dict) -> str:
    program = [(Op[op], a, b, c) for op, a, b, c in case["program"]]
    return fuzz_digest(differential_run(
        blocks, program, case["args"], case["n_cpus"], case["quantum"],
        am_enabled=case["am_enabled"],
    ))


@pytest.mark.parametrize("blocks", [True, False],
                         ids=["blocks", "per_instruction"])
def test_golden_fuzz_sample(blocks):
    cases = json.loads(FUZZ_GOLDEN.read_text())["cases"]
    wrong = [case.get("name", i) for i, case in enumerate(cases)
             if golden_fuzz_run(blocks, case) != case["sha256"]]
    assert wrong == []


# ---------------------------------------------------------------------------
# long straight-line chains
# ---------------------------------------------------------------------------

CHAIN = 300
X = (Op.LOADF, 0, 0, 0)
CHAINS = {
    # x + x + ... + x, as the language compiler emits it
    "add": [X] + [X, (Op.ADD, 0, 0, 0)] * CHAIN,
    "neg": [X] + [(Op.NEG, 0, 0, 0)] * CHAIN,
    "not-lt": [X] + [(Op.NOT, 0, 0, 0), X, (Op.LT, 0, 0, 0)] * CHAIN,
}


def _chain_outcomes(program):
    program = program + [(Op.RET, 0, 0, 0)]
    runs = [differential_run(blocks, program, [3], 2, 10 ** 6,
                             max_instructions=10 * CHAIN)
            for blocks in (True, False)]
    assert runs[0] == runs[1]
    return runs[0]


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_long_chain_is_one_block_and_matches_classic(name):
    """An expression hundreds of ops deep compiles to one block (its
    nesting bounded by temps) and runs as the reference does, on one
    CPU and in a 2-CPU complex."""
    program = CHAINS[name]
    block = BlockTable(_decoded_for(bind(program, 0, 0))).build(0)
    assert block[1] == len(program)
    run = _chain_outcomes(program)
    expected = {"add": 3 * (CHAIN + 1), "neg": 3, "not-lt": 1}[name]
    assert run["single"][0] == repr(expected)
    assert [job[:2] for job in run["jobs"]] == [(expected, "None")] * 2
    assert run["escaped"] is None


def test_a_block_the_host_cannot_compile_runs_per_instruction(
        monkeypatch):
    """Unbounded nesting overflows CPython's parser; such a block is not
    built and its instructions run one at a time, still as the
    reference does."""
    import repro.hw.cpu as cpu_module
    monkeypatch.setattr(cpu_module, "_MAX_DEPTH", 10 ** 6)
    program = CHAINS["add"]
    assert BlockTable(_decoded_for(bind(program, 0, 0))).build(0) == ()
    run = _chain_outcomes(program)
    assert run["single"][0] == repr(3 * (CHAIN + 1))
    assert run["escaped"] is None


# ---------------------------------------------------------------------------
# revocation between quanta
# ---------------------------------------------------------------------------

COUNTER = ObjectSegment("counter", code=[
    I(Op.PUSHI, 0), I(Op.STOREF, 0),
    I(Op.LOADF, 0), I(Op.PUSHI, 1), I(Op.ADD), I(Op.STOREF, 0),
    I(Op.LOADF, 0), I(Op.PUSHI, 400), I(Op.LT), I(Op.JNZ, 2),
    I(Op.LOADF, 0), I(Op.RET),
], definitions={"main": 0})


def revocation_run(revoke_after: int):
    system = MulticsSystem(harness_config(
        core_frames=256, bulk_frames=512, disk_frames=2048,
    )).boot()
    system.register_user("Alice", "Crypto", "pw")
    victim = system.login("Alice", "Crypto", "pw")
    jobs = [victim.program_job(victim.install_object("counter", COUNTER))]
    other = system.login("Alice", "Crypto", "pw")
    jobs.append(other.program_job(other.install_object("counter2", COUNTER)))
    cx = system.cpu_complex(n_cpus=2)
    rounds = []

    def on_round(c):
        rounds.append([(u.instructions_executed, u.private_am.misses)
                       for u in c.cpus])
        if c.rounds == revoke_after:
            victim.set_acl("counter", "Alice.Crypto", "r")

    cx.run_jobs(jobs, quantum=200, on_round=on_round)
    return system, cx, jobs, rounds


@pytest.mark.parametrize("revoke_after", [1, 3])
def test_revocation_between_quanta_faults_the_next_block(revoke_after):
    _, _, block_jobs, block_rounds = revocation_run(revoke_after)
    with per_instruction():
        _, _, reference_jobs, reference_rounds = revocation_run(revoke_after)
    assert block_rounds == reference_rounds
    for jobs in (block_jobs, reference_jobs):
        victim, other = jobs
        assert isinstance(victim.error, AccessViolation)
        assert "not executable" in str(victim.error)
        assert other.result == 400
    assert [(j.cycles, j.instructions) for j in block_jobs] == \
        [(j.cycles, j.instructions) for j in reference_jobs]
    # The victim's CPU executed nothing after the revocation: its next
    # fetch missed the (cammed) private AM and walked to the new SDW.
    cpu = block_jobs[0].cpu_id
    at_revocation = block_rounds[revoke_after - 1][cpu]
    after = block_rounds[revoke_after][cpu]
    assert after[0] == at_revocation[0]
    assert after[1] == at_revocation[1] + 1


# ---------------------------------------------------------------------------
# generated-source hygiene
# ---------------------------------------------------------------------------

HOSTILE = "__import__('os')"
HUGE = 10 ** 5000  # past the int -> str digit limit: no repr()


def test_only_int_words_reach_generated_source():
    hostile = [
        I(Op.PUSHI, 1), I(Op.PUSHI, HOSTILE), I(Op.POP),
        I(Op.PUSHI, 2), I(Op.STOREF, HOSTILE),
        I(Op.PUSHI, 3), I(Op.LOADF, HOSTILE),
        I(Op.PUSHI, 4), I(Op.JZ, HOSTILE),
        I(Op.PUSHI, 5), I(Op.LOAD, 0, HOSTILE),
        I(Op.PUSHI, 6), I(Op.LOADI, HOSTILE),
        I(Op.PUSHI, 7), I(Op.PUSHI, True), I(Op.ADD),
        I(Op.PUSHI, 8), I(Op.PUSHI, HUGE), I(Op.RET),
    ]
    table = BlockTable(_decoded_for(CodeSegment(hostile)))
    built = [table.build(pc) for pc in range(len(hostile))]
    for pc, block in enumerate(built):
        if any(hostile[pc].a is bad for bad in (HOSTILE, True, HUGE)):
            assert block == ()  # cannot even start a block
        if not block:
            continue
        fn = block[0]
        assert all(type(k) is int or k is None
                   for k in fn.__code__.co_consts), fn.__code__.co_consts
        names = {i.argval for i in dis.get_instructions(fn)
                 if i.opname in ("LOAD_GLOBAL", "LOAD_NAME")}
        assert names <= {"int", "Exception", "R", "W"}
        # Every block ends before the first hostile operand it meets.
        assert all(type(hostile[k].a) is int and hostile[k].a < 2 ** 63
                   and type(hostile[k].b) is int
                   for k in range(pc, pc + block[1]))


def test_non_int_operands_run_identically_on_both_cores():
    """With and without blocks."""
    program = [(Op.PUSHI, 5, 0, 0), (Op.PUSHI, HOSTILE, 0, 0),
               (Op.STOREF, 0, 0, 0), (Op.PUSHI, 1, 0, 0), (Op.ADD, 0, 0, 0),
               (Op.LOADF, 0, 0, 0), (Op.RET, 0, 0, 0)]
    blocks = differential_run(True, program, [], 2, 7)
    reference = differential_run(False, program, [], 2, 7)
    assert blocks == reference
    assert blocks["single"][0] == repr(HOSTILE)  # returned, never evaluated


@pytest.mark.parametrize("first,error", [
    ((Op.PUSHI, HOSTILE, 0, 0), "TypeError"),        # "..." + 1
    ((Op.PUSHI, 2 ** 1100, 0, 0), "OverflowError"),  # float division
])
def test_a_block_that_cannot_finish_replays_per_instruction(first, error):
    """A block whose pure part raises changes nothing; the
    per-instruction replay raises at the same instruction with the same
    counters (the STOREF 1 before the fault has taken effect)."""
    program = [first, (Op.STOREF, 0, 0, 0), (Op.JMP, 3, 0, 0),
               (Op.PUSHI, 2, 0, 0), (Op.STOREF, 1, 0, 0),
               (Op.LOADF, 0, 0, 0), (Op.PUSHI, 1, 0, 0),
               (Op.DIV if error == "OverflowError" else Op.ADD, 0, 0, 0),
               (Op.RET, 0, 0, 0)]
    blocks = differential_run(True, program, [], 1, 50)
    reference = differential_run(False, program, [], 1, 50)
    assert blocks == reference
    assert blocks["single"][0].startswith(error)
    assert blocks["single"][2] == 8  # the faulting op was the 8th


# ---------------------------------------------------------------------------
# the inlined AM-hit path and its witnesses
# ---------------------------------------------------------------------------

class _PTW:
    def __init__(self, frame=3, in_core=True):
        self.frame, self.in_core = frame, in_core
        self.used = self.modified = False


def _mem_block(*code):
    table = BlockTable(_decoded_for(CodeSegment(list(code))))
    return table.build(0)


def _run_block(block, stack, entry, ring=4, page_size=16):
    """Run ``block`` against a one-entry AM; returns (pc, stack, log)."""
    log = []
    fn = block[0]
    pc = fn(stack, [0], {entry[0]: entry[1]}, ring, page_size,
            lambda fr, w: log.append(("read", fr, w)) or 77,
            lambda fr, w, v: log.append(("write", fr, w, v)))
    return pc, stack, log


@pytest.mark.parametrize("intent", ["read", "write"])
def test_am_hit_marks_the_ptw_and_touches_core(intent):
    ptw = _PTW()
    if intent == "read":
        block = _mem_block(I(Op.PUSHI, 21), I(Op.LOADI, 9))
        key = (9, 1, 4, Intent.READ)
    else:
        block = _mem_block(I(Op.PUSHI, 5), I(Op.PUSHI, 21), I(Op.STOREI, 9))
        key = (9, 1, 4, Intent.WRITE)
    pc, stack, log = _run_block(block, [], (key, (3, ptw, 32)))
    assert pc == block[1] and block[4] == block[1] - 1
    assert ptw.used and ptw.modified == (intent == "write")
    if intent == "read":
        assert stack == [77] and log == [("read", 3, 5)]
    else:
        assert stack == [] and log == [("write", 3, 5, 5)]


@pytest.mark.parametrize("off,ptw,bound", [
    (21, _PTW(frame=4), 32),        # the frame moved under the cache
    (21, _PTW(in_core=False), 32),  # the page left core
    (21, _PTW(), 20),               # past the cached bound
    (-11, _PTW(), 32),              # negative: never probes
])
def test_failed_witness_spills_and_returns_the_memory_op(off, ptw, bound):
    block = _mem_block(I(Op.PUSHI, 1), I(Op.PUSHI, off), I(Op.LOADI, 9))
    key = (9, off // 16, 4, Intent.READ)
    pc, stack, log = _run_block(block, [], (key, (3, ptw, bound)))
    assert pc == block[4] == 2
    assert stack == [1, off] and log == []
    assert not ptw.used
