"""An abstract CPU for the simulated 6180.

The CPU executes a small stack-machine instruction set.  It is not a
cycle-accurate 6180; it exists so that the protection architecture is
*enforced on a real execution path*: every operand reference goes
through :func:`repro.hw.segmentation.translate` (rings + bounds +
paging), every transfer of control through a CALL is validated by
:func:`repro.hw.rings.call_check` (gate discipline), and every call is
charged the ring-crossing cost of the configured machine (645 software
rings vs 6180 hardware rings — experiment E4).

Instructions live in code segments as a Python list (``SDW`` data pages
hold only *data* words); this keeps the simulation light while leaving
the protection semantics intact, because instruction fetch still
performs the FETCH access check against the code segment's SDW.

Dynamic linking: the ``CALLL`` instruction calls through a *linkage
section*.  An unsnapped link raises a linkage fault which the
environment resolves — in the kernel (legacy supervisor) or in the user
ring (security kernel), which is experiment E1's machinery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.config import CostModel, RingMode
from repro.errors import IllegalInstruction, MissingPageFault, ReproError
from repro.hw.assoc import AssociativeMemory, fetch_key
from repro.hw.memory import MemoryLevel
from repro.hw.rings import call_check, call_cost
from repro.hw.segmentation import (
    DescriptorSegment,
    Intent,
    check_access,
    translate,
)
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer


class Op(enum.Enum):
    """Stack-machine opcodes."""

    PUSHI = "pushi"    # push immediate
    LOAD = "load"      # push M[seg|off]
    STORE = "store"    # pop -> M[seg|off]
    LOADI = "loadi"    # pop off; push M[seg|off]
    STOREI = "storei"  # pop off, pop v; M[seg|off] = v
    LOADF = "loadf"    # push frame slot i (argument/local)
    STOREF = "storef"  # pop -> frame slot i
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    NEG = "neg"
    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    NOT = "not"
    JMP = "jmp"
    JZ = "jz"
    JNZ = "jnz"
    CALL = "call"      # static call: operands (segno, offset, nargs)
    CALLL = "calll"    # call through linkage-section slot: operands (index, nargs)
    RET = "ret"        # return; top of stack is the return value
    HALT = "halt"
    DUP = "dup"
    POP = "pop"
    SWAP = "swap"


@dataclass(frozen=True, slots=True)
class Instruction:
    op: Op
    a: int = 0
    b: int = 0
    c: int = 0

    def __repr__(self) -> str:
        return f"{self.op.value} {self.a} {self.b} {self.c}".rstrip(" 0") or self.op.value


@dataclass
class CodeSegment:
    """Executable image bound to a segment number.

    ``entry_points`` names the public entries (offset -> name) used by
    gates and by the linker's definitions section.

    The interpreter (:meth:`CPU.stepper`) caches a decoded form of
    ``instructions`` — plain ``(opcode, a, b, c)`` tuples — and the
    superblocks compiled from it (a :class:`BlockTable`) on the
    segment, so a program shared by thousands of processes decodes and
    compiles once.  Both caches are rebuilt whenever the instruction
    list is replaced or resized.
    """

    instructions: list[Instruction]
    entry_points: dict[str, int] = field(default_factory=dict)
    _decoded: list | None = field(default=None, repr=False, compare=False)
    _decoded_src: list | None = field(default=None, repr=False,
                                      compare=False)
    _blocks: BlockTable | None = field(default=None, repr=False,
                                       compare=False)

    def __len__(self) -> int:
        return len(self.instructions)


#: Op -> small-int opcode, in declaration order; the interpreter
#: dispatches on these instead of enum identity.
_OPCODE = {op: i for i, op in enumerate(Op)}

_PUSHI = _OPCODE[Op.PUSHI]
_LOAD = _OPCODE[Op.LOAD]
_STORE = _OPCODE[Op.STORE]
_LOADI = _OPCODE[Op.LOADI]
_STOREI = _OPCODE[Op.STOREI]
_LOADF = _OPCODE[Op.LOADF]
_STOREF = _OPCODE[Op.STOREF]
_ADD = _OPCODE[Op.ADD]
_SUB = _OPCODE[Op.SUB]
_MUL = _OPCODE[Op.MUL]
_DIV = _OPCODE[Op.DIV]
_MOD = _OPCODE[Op.MOD]
_NEG = _OPCODE[Op.NEG]
_EQ = _OPCODE[Op.EQ]
_NE = _OPCODE[Op.NE]
_LT = _OPCODE[Op.LT]
_LE = _OPCODE[Op.LE]
_GT = _OPCODE[Op.GT]
_GE = _OPCODE[Op.GE]
_NOT = _OPCODE[Op.NOT]
_JMP = _OPCODE[Op.JMP]
_JZ = _OPCODE[Op.JZ]
_JNZ = _OPCODE[Op.JNZ]
_CALL = _OPCODE[Op.CALL]
_CALLL = _OPCODE[Op.CALLL]
_RET = _OPCODE[Op.RET]
_HALT = _OPCODE[Op.HALT]
_DUP = _OPCODE[Op.DUP]
_POP = _OPCODE[Op.POP]
_SWAP = _OPCODE[Op.SWAP]


#: "No cycle target": the interpreter runs to completion.
_NO_TARGET = float("inf")


def _decoded_for(code: CodeSegment) -> list[tuple[int, int, int, int]]:
    """The decoded-instruction cache for ``code`` (build if stale)."""
    decoded = code._decoded
    if (decoded is None or code._decoded_src is not code.instructions
            or len(decoded) != len(code.instructions)):
        decoded = [(_OPCODE[i.op], i.a, i.b, i.c)
                   for i in code.instructions]
        code._decoded = decoded
        code._decoded_src = code.instructions
    return decoded


# ---------------------------------------------------------------------------
# superblocks: straight-line runs compiled to Python for the interpreter
# ---------------------------------------------------------------------------
#
# The per-instruction body pays for its checks one instruction at a
# time: a fetch-legality probe, a dispatch on the opcode, a stack push
# or pop.  Between two control transfers nothing can change the outcome
# of a fetch check — no instruction in a run of pure stack operations
# calls out of the interpreter, so no ``cam`` can invalidate the cached
# decision mid-run.  Each such run is compiled once into one Python
# function; CPU.stepper checks fetch legality once at the block's
# entry and charges every instruction the cycles the per-instruction
# body would have charged.
#
# A block covers a run of pure operations (PUSHI, LOADF, STOREF, the
# ALU, DUP, POP, SWAP, NEG, NOT; DIV and MOD only by a nonzero PUSHI
# constant) and may end in one JMP, JZ or JNZ, or in one LOAD, LOADI,
# STORE or STOREI whose associative-memory hit path is inlined with the
# same witness checks as AssociativeMemory.probe.  The operand stack
# lives in Python locals inside the block.
#
# Blocks are all or nothing.  Every value is computed inside a ``try``
# before anything is written back; if that part raises (a non-integer
# operand, a float overflow in DIV), the block returns None having
# changed nothing and the interpreter replays the same instructions one
# at a time, so the fault lands on the same instruction with the same
# counters.  On an AM miss or a failed witness the block writes back its
# pure prefix, spills the memory operation's operands and returns that
# operation's pc, which the interpreter then runs on its per-instruction
# path at live counters.  Only the final core access can raise past a
# block, after every instruction in it has taken effect.
#
# Only operands with ``type(x) is int`` that fit a 64-bit word are
# placed into generated source; an instruction with any other operand
# ends the block before it and runs on the per-instruction path.  The
# generated code sees no builtins other than ``int`` and ``Exception``.

_ARITH = {_ADD: "+", _SUB: "-", _MUL: "*"}
_COMPARE = {_EQ: "==", _NE: "!=", _LT: "<", _LE: "<=", _GT: ">", _GE: ">="}
_BRANCHES = (_JMP, _JZ, _JNZ)
_MEMORY = (_LOAD, _LOADI, _STORE, _STOREI)
#: Ops after which the next instruction starts a block.
_ENDS = _BRANCHES + _MEMORY + (_CALL, _CALLL, _RET, _HALT)
#: Deepest an expression may nest before its value is bound to a temp.
#: A chain of ALU, compare, NEG or NOT ops nests once per instruction,
#: and CPython refuses source nested about 200 deep.
_MAX_DEPTH = 32

#: The whole namespace generated code runs in.
_BLOCK_GLOBALS = {"__builtins__": {"int": int, "Exception": Exception},
                  "R": Intent.READ, "W": Intent.WRITE}


class BlockTable:
    """The compiled blocks of one decoded code segment, by start pc.

    ``blocks[pc]`` is None until a block starting at ``pc`` is first
    wanted, then either ``()`` (the instruction at ``pc`` cannot start
    a block) or ``(fn, n, need, max_slot, mem_pc)``:

    * ``fn(stack, slots, entries, ring, page_size, read, write)`` runs
      the block and returns the next pc (None if it changed nothing;
      ``mem_pc`` on an AM miss of its memory operation);
    * ``n`` instructions, the last of which is the memory operation at
      ``mem_pc`` when there is one (``mem_pc`` is None otherwise);
    * it pops at most ``need`` values below its own pushes, and touches
      frame slots up to ``max_slot``.

    Blocks end at leaders — jump targets and the instruction after any
    control transfer or memory operation — so each instruction belongs
    to one block, except where execution resumes mid-run (a quantum
    boundary, a call target inside a run); a block compiled from there
    runs to the same end.
    """

    __slots__ = ("decoded", "leaders", "blocks")

    def __init__(self, decoded: list[tuple[int, int, int, int]]) -> None:
        self.decoded = decoded
        self.leaders = {0}
        for pc, (op, a, _, _) in enumerate(decoded):
            if op in _BRANCHES and _word(a):
                self.leaders.add(a)
            if op in _ENDS:
                self.leaders.add(pc + 1)
        self.blocks: list[tuple | None] = [None] * len(decoded)

    def build(self, pc: int) -> tuple:
        block = self.blocks[pc] = _BlockCompiler(self, pc).compile()
        return block


def block_table(code: CodeSegment) -> BlockTable:
    """The block table cached on ``code``, rebuilt whenever its decoded
    form is (the decoded cache's staleness rule), so a program shared by
    a whole population compiles each block once."""
    decoded = _decoded_for(code)
    table = code._blocks
    if table is None or table.decoded is not decoded:
        table = code._blocks = BlockTable(decoded)
    return table


class _Value:
    """A symbolic operand-stack entry: a Python expression, how deeply
    it nests, the int it is when it came from a PUSHI, and — for a
    comparison — the bare condition, so a JZ/JNZ tests it without
    materializing 0/1."""

    __slots__ = ("expr", "depth", "const", "cond")

    def __init__(self, expr: str, depth: int = 0, const: int | None = None,
                 cond: str | None = None) -> None:
        self.expr = expr
        self.depth = depth
        self.const = const
        self.cond = cond


class _BlockCompiler:
    def __init__(self, table: BlockTable, start: int) -> None:
        self.table = table
        self.start = start
        self.body: list[str] = []   # the all-or-nothing part
        self.stack: list[_Value] = []
        self.need = 0               # inputs x1.. read from the real stack
        self.slot_reads: dict[int, str] = {}
        self.slot_writes: dict[int, str] = {}
        self.max_slot = -1
        self.temps = 0

    # -- symbolic stack --------------------------------------------------

    def pop(self) -> _Value:
        if self.stack:
            return self.stack.pop()
        self.need += 1
        return _Value(f"x{self.need}")

    def atom(self, value: _Value) -> str:
        """``value`` as a name or literal: evaluate it into a temp so a
        second use does not repeat the work."""
        expr = value.expr
        if expr.isidentifier() or value.const is not None:
            return expr
        self.temps += 1
        name = f"t{self.temps}"
        self.body.append(f"{name} = {expr}")
        return name

    def push(self, expr: str, depth: int, cond: str | None = None) -> None:
        """Push ``expr``, which nests ``depth`` deep; bound to a temp
        once that reaches :data:`_MAX_DEPTH`."""
        if depth >= _MAX_DEPTH:
            self.stack.append(_Value(self.atom(_Value(expr))))
        else:
            self.stack.append(_Value(expr, depth, cond=cond))

    # -- one instruction -------------------------------------------------

    def pure(self, op: int, a) -> bool:
        """Emit one pure op; False if it cannot go in a block."""
        stack = self.stack
        if op == _PUSHI:
            if not _word(a):
                return False
            stack.append(_Value(repr(a) if a >= 0 else f"({a})", const=a))
        elif op == _LOADF or op == _STOREF:
            if not _word(a) or a < 0:
                return False
            self.max_slot = max(self.max_slot, a)
            if op == _STOREF:
                self.slot_writes[a] = self.atom(self.pop())
            elif a in self.slot_writes:
                stack.append(_Value(self.slot_writes[a]))
            else:
                if a not in self.slot_reads:
                    self.slot_reads[a] = self.atom(_Value(f"slots[{a}]"))
                stack.append(_Value(self.slot_reads[a]))
        elif op in _ARITH:
            rhs, lhs = self.pop(), self.pop()
            self.push(f"({lhs.expr} {_ARITH[op]} {rhs.expr})",
                      1 + max(lhs.depth, rhs.depth))
        elif op in _COMPARE:
            rhs, lhs = self.pop(), self.pop()
            cond = f"({lhs.expr} {_COMPARE[op]} {rhs.expr})"
            # Two levels: the condition and the 0/1 around it.
            self.push(f"(1 if {cond} else 0)",
                      2 + max(lhs.depth, rhs.depth), cond)
        elif op == _DIV or op == _MOD:
            if not stack or not stack[-1].const:
                return False
            c = self.pop().expr
            lhs = self.atom(self.pop())
            quot = f"int({lhs} / {c})"  # truncate toward zero, as _div
            # Evaluate here: a discarded quotient must still overflow.
            stack.append(_Value(self.atom(_Value(
                quot if op == _DIV else f"{lhs} - {quot} * {c}"))))
        elif op == _NEG:
            value = self.pop()
            self.push(f"(-{value.expr})", 1 + value.depth)
        elif op == _NOT:
            value = self.pop()
            self.push(f"(0 if {value.expr} else 1)", 1 + value.depth)
        elif op == _DUP:
            value = self.pop()
            name = _Value(self.atom(value), const=value.const)
            stack += (name, name)
        elif op == _POP:
            value = self.pop()
            if not value.expr.isidentifier() and value.const is None:
                self.body.append(value.expr)  # evaluated, then dropped
        elif op == _SWAP:
            top, under = self.pop(), self.pop()
            stack += (top, under)
        else:
            return False
        return True

    def compile(self) -> tuple:
        decoded = self.table.decoded
        leaders = self.table.leaders
        pc = self.start
        tail: list[str] = []        # after write-back
        mem_pc = None
        while pc < len(decoded):
            if pc != self.start and pc in leaders:
                break
            op, a, b, _ = decoded[pc]
            if op in _BRANCHES:
                if not _word(a):
                    break
                pc += 1
                if op == _JMP:
                    tail.append(f"return {a}")
                else:
                    value = self.pop()
                    if value.cond is not None:
                        taken = (f"not {value.cond}" if op == _JZ
                                 else value.cond)
                    else:
                        taken = (f"{value.expr} == 0" if op == _JZ
                                 else f"{value.expr} != 0")
                    self.body.append(f"taken = {taken}")
                    tail.append(f"return {a} if taken else {pc}")
                break
            if op in _MEMORY:
                if not self.memory(op, a, b, pc, tail):
                    break
                mem_pc = pc
                pc += 1
                break
            if not self.pure(op, a):
                break
            pc += 1
        n = pc - self.start
        if n == 0:
            return ()
        if not tail:
            tail.append(f"return {pc}")
        source = self.source(tail)
        try:
            code = compile(source, f"<block @{self.start}>", "exec")
        except (SyntaxError, RecursionError):
            # A limit of the host compiler, not of the program: run
            # these instructions on the per-instruction path.
            return ()
        namespace: dict = {}
        exec(code, _BLOCK_GLOBALS, namespace)
        return (namespace["block"], n, self.need, self.max_slot, mem_pc)

    def memory(self, op: int, a, b, pc: int, tail: list[str]) -> bool:
        """Emit the inlined AM-hit path of a memory op ending the block."""
        if not _word(a):
            return False
        if op == _LOAD or op == _STORE:
            if not _word(b) or b < 0:
                return False
            off = repr(b)
        if op == _STOREI:
            off = self.atom(self.pop())
        if op == _STORE or op == _STOREI:
            value = self.atom(self.pop())
        if op == _LOADI:
            off = self.atom(self.pop())
        intent = "R" if op == _LOAD or op == _LOADI else "W"
        body = self.body
        body.append("frame = None")
        indent = ""
        if op == _LOADI or op == _STOREI:
            body.append(f"if {off} >= 0:")
            indent = "    "
        body += [
            f"{indent}pg = {off} // ps",
            f"{indent}e = entries.get(({a}, pg, ring, {intent}))",
            f"{indent}if e is not None:",
            f"{indent}    fr, ptw, bound = e",
            f"{indent}    if {off} < bound and ptw.in_core"
            f" and ptw.frame == fr:",
            f"{indent}        frame = fr",
            f"{indent}        word = {off} - pg * ps",
        ]
        tail.append("if frame is not None:")
        tail.append("    ptw.used = True")
        if intent == "W":
            tail.append("    ptw.modified = True")
            tail.append(f"    write(frame, word, {value})")
        else:
            tail.append("    stack.append(read(frame, word))")
        tail.append(f"    return {pc + 1}")
        # Miss: spill the operands for the per-instruction path.
        spill = ([value] if op == _STORE or op == _STOREI else []) + (
            [off] if op == _LOADI or op == _STOREI else [])
        if spill:
            tail.append(_push_source(spill))
        tail.append(f"return {pc}")
        return True

    def source(self, tail: list[str]) -> str:
        """The block's function: read inputs, compute (all or nothing),
        write back slots and stack, then ``tail``."""
        final = [self.atom(v) for v in self.stack]
        need = self.need
        inputs = [f"x{k}" for k in range(need, 0, -1)]  # bottom first
        keep = 0
        while keep < min(need, len(final)) and final[keep] == inputs[keep]:
            keep += 1
        lines = ["def block(stack, slots, entries, ring, ps, read, write):"]
        if need == 1:
            lines.append("    x1 = stack[-1]")
        elif need:
            lines.append(f"    {', '.join(inputs)} = stack[-{need}:]")
        lines.append("    try:")
        lines += [f"        {line}" for line in self.body or ["pass"]]
        lines.append("    except Exception:")
        lines.append("        return None")
        for slot, name in self.slot_writes.items():
            lines.append(f"    slots[{slot}] = {name}")
        if need - keep == 1:
            lines.append("    del stack[-1]")
        elif need > keep:
            lines.append(f"    del stack[-{need - keep}:]")
        if len(final) > keep:
            lines.append(f"    {_push_source(final[keep:])}")
        lines += [f"    {line}" for line in tail]
        return "\n".join(lines) + "\n"


def _word(x) -> bool:
    """May ``x`` be written into generated source as a literal?"""
    return type(x) is int and -(1 << 63) <= x < (1 << 63)


def _push_source(names: list[str]) -> str:
    if len(names) == 1:
        return f"stack.append({names[0]})"
    return f"stack += ({', '.join(names)})"


@dataclass
class Link:
    """One slot in a linkage section."""

    symbol: str                 # "segment$entry" symbolic reference
    snapped: bool = False
    segno: int = -1
    offset: int = -1


class LinkageFault(ReproError):
    """A CALLL went through an unsnapped link; the environment's linkage
    fault handler must snap it and restart the instruction."""

    def __init__(self, index: int, link: Link):
        self.index = index
        self.link = link
        super().__init__(f"linkage fault on link {index} ({link.symbol})")


class MachineContext(Protocol):
    """What the CPU needs to know about the executing process."""

    dseg: DescriptorSegment
    ring: int

    def stack_limit(self) -> int: ...
    def code_segment(self, segno: int) -> CodeSegment: ...
    def linkage(self) -> list[Link]: ...


@dataclass(slots=True)
class _Frame:
    return_segno: int
    return_pc: int
    return_ring: int
    slots: list[int]
    stack_base: int


class ExecutionLimit(ReproError):
    """The instruction budget was exhausted (runaway program)."""


class CPU:
    """Executes code segments for one context at a time.

    The CPU charges cycles to an internal counter; callers (the process
    layer, the benches) read :attr:`cycles` or diff it around a call.
    """

    def __init__(
        self,
        core: MemoryLevel,
        costs: CostModel,
        ring_mode: RingMode,
        page_size: int,
        on_missing_page: Callable[[MachineContext, int, int], None] | None = None,
        on_linkage_fault: Callable[[MachineContext, int], None] | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        am_enabled: bool = True,
        meters=None,
        cpu_id: int = 0,
        private_am: AssociativeMemory | None = None,
    ) -> None:
        self.core = core
        self.costs = costs
        self.ring_mode = ring_mode
        self.page_size = page_size
        self.on_missing_page = on_missing_page
        self.on_linkage_fault = on_linkage_fault
        self.tracer = tracer or NULL_TRACER
        #: Consult an associative memory on every reference and
        #: instruction fetch.
        self.am_enabled = am_enabled
        #: Optional metering plane (repro.obs.meters): :meth:`execute`
        #: attributes its cycle deltas to the executing context.
        self.meters = meters
        #: Which CPU of the complex this is (0 on a uniprocessor).
        self.cpu_id = cpu_id
        #: A per-CPU associative memory, as on the real 6180 where the
        #: AM is processor hardware, not process state.  When set, it is
        #: used *instead of* the per-process ``ctx.dseg.am`` and cleared
        #: (full cam) whenever the CPU is connected to a different
        #: descriptor segment — the dseg switch the hardware cams on.
        self.private_am = private_am
        self._am_dseg: DescriptorSegment | None = None
        self.cycles = 0
        #: Cycles this CPU spent stalled — waiting out another CPU's
        #: kernel-lock hold window plus serialized fault service.  Kept
        #: apart from :attr:`cycles` so the uniprocessor cycle counts
        #: (and every pre-SMP bench identity) are untouched; the SMP
        #: complex advances the shared clock by busy + stall.
        self.stall_cycles = 0
        #: Counters for the benches.  The two translation-cost splits
        #: partition every translation cycle charged above: cycles ==
        #: am_hit_cycles + walk_cycles + (instruction, call and core
        #: access costs).
        self.calls_in_ring = 0
        self.calls_cross_ring = 0
        self.instructions_executed = 0
        self.am_hit_cycles = 0
        self.walk_cycles = 0
        if metrics is not None:
            metrics.counter("cpu.cycles", "simulated cycles charged",
                            source=lambda: self.cycles)
            metrics.counter("cpu.instructions", "instructions executed",
                            source=lambda: self.instructions_executed)
            metrics.counter("cpu.calls_in_ring", "same-ring calls",
                            source=lambda: self.calls_in_ring)
            metrics.counter("cpu.calls_cross_ring", "ring-crossing calls",
                            source=lambda: self.calls_cross_ring)
            metrics.counter("cpu.am_hit_cycles",
                            "translation cycles served by the AM",
                            source=lambda: self.am_hit_cycles)
            metrics.counter("cpu.walk_cycles",
                            "translation cycles spent on full walks",
                            source=lambda: self.walk_cycles)
            metrics.counter("cpu.stall_cycles",
                            "cycles stalled on kernel locks",
                            source=lambda: self.stall_cycles)
        if meters is not None:
            meters.register_cpu(self)

    def stall(self, cycles: int) -> None:
        """Charge lock-wait / serialized-service cycles to this CPU."""
        self.stall_cycles += cycles

    def _am_for(self, ctx: MachineContext) -> AssociativeMemory | None:
        """The associative memory consulted for ``ctx``'s references.

        With a private (per-CPU) AM, connecting the CPU to a different
        descriptor segment cams it first: entries witnessed against the
        previous process's dseg must never satisfy another process's
        references.  While connected, the CPU's AM is registered on the
        dseg, so the table's own selective cams reach it.
        """
        if not self.am_enabled:
            return None
        am = self.private_am
        if am is None:
            return ctx.dseg.am
        if self._am_dseg is not ctx.dseg:
            old = self._am_dseg
            if old is not None:
                am.cam()
                old.cpu_ams = tuple(a for a in old.cpu_ams if a is not am)
            ctx.dseg.cpu_ams += (am,)
            self._am_dseg = ctx.dseg
        return am

    # -- memory helpers ---------------------------------------------------

    def _translate(self, ctx: MachineContext, segno: int, offset: int,
                   intent: Intent) -> tuple[int, int]:
        """One checked reference, with page faults serviced and the
        translation cost (AM hit vs full walk) charged."""
        am = self._am_for(ctx)
        while True:
            try:
                if am is None:
                    located = translate(
                        ctx.dseg, segno, offset, ctx.ring, intent,
                        self.page_size,
                    )
                    self.cycles += self.costs.translate_walk
                    self.walk_cycles += self.costs.translate_walk
                    return located
                hits_before = am.hits
                located = translate(
                    ctx.dseg, segno, offset, ctx.ring, intent,
                    self.page_size, am=am,
                )
                if am.hits != hits_before:
                    self.cycles += self.costs.am_hit
                    self.am_hit_cycles += self.costs.am_hit
                else:
                    self.cycles += self.costs.translate_walk
                    self.walk_cycles += self.costs.translate_walk
                return located
            except MissingPageFault as fault:
                self.cycles += self.costs.translate_walk
                self.walk_cycles += self.costs.translate_walk
                self._service_page_fault(ctx, fault)

    def _read(self, ctx: MachineContext, segno: int, offset: int) -> int:
        frame, word = self._translate(ctx, segno, offset, Intent.READ)
        self.cycles += self.costs.core_access
        return self.core.read(frame, word)

    def _write(self, ctx: MachineContext, segno: int, offset: int, value: int) -> None:
        frame, word = self._translate(ctx, segno, offset, Intent.WRITE)
        self.cycles += self.costs.core_access
        self.core.write(frame, word, value)

    def _service_page_fault(self, ctx: MachineContext, fault: MissingPageFault) -> None:
        if self.on_missing_page is None:
            raise fault
        self.on_missing_page(ctx, fault.segno, fault.pageno)

    # -- execution --------------------------------------------------------

    def execute(
        self,
        ctx: MachineContext,
        segno: int,
        entry: int = 0,
        args: list[int] | None = None,
        max_instructions: int = 1_000_000,
    ) -> int:
        """Run from ``segno|entry`` until HALT or a RET from the initial
        frame.  Returns the value on top of the stack (0 if empty).

        Hardware faults other than missing-page and linkage faults
        propagate to the caller — in the full system the supervisor
        reflects them to the faulting process; in tests they are the
        assertion of interest.
        """
        if self.meters is None or not self.meters.enabled:
            return self._execute(ctx, segno, entry, args, max_instructions)
        # Attribute this run's cycle deltas to the executing context,
        # even if it faults out: the counters are plain ints, so the
        # simulated cost is identical with metering on or off.
        c0, h0 = self.cycles, self.am_hit_cycles
        w0, x0 = self.walk_cycles, self.calls_cross_ring
        try:
            return self._execute(ctx, segno, entry, args, max_instructions)
        finally:
            self.meters.note_execution(
                ctx,
                self.cycles - c0,
                self.am_hit_cycles - h0,
                self.walk_cycles - w0,
                self.calls_cross_ring - x0,
            )

    def _execute(
        self,
        ctx: MachineContext,
        segno: int,
        entry: int = 0,
        args: list[int] | None = None,
        max_instructions: int = 1_000_000,
    ) -> int:
        runner = self.stepper(ctx, segno, entry, args, max_instructions)
        try:
            while True:
                next(runner)
        except StopIteration as stop:
            return stop.value

    def stepper(
        self,
        ctx: MachineContext,
        segno: int,
        entry: int = 0,
        args: list[int] | None = None,
        max_instructions: int = 1_000_000,
    ):
        """A resumable execution: a generator returning the program's
        result via StopIteration.  This is the interpreter.

        This is the SMP complex's hook: it advances each CPU's runner a
        bounded number of cycles per lockstep round, giving a
        deterministic interleaving on the simulated clock.  Unlike
        :meth:`execute`, no metering wrap is applied — the complex
        attributes cycles itself, per slice.

        Protocol: the first ``next()`` runs entry setup and parks before
        the first instruction.  After that the driver advances it with
        ``send(target)``: instructions run while
        ``cycles + stall_cycles < target``, tested before each one, and
        the generator yields once the condition fails.  ``send(None)``
        (what plain ``next()`` does) means "no target": it runs to
        completion.

        Straight-line runs of each code segment are compiled once to
        Python functions (:class:`BlockTable`, cached on the
        :class:`CodeSegment`).  A block runs only if its fetch legality
        is cached in the AM at entry and the whole block fits the cycle
        target, the instruction budget, the operand stack and the frame;
        it is then charged, per instruction, exactly the fetch hit and
        instruction cost the per-instruction body charges, plus the AM
        hit and core access of a memory op that ends it.  One fetch
        check per block is sound because nothing inside a block calls
        out of the interpreter, so no ``cam`` can occur mid-block.
        Everything else — calls, returns, fetch misses, AM misses, an
        AM that is off, whatever a block does not cover — runs one
        instruction at a time through the body below, so every fault,
        underflow and quantum boundary lands on the instruction the
        per-instruction semantics put it on.

        Block charges are *batched*: cycle, hit and instruction deltas
        accumulate in locals and are folded into the counters before
        the next per-instruction step, at a yield, and on the way out
        (the ``finally`` below).  Nothing runs and nothing reads the
        counters between folds, so every *observable* value — what the
        SMP round accounting, the mid-fault virtual clock, the meters
        and the snapshot see — is the eager one.  The per-instruction
        body updates the counters as it goes.
        """
        code = ctx.code_segment(segno)
        # Instruction fetch legality for the *initial* transfer: treat it
        # like a call from the current ring.
        sdw = ctx.dseg.get(segno)
        new_ring = call_check(sdw.brackets, ctx.ring, entry, sdw.gates)
        self.cycles += call_cost(self.costs, self.ring_mode, ctx.ring, new_ring)
        self._count_call(ctx.ring, new_ring)

        stack: list[int] = []
        frames: list[_Frame] = [
            _Frame(-1, -1, ctx.ring, list(args or []), 0)
        ]
        slots = frames[0].slots
        ctx.ring = new_ring
        pc = entry
        executed = 0
        am = self._am_for(ctx)

        # Hoisted loop invariants.
        costs = self.costs
        hit_cost = costs.am_hit
        walk_cost = costs.translate_walk
        ih = costs.instruction + hit_cost  # one instruction after a hit
        hit_core = hit_cost + costs.core_access
        page_size = self.page_size
        core_read = self.core.read
        core_write = self.core.write
        pop = self._pop
        entries = am._entries if am is not None else None
        ring = ctx.ring
        table = block_table(code)
        decoded, blocks = table.decoded, table.blocks
        n_inst = len(decoded)
        fkey = fetch_key(segno, ring)

        target = yield
        cyc = hits = ninst = 0   # block charges not yet folded
        try:
            while True:
                limit = target if target is not None else _NO_TARGET
                # "cycles + stall_cycles + cyc < limit" is "cyc < room".
                room = limit - self.cycles - self.stall_cycles
                while cyc < room:
                    if executed >= max_instructions:
                        raise ExecutionLimit(
                            f"exceeded {max_instructions} instructions"
                        )
                    if not 0 <= pc < n_inst:
                        raise IllegalInstruction(
                            f"pc {pc} outside code segment {segno}"
                        )
                    # Instruction fetch check: the executing ring must
                    # still be allowed to execute this segment.  The AM
                    # caches the decision per (segno, ring); every
                    # invalidation that could change it (SDW swap,
                    # revocation, teardown) clears it.
                    fetch_hit = entries is not None and fkey in entries
                    if fetch_hit:
                        blk = blocks[pc]
                        if blk is None:
                            blk = table.build(pc)
                        if blk:
                            fn, n, need, max_slot, mem_pc = blk
                            if (cyc + (n - 1) * ih < room
                                    and executed + n <= max_instructions
                                    and len(stack) >= need
                                    and len(slots) > max_slot):
                                try:
                                    npc = fn(stack, slots, entries, ring,
                                             page_size, core_read, core_write)
                                except BaseException:
                                    # Only the final core access raises
                                    # past a block: all of it has taken
                                    # effect.
                                    cyc += n * ih + hit_core
                                    hits += n + 1
                                    ninst += n
                                    executed += n
                                    raise
                                if npc is not None:
                                    if npc == mem_pc:
                                        # AM miss: the pure prefix ran;
                                        # the memory op runs below.
                                        n -= 1
                                    elif mem_pc is not None:
                                        cyc += hit_core
                                        hits += 1
                                    cyc += n * ih
                                    hits += n
                                    ninst += n
                                    executed += n
                                    pc = npc
                                    if npc != mem_pc:
                                        continue
                        hits += 1
                        cyc += hit_cost

                    # One instruction, at live counters (every block
                    # charge counts hits, so none is pending if none).
                    if hits:
                        self._fold(cyc, ninst, hits, am)
                        cyc = hits = ninst = 0
                    if not fetch_hit:
                        if am is not None:
                            am.misses += 1
                        sdw = ctx.dseg.get(segno)
                        check_access(sdw, ring, Intent.FETCH)
                        self.cycles += walk_cost
                        self.walk_cycles += walk_cost
                        if am is not None:
                            am.fetch_insert(segno, ring, sdw.uid)

                    op, a, b, c = decoded[pc]
                    pc += 1
                    executed += 1
                    self.instructions_executed += 1
                    self.cycles += costs.instruction

                    if op == _PUSHI:
                        stack.append(a)
                    elif op == _LOAD:
                        stack.append(self._read(ctx, a, b))
                    elif op == _STORE:
                        self._write(ctx, a, b, pop(stack))
                    elif op == _LOADI:
                        stack.append(self._read(ctx, a, pop(stack)))
                    elif op == _STOREI:
                        offset = pop(stack)
                        self._write(ctx, a, offset, pop(stack))
                    elif op == _LOADF:
                        self._check_slot(frames[-1], a)
                        stack.append(slots[a])
                    elif op == _STOREF:
                        self._check_slot(frames[-1], a, grow=True)
                        slots[a] = pop(stack)
                    elif op in _BINOPS:
                        rhs = pop(stack)
                        stack.append(_BINOPS[op](pop(stack), rhs))
                    elif op == _NEG:
                        stack.append(-pop(stack))
                    elif op == _NOT:
                        stack.append(0 if pop(stack) else 1)
                    elif op == _DUP:
                        if not stack:
                            raise IllegalInstruction("operand stack underflow")
                        stack.append(stack[-1])
                    elif op == _POP:
                        pop(stack)
                    elif op == _SWAP:
                        if len(stack) < 2:
                            raise IllegalInstruction("operand stack underflow")
                        stack[-1], stack[-2] = stack[-2], stack[-1]
                    elif op == _JMP:
                        pc = a
                    elif op == _JZ:
                        if pop(stack) == 0:
                            pc = a
                    elif op == _JNZ:
                        if pop(stack) != 0:
                            pc = a
                    elif op == _HALT:
                        return stack[-1] if stack else 0
                    else:
                        if op == _RET:
                            result = stack.pop() if stack else 0
                            frame = frames.pop()
                            ctx.ring = frame.return_ring
                            if not frames:
                                return result
                            stack.append(result)
                            segno = frame.return_segno
                            code = ctx.code_segment(segno)
                            pc = frame.return_pc
                        else:
                            if op == _CALLL:
                                a, b, c = *self._resolve_link(ctx, a), b
                            segno, code, pc = self._do_call(
                                ctx, frames, stack, segno, pc, a, b, c,
                            )
                        ring = ctx.ring
                        slots = frames[-1].slots
                        table = block_table(code)
                        decoded, blocks = table.decoded, table.blocks
                        n_inst = len(decoded)
                        fkey = fetch_key(segno, ring)
                    room = limit - self.cycles - self.stall_cycles
                # Quantum boundary: fold the pending charges so the SMP
                # round accounting sees exact values while suspended.
                self._fold(cyc, ninst, hits, am)
                cyc = hits = ninst = 0
                target = yield
        finally:
            # Returns and contained faults exit through here.
            self._fold(cyc, ninst, hits, am)

    def _fold(self, cyc: int, ninst: int, hits: int,
              am: AssociativeMemory | None) -> None:
        """Fold batched block charges into the CPU's (and its AM's)
        counters."""
        self.cycles += cyc
        self.instructions_executed += ninst
        if hits:
            am.hits += hits
            self.am_hit_cycles += hits * self.costs.am_hit

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _pop(stack: list[int]) -> int:
        if not stack:
            raise IllegalInstruction("operand stack underflow")
        return stack.pop()

    @staticmethod
    def _check_slot(frame: _Frame, index: int, grow: bool = False) -> None:
        if index < 0:
            raise IllegalInstruction(f"negative frame slot {index}")
        if index >= len(frame.slots):
            if not grow or index >= 4096:
                if not grow:
                    raise IllegalInstruction(
                        f"frame slot {index} not initialized"
                    )
                raise IllegalInstruction("frame too large")
            frame.slots.extend([0] * (index + 1 - len(frame.slots)))

    def _count_call(self, old_ring: int, new_ring: int) -> None:
        if old_ring == new_ring:
            self.calls_in_ring += 1
        else:
            self.calls_cross_ring += 1
            if self.tracer.enabled:
                self.tracer.point(
                    "ring_crossing", origin="cpu",
                    from_ring=old_ring, to_ring=new_ring,
                )

    def _do_call(
        self,
        ctx: MachineContext,
        frames: list[_Frame],
        stack: list[int],
        caller_segno: int,
        return_pc: int,
        target_segno: int,
        target_offset: int,
        nargs: int,
    ) -> tuple[int, CodeSegment, int]:
        sdw = ctx.dseg.get(target_segno)
        new_ring = call_check(sdw.brackets, ctx.ring, target_offset, sdw.gates)
        self.cycles += call_cost(self.costs, self.ring_mode, ctx.ring, new_ring)
        self._count_call(ctx.ring, new_ring)
        if nargs > len(stack):
            raise IllegalInstruction("not enough arguments on stack")
        slots = stack[len(stack) - nargs:] if nargs else []
        del stack[len(stack) - nargs:]
        frames.append(
            _Frame(caller_segno, return_pc, ctx.ring, list(slots), len(stack))
        )
        ctx.ring = new_ring
        code = ctx.code_segment(target_segno)
        return target_segno, code, target_offset

    def _resolve_link(self, ctx: MachineContext, index: int) -> tuple[int, int]:
        links = ctx.linkage()
        if not 0 <= index < len(links):
            raise IllegalInstruction(f"no linkage slot {index}")
        link = links[index]
        if not link.snapped:
            if self.on_linkage_fault is None:
                raise LinkageFault(index, link)
            self.on_linkage_fault(ctx, index)
            link = ctx.linkage()[index]
            if not link.snapped:
                raise LinkageFault(index, link)
        return link.segno, link.offset


_BINOPS = {
    _ADD: lambda a, b: a + b,
    _SUB: lambda a, b: a - b,
    _MUL: lambda a, b: a * b,
    _DIV: lambda a, b: _div(a, b),
    _MOD: lambda a, b: _mod(a, b),
    _EQ: lambda a, b: int(a == b),
    _NE: lambda a, b: int(a != b),
    _LT: lambda a, b: int(a < b),
    _LE: lambda a, b: int(a <= b),
    _GT: lambda a, b: int(a > b),
    _GE: lambda a, b: int(a >= b),
}


def _div(a: int, b: int) -> int:
    if b == 0:
        raise IllegalInstruction("division by zero")
    return int(a / b)  # truncate toward zero, like the hardware


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise IllegalInstruction("modulo by zero")
    return a - _div(a, b) * b
