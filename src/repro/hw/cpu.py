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

    The fast interpreter (:meth:`CPU.stepper` with ``fast_path``)
    caches a decoded form of ``instructions`` — plain
    ``(opcode, a, b, c)`` int tuples — on the segment, so a program
    shared by thousands of processes decodes once.  The cache is
    invalidated whenever the instruction list is replaced or resized.
    """

    instructions: list[Instruction]
    entry_points: dict[str, int] = field(default_factory=dict)
    _decoded: list | None = field(default=None, repr=False, compare=False)
    _decoded_src: list | None = field(default=None, repr=False,
                                      compare=False)

    def __len__(self) -> int:
        return len(self.instructions)


#: Op -> small-int opcode, in declaration order; the fast interpreter
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


#: "No cycle target": the fast interpreter runs to completion.
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
        fast_path: bool = False,
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
        #: Run the inlined interpreter loop (decoded instructions,
        #: inlined AM probes, hoisted attribute chains).  Cycle charges,
        #: counters, and fault behaviour are byte-identical to the
        #: classic loop — bench E18's equivalence leg holds the two
        #: against each other.
        self.fast_path = fast_path
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
        references.
        """
        if not self.am_enabled:
            return None
        if self.private_am is None:
            return ctx.dseg.am
        if self._am_dseg is not ctx.dseg:
            if self._am_dseg is not None:
                self.private_am.cam()
            self._am_dseg = ctx.dseg
        return self.private_am

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
        result via StopIteration.

        This is the SMP complex's hook: it advances each CPU's runner a
        bounded number of cycles per lockstep round, giving a
        deterministic interleaving on the simulated clock.  Unlike
        :meth:`execute`, no metering wrap is applied — the complex
        attributes cycles itself, per slice.

        Protocol: the first ``next()`` runs entry setup and parks before
        the first instruction.  After that the driver advances it with
        ``send(target)`` — the classic loop yields before *every*
        instruction (``send`` ≡ ``next``, the value is ignored), while
        the fast loop runs instructions until
        ``cycles + stall_cycles >= target`` and only then yields.
        ``send(None)`` (what plain ``next()`` does) means "no target":
        the fast loop runs to completion.  Instruction boundaries are
        identical either way because both loops test the same condition
        before each instruction.
        """
        if self.fast_path:
            return self._run_fast(ctx, segno, entry, args, max_instructions)
        return self._run(ctx, segno, entry, args, max_instructions)

    def _run(
        self,
        ctx: MachineContext,
        segno: int,
        entry: int = 0,
        args: list[int] | None = None,
        max_instructions: int = 1_000_000,
    ):
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
        ctx.ring = new_ring
        pc = entry
        executed = 0
        am = self._am_for(ctx)

        while True:
            yield
            if executed >= max_instructions:
                raise ExecutionLimit(
                    f"exceeded {max_instructions} instructions"
                )
            if not 0 <= pc < len(code.instructions):
                raise IllegalInstruction(
                    f"pc {pc} outside code segment {segno}"
                )
            # Instruction fetch check: the executing ring must still be
            # allowed to execute this segment.  The AM caches the
            # decision per (segno, ring); every invalidation that could
            # change it (SDW swap, revocation, teardown) clears it.
            if am is not None and am.fetch_probe(segno, ctx.ring):
                self.cycles += self.costs.am_hit
                self.am_hit_cycles += self.costs.am_hit
            else:
                sdw = ctx.dseg.get(segno)
                check_access(sdw, ctx.ring, Intent.FETCH)
                self.cycles += self.costs.translate_walk
                self.walk_cycles += self.costs.translate_walk
                if am is not None:
                    am.fetch_insert(segno, ctx.ring, sdw.uid)

            inst = code.instructions[pc]
            pc += 1
            executed += 1
            self.instructions_executed += 1
            self.cycles += self.costs.instruction
            op = inst.op

            if op is Op.PUSHI:
                stack.append(inst.a)
            elif op is Op.LOAD:
                stack.append(self._read(ctx, inst.a, inst.b))
            elif op is Op.STORE:
                self._write(ctx, inst.a, inst.b, self._pop(stack))
            elif op is Op.LOADI:
                offset = self._pop(stack)
                stack.append(self._read(ctx, inst.a, offset))
            elif op is Op.STOREI:
                offset = self._pop(stack)
                value = self._pop(stack)
                self._write(ctx, inst.a, offset, value)
            elif op is Op.LOADF:
                frame = frames[-1]
                self._check_slot(frame, inst.a)
                stack.append(frame.slots[inst.a])
            elif op is Op.STOREF:
                frame = frames[-1]
                self._check_slot(frame, inst.a, grow=True)
                frame.slots[inst.a] = self._pop(stack)
            elif op in _BINOPS:
                rhs = self._pop(stack)
                lhs = self._pop(stack)
                stack.append(_BINOPS[op](lhs, rhs))
            elif op is Op.NEG:
                stack.append(-self._pop(stack))
            elif op is Op.NOT:
                stack.append(0 if self._pop(stack) else 1)
            elif op is Op.DUP:
                stack.append(stack[-1])
            elif op is Op.POP:
                self._pop(stack)
            elif op is Op.SWAP:
                stack[-1], stack[-2] = stack[-2], stack[-1]
            elif op is Op.JMP:
                pc = inst.a
            elif op is Op.JZ:
                if self._pop(stack) == 0:
                    pc = inst.a
            elif op is Op.JNZ:
                if self._pop(stack) != 0:
                    pc = inst.a
            elif op is Op.CALL:
                segno, code, pc = self._do_call(
                    ctx, frames, stack, segno, pc,
                    inst.a, inst.b, inst.c,
                )
            elif op is Op.CALLL:
                target = self._resolve_link(ctx, inst.a)
                segno, code, pc = self._do_call(
                    ctx, frames, stack, segno, pc,
                    target[0], target[1], inst.b,
                )
            elif op is Op.RET:
                result = stack.pop() if stack else 0
                frame = frames.pop()
                ctx.ring = frame.return_ring
                if not frames:
                    return result
                stack.append(result)
                segno = frame.return_segno
                code = ctx.code_segment(segno)
                pc = frame.return_pc
            elif op is Op.HALT:
                return stack[-1] if stack else 0
            else:  # pragma: no cover - enum is closed
                raise IllegalInstruction(f"cannot execute {op!r}")

    def _run_fast(
        self,
        ctx: MachineContext,
        segno: int,
        entry: int = 0,
        args: list[int] | None = None,
        max_instructions: int = 1_000_000,
    ):
        """The inlined interpreter loop (see :meth:`stepper` for the
        driving protocol).

        Architecturally identical to :meth:`_run`: same checks in the
        same order, same cycle charges, same counters, same faults.
        What changes is the Python: instructions are decoded to int
        tuples once per code segment, the AM probe and the translate
        hit case are inlined (any non-hit falls back to the classic
        :meth:`_translate` *before* touching a counter), cost constants
        and bound methods are hoisted out of the loop, and the
        generator suspends once per cycle target instead of once per
        instruction.

        Counter updates are *batched* (cProfile's single
        biggest finding): the pure-hit loop accumulates cycle, hit,
        and instruction deltas in locals and folds them into the
        instance counters only at a boundary — a quantum yield, any
        classic-path excursion (translate walk, fetch miss, call,
        linkage), a return, or an exception (the ``finally`` below).
        No event runs and nothing reads the counters between
        boundaries, so every *observable* value — what the SMP round
        accounting, the mid-fault virtual clock, the meters, and the
        snapshot see — is identical to the eager classic loop; only
        the per-instruction attribute writes disappear.
        """
        code = ctx.code_segment(segno)
        sdw = ctx.dseg.get(segno)
        new_ring = call_check(sdw.brackets, ctx.ring, entry, sdw.gates)
        self.cycles += call_cost(self.costs, self.ring_mode, ctx.ring, new_ring)
        self._count_call(ctx.ring, new_ring)

        stack: list[int] = []
        frames: list[_Frame] = [
            _Frame(-1, -1, ctx.ring, list(args or []), 0)
        ]
        ctx.ring = new_ring
        pc = entry
        executed = 0
        am = self._am_for(ctx)

        # Hoisted loop invariants.
        costs = self.costs
        inst_cost = costs.instruction
        hit_cost = costs.am_hit
        walk_cost = costs.translate_walk
        core_cost = costs.core_access
        hit_core = hit_cost + core_cost
        page_size = self.page_size
        core_read = self.core.read
        core_write = self.core.write
        translate_slow = self._translate
        dseg = ctx.dseg
        entries = am._entries if am is not None else None
        R, W, F = Intent.READ, Intent.WRITE, Intent.FETCH
        ring = ctx.ring
        decoded = _decoded_for(code)
        n_inst = len(decoded)
        fkey = fetch_key(segno, ring)

        target = yield
        # Pending counter deltas (see docstring): folded into the
        # instance counters at every boundary, never observable stale.
        cyc = 0      # -> self.cycles
        hits = 0     # -> am.hits
        hitc = 0     # -> self.am_hit_cycles
        wlkc = 0     # -> self.walk_cycles (AM-off fetch walks)
        ninst = 0    # -> self.instructions_executed
        base = self.cycles
        stall = self.stall_cycles
        try:
            while True:
                limit = target if target is not None else _NO_TARGET
                while base + cyc + stall < limit:
                    if executed >= max_instructions:
                        raise ExecutionLimit(
                            f"exceeded {max_instructions} instructions"
                        )
                    if not 0 <= pc < n_inst:
                        raise IllegalInstruction(
                            f"pc {pc} outside code segment {segno}"
                        )
                    # Instruction fetch check (same order and counters
                    # as AssociativeMemory.fetch_probe + the classic
                    # walk).
                    if entries is not None:
                        if fkey in entries:
                            hits += 1
                            cyc += hit_cost
                            hitc += hit_cost
                        else:
                            # Boundary: run the miss at live counters.
                            self.cycles += cyc
                            self.walk_cycles += wlkc
                            self.instructions_executed += ninst
                            if hits:
                                am.hits += hits
                                self.am_hit_cycles += hitc
                            cyc = hits = hitc = wlkc = ninst = 0
                            am.misses += 1
                            sdw = dseg.get(segno)
                            check_access(sdw, ring, F)
                            self.cycles += walk_cost
                            self.walk_cycles += walk_cost
                            am.fetch_insert(segno, ring, sdw.uid)
                            base = self.cycles
                    else:
                        sdw = dseg.get(segno)
                        check_access(sdw, ring, F)
                        cyc += walk_cost
                        wlkc += walk_cost

                    op, a, b, c = decoded[pc]
                    pc += 1
                    executed += 1
                    ninst += 1
                    cyc += inst_cost

                    if op == _PUSHI:
                        stack.append(a)
                    elif op == _LOAD or op == _LOADI:
                        if op == _LOAD:
                            off = b
                        else:
                            if not stack:
                                raise IllegalInstruction(
                                    "operand stack underflow"
                                )
                            off = stack.pop()
                        if entries is not None and off >= 0:
                            pg = off // page_size
                            e = entries.get((a, pg, ring, R))
                            if e is not None:
                                fr, ptw, bnd = e
                                if (off < bnd and ptw.in_core
                                        and ptw.frame == fr):
                                    hits += 1
                                    cyc += hit_core
                                    hitc += hit_cost
                                    ptw.used = True
                                    stack.append(
                                        core_read(fr, off - pg * page_size)
                                    )
                                    continue
                        # Boundary: a fault inside the walk reads the
                        # live counters for its virtual time.
                        self.cycles += cyc
                        self.walk_cycles += wlkc
                        self.instructions_executed += ninst
                        if hits:
                            am.hits += hits
                            self.am_hit_cycles += hitc
                        cyc = hits = hitc = wlkc = ninst = 0
                        fr, word = translate_slow(ctx, a, off, R)
                        self.cycles += core_cost
                        base = self.cycles
                        stall = self.stall_cycles
                        stack.append(core_read(fr, word))
                    elif op == _STORE or op == _STOREI:
                        if op == _STORE:
                            off = b
                            if not stack:
                                raise IllegalInstruction(
                                    "operand stack underflow"
                                )
                            value = stack.pop()
                        else:
                            if not stack:
                                raise IllegalInstruction(
                                    "operand stack underflow"
                                )
                            off = stack.pop()
                            if not stack:
                                raise IllegalInstruction(
                                    "operand stack underflow"
                                )
                            value = stack.pop()
                        if entries is not None and off >= 0:
                            pg = off // page_size
                            e = entries.get((a, pg, ring, W))
                            if e is not None:
                                fr, ptw, bnd = e
                                if (off < bnd and ptw.in_core
                                        and ptw.frame == fr):
                                    hits += 1
                                    cyc += hit_core
                                    hitc += hit_cost
                                    ptw.used = True
                                    ptw.modified = True
                                    core_write(
                                        fr, off - pg * page_size, value
                                    )
                                    continue
                        self.cycles += cyc
                        self.walk_cycles += wlkc
                        self.instructions_executed += ninst
                        if hits:
                            am.hits += hits
                            self.am_hit_cycles += hitc
                        cyc = hits = hitc = wlkc = ninst = 0
                        fr, word = translate_slow(ctx, a, off, W)
                        self.cycles += core_cost
                        base = self.cycles
                        stall = self.stall_cycles
                        core_write(fr, word, value)
                    elif op == _LOADF:
                        frame = frames[-1]
                        slots = frame.slots
                        if 0 <= a < len(slots):
                            stack.append(slots[a])
                        else:
                            self._check_slot(frame, a)
                    elif op == _STOREF:
                        frame = frames[-1]
                        self._check_slot(frame, a, grow=True)
                        if not stack:
                            raise IllegalInstruction(
                                "operand stack underflow"
                            )
                        frame.slots[a] = stack.pop()
                    elif _ADD <= op <= _GE and op != _NEG:
                        if not stack:
                            raise IllegalInstruction(
                                "operand stack underflow"
                            )
                        rhs = stack.pop()
                        if not stack:
                            raise IllegalInstruction(
                                "operand stack underflow"
                            )
                        lhs = stack.pop()
                        if op == _ADD:
                            stack.append(lhs + rhs)
                        elif op == _SUB:
                            stack.append(lhs - rhs)
                        elif op == _MUL:
                            stack.append(lhs * rhs)
                        elif op == _EQ:
                            stack.append(int(lhs == rhs))
                        elif op == _NE:
                            stack.append(int(lhs != rhs))
                        elif op == _LT:
                            stack.append(int(lhs < rhs))
                        elif op == _LE:
                            stack.append(int(lhs <= rhs))
                        elif op == _GT:
                            stack.append(int(lhs > rhs))
                        elif op == _GE:
                            stack.append(int(lhs >= rhs))
                        elif op == _DIV:
                            stack.append(_div(lhs, rhs))
                        else:
                            stack.append(_mod(lhs, rhs))
                    elif op == _JMP:
                        pc = a
                    elif op == _JZ:
                        if not stack:
                            raise IllegalInstruction(
                                "operand stack underflow"
                            )
                        if stack.pop() == 0:
                            pc = a
                    elif op == _JNZ:
                        if not stack:
                            raise IllegalInstruction(
                                "operand stack underflow"
                            )
                        if stack.pop() != 0:
                            pc = a
                    elif op == _NEG:
                        if not stack:
                            raise IllegalInstruction(
                                "operand stack underflow"
                            )
                        stack.append(-stack.pop())
                    elif op == _NOT:
                        if not stack:
                            raise IllegalInstruction(
                                "operand stack underflow"
                            )
                        stack.append(0 if stack.pop() else 1)
                    elif op == _DUP:
                        stack.append(stack[-1])
                    elif op == _POP:
                        if not stack:
                            raise IllegalInstruction(
                                "operand stack underflow"
                            )
                        stack.pop()
                    elif op == _SWAP:
                        stack[-1], stack[-2] = stack[-2], stack[-1]
                    elif op == _CALL:
                        # Boundary: call_cost reads the live counters.
                        self.cycles += cyc
                        self.walk_cycles += wlkc
                        self.instructions_executed += ninst
                        if hits:
                            am.hits += hits
                            self.am_hit_cycles += hitc
                        cyc = hits = hitc = wlkc = ninst = 0
                        segno, code, pc = self._do_call(
                            ctx, frames, stack, segno, pc, a, b, c,
                        )
                        base = self.cycles
                        stall = self.stall_cycles
                        ring = ctx.ring
                        decoded = _decoded_for(code)
                        n_inst = len(decoded)
                        fkey = fetch_key(segno, ring)
                    elif op == _CALLL:
                        self.cycles += cyc
                        self.walk_cycles += wlkc
                        self.instructions_executed += ninst
                        if hits:
                            am.hits += hits
                            self.am_hit_cycles += hitc
                        cyc = hits = hitc = wlkc = ninst = 0
                        tgt = self._resolve_link(ctx, a)
                        segno, code, pc = self._do_call(
                            ctx, frames, stack, segno, pc, tgt[0], tgt[1], b,
                        )
                        base = self.cycles
                        stall = self.stall_cycles
                        ring = ctx.ring
                        decoded = _decoded_for(code)
                        n_inst = len(decoded)
                        fkey = fetch_key(segno, ring)
                    elif op == _RET:
                        result = stack.pop() if stack else 0
                        frame = frames.pop()
                        ctx.ring = frame.return_ring
                        ring = frame.return_ring
                        if not frames:
                            return result
                        stack.append(result)
                        segno = frame.return_segno
                        code = ctx.code_segment(segno)
                        pc = frame.return_pc
                        decoded = _decoded_for(code)
                        n_inst = len(decoded)
                        fkey = fetch_key(segno, ring)
                    elif op == _HALT:
                        return stack[-1] if stack else 0
                    else:  # pragma: no cover - enum is closed
                        raise IllegalInstruction(
                            f"cannot execute opcode {op}"
                        )
                # Quantum boundary: fold the pending deltas so the SMP
                # round accounting sees exact values while suspended.
                self.cycles += cyc
                self.walk_cycles += wlkc
                self.instructions_executed += ninst
                if hits:
                    am.hits += hits
                    self.am_hit_cycles += hitc
                cyc = hits = hitc = wlkc = ninst = 0
                target = yield
                base = self.cycles
                stall = self.stall_cycles
        finally:
            # Returns and contained faults exit through here: fold
            # whatever is pending so job accounting stays exact.
            self.cycles += cyc
            self.walk_cycles += wlkc
            self.instructions_executed += ninst
            if hits:
                am.hits += hits
                self.am_hit_cycles += hitc

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
    Op.ADD: lambda a, b: a + b,
    Op.SUB: lambda a, b: a - b,
    Op.MUL: lambda a, b: a * b,
    Op.DIV: lambda a, b: _div(a, b),
    Op.MOD: lambda a, b: _mod(a, b),
    Op.EQ: lambda a, b: int(a == b),
    Op.NE: lambda a, b: int(a != b),
    Op.LT: lambda a, b: int(a < b),
    Op.LE: lambda a, b: int(a <= b),
    Op.GT: lambda a, b: int(a > b),
    Op.GE: lambda a, b: int(a >= b),
}


def _div(a: int, b: int) -> int:
    if b == 0:
        raise IllegalInstruction("division by zero")
    return int(a / b)  # truncate toward zero, like the hardware


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise IllegalInstruction("modulo by zero")
    return a - _div(a, b) * b
