"""Per-module compiler certification (footnote 6, experiment E13).

Certifying the compiler for *all* programs is hopeless; certifying its
effect on the kernel's *specific* modules is tractable:

1. **structural conformance** — the object segment parses, every
   definition lands on a code offset, every outward reference is a
   declared link, and the instruction stream contains no operation the
   source could not have produced;
2. **behavioural conformance** — for a supplied set of test vectors,
   the object code executed on the simulated CPU produces the same
   results as an *independent interpretation* of the source text (the
   "source code model").

A tampered or miscompiled object fails one of the two checks; the test
suite tampers deliberately to prove the certifier catches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CertificationError, CompilationError
from repro.hw.cpu import CPU, CodeSegment, Instruction, Link, Op
from repro.hw.memory import MemoryLevel
from repro.hw.rings import user_brackets
from repro.hw.segmentation import SDW, AccessMode, DescriptorSegment
from repro.config import CostModel, RingMode
from repro.lang.compiler import (
    Assign,
    BinOp,
    Call,
    CallStmt,
    Declare,
    If,
    Num,
    Procedure,
    Program,
    Return,
    Unary,
    Var,
    While,
    compile_source,
    parse,
)
from repro.user.object_format import ObjectSegment, parse_symbol


# ---------------------------------------------------------------------------
# the independent source interpreter (the "model")
# ---------------------------------------------------------------------------

class _ReturnSignal(Exception):
    def __init__(self, value: int):
        self.value = value


class SourceInterpreter:
    """Executes the AST directly, sharing no code with the compiler's
    back end."""

    def __init__(self, program: Program, max_steps: int = 1_000_000) -> None:
        self.program = program
        self.max_steps = max_steps
        self._steps = 0

    def run(self, proc_name: str, args: list[int]) -> int:
        proc = self.program.procedures.get(proc_name)
        if proc is None:
            raise CertificationError(f"no procedure {proc_name!r}")
        if len(args) != len(proc.params):
            raise CertificationError(
                f"{proc_name} takes {len(proc.params)} arguments"
            )
        env = dict(zip(proc.params, args))
        try:
            self._exec_body(proc.body, env)
        except _ReturnSignal as signal:
            return signal.value
        return 0

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise CertificationError("source interpretation diverged")

    def _exec_body(self, body: list, env: dict[str, int]) -> None:
        for stmt in body:
            self._exec(stmt, env)

    def _exec(self, stmt, env: dict[str, int]) -> None:
        self._tick()
        if isinstance(stmt, Declare):
            env[stmt.name] = 0
        elif isinstance(stmt, Assign):
            env[stmt.name] = self._eval(stmt.value, env)
        elif isinstance(stmt, Return):
            raise _ReturnSignal(self._eval(stmt.value, env))
        elif isinstance(stmt, If):
            if self._eval(stmt.cond, env):
                self._exec_body(stmt.then, env)
            else:
                self._exec_body(stmt.otherwise, env)
        elif isinstance(stmt, While):
            while self._eval(stmt.cond, env):
                self._tick()
                self._exec_body(stmt.body, env)
        elif isinstance(stmt, CallStmt):
            self._eval(stmt.call, env)
        else:  # pragma: no cover
            raise CertificationError(f"unknown statement {stmt!r}")

    def _eval(self, expr, env: dict[str, int]) -> int:
        self._tick()
        if isinstance(expr, Num):
            return expr.value
        if isinstance(expr, Var):
            return env[expr.name]
        if isinstance(expr, Unary):
            return -self._eval(expr.operand, env)
        if isinstance(expr, BinOp):
            left = self._eval(expr.left, env)
            right = self._eval(expr.right, env)
            return self._apply(expr.op, left, right)
        if isinstance(expr, Call):
            target = expr.target
            if "$" in target:
                module, target = target.split("$", 1)
                if module != self.program.module:
                    raise CertificationError(
                        "kernel modules under certification may not call "
                        f"outside themselves ({expr.target})"
                    )
            return self.run(target, [self._eval(a, env) for a in expr.args])
        raise CertificationError(f"unknown expression {expr!r}")

    @staticmethod
    def _apply(op: str, a: int, b: int) -> int:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                raise CertificationError("source model divides by zero")
            return int(a / b)
        if op == "mod":
            if b == 0:
                raise CertificationError("source model mod by zero")
            return a - int(a / b) * b
        if op == "=":
            return int(a == b)
        if op == "^=":
            return int(a != b)
        if op == "<":
            return int(a < b)
        if op == "<=":
            return int(a <= b)
        if op == ">":
            return int(a > b)
        if op == ">=":
            return int(a >= b)
        raise CertificationError(f"unknown operator {op!r}")


# ---------------------------------------------------------------------------
# executing object code in a sandbox
# ---------------------------------------------------------------------------

class _SandboxContext:
    """A minimal MachineContext: one executable segment, self-links."""

    SEGNO = 100

    def __init__(self, obj: ObjectSegment, module: str) -> None:
        self.dseg = DescriptorSegment()
        self.ring = 4
        self.dseg.add(
            SDW(
                segno=self.SEGNO,
                access=AccessMode.RE,
                brackets=user_brackets(4),
                page_table=[],
                bound=1,
            )
        )
        self._code = CodeSegment(
            instructions=obj.code, entry_points=dict(obj.definitions)
        )
        self._links: list[Link] = []
        for sym in obj.links:
            ref, entry = parse_symbol(sym)
            link = Link(symbol=sym)
            if ref == module and entry in obj.definitions:
                link.snapped = True
                link.segno = self.SEGNO
                link.offset = obj.definitions[entry]
            self._links.append(link)

    def code_segment(self, segno: int) -> CodeSegment:
        return self._code

    def linkage(self) -> list[Link]:
        return self._links

    def stack_limit(self) -> int:
        return 4096


def execute_object(obj: ObjectSegment, module: str, entry: str,
                   args: list[int],
                   context: _SandboxContext | None = None) -> int:
    """Run object code on the simulated CPU, isolated from any system.
    Reusing the ``context`` of a run of the same ``obj`` reuses the
    blocks compiled for its code segment."""
    if entry not in obj.definitions:
        raise CertificationError(f"object exports no {entry!r}")
    if context is None:
        context = _SandboxContext(obj, module)
    cpu = CPU(
        core=MemoryLevel("sandbox", 1, 1, page_size=16),
        costs=CostModel(),
        ring_mode=RingMode.HARDWARE_6180,
        page_size=16,
    )
    return cpu.execute(
        context, _SandboxContext.SEGNO, obj.definitions[entry], args,
        max_instructions=2_000_000,
    )


# ---------------------------------------------------------------------------
# the certifier
# ---------------------------------------------------------------------------

#: Operations the KPL back end can legitimately emit.
_ALLOWED_OPS = {
    Op.PUSHI, Op.LOADF, Op.STOREF, Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD,
    Op.NEG, Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE, Op.JMP, Op.JZ,
    Op.JNZ, Op.CALLL, Op.RET, Op.POP, Op.NOT, Op.DUP, Op.SWAP,
}


@dataclass
class CertificationReport:
    module: str
    procedures_checked: list[str] = field(default_factory=list)
    vectors_run: int = 0
    structural_ok: bool = False

    @property
    def certified(self) -> bool:
        return self.structural_ok and self.vectors_run > 0


def check_structure(obj: ObjectSegment, module: str) -> None:
    """Structural conformance (see module docstring, check 1)."""
    obj.validate()
    for i, inst in enumerate(obj.code):
        if inst.op not in _ALLOWED_OPS:
            raise CertificationError(
                f"instruction {i} uses {inst.op.value!r}, which the "
                "kernel-language back end never emits"
            )
        if inst.op in (Op.JMP, Op.JZ, Op.JNZ) and not (
            0 <= inst.a <= len(obj.code)
        ):
            raise CertificationError(
                f"instruction {i} jumps outside the module"
            )
        if inst.op is Op.CALLL and not 0 <= inst.a < len(obj.links):
            raise CertificationError(
                f"instruction {i} calls through an undeclared link"
            )
    for sym in obj.links:
        ref, _entry = parse_symbol(sym)
        if ref != module:
            raise CertificationError(
                f"kernel module refers outside itself: {sym!r}"
            )


def certify_module(
    source: str,
    module: str,
    vectors: dict[str, list[list[int]]],
    obj: ObjectSegment | None = None,
) -> CertificationReport:
    """Certify that object code matches its source model.

    ``vectors`` maps procedure names to argument lists.  ``obj``
    defaults to a fresh compilation; pass the deployed object segment
    to certify what actually ships.
    """
    program = parse(source, module)
    if obj is None:
        obj = compile_source(source, module)
    check_structure(obj, module)
    report = CertificationReport(module=module, structural_ok=True)
    # One sandbox for every vector: each block compiles once per module.
    context = _SandboxContext(obj, module)
    for proc_name, arg_lists in vectors.items():
        if proc_name not in program.procedures:
            raise CertificationError(f"source has no procedure {proc_name!r}")
        if proc_name not in obj.definitions:
            raise CertificationError(f"object exports no {proc_name!r}")
        for args in arg_lists:
            expected = SourceInterpreter(program).run(proc_name, list(args))
            actual = execute_object(obj, module, proc_name, list(args),
                                    context)
            if expected != actual:
                raise CertificationError(
                    f"{module}${proc_name}{tuple(args)}: source model says "
                    f"{expected}, object code says {actual}"
                )
            report.vectors_run += 1
        report.procedures_checked.append(proc_name)
    return report
