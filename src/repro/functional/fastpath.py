"""Trace-compiled functional execution: the block-level fast path.

The interpreted :class:`~repro.functional.simulator.FunctionalCore` pays
a fixed per-instruction cost — decode-record unpacking, opcode dispatch
through one large ``if/elif`` chain, bound-method lookups on the
architectural state, and a :class:`~repro.isa.instruction.DynInst`
allocation — on every one of the 10^6-10^8 dynamic instructions a SMARTS
experiment executes.  This module removes that cost for functional
warming and for detailed simulation by compiling each *basic block* of
a program into specialized Python closures:

* blocks are discovered once per :class:`~repro.isa.program.Program`
  (leaders = entry, branch targets, fall-throughs) and compiled lazily
  on first execution, so indirect jumps to odd targets and mid-block
  checkpoint restores just compile an overlapping block on demand;
* each closure updates the architectural state with straight-line code
  specialized per opcode — register indices, immediates, and branch
  targets are baked in as constants, attribute lookups and tuple
  unpacking are gone;
* a block whose conditional branch targets its own start iterates
  inside its plain and warm closures, up to a cap the run loop derives
  from the instruction budget and :data:`FLUSH_EVENTS`, so a tight loop
  costs one dispatch per run of iterations, not one per iteration
  (``FastCore.blocks_executed`` still counts block iterations);
* instead of calling into the cache/branch models per instruction, the
  warm variant of each closure appends the block's *warming event
  stream* (instruction-fetch and data addresses, branch outcomes) to
  flat integer lists, which :class:`FastCore` hands in batches to the
  bulk entry points :meth:`repro.memory.hierarchy.MemoryHierarchy.warm_many`
  and :meth:`repro.branch.unit.BranchUnit.warm_many`;
* the trace variant, compiled only when a block first runs in detail,
  appends just the values the detailed timing model cannot know
  statically (load/store addresses, conditional-branch outcomes), so
  :class:`~repro.detailed.pipeline.DetailedSimulator` is fed whole
  blocks instead of one :class:`~repro.isa.instruction.DynInst` per
  instruction.

The contract is *bit-identical equivalence*: a :class:`FastCore` run
leaves exactly the architectural state, warm microarchitectural state,
and statistics counters the interpreter leaves (the golden tests in
``tests/test_engine_fastpath.py`` assert this across engines).  Memory
events preserve their interleaved I/D order because L2 is shared between
the instruction and data paths; branch-predictor state is disjoint from
cache state, so branch events batch separately without reordering risk.

Event encodings (shared with the ``warm_many`` implementations):

* memory events — one int per access, ``address << 2 | kind`` with kind
  0 = instruction fetch, 1 = load, 2 = store; fetches stay one event per
  instruction, and ``MemoryHierarchy.warm_many`` collapses repeats of a line;
* branch events — four ints per branch, ``(kind, pc, taken, target)``
  with kind 0 = conditional, 1 = JAL, 2 = JR, 3 = JUMP.
"""

from __future__ import annotations

from repro.functional.simulator import INST_SIZE, FunctionalCore
from repro.functional.warming import FunctionalWarmer
from repro.isa.instruction import FP_REG_BASE
from repro.isa.opcodes import Opcode
from repro.isa.program import WORD_SIZE, Program

#: Upper bound on compiled-block length; longer straight-line stretches
#: chain into the lazily compiled block at the cut point.
MAX_BLOCK_LENGTH = 256

#: Memory warming events buffered before an intermediate warm_many flush.
FLUSH_EVENTS = 8192

#: Memory-event kind codes (low two bits of an event int).
EVENT_IFETCH = 0
EVENT_LOAD = 1
EVENT_STORE = 2

#: Branch-event kind codes (first int of each 4-int branch record).
BRANCH_COND = 0
BRANCH_JAL = 1
BRANCH_JR = 2
BRANCH_JUMP = 3

_WORD_SHIFT = WORD_SIZE.bit_length() - 1
_WORD_IS_POW2 = WORD_SIZE == 1 << _WORD_SHIFT

_IALU_BINOPS = {
    Opcode.ADD: "+", Opcode.SUB: "-", Opcode.AND: "&",
    Opcode.OR: "|", Opcode.XOR: "^",
}
_COND_OPS = {
    Opcode.BEQ: "==", Opcode.BNE: "!=", Opcode.BLT: "<", Opcode.BGE: ">=",
}


# ----------------------------------------------------------------------
# Code generation helpers
# ----------------------------------------------------------------------
def _iread(reg: int | None) -> str:
    """Expression reading a register as an int (write_reg invariant:
    ``ir`` always holds ints, ``fr`` always holds floats)."""
    if reg is None or reg == 0:
        return "0"
    if reg >= FP_REG_BASE:
        return f"int(fr[{reg - FP_REG_BASE}])"
    return f"ir[{reg}]"


def _fread(reg: int | None) -> str:
    """Expression reading a register as a float."""
    if reg is None:
        return "0.0"
    if reg >= FP_REG_BASE:
        return f"fr[{reg - FP_REG_BASE}]"
    if reg == 0:
        return "0.0"
    return f"float(ir[{reg}])"


def _raw_read(reg: int) -> str:
    """Expression reading a register without conversion (store data)."""
    if reg >= FP_REG_BASE:
        return f"fr[{reg - FP_REG_BASE}]"
    if reg == 0:
        return "0"
    return f"ir[{reg}]"


def _write(rd: int, expr: str, kind: str) -> str | None:
    """Assignment statement mirroring ``ArchState.write_reg``.

    ``kind`` declares the value type of ``expr`` ("int" / "float") so
    the no-op conversions the interpreter performs on already-typed
    values can be skipped without changing results.
    """
    if rd >= FP_REG_BASE:
        value = expr if kind == "float" else f"float({expr})"
        return f"fr[{rd - FP_REG_BASE}] = {value}"
    if rd == 0:
        return None  # writes to integer r0 are discarded
    value = expr if kind == "int" else f"int({expr})"
    return f"ir[{rd}] = {value}"


def _align(expr: str) -> str:
    """Word-align expression matching ``ArchState.align`` exactly."""
    if _WORD_IS_POW2:
        return f"({expr}) >> {_WORD_SHIFT} << {_WORD_SHIFT}"
    return f"({expr}) // {WORD_SIZE} * {WORD_SIZE}"


class CompiledBlock:
    """One compiled basic block: metadata plus its closures."""

    __slots__ = ("start", "length", "halts", "loops", "run_plain",
                 "run_warm", "run_trace")

    def __init__(self, start: int, length: int, halts: bool, loops: bool,
                 run_plain, run_warm) -> None:
        self.start = start
        self.length = length
        self.halts = halts
        #: Self-loop block: its plain and warm closures take a trailing
        #: ``cap`` (>= 1) and return ``(next_pc, iterations run)``.
        self.loops = loops
        #: ``run_plain(ir, fr, mem) -> next_pc`` — architectural update only.
        self.run_plain = run_plain
        #: ``run_warm(ir, fr, mem, ev, ev2) -> next_pc`` — also appends
        #: the block's warming events to ``ev`` (memory) / ``ev2`` (branch).
        self.run_warm = run_warm
        #: ``run_trace(ir, fr, mem, tr) -> next_pc`` — also appends, in
        #: program order, each load/store address and each conditional
        #: branch's taken bit (1/0) to ``tr``: the dynamic values the
        #: detailed timing model needs.  Compiled on first use by
        #: :meth:`CompiledProgram.trace_at`, so functional-only runs
        #: never pay for it.
        self.run_trace = None


#: Parameter lists of the closure variants.
_PARAMS = {"plain": "ir, fr, mem", "warm": "ir, fr, mem, ev, ev2",
           "trace": "ir, fr, mem, tr"}


def _generate(program: Program, start: int, leaders: frozenset[int],
              variants: tuple[str, ...]):
    """Generate the block beginning at static index ``start``.

    The block extends until a control-flow instruction, ``HALT``, the
    next leader, the end of the program, or :data:`MAX_BLOCK_LENGTH`.
    Returns ``(length, halts, loops, source)``: the function source of
    each requested closure variant (keys of :data:`_PARAMS`), in one
    string; ``loops`` is :attr:`CompiledBlock.loops`.
    """
    instructions = program.instructions
    size = len(instructions)
    arch: list[str] = []        # statements shared by every variant
    # Variant-specific statements keyed by the arch position they precede.
    extra: dict[str, dict[int, list[str]]] = {v: {} for v in _PARAMS}
    pending: list[int] = []     # static memory events awaiting a flush
    load_count = 0

    def emit(line: str | None) -> None:
        if line is not None:
            arch.append(line)

    def emit_event(variant: str, line: str) -> None:
        extra[variant].setdefault(len(arch), []).append(line)

    def flush_statics() -> None:
        if not pending:
            return
        if len(pending) == 1:
            emit_event("warm", f"ap({pending[0]})")
        else:
            emit_event("warm", f"ev.extend(({', '.join(map(str, pending))}))")
        pending.clear()

    pc = start
    length = 0
    halts = loops = False
    terminator: dict[str, list[str]] = {}

    while pc < size and length < MAX_BLOCK_LENGTH:
        if length and pc in leaders:
            break  # fall into the next block; keep blocks non-overlapping
        inst = instructions[pc]
        op = inst.op
        pending.append((pc * INST_SIZE) << 2 | EVENT_IFETCH)
        rd, rs1, rs2, imm = inst.rd, inst.rs1, inst.rs2, inst.imm

        if op is Opcode.ADDI:
            a = _iread(rs1)
            emit(_write(rd, a if imm == 0 else f"{a} + {imm}", "int"))
        elif op is Opcode.SLTI:
            emit(_write(rd, f"1 if {_iread(rs1)} < {imm} else 0", "int"))
        elif op in _IALU_BINOPS:
            emit(_write(rd, f"{_iread(rs1)} {_IALU_BINOPS[op]} {_iread(rs2)}",
                        "int"))
        elif op is Opcode.SLL:
            emit(_write(rd, f"{_iread(rs1)} << ({_iread(rs2)} & 63)", "int"))
        elif op is Opcode.SRL:
            emit(_write(rd, f"{_iread(rs1)} >> ({_iread(rs2)} & 63)", "int"))
        elif op is Opcode.SLT:
            emit(_write(rd, f"1 if {_iread(rs1)} < {_iread(rs2)} else 0",
                        "int"))
        elif op is Opcode.MUL:
            emit(_write(rd, f"{_iread(rs1)} * {_iread(rs2)}", "int"))
        elif op is Opcode.DIV:
            a, b = _iread(rs1), _iread(rs2)
            emit(_write(rd, f"({a} // {b} if {b} != 0 else 0)", "int"))
        elif op is Opcode.MOD:
            a, b = _iread(rs1), _iread(rs2)
            emit(_write(rd, f"({a} % {b} if {b} != 0 else 0)", "int"))
        elif op is Opcode.FADD:
            emit(_write(rd, f"{_fread(rs1)} + {_fread(rs2)}", "float"))
        elif op is Opcode.FSUB:
            emit(_write(rd, f"{_fread(rs1)} - {_fread(rs2)}", "float"))
        elif op is Opcode.FMUL:
            emit(_write(rd, f"{_fread(rs1)} * {_fread(rs2)}", "float"))
        elif op is Opcode.FDIV:
            a, b = _fread(rs1), _fread(rs2)
            emit(_write(rd, f"({a} / {b} if {b} != 0.0 else 0.0)", "float"))
        elif op is Opcode.FSQRT:
            emit(_write(rd, f"abs({_fread(rs1)}) ** 0.5", "float"))
        elif op is Opcode.FNEG:
            emit(_write(rd, f"-{_fread(rs1)}", "float"))
        elif op is Opcode.CVTIF:
            emit(_write(rd, f"float(int({_fread(rs1)}))", "float"))
        elif op is Opcode.CVTFI:
            emit(_write(rd, f"int({_fread(rs1)})", "int"))
        elif inst.is_load:
            base = _iread(rs1)
            address = base if imm == 0 else f"{base} + {imm}"
            emit(f"a = {_align(address)}")
            flush_statics()
            emit_event("warm", f"ap(a << 2 | {EVENT_LOAD})")
            emit_event("trace", "ap(a)")
            load_count += 1
            if rd is not None:
                emit(_write(rd, "mg(a, 0)", "raw"))
        elif inst.is_store:
            base = _iread(rs1)
            address = base if imm == 0 else f"{base} + {imm}"
            emit(f"a = {_align(address)}")
            flush_statics()
            emit_event("warm", f"ap(a << 2 | {EVENT_STORE})")
            emit_event("trace", "ap(a)")
            emit(f"mem[a] = {_raw_read(rs2)}")
        elif inst.is_conditional:
            cmp = _COND_OPS[op]
            target = inst.target
            fall = pc + 1
            condition = f"{_iread(rs1)} {cmp} {_iread(rs2)}"
            flush_statics()
            loops = target == start
            if loops:  # iterate while taken, up to the caller's cap
                terminator["plain"] = [
                    "n += 1",
                    f"if not ({condition}):",
                    f"    return {fall}, n",
                ]
                terminator["warm"] = [
                    "n += 1",
                    f"if not ({condition}):",
                    f"    ev2.extend(({BRANCH_COND}, {pc}, 0, {fall}))",
                    f"    return {fall}, n",
                    f"ev2.extend(({BRANCH_COND}, {pc}, 1, {target}))",
                ]
            else:
                terminator["plain"] = [
                    f"return {target} if {condition} else {fall}",
                ]
                terminator["warm"] = [
                    f"if {condition}:",
                    f"    ev2.extend(({BRANCH_COND}, {pc}, 1, {target}))",
                    f"    return {target}",
                    f"ev2.extend(({BRANCH_COND}, {pc}, 0, {fall}))",
                    f"return {fall}",
                ]
            terminator["trace"] = [
                f"if {condition}:",
                "    tr.append(1)",
                f"    return {target}",
                "tr.append(0)",
                f"return {fall}",
            ]
        elif op is Opcode.JUMP or op is Opcode.JAL:
            if op is Opcode.JAL and rd is not None:
                emit(_write(rd, str(pc + 1), "int"))
            kind = BRANCH_JAL if op is Opcode.JAL else BRANCH_JUMP
            flush_statics()
            terminator["plain"] = terminator["trace"] = [
                f"return {inst.target}"]
            terminator["warm"] = [
                f"ev2.extend(({kind}, {pc}, 1, {inst.target}))",
                f"return {inst.target}",
            ]
        elif op is Opcode.JR:
            emit(f"t = {_iread(rs1)}")
            flush_statics()
            terminator["plain"] = terminator["trace"] = ["return t"]
            terminator["warm"] = [
                f"ev2.extend(({BRANCH_JR}, {pc}, 1, t))",
                "return t",
            ]
        elif op is Opcode.HALT:
            halts = True
            flush_statics()
            terminator = dict.fromkeys(_PARAMS, [f"return {pc + 1}"])
        elif op is Opcode.NOP:
            pass
        else:  # pragma: no cover - defensive, mirrors the interpreter
            raise ValueError(f"unhandled opcode {op!r} at {pc}")

        length += 1
        pc += 1
        if terminator:
            break

    if not terminator:
        # Fall through into the instruction after the block (possibly one
        # past the end of the program — the run loop halts there exactly
        # as the interpreter's bounds check does).
        flush_statics()
        terminator = dict.fromkeys(_PARAMS, [f"return {pc}"])

    def render(variant: str) -> str:
        events = extra[variant]
        iterates = loops and variant != "trace"
        lines = [f"def _{variant}({_PARAMS[variant]}"
                 f"{', cap' if iterates else ''}):"]
        if any("ap(" in s for stmts in events.values() for s in stmts):
            lines.append(f"    ap = {'ev' if variant == 'warm' else 'tr'}"
                         ".append")
        if load_count:
            lines.append("    mg = mem.get")
        indent = " " * 4
        if iterates:
            lines += ["    n = 0", "    while n < cap:"]
            indent *= 2
        for position, statement in enumerate(arch):
            lines.extend(indent + line for line in events.get(position, ()))
            lines.append(indent + statement)
        lines.extend(indent + line for line in events.get(len(arch), ()))
        lines.extend(indent + line for line in terminator[variant])
        if iterates:
            lines.append(f"    return {start}, n")
        return "\n".join(lines)

    return length, halts, loops, "\n\n".join(map(render, variants))


def _exec(program: Program, start: int, source: str) -> dict:
    namespace: dict = {}
    exec(compile(source, f"<fastpath:{program.name}:{start}>", "exec"),
         namespace)
    return namespace


def _compile_block(program: Program, start: int,
                   leaders: frozenset[int]) -> CompiledBlock:
    """Compile the plain and warm closures of the block at ``start``."""
    length, halts, loops, source = _generate(program, start, leaders,
                                             ("plain", "warm"))
    namespace = _exec(program, start, source)
    return CompiledBlock(start, length, halts, loops,
                         namespace["_plain"], namespace["_warm"])


class CompiledProgram:
    """All compiled blocks of one program, filled lazily by start pc."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.static_size = len(program.instructions)
        self.leaders = frozenset(program.basic_block_leaders())
        self._blocks: dict[int, CompiledBlock] = {}
        #: The blocks whose ``run_trace`` is compiled, by start pc.
        self.traced: dict[int, CompiledBlock] = {}

    def block_at(self, pc: int) -> CompiledBlock:
        block = self._blocks.get(pc)
        if block is None:
            block = _compile_block(self.program, pc, self.leaders)
            self._blocks[pc] = block
        return block

    def trace_at(self, pc: int) -> CompiledBlock:
        """:meth:`block_at`, with the block's ``run_trace`` compiled."""
        block = self.traced.get(pc)
        if block is None:
            block = self.block_at(pc)
            source = _generate(self.program, pc, self.leaders,
                               ("trace",))[3]
            block.run_trace = _exec(self.program, pc, source)["_trace"]
            self.traced[pc] = block
        return block

    @property
    def compiled_blocks(self) -> int:
        return len(self._blocks)


def compiled_program(program: Program) -> CompiledProgram:
    """The (memoized) compiled form of ``program``.

    Programs are immutable once built, so the compilation — like
    ``program_fingerprint`` — is cached on the program object itself and
    shared by every core over the program's lifetime.
    """
    cached = getattr(program, "_fastpath_compiled", None)
    if cached is None:
        cached = CompiledProgram(program)
        program._fastpath_compiled = cached
    return cached


# ----------------------------------------------------------------------
# The fast core
# ----------------------------------------------------------------------
class FastCore(FunctionalCore):
    """Drop-in :class:`FunctionalCore` executing block-at-a-time.

    ``step`` is inherited unchanged (the interpreter stays the oracle);
    the bulk entry points ``run`` and ``run_warmed`` and the detailed
    timing model's feed ``trace_segments`` execute compiled blocks
    whenever the remaining budget covers a whole block and fall back to
    the interpreter for partial-block remainders and foreign callbacks.

    ``blocks_executed`` / ``fallback_instructions`` count executed block
    iterations (a self-loop closure call counts each iteration it ran)
    and interpreter-stepped instructions — the count-based dispatch
    metric CI guards instead of wall-clock.
    """

    def __init__(self, program: Program,
                 max_instructions: int | None = None) -> None:
        super().__init__(program, max_instructions)
        self._compiled = compiled_program(program)
        self.blocks_executed = 0
        self.fallback_instructions = 0

    def _budget(self, count: int) -> int:
        if self.max_instructions is not None:
            return min(count, self.max_instructions - self.instructions_retired)
        return count

    # ------------------------------------------------------------------
    # Bulk execution
    # ------------------------------------------------------------------
    def run(self, count, callback=None):
        if callback is None:
            return self._run_plain(count)
        if isinstance(callback, FunctionalWarmer):
            return self.run_warmed(count, callback)
        executed = super().run(count, callback)
        self.fallback_instructions += executed
        return executed

    def _run_plain(self, count: int) -> int:
        if count <= 0:
            return 0
        state = self.state
        budget = self._budget(count)
        executed = 0
        ir, fr, mem = state.int_regs, state.fp_regs, state.memory
        block_at = self._compiled.block_at
        size = self._compiled.static_size
        pc = state.pc
        halted = state.halted
        while executed < budget and not halted:
            if pc < 0 or pc >= size:
                state.halted = halted = True
                break
            block = block_at(pc)
            length = block.length
            if executed + length > budget:
                break
            if block.loops:
                pc, n = block.run_plain(ir, fr, mem,
                                        (budget - executed) // length)
                executed += n * length
                self.blocks_executed += n
            else:
                pc = block.run_plain(ir, fr, mem)
                executed += length
                self.blocks_executed += 1
                if block.halts:
                    state.halted = halted = True
        state.pc = pc
        self.instructions_retired += executed
        if executed < count and not self.halted:
            stepped = FunctionalCore.run(self, count - executed)
            self.fallback_instructions += stepped
            executed += stepped
        return executed

    def run_warmed(self, count, warmer, written=None):
        if count <= 0:
            return 0
        state = self.state
        budget = self._budget(count)
        executed = 0
        ir, fr, mem = state.int_regs, state.fp_regs, state.memory
        block_at = self._compiled.block_at
        size = self._compiled.static_size
        microarch = warmer.microarch
        hierarchy = microarch.hierarchy
        branch_unit = microarch.branch_unit
        events: list[int] = []
        branch_events: list[int] = []
        pc = state.pc
        halted = state.halted
        while executed < budget and not halted:
            if pc < 0 or pc >= size:
                state.halted = halted = True
                break
            block = block_at(pc)
            length = block.length
            if executed + length > budget:
                break
            if block.loops:
                # <= 2 * length memory events per iteration
                pc, n = block.run_warm(
                    ir, fr, mem, events, branch_events,
                    min(budget - executed, FLUSH_EVENTS) // length)
                executed += n * length
                self.blocks_executed += n
            else:
                pc = block.run_warm(ir, fr, mem, events, branch_events)
                executed += length
                self.blocks_executed += 1
                if block.halts:
                    state.halted = halted = True
            if len(events) >= FLUSH_EVENTS:
                self._flush_events(hierarchy, branch_unit,
                                   events, branch_events, written)
        state.pc = pc
        self.instructions_retired += executed
        self._flush_events(hierarchy, branch_unit, events, branch_events,
                           written)
        warmer.instructions_warmed += executed
        if executed < count and not self.halted:
            stepped = FunctionalCore.run_warmed(self, count - executed,
                                                warmer, written)
            self.fallback_instructions += stepped
            executed += stepped
        return executed

    def trace_segments(self, count, tr):
        """Whole compiled blocks (``run_trace``) while the budget covers
        them; a block that would overrun it is stepped instruction by
        instruction, so at most ``MAX_BLOCK_LENGTH - 1`` instructions of
        a call take the interpreter path."""
        state = self.state
        budget = self._budget(count)
        executed = 0
        ir, fr, mem = state.int_regs, state.fp_regs, state.memory
        traced = self._compiled.traced.get
        trace_at = self._compiled.trace_at
        size = self._compiled.static_size
        while executed < budget and not state.halted:
            pc = state.pc
            if pc < 0 or pc >= size:
                state.halted = True
                break
            block = traced(pc) or trace_at(pc)
            length = block.length
            if executed + length > budget:
                break
            tr.clear()
            state.pc = next_pc = block.run_trace(ir, fr, mem, tr)
            executed += length
            self.instructions_retired += length
            self.blocks_executed += 1
            if block.halts:
                state.halted = True
            yield pc, length, next_pc
        if executed < count and not self.halted:
            for segment in FunctionalCore.trace_segments(
                    self, count - executed, tr):
                self.fallback_instructions += 1
                yield segment

    @staticmethod
    def _flush_events(hierarchy, branch_unit, events, branch_events,
                      written) -> None:
        """Drain buffered warming events into the bulk warmers.

        Memory events must drain before any per-instruction fallback
        touches the hierarchy, so callers flush at every boundary.
        """
        if events:
            hierarchy.warm_many(events)
            if written is not None:
                add = written.add
                for event in events:
                    if event & 3 == EVENT_STORE:
                        add(event >> 2)
            events.clear()
        if branch_events:
            branch_unit.warm_many(branch_events)
            branch_events.clear()
