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
* every budget is exact: a block that a run's budget (or a detailed
  window end, see :meth:`FastCore.trace_segments`) cuts runs as a
  compiled *prefix*, so no instruction takes the interpreter;
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
  (an inlined loop over the cache and TLB logic) and
  :meth:`repro.branch.unit.BranchUnit.warm_many` (the detailed model's
  bound branch kernel, one per batch);
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
  0 = instruction fetch, 1 = load, 2 = store.  Fetches are line-granular:
  a warm closure is compiled for one fetch unit, the hierarchy's
  ``gcd(L1I line, I-TLB page)``, and emits a fetch for its block's first
  instruction and then only where ``pc * INST_SIZE // unit`` changes; a
  self-loop block within one unit emits its fetch once per call, not
  once per iteration.  A skipped fetch hits the line and page of the
  fetch before it, which only data events (never touching the I-TLB or
  L1I) separate from it, so it would only have been counted:
  ``warm_many`` takes the number of fetches the events stand for, one
  per instruction executed, and collapses repeats of a line across
  blocks;
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
    """One compiled basic block: metadata plus one variant's closure."""

    __slots__ = ("start", "length", "halts", "loops", "run")

    def __init__(self, start: int, length: int, halts: bool, loops: bool,
                 run) -> None:
        self.start = start
        self.length = length
        self.halts = halts
        #: Self-loop block: its plain and warm closures take a trailing
        #: ``cap`` (>= 1) and return ``(next_pc, iterations run)``.
        self.loops = loops
        #: The closure, with the signature of its variant in :data:`_PARAMS`.
        self.run = run


#: Parameter lists of the closure variants:
#:
#: * ``plain(ir, fr, mem) -> next_pc`` — architectural update only;
#: * ``warm(ir, fr, mem, ev, ev2) -> next_pc`` — also appends the block's
#:   warming events to ``ev`` (memory, line-granular fetches for the fetch
#:   unit it was compiled for) and ``ev2`` (branch);
#: * ``trace(ir, fr, mem, tr) -> next_pc`` — also appends, in program
#:   order, each load/store address and each conditional branch's taken
#:   bit (1/0) to ``tr``: the dynamic values the detailed timing model
#:   needs.
_PARAMS = {"plain": "ir, fr, mem", "warm": "ir, fr, mem, ev, ev2",
           "trace": "ir, fr, mem, tr"}


def _generate(program: Program, start: int, leaders: frozenset[int],
              variant: str, unit: int = 0):
    """Generate one closure variant of the block at static index ``start``.

    The block extends until a control-flow instruction, ``HALT``, the
    next leader, the end of the program, or :data:`MAX_BLOCK_LENGTH`.
    ``unit`` is the fetch unit of a ``warm`` variant (see the module
    docstring's event encodings).  Returns ``(length, halts, loops,
    source)``: the function source of the ``variant`` closure (a key of
    :data:`_PARAMS`); ``loops`` is :attr:`CompiledBlock.loops`.
    """
    instructions = program.instructions
    size = len(instructions)
    arch: list[str] = []        # statements shared by every variant
    # Variant-specific statements keyed by the arch position they precede.
    extra: dict[int, list[str]] = {}
    pending: list[int] = []     # static memory events awaiting a flush
    last_line = -1              # fetch unit of the last pending fetch
    load_count = 0

    def emit(line: str | None) -> None:
        if line is not None:
            arch.append(line)

    def emit_event(target: str, line: str) -> None:
        if target == variant:
            extra.setdefault(len(arch), []).append(line)

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
        if variant == "warm" and pc * INST_SIZE // unit != last_line:
            last_line = pc * INST_SIZE // unit
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

    iterates = loops and variant != "trace"
    lines = [f"def _{variant}({_PARAMS[variant]}"
             f"{', cap' if iterates else ''}):"]
    if any("ap(" in s for stmts in extra.values() for s in stmts):
        lines.append(f"    ap = {'ev' if variant == 'warm' else 'tr'}.append")
    if load_count:
        lines.append("    mg = mem.get")
    indent = " " * 4
    if iterates:
        if variant == "warm" and start * INST_SIZE // unit == last_line:
            # The block is one fetch unit, so only the first iteration of
            # a call can fetch a new one: its one fetch moves before the
            # loop.
            fetch = f"ap({start * INST_SIZE << 2 | EVENT_IFETCH})"
            next(stmts for stmts in extra.values()
                 if fetch in stmts).remove(fetch)
            lines.append("    " + fetch)
        lines += ["    n = 0", "    while n < cap:"]
        indent *= 2
    for position, statement in enumerate(arch):
        lines.extend(indent + line for line in extra.get(position, ()))
        lines.append(indent + statement)
    lines.extend(indent + line for line in extra.get(len(arch), ()))
    lines.extend(indent + line for line in terminator[variant])
    if iterates:
        lines.append(f"    return {start}, n")
    return length, halts, loops, "\n".join(lines)


class CompiledProgram:
    """All compiled blocks of one program, filled lazily by start pc.

    Each closure variant has its own table: plain and trace closures are
    compiled once per program, warm closures once per fetch unit (a
    program warmed under two cache geometries gets two warm closures).
    A run whose budget ends inside a block executes a *prefix* of it:
    the block recompiled with its cut point as an extra leader.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.static_size = len(program.instructions)
        self.leaders = frozenset(program.basic_block_leaders())
        #: Blocks whose closure is the plain variant, by start pc.
        self.plain: dict[int, CompiledBlock] = {}
        #: Blocks whose closure is the trace variant, by start pc.
        self.traced: dict[int, CompiledBlock] = {}
        #: Blocks whose closure is the warm variant, by fetch unit and
        #: then start pc.
        self.warmed: dict[int, dict[int, CompiledBlock]] = {}
        #: Block prefixes, by ``(variant, unit, start pc, length)``.
        self.prefixes: dict[tuple, CompiledBlock] = {}

    def _compile(self, table: dict, key, pc: int, variant: str,
                 unit: int = 0, leaders: frozenset[int] | None = None
                 ) -> CompiledBlock:
        length, halts, loops, source = _generate(
            self.program, pc, leaders or self.leaders, variant, unit)
        namespace: dict = {}
        exec(compile(source, f"<fastpath:{self.program.name}:{pc}>", "exec"),
             namespace)
        table[key] = block = CompiledBlock(pc, length, halts, loops,
                                           namespace[f"_{variant}"])
        return block

    def block_at(self, pc: int) -> CompiledBlock:
        """The block at ``pc`` with its plain closure."""
        return self.plain.get(pc) or self._compile(self.plain, pc, pc, "plain")

    def trace_at(self, pc: int) -> CompiledBlock:
        """The block at ``pc`` with its trace closure, compiled on first
        use, so functional-only runs never pay for it."""
        return (self.traced.get(pc)
                or self._compile(self.traced, pc, pc, "trace"))

    def warm_at(self, pc: int, unit: int) -> CompiledBlock:
        """The block at ``pc`` with its warm closure for fetch unit
        ``unit``."""
        blocks = self.warmed.setdefault(unit, {})
        return blocks.get(pc) or self._compile(blocks, pc, pc, "warm", unit)

    def prefix(self, variant: str, pc: int, length: int,
               unit: int = 0) -> CompiledBlock:
        """The first ``length`` instructions of the block at ``pc`` (which
        is longer), as a ``variant`` closure that falls through to
        ``pc + length``: never a self-loop, never a halt."""
        key = (variant, unit, pc, length)
        return self.prefixes.get(key) or self._compile(
            self.prefixes, key, pc, variant, unit,
            self.leaders | {pc + length})

    @property
    def compiled_blocks(self) -> int:
        """Closures compiled so far, over every variant and unit."""
        return (len(self.plain) + len(self.traced) + len(self.prefixes)
                + sum(map(len, self.warmed.values())))


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
    timing model's feed ``trace_segments`` execute compiled blocks and
    are budget-exact: a block the budget cuts runs as a compiled prefix,
    so a run that executes fewer instructions than asked has halted.
    Only foreign callbacks (anything but a
    :class:`~repro.functional.warming.FunctionalWarmer`) take the
    interpreter.

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
        compiled = self._compiled
        block_at = compiled.block_at
        size = compiled.static_size
        pc = state.pc
        halted = state.halted
        while executed < budget and not halted:
            if pc < 0 or pc >= size:
                state.halted = halted = True
                break
            block = block_at(pc)
            length = block.length
            if executed + length > budget:
                block = compiled.prefix("plain", pc, budget - executed)
                length = block.length
            if block.loops:
                pc, n = block.run(ir, fr, mem, (budget - executed) // length)
                executed += n * length
                self.blocks_executed += n
            else:
                pc = block.run(ir, fr, mem)
                executed += length
                self.blocks_executed += 1
                if block.halts:
                    state.halted = halted = True
        state.pc = pc
        self.instructions_retired += executed
        return executed

    def run_warmed(self, count, warmer, written=None):
        if count <= 0:
            return 0
        state = self.state
        budget = self._budget(count)
        executed = flushed = blocks_executed = 0
        ir, fr, mem = state.int_regs, state.fp_regs, state.memory
        microarch = warmer.microarch
        hierarchy = microarch.hierarchy
        branch_unit = microarch.branch_unit
        compiled = self._compiled
        unit = hierarchy.fetch_unit
        blocks = compiled.warmed.setdefault(unit, {})
        warm_at = compiled.warm_at
        size = compiled.static_size
        events: list[int] = []
        branch_events: list[int] = []
        pc = state.pc
        halted = state.halted
        while executed < budget and not halted:
            if pc < 0 or pc >= size:
                state.halted = halted = True
                break
            block = blocks.get(pc) or warm_at(pc, unit)
            length = block.length
            if executed + length > budget:
                block = compiled.prefix("warm", pc, budget - executed, unit)
                length = block.length
            if block.loops:
                # <= 2 * length memory events per iteration
                pc, n = block.run(
                    ir, fr, mem, events, branch_events,
                    min(budget - executed, FLUSH_EVENTS) // length)
                executed += n * length
                blocks_executed += n
            else:
                pc = block.run(ir, fr, mem, events, branch_events)
                executed += length
                blocks_executed += 1
                if block.halts:
                    state.halted = halted = True
            if len(events) >= FLUSH_EVENTS:
                self._flush_events(hierarchy, branch_unit, events,
                                   branch_events, executed - flushed, written)
                flushed = executed
        state.pc = pc
        self.instructions_retired += executed
        self.blocks_executed += blocks_executed
        self._flush_events(hierarchy, branch_unit, events, branch_events,
                           executed - flushed, written)
        warmer.instructions_warmed += executed
        return executed

    def trace_segments(self, count, tr, stops=()):
        """Whole compiled blocks (trace closures), cut exactly at the
        budget and at every position of ``stops`` inside it by running a
        prefix of the block that would overrun the cut."""
        state = self.state
        budget = self._budget(count)
        executed = 0
        ir, fr, mem = state.int_regs, state.fp_regs, state.memory
        compiled = self._compiled
        traced = compiled.traced.get
        trace_at = compiled.trace_at
        size = compiled.static_size
        cuts = iter(sorted({stop for stop in stops if 0 < stop < budget}))
        cut = next(cuts, budget)
        while executed < budget and not state.halted:
            pc = state.pc
            if pc < 0 or pc >= size:
                state.halted = True
                break
            block = traced(pc) or trace_at(pc)
            length = block.length
            if executed + length > cut:
                block = compiled.prefix("trace", pc, cut - executed)
                length = block.length
            tr.clear()
            state.pc = next_pc = block.run(ir, fr, mem, tr)
            executed += length
            self.instructions_retired += length
            self.blocks_executed += 1
            if block.halts:
                state.halted = True
            if executed == cut:
                cut = next(cuts, budget)
            yield pc, length, next_pc

    @staticmethod
    def _flush_events(hierarchy, branch_unit, events, branch_events,
                      fetches, written) -> None:
        """Drain buffered warming events into the bulk warmers.

        ``fetches`` is the number of instructions the events cover (one
        fetch each).  Memory events must drain before anything else
        touches the hierarchy, so callers flush before they return.
        """
        if events:
            hierarchy.warm_many(events, fetches)
            if written is not None:
                add = written.add
                for event in events:
                    if event & 3 == EVENT_STORE:
                        add(event >> 2)
            events.clear()
        if branch_events:
            branch_unit.warm_many(branch_events)
            branch_events.clear()
