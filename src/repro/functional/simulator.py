"""Functional (architectural-state-only) simulator.

The functional core is the execution oracle of the whole infrastructure:
fast-forwarding, functional warming and detailed simulation all execute
through one core and its one architectural state.  The detailed timing
model consumes the stream as segments
(:meth:`FunctionalCore.trace_segments`) that carry only each segment's
dynamic values; the interpreter here yields one instruction per
segment, and the trace-compiled engine
(:mod:`repro.functional.fastpath`) whole basic blocks.  This mirrors
SimpleScalar's execution-driven structure, where ``sim-outorder``
executes instructions functionally and models timing around the
resulting stream, and it makes mode switches (functional <-> detailed)
trivially consistent because there is exactly one architectural state.

Performance notes: the decode table is precomputed per static
instruction and ``step`` is written as one flat function because SMARTS
experiments execute 10^6-10^8 dynamic instructions through this loop.
"""

from __future__ import annotations

from typing import Callable

from repro.isa.instruction import DynInst
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.program import WORD_SIZE, Program
from repro.isa.registers import ArchState

#: Bytes per static instruction, used to form instruction-fetch addresses
#: for the I-cache and I-TLB models.
INST_SIZE = 4


class FunctionalCore:
    """Executes a program one instruction at a time.

    Usage::

        core = FunctionalCore(program)
        while (dyn := core.step()) is not None:
            ...

    ``step`` returns ``None`` once the program has executed its ``HALT``
    instruction (or run off the end of the instruction sequence, which is
    treated as an implicit halt).
    """

    def __init__(self, program: Program, max_instructions: int | None = None) -> None:
        self.program = program
        self.state = ArchState()
        self.state.reset(program)
        self.instructions_retired = 0
        self.max_instructions = max_instructions
        self._decoded = [self._decode(inst) for inst in program.instructions]

    @staticmethod
    def _decode(inst) -> tuple:
        """Precompute the per-static-instruction decode record."""
        return (
            inst.op,
            inst.opclass,
            inst.rd,
            inst.source_regs(),
            inst.rs1,
            inst.rs2,
            inst.imm,
            inst.target,
            inst.is_load,
            inst.is_store,
            inst.is_branch,
            inst.is_conditional,
        )

    @property
    def halted(self) -> bool:
        if self.state.halted:
            return True
        if self.max_instructions is not None:
            return self.instructions_retired >= self.max_instructions
        return False

    def fetch_address(self, pc: int) -> int:
        """Byte address of the instruction at static index ``pc``."""
        return pc * INST_SIZE

    def step(self) -> DynInst | None:
        """Execute one instruction and return its dynamic record."""
        state = self.state
        if self.halted:
            return None
        pc = state.pc
        if pc < 0 or pc >= len(self._decoded):
            state.halted = True
            return None

        (op, opclass, rd, srcs, rs1, rs2, imm, target,
         is_load, is_store, is_branch, is_conditional) = self._decoded[pc]

        int_regs = state.int_regs
        fp_regs = state.fp_regs
        read = state.read_reg
        mem_addr: int | None = None
        taken = False
        next_pc = pc + 1

        if opclass == OpClass.IALU:
            a = read(rs1) if rs1 is not None else 0
            if op == Opcode.ADDI:
                value = int(a) + imm
            elif op == Opcode.SLTI:
                value = 1 if int(a) < imm else 0
            else:
                b = read(rs2) if rs2 is not None else 0
                a = int(a)
                b = int(b)
                if op == Opcode.ADD:
                    value = a + b
                elif op == Opcode.SUB:
                    value = a - b
                elif op == Opcode.AND:
                    value = a & b
                elif op == Opcode.OR:
                    value = a | b
                elif op == Opcode.XOR:
                    value = a ^ b
                elif op == Opcode.SLL:
                    value = a << (b & 63)
                elif op == Opcode.SRL:
                    value = a >> (b & 63)
                elif op == Opcode.SLT:
                    value = 1 if a < b else 0
                else:  # pragma: no cover - defensive
                    raise ValueError(f"unhandled IALU opcode {op!r}")
            state.write_reg(rd, value)

        elif opclass == OpClass.IMULT:
            a = int(read(rs1))
            b = int(read(rs2))
            if op == Opcode.MUL:
                value = a * b
            elif op == Opcode.DIV:
                value = a // b if b != 0 else 0
            else:  # MOD
                value = a % b if b != 0 else 0
            state.write_reg(rd, value)

        elif opclass in (OpClass.FPALU, OpClass.FPMULT):
            a = float(read(rs1)) if rs1 is not None else 0.0
            if op == Opcode.FADD:
                value = a + float(read(rs2))
            elif op == Opcode.FSUB:
                value = a - float(read(rs2))
            elif op == Opcode.FMUL:
                value = a * float(read(rs2))
            elif op == Opcode.FDIV:
                b = float(read(rs2))
                value = a / b if b != 0.0 else 0.0
            elif op == Opcode.FSQRT:
                value = abs(a) ** 0.5
            elif op == Opcode.FNEG:
                value = -a
            elif op == Opcode.CVTIF:
                value = float(int(a))
            elif op == Opcode.CVTFI:
                value = int(a)
            else:  # pragma: no cover - defensive
                raise ValueError(f"unhandled FP opcode {op!r}")
            state.write_reg(rd, value)

        elif is_load:
            base = int(read(rs1))
            mem_addr = ArchState.align(base + imm)
            state.write_reg(rd, state.memory.get(mem_addr, 0))

        elif is_store:
            base = int(read(rs1))
            mem_addr = ArchState.align(base + imm)
            state.memory[mem_addr] = read(rs2)

        elif is_branch:
            if is_conditional:
                a = int(read(rs1))
                b = int(read(rs2))
                if op == Opcode.BEQ:
                    taken = a == b
                elif op == Opcode.BNE:
                    taken = a != b
                elif op == Opcode.BLT:
                    taken = a < b
                else:  # BGE
                    taken = a >= b
                if taken:
                    next_pc = target
            elif op == Opcode.JUMP:
                taken = True
                next_pc = target
            elif op == Opcode.JAL:
                taken = True
                state.write_reg(rd, pc + 1)
                next_pc = target
            else:  # JR
                taken = True
                next_pc = int(read(rs1))

        elif op == Opcode.HALT:
            state.halted = True
        # NOP: nothing to do.

        state.pc = next_pc
        seq = self.instructions_retired
        self.instructions_retired = seq + 1

        return DynInst(
            seq=seq,
            pc=pc,
            op=op,
            opclass=opclass,
            rd=rd,
            srcs=srcs,
            mem_addr=mem_addr,
            is_load=is_load,
            is_store=is_store,
            is_branch=is_branch,
            is_conditional=is_conditional,
            taken=taken,
            next_pc=next_pc,
        )

    def run(self, count: int, callback: Callable[[DynInst], None] | None = None) -> int:
        """Execute up to ``count`` instructions.

        Returns the number actually executed (may be fewer if the program
        halts).  ``callback`` is invoked per dynamic instruction when
        provided; it is how functional warming hooks into fast-forwarding.
        """
        executed = 0
        step = self.step
        if callback is None:
            while executed < count:
                if step() is None:
                    break
                executed += 1
        else:
            while executed < count:
                dyn = step()
                if dyn is None:
                    break
                callback(dyn)
                executed += 1
        return executed

    def trace_segments(self, count: int, tr: list[int], stops=()):
        """Execute up to ``count`` instructions for the detailed timing model.

        Yields one ``(start_pc, length, next_pc)`` segment per executed
        stretch of straight-line code, after filling ``tr`` (cleared per
        segment) with the segment's dynamic values in program order: the
        address of each load and store and the taken bit (1/0) of each
        conditional branch.  ``next_pc`` is where execution continues,
        which resolves a closing ``JR``.  A segment boundary falls at
        every position of ``stops`` (instruction counts from the start
        of the call), so a caller can read its counters there.  The
        interpreter yields single instructions through :meth:`step`,
        which meet any stop; the trace-compiled engine overrides this
        with whole compiled blocks, cut at the stops.
        """
        step = self.step
        for _ in range(count):
            dyn = step()
            if dyn is None:
                return
            tr.clear()
            if dyn.mem_addr is not None:
                tr.append(dyn.mem_addr)
            elif dyn.is_conditional:
                tr.append(1 if dyn.taken else 0)
            yield dyn.pc, 1, dyn.next_pc

    def run_warmed(self, count: int, warmer, written: set | None = None) -> int:
        """Execute up to ``count`` instructions under functional warming.

        ``warmer`` is a :class:`repro.functional.warming.FunctionalWarmer`;
        ``written``, when given, collects the word-aligned addresses of
        every store executed (the checkpoint builder's per-stride memory
        delta).  This is the entry point the trace-compiled engine
        overrides with block-at-a-time execution and bulk warming; the
        implementation here observes per instruction through the
        interpreter loop.
        """
        if written is None:
            return self.run(count, warmer)
        observe = warmer.observe

        def observe_and_track(dyn) -> None:
            observe(dyn)
            if dyn.is_store:
                written.add(dyn.mem_addr)

        return self.run(count, observe_and_track)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def restore_arch(self, position: int, pc: int, halted: bool,
                     int_regs: list[int], fp_regs: list[float],
                     memory_updates: list[dict] | None = None) -> None:
        """Jump the core to a checkpointed stream position.

        Registers, PC and halt flag are replaced wholesale;
        ``memory_updates`` is an ordered list of ``{address: value}``
        deltas applied *on top of* the current memory image (the sparse
        memory only ever grows, so forward deltas reconstruct any later
        state exactly).  Pass ``None`` to leave memory untouched.
        """
        state = self.state
        state.pc = pc
        state.halted = halted
        state.int_regs = list(int_regs)
        state.fp_regs = list(fp_regs)
        if memory_updates:
            memory = state.memory
            for delta in memory_updates:
                memory.update(delta)
        self.instructions_retired = position

    def run_to_completion(self, limit: int | None = None) -> int:
        """Execute until the program halts (or ``limit`` instructions)."""
        return self.run(limit if limit is not None else 1 << 62)


def measure_program_length(program: Program, limit: int = 200_000_000) -> int:
    """Return the dynamic instruction count of ``program``.

    Used to establish the population size ``N`` before designing a
    sampling run (the paper takes the benchmark length as known from its
    full functional simulation).
    """
    from repro.functional.engine import create_core  # deferred: avoids cycle
    from repro.store import record_pass  # deferred: avoids cycle

    core = create_core(program)
    executed = core.run_to_completion(limit=limit)
    if not core.state.halted and executed >= limit:
        raise RuntimeError(
            f"program {program.name!r} did not halt within {limit} instructions"
        )
    record_pass("measure_length", program.name, executed)
    return executed
