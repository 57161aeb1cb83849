"""Property-based tests over randomly generated programs.

Hypothesis generates small but arbitrary straight-line/looping programs
and the properties check the invariants the rest of the stack relies on:
deterministic execution, architectural invariants (r0 is zero, memory is
word-aligned), agreement between functional and detailed execution of
the same stream, and sane timing behaviour (cycles grow monotonically,
CPI is bounded below by the machine's width).
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import scaled_8way
from repro.detailed import DetailedSimulator, MicroarchState
from repro.functional import FunctionalCore
from repro.isa import ProgramBuilder

#: Register names the generated programs may use (r0 excluded as a
#: destination on purpose: writes to it must be discarded).
_REGS = [f"r{i}" for i in range(1, 8)]

#: Holds :data:`_MUL_MASK`; never a destination of a body op.
_MASK_REG = "r8"

#: Every ``mul`` result is masked to 16 bits.  Registers are unbounded
#: ints, so an unmasked loop that squares a register, or in which two
#: registers feed each other's ``mul``, doubles (or Fibonacci-grows) a
#: value's bit length per iteration and runs effectively forever.  With
#: the mask a value grows by about a bit per ALU op at most, so it stays
#: a few hundred bits long.
_MUL_MASK = 0xFFFF

#: The test's instruction limit: every generated program halts well
#: inside it (at most 9 + 20 * (2 * 12 + 2) + 1 instructions).
LIMIT = 100_000


def build_program(body_ops, iterations: int):
    """Init block, then ``iterations`` runs of the ``(op, rd, rs, imm)``
    body ops, then HALT."""
    b = ProgramBuilder("generated")
    base = 0x1000
    b.data_block(base, list(range(16)))
    for i, reg in enumerate(_REGS):
        b.addi(reg, "r0", i + 1)
    b.addi(_MASK_REG, "r0", _MUL_MASK)
    b.addi("r20", "r0", iterations)
    b.label("loop")
    for op, rd, rs, imm in body_ops:
        if op == "addi":
            b.addi(rd, rs, imm)
        elif op == "load":
            b.load(rd, "r0", base + (abs(imm) % 16) * 8)
        elif op == "store":
            b.store(rs, "r0", base + (abs(imm) % 16) * 8)
        elif op == "mul":
            b.mul(rd, rd, rs)
            b.and_(rd, rd, _MASK_REG)
        else:
            getattr(b, op)(rd, rd, rs)
    b.addi("r20", "r20", -1)
    b.bne("r20", "r0", "loop")
    b.halt()
    return b.build()


@st.composite
def straight_line_programs(draw):
    """Generate a small program: init block, a loop, and ALU/memory body."""
    body_ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["add", "sub", "xor", "addi", "mul",
                             "load", "store"]),
            st.sampled_from(_REGS),
            st.sampled_from(_REGS),
            st.integers(min_value=-64, max_value=64),
        ),
        min_size=1, max_size=12))
    iterations = draw(st.integers(min_value=1, max_value=20))
    return build_program(body_ops, iterations)


#: The worst cases for value growth: the longest body of ``mul`` ops at
#: the most iterations, squaring one register or two registers feeding
#: each other.
SQUARING = build_program([("mul", "r1", "r1", 0)] * 12, 20)
CROSS_FEEDING = build_program([("mul", "r1", "r2", 0),
                               ("mul", "r2", "r1", 0)] * 6, 20)


class TestGeneratedPrograms:
    @given(straight_line_programs())
    @example(SQUARING)
    @example(CROSS_FEEDING)
    @settings(max_examples=25, deadline=None)
    def test_functional_execution_is_deterministic(self, program):
        first = FunctionalCore(program)
        second = FunctionalCore(program)
        n1 = first.run_to_completion(limit=LIMIT)
        n2 = second.run_to_completion(limit=LIMIT)
        assert n1 == n2
        assert first.state == second.state
        # Every program finishes inside the limit.
        assert first.halted and n1 < LIMIT

    @given(straight_line_programs())
    @settings(max_examples=25, deadline=None)
    def test_architectural_invariants(self, program):
        core = FunctionalCore(program)
        while (dyn := core.step()) is not None:
            assert core.state.int_regs[0] == 0
            if dyn.mem_addr is not None:
                assert dyn.mem_addr % 8 == 0
            assert dyn.opclass is not None

    @given(straight_line_programs())
    @settings(max_examples=15, deadline=None)
    def test_detailed_simulation_consumes_same_stream(self, program):
        """The detailed timing model retires exactly the instructions the
        functional core executes, with plausible timing."""
        machine = scaled_8way()
        functional_count = FunctionalCore(program).run_to_completion(
            limit=LIMIT)

        core = FunctionalCore(program)
        counters = DetailedSimulator(machine, MicroarchState(machine)) \
            .simulate(core)
        assert counters.instructions == functional_count
        assert counters.cycles > 0
        # The machine cannot commit more than commit_width per cycle.
        assert counters.cpi >= 1.0 / machine.commit_width - 1e-9
        # Committed memory operations match the functional stream.
        mem_ops = counters.loads + counters.stores
        assert mem_ops <= counters.instructions

    @given(straight_line_programs(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=15, deadline=None)
    def test_chunked_detailed_simulation_matches_single_run(self, program,
                                                            chunks):
        """Splitting a detailed run into consecutive ``run`` calls inside
        one period yields the same total cycles as one big call."""
        machine = scaled_8way()

        core_a = FunctionalCore(program)
        total_a = DetailedSimulator(machine, MicroarchState(machine)) \
            .simulate(core_a)

        core_b = FunctionalCore(program)
        sim_b = DetailedSimulator(machine, MicroarchState(machine))
        sim_b.begin_period()
        chunk_size = max(1, total_a.instructions // chunks)
        cycles = 0
        instructions = 0
        while True:
            counters = sim_b.run(core_b, chunk_size)
            if counters.instructions == 0:
                break
            cycles += counters.cycles
            instructions += counters.instructions
        assert instructions == total_a.instructions
        assert cycles == total_a.cycles
