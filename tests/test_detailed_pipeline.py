"""Tests for the detailed out-of-order timing model.

These tests check the *timing behaviour* the SMARTS experiments rely on:
dependences and long latencies slow execution down, cache misses and
branch mispredictions cost cycles, wide independent code approaches the
machine width, and counters stay consistent.  Cores come from the
active ``REPRO_ENGINE``, so the default run drives the model with
compiled blocks and the interpreter cross-check drives it one
instruction at a time.
"""

import pytest

from repro.detailed import DetailedSimulator, MicroarchState
from repro.functional.engine import create_core
from repro.isa import ProgramBuilder


def simulate(builder: ProgramBuilder, machine, count=None):
    program = builder.build()
    core = create_core(program)
    microarch = MicroarchState(machine)
    sim = DetailedSimulator(machine, microarch)
    counters = sim.simulate(core, count)
    return counters, microarch


def loop_program(body_emitter, iterations=200, name="loop"):
    """Build a counted loop around ``body_emitter(builder)``."""
    b = ProgramBuilder(name)
    b.addi("r20", "r0", iterations)
    b.label("top")
    body_emitter(b)
    b.addi("r20", "r20", -1)
    b.bne("r20", "r0", "top")
    b.halt()
    return b


class TestBasicTiming:
    def test_counters_consistency(self, machine_8way, micro):
        core = create_core(micro.program)
        sim = DetailedSimulator(machine_8way, MicroarchState(machine_8way))
        counters = sim.simulate(core)
        assert counters.instructions > 0
        assert counters.cycles > 0
        assert counters.loads + counters.stores <= counters.instructions
        assert counters.mispredictions <= counters.branches
        assert counters.l1d_misses <= counters.l1d_accesses
        assert counters.l2_misses <= counters.l2_accesses

    def test_independent_alu_achieves_ilp(self, machine_8way):
        def body(b):
            for i in range(1, 9):
                b.addi(f"r{i}", "r0", i)
        counters, _ = simulate(loop_program(body), machine_8way)
        assert counters.cpi < 1.0      # 8-wide machine, independent ops

    def test_dependent_chain_is_serialized(self, machine_8way):
        def body(b):
            for _ in range(8):
                b.add("r1", "r1", "r2")
        counters, _ = simulate(loop_program(body), machine_8way)
        # A fully dependent chain cannot beat one instruction per cycle on
        # the ALU ops (plus loop overhead).
        assert counters.cpi > 0.8

    def test_long_latency_divides_dominate(self, machine_8way):
        def fast_body(b):
            for _ in range(4):
                b.add("r1", "r1", "r2")

        def slow_body(b):
            for _ in range(4):
                b.div("r1", "r1", "r3")

        fast = loop_program(fast_body, name="fast")
        slow = loop_program(slow_body, name="slow")
        # Initialize divisor register before the loop for the slow case.
        counters_fast, _ = simulate(fast, machine_8way)
        b = ProgramBuilder("slow")
        b.addi("r3", "r0", 3)
        b.addi("r1", "r0", 1 << 20)
        b.addi("r20", "r0", 200)
        b.label("top")
        for _ in range(4):
            b.div("r1", "r1", "r3")
        b.addi("r1", "r1", 1 << 20)
        b.addi("r20", "r20", -1)
        b.bne("r20", "r0", "top")
        b.halt()
        counters_slow, _ = simulate(b, machine_8way)
        assert counters_slow.cpi > 2 * counters_fast.cpi


class TestMemoryBehaviour:
    def test_cache_resident_loads_are_fast(self, machine_8way):
        b = ProgramBuilder("hot")
        b.data_block(0x1000, list(range(8)))
        b.addi("r20", "r0", 300)
        b.label("top")
        b.addi("r1", "r0", 0x1000)
        for i in range(8):
            b.load("r2", "r1", i * 8)
        b.addi("r20", "r20", -1)
        b.bne("r20", "r0", "top")
        b.halt()
        counters, _ = simulate(b, machine_8way)
        assert counters.l1d_misses / counters.l1d_accesses < 0.01
        assert counters.cpi < 2.0

    def test_pointer_chase_misses_and_is_slow(self, machine_8way):
        # A working set far larger than L2, accessed with no locality.
        b = ProgramBuilder("chase")
        nodes = 2048
        spacing = 64
        base = 0x10000
        import random
        rng = random.Random(1)
        order = list(range(nodes))
        rng.shuffle(order)
        for i in range(nodes):
            b.data_word(base + order[i] * spacing,
                        base + order[(i + 1) % nodes] * spacing)
        b.addi("r1", "r0", base + order[0] * spacing)
        b.addi("r20", "r0", 3000)
        b.label("top")
        b.load("r1", "r1", 0)
        b.addi("r20", "r20", -1)
        b.bne("r20", "r0", "top")
        b.halt()
        counters, microarch = simulate(b, machine_8way)
        assert microarch.hierarchy.l1d.stats.miss_rate > 0.5
        assert counters.cpi > 10.0     # ~100-cycle memory per 3 instructions

    def test_streaming_misses_cheaper_than_random(self, machine_8way):
        def stream_body(b):
            b.load("r2", "r1", 0)
            b.addi("r1", "r1", 8)

        b = ProgramBuilder("stream")
        b.addi("r1", "r0", 0x40000)
        b.addi("r20", "r0", 4000)
        b.label("top")
        stream_body(b)
        b.addi("r20", "r20", -1)
        b.bne("r20", "r0", "top")
        b.halt()
        counters, microarch = simulate(b, machine_8way)
        # Sequential blocks: one miss per 4 words (32B blocks / 8B words).
        assert 0.1 < microarch.hierarchy.l1d.stats.miss_rate < 0.5

    def test_store_heavy_code_exercises_store_buffer(self, machine_8way):
        b = ProgramBuilder("stores")
        b.addi("r1", "r0", 0x80000)
        b.addi("r20", "r0", 3000)
        b.label("top")
        b.store("r20", "r1", 0)
        b.addi("r1", "r1", 64)        # new block every store
        b.addi("r20", "r20", -1)
        b.bne("r20", "r0", "top")
        b.halt()
        counters, _ = simulate(b, machine_8way)
        assert counters.stores == 3000
        assert counters.store_buffer_stalls > 0


class TestBranchTiming:
    def test_predictable_branches_are_cheap(self, machine_8way):
        def body(b):
            b.addi("r1", "r1", 1)
        counters, _ = simulate(loop_program(body, iterations=2000), machine_8way)
        assert counters.mispredictions / counters.branches < 0.05

    def test_random_branches_cost_cycles(self, machine_8way):
        import random
        rng = random.Random(3)
        b = ProgramBuilder("rand")
        elems = 1024
        b.data_block(0x2000, [rng.randrange(2) for _ in range(elems)])
        b.addi("r1", "r0", 0x2000)
        b.addi("r20", "r0", elems)
        b.label("top")
        b.load("r2", "r1", 0)
        b.beq("r2", "r0", "skip")
        b.addi("r3", "r3", 1)
        b.label("skip")
        b.addi("r1", "r1", 8)
        b.addi("r20", "r20", -1)
        b.bne("r20", "r0", "top")
        b.halt()
        counters, _ = simulate(b, machine_8way)
        assert counters.mispredictions / counters.branches > 0.1

        # The same loop with an always-taken branch should run faster.
        b2 = ProgramBuilder("biased")
        b2.data_block(0x2000, [1] * elems)
        b2.addi("r1", "r0", 0x2000)
        b2.addi("r20", "r0", elems)
        b2.label("top")
        b2.load("r2", "r1", 0)
        b2.beq("r2", "r0", "skip")
        b2.addi("r3", "r3", 1)
        b2.label("skip")
        b2.addi("r1", "r1", 8)
        b2.addi("r20", "r20", -1)
        b2.bne("r20", "r0", "top")
        b2.halt()
        counters_biased, _ = simulate(b2, machine_8way)
        assert counters_biased.cpi < counters.cpi


class TestWidthScaling:
    def test_16way_is_not_slower_than_8way(self, machine_8way, machine_16way, micro):
        core8 = create_core(micro.program)
        cpi8 = DetailedSimulator(machine_8way, MicroarchState(machine_8way)) \
            .simulate(core8).cpi
        core16 = create_core(micro.program)
        cpi16 = DetailedSimulator(machine_16way, MicroarchState(machine_16way)) \
            .simulate(core16).cpi
        # The 16-way machine has double the width, window and caches; it
        # should not lose on the same program (small tolerance for its
        # longer L1/L2 latencies).
        assert cpi16 <= cpi8 * 1.1


class TestPeriodManagement:
    def test_begin_period_resets_pipeline_clock(self, machine_8way, micro):
        core = create_core(micro.program)
        microarch = MicroarchState(machine_8way)
        sim = DetailedSimulator(machine_8way, microarch)
        sim.begin_period()
        first = sim.run(core, 500)
        assert sim.current_cycle == first.cycles
        sim.begin_period()
        assert sim.current_cycle == 0

    def test_consecutive_runs_accumulate_within_period(self, machine_8way, micro):
        core = create_core(micro.program)
        microarch = MicroarchState(machine_8way)
        sim = DetailedSimulator(machine_8way, microarch)
        sim.begin_period()
        a = sim.run(core, 300)
        b = sim.run(core, 300)
        assert sim.current_cycle == a.cycles + b.cycles

    def test_run_stops_at_program_end(self, machine_8way, micro):
        core = create_core(micro.program)
        sim = DetailedSimulator(machine_8way, MicroarchState(machine_8way))
        counters = sim.simulate(core, count=10_000_000)
        assert counters.instructions < 10_000_000
        assert core.halted

    def test_determinism(self, machine_8way, micro):
        results = []
        for _ in range(2):
            core = create_core(micro.program)
            sim = DetailedSimulator(machine_8way, MicroarchState(machine_8way))
            results.append(sim.simulate(core).as_dict())
        assert results[0] == results[1]
