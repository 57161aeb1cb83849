"""Golden equivalence of the trace-compiled engine against the interpreter.

The correctness contract of ``repro.functional.fastpath`` is exactness:
for any program and any execution schedule, the block-compiled engine
must leave *bit-identical* architectural state, warm microarchitectural
state (caches, TLBs, predictor tables, history, BTB, RAS — LRU order and
statistics included), and therefore bit-identical paper estimates
(``RunResult.estimates_dict()``) compared to the per-instruction
interpreter.  These tests pin that contract at every layer:

* the bulk ``warm_many`` entry points against their per-access
  specifications,
* plain and warmed execution (including partial-block fallbacks and
  ``max_instructions`` budgets),
* checkpoint builds,
* full estimation runs in the shape of the fig6/fig7 suite grids and the
  table5 bias measurement, across strategies and metrics.

They also guard the *count-based* performance contract CI relies on
(dispatch/closure-call counts, never wall-clock — the CI box is
single-core): fastpath execution must retire the overwhelming majority
of instructions through compiled blocks.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from repro.api import RunSpec, StratifiedStrategy, SystematicStrategy, run_spec
from repro.branch.unit import BranchUnit
from repro.checkpoint import build_checkpoints
from repro.core.sampling import SystematicSamplingPlan
from repro.core.smarts import SmartsEngine
from repro.config.machines import (
    CONFIGURATIONS,
    BranchConfig,
    CacheConfig,
    TLBConfig,
    get_config,
    scaled_8way,
)
from repro.detailed.pipeline import DetailedSimulator
from repro.detailed.state import MicroarchState
from repro.functional.engine import (
    DEFAULT_ENGINE,
    ENGINES,
    create_core,
    engine_name,
)
from repro.functional.fastpath import (
    BRANCH_COND,
    BRANCH_JAL,
    BRANCH_JR,
    BRANCH_JUMP,
    EVENT_IFETCH,
    EVENT_LOAD,
    EVENT_STORE,
    FLUSH_EVENTS,
    FastCore,
    compiled_program,
)
from repro.functional.simulator import (
    INST_SIZE,
    FunctionalCore,
    measure_program_length,
)
from repro.functional.warming import FunctionalWarmer
from repro.harness.bias import measure_bias
from repro.isa.builder import ProgramBuilder
from repro.isa.instruction import DynInst
from repro.isa.opcodes import OpClass, Opcode
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads import get_benchmark


@pytest.fixture(autouse=True)
def isolated_stores(tmp_path, monkeypatch):
    """Keep the artifact store out of the repository."""
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "artifacts"))


def small_program(name: str):
    if name == "micro.syn":
        from repro.workloads import micro_benchmark

        return micro_benchmark().program
    return get_benchmark(name, scale=0.05).program


#: Workloads spanning the behaviours the suite exercises: integer loops,
#: pointer chasing, FP kernels, and branch-heavy control flow.
WORKLOADS = ("micro.syn", "gzip.syn", "mcf.syn", "ammp.syn", "gcc.syn")


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
class TestEngineSelection:
    def test_default_is_fastpath(self, monkeypatch, micro):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert DEFAULT_ENGINE == "fastpath"
        assert engine_name() == "fastpath"
        assert isinstance(create_core(micro.program), FastCore)

    def test_env_selects_interpreter(self, monkeypatch, micro):
        monkeypatch.setenv("REPRO_ENGINE", "interp")
        core = create_core(micro.program)
        assert type(core) is FunctionalCore

    def test_unknown_engine_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        with pytest.raises(ValueError, match="unknown functional engine"):
            engine_name()

    def test_explicit_engine_overrides_env(self, monkeypatch, micro):
        monkeypatch.setenv("REPRO_ENGINE", "interp")
        assert isinstance(create_core(micro.program, engine="fastpath"),
                          FastCore)

    def test_registry_names(self):
        assert set(ENGINES) == {"interp", "fastpath"}

    def test_compilation_memoized_per_program(self, micro):
        assert compiled_program(micro.program) is \
            compiled_program(micro.program)


# ----------------------------------------------------------------------
# Bulk warmers against their per-access specifications
# ----------------------------------------------------------------------
#: Hand-built I-TLB page / L1I line geometries: a page smaller than a
#: line, a page that does not divide a line, and fetch units
#: (``gcd(line, page)``) of exactly one instruction and of less than one.
HAND_BUILT = {"page16-line64": (16, 64), "page48-line32": (48, 32),
              "page12-line32": (12, 32), "page2-line32": (2, 32)}


def _geometry(name: str):
    """A registered machine, or a hand-built one from :data:`HAND_BUILT`."""
    if name in CONFIGURATIONS:
        return get_config(name)
    page, line = HAND_BUILT[name]
    return dataclasses.replace(
        scaled_8way(), name=name,
        l1i=CacheConfig(1024, 2, block_bytes=line),
        itlb=TLBConfig(8, 2, page_bytes=page))


def _sequential_stream(hierarchy, rng, length):
    """Program-like memory events: fetch runs that cross line and page
    boundaries and jump back, to page ends and to conflicting lines, with
    loads and stores between fetches of one line.  The data addresses
    thrash one L2 set (and so one L1D set), so stores dirty L2 lines
    that are later written back."""
    l1i, l2 = hierarchy.l1i, hierarchy.l2
    code_conflict = l1i.num_sets * l1i.block_bytes
    data_conflict = l2.num_sets * l2.block_bytes
    page = hierarchy.itlb.page_bytes
    events, pc = [], 0
    while len(events) < length:
        for _ in range(rng.randrange(1, 48)):
            events.append(pc << 2 | EVENT_IFETCH)
            if rng.random() < 0.3:
                way = rng.randrange(l2.assoc + 2)
                address = (1 << 24) + way * data_conflict + rng.randrange(
                    0, 256, 8)
                events.append(address << 2 | rng.choice((EVENT_LOAD,
                                                         EVENT_STORE)))
            pc += INST_SIZE
        jump = rng.random()
        if jump < 0.3:
            pc = max(0, pc - rng.randrange(0, 64, INST_SIZE))
        elif jump < 0.6:
            pc = (pc // page + 1) * page - rng.randrange(INST_SIZE, 40,
                                                         INST_SIZE)
        elif jump < 0.8:
            pc = (rng.randrange(l1i.assoc + 2) * code_conflict
                  + rng.randrange(0, 256, INST_SIZE))
        else:
            pc = rng.randrange(0, 1 << 16, INST_SIZE)
    return events


def _fetch_count(events):
    """The fetches a stream with one event per fetch stands for."""
    return sum(1 for event in events if event & 3 == EVENT_IFETCH)


def _warm_event(unit, kind, pc, taken, target):
    """``BranchUnit.warm`` for one ``warm_many`` event."""
    op = {BRANCH_COND: Opcode.BNE, BRANCH_JAL: Opcode.JAL,
          BRANCH_JR: Opcode.JR, BRANCH_JUMP: Opcode.JUMP}[kind]
    unit.warm(DynInst(
        seq=0, pc=pc, op=op, opclass=OpClass.BRANCH, rd=None, srcs=(),
        mem_addr=None, is_load=False, is_store=False, is_branch=True,
        is_conditional=kind == BRANCH_COND, taken=bool(taken),
        next_pc=target))


def _is_steady(unit, event):
    """Whether repeating conditional ``event`` leaves ``unit`` unchanged:
    history, bimodal and gshare counters saturated toward its outcome."""
    kind, pc, taken, _ = event
    predictor = unit.predictor
    gshare = predictor.gshare
    bimodal = predictor.bimodal.table
    index = (pc ^ gshare.history) & gshare.table.mask
    value = bimodal.MAX_VALUE if taken else 0
    return (kind == BRANCH_COND
            and gshare.history == (gshare.history_mask if taken else 0)
            and bimodal.counters[pc & bimodal.mask] == value
            and gshare.table.counters[index] == value)


def _loop_stream(rng, btb_sets, events=12_000):
    """Branch events shaped like loop nests: taken back-edge runs ended
    by one not-taken exit, never-taken guards, taken runs whose target
    changes, and JAL/JR/JUMP or conditionals at another pc of the same
    BTB set."""
    stream: list[int] = []
    loops = [rng.randrange(16, 4000) for _ in range(4)]
    while len(stream) < events:
        pc = rng.choice(loops)
        target = pc - rng.randrange(1, 8)
        shape = rng.random()
        if shape < 0.55:
            stream += [BRANCH_COND, pc, 1, target] * rng.randrange(1, 60)
            stream += [BRANCH_COND, pc, 0, pc + 1]
        elif shape < 0.75:
            stream += [BRANCH_COND, pc, 0, pc + 1] * rng.randrange(1, 40)
        elif shape < 0.85:  # retargeted in the middle of a taken run
            stream += [BRANCH_COND, pc, 1, target] * rng.randrange(1, 30)
            stream += [BRANCH_COND, pc, 1, target + 1] * rng.randrange(1, 4)
        else:
            kind = rng.choice((BRANCH_JAL, BRANCH_JR, BRANCH_JUMP,
                               BRANCH_COND))
            stream += [kind, pc + btb_sets, 1, rng.randrange(4000)]
    return stream


def _counter_drain_stream(pc, history_bits, taken, other_pc):
    """A run of ``history_bits + 10`` identical conditional events at
    ``pc`` whose gshare counter (at the all-ones history index if
    ``taken``, all zeros if not) starts saturated against the run: each
    of six rounds of ``history_bits`` events one way and one event the
    other way trains that counter against the run, and a JUMP at
    ``other_pc`` separates the rounds from the run.  So the counter
    needs the run's events ``history_bits + 1`` to ``history_bits + 3``
    to saturate toward it."""
    def event(outcome):
        return [BRANCH_COND, pc, outcome, pc - 3 if outcome else pc + 1]

    rounds = (event(taken) * history_bits + event(1 - taken)) * 6
    return (rounds + [BRANCH_JUMP, other_pc, 1, pc]
            + event(taken) * (history_bits + 10))


class TestWarmManyEquivalence:
    @pytest.mark.parametrize(
        "geometry", [*CONFIGURATIONS, "page16-line64", "page48-line32"])
    def test_sequential_stream_matches_per_access(self, geometry):
        """Line-repeating fetch streams, split over several calls with
        per-access traffic between them, drive both paths identically."""
        config = _geometry(geometry)
        reference, bulk = MemoryHierarchy(config), MemoryHierarchy(config)
        rng = random.Random(geometry)
        events = _sequential_stream(reference, rng, 6000)
        code_conflict = reference.l1i.num_sets * reference.l1i.block_bytes
        start = 0
        while start < len(events):
            chunk = events[start:start + rng.randrange(1, 1500)]
            start += len(chunk)
            for event in chunk:
                if event & 3 == EVENT_IFETCH:
                    reference.access_instruction(event >> 2)
                else:
                    reference.access_data(event >> 2,
                                          event & 3 == EVENT_STORE)
            bulk.warm_many(chunk, _fetch_count(chunk))
            # Evict the last fetched line between calls, so a call that
            # starts on that line must not treat it as a repeat.
            fetches = [e >> 2 for e in chunk if e & 3 == EVENT_IFETCH]
            if fetches and start < len(events):
                for way in range(1, reference.l1i.assoc + 1):
                    for hierarchy in (reference, bulk):
                        hierarchy.access_code(
                            fetches[-1] + way * code_conflict, 0)
                        hierarchy.access_code(fetches[-1] + (1 << 24), 2)
                events.insert(start, fetches[-1] << 2 | EVENT_IFETCH)
        assert bulk.snapshot_state() == reference.snapshot_state()
        for name in ("itlb", "dtlb", "l1i", "l1d", "l2"):
            assert (vars(getattr(bulk, name).stats)
                    == vars(getattr(reference, name).stats)), name
        # The stream exercised what it is meant to.
        assert reference.l1i.stats.evictions and reference.itlb.stats.misses
        assert reference.l2.stats.writebacks

    def test_hierarchy_warm_many_matches_per_access(self, machine_8way):
        """A random interleaved I/D stream drives both paths identically."""
        rng = random.Random(7)
        reference = MemoryHierarchy(machine_8way)
        bulk = MemoryHierarchy(machine_8way)
        events = []
        for _ in range(4000):
            kind = rng.choice((EVENT_IFETCH, EVENT_IFETCH, EVENT_LOAD,
                               EVENT_STORE))
            # Small and large strides: hits, conflict misses, TLB churn.
            address = rng.randrange(0, 1 << 17) & ~7
            events.append(address << 2 | kind)
            if kind == EVENT_IFETCH:
                reference.access_instruction(address)
            else:
                reference.access_data(address, kind == EVENT_STORE)
        bulk.warm_many(events, _fetch_count(events))
        assert bulk.snapshot_state() == reference.snapshot_state()
        assert bulk.stats_summary() == reference.stats_summary()
        for name in ("l1i", "l1d", "l2"):
            ref_stats = getattr(reference, name).stats
            new_stats = getattr(bulk, name).stats
            assert new_stats.evictions == ref_stats.evictions
            assert new_stats.writebacks == ref_stats.writebacks

    def test_branch_warm_many_matches_warm(self, machine_8way):
        """Random conditional/JAL/JR/JUMP streams train identically."""
        rng = random.Random(11)
        config = machine_8way.branch
        reference = BranchUnit(config)
        bulk = BranchUnit(config)
        kinds = {BRANCH_COND: Opcode.BEQ, BRANCH_JAL: Opcode.JAL,
                 BRANCH_JR: Opcode.JR, BRANCH_JUMP: Opcode.JUMP}
        events = []
        for _ in range(3000):
            kind = rng.choice((BRANCH_COND, BRANCH_COND, BRANCH_COND,
                               BRANCH_JAL, BRANCH_JR, BRANCH_JUMP))
            pc = rng.randrange(0, 400)
            taken = 1 if kind != BRANCH_COND or rng.random() < 0.6 else 0
            target = rng.randrange(0, 400)
            events.extend((kind, pc, taken, target))
            reference.warm(DynInst(
                seq=0, pc=pc, op=kinds[kind], opclass=OpClass.BRANCH,
                rd=None, srcs=(), mem_addr=None, is_load=False,
                is_store=False, is_branch=True,
                is_conditional=kind == BRANCH_COND,
                taken=bool(taken), next_pc=target if taken else pc + 1))
        # Conditional not-taken events carry the fall-through target,
        # exactly as the compiled blocks emit them.
        for i in range(0, len(events), 4):
            if events[i] == BRANCH_COND and not events[i + 2]:
                events[i + 3] = events[i + 1] + 1
        bulk.warm_many(events)
        assert bulk.warm_state() == reference.warm_state()
        assert bulk.btb.lookups == reference.btb.lookups
        assert bulk.btb.hits == reference.btb.hits

    @pytest.mark.parametrize("machine", CONFIGURATIONS)
    def test_loop_streams_match_warm(self, machine):
        """Loop-shaped streams (taken runs that saturate the counters,
        long not-taken runs, retargets) broken by JAL/JR/JUMP and
        other-pc events and split across calls, with ``resolve_at``
        between calls evicting the last branch's BTB entry while history
        stays all ones, after two whole-call runs whose gshare counter
        saturates only at the rule's boundary: the steady-repeat skip
        must leave exactly the per-event state and BTB statistics."""
        config = get_config(machine).branch
        reference, bulk = BranchUnit(config), BranchUnit(config)
        rng = random.Random(machine)
        events = _loop_stream(rng, reference.btb.num_sets)
        # Whole calls that the steady-repeat rule must not cut short:
        # counters trained against a long taken or not-taken run.
        drains = [_counter_drain_stream(pc, config.history_bits, taken,
                                        pc + 2 * reference.btb.num_sets)
                  for pc, taken in ((1001, 1), (2002, 0))]
        previous = None
        steady = {0: 0, 1: 0}
        start = 0
        while drains or start < len(events):
            if drains:
                chunk = drains.pop(0)
            else:
                chunk = events[start:start + 4 * rng.randrange(1, 200)]
                start += len(chunk)
            for i in range(0, len(chunk), 4):
                event = tuple(chunk[i:i + 4])
                if event == previous and _is_steady(reference, event):
                    steady[event[2]] += 1
                _warm_event(reference, *event)
                previous = event
            bulk.warm_many(chunk)
            btb = reference.btb
            for way in range(1, btb.assoc + 1):  # taken, same BTB set
                other = chunk[-3] + way * btb.num_sets
                for unit in (reference, bulk):
                    unit.resolve_at(other, BRANCH_COND, 1, other + 5)
            assert bulk.btb.hits == reference.btb.hits
        assert bulk.warm_state() == reference.warm_state()
        assert bulk.btb.lookups == reference.btb.lookups
        assert bulk.btb.hits == reference.btb.hits
        # The streams reach both steady states often.
        assert steady[1] > 1000 and steady[0] > 200, steady

    def test_small_btb_geometry(self):
        """Eviction-heavy BTB and shallow RAS still match exactly."""
        config = BranchConfig(table_entries=64, history_bits=4,
                              btb_entries=4, btb_assoc=2, ras_entries=2)
        rng = random.Random(3)
        reference, bulk = BranchUnit(config), BranchUnit(config)
        events = []
        for _ in range(1000):
            kind = rng.choice((BRANCH_COND, BRANCH_JAL, BRANCH_JR))
            pc = rng.randrange(0, 64)
            taken = 1 if kind != BRANCH_COND or rng.random() < 0.5 else 0
            target = rng.randrange(0, 64)
            if kind == BRANCH_COND and not taken:
                target = pc + 1
            events.extend((kind, pc, taken, target))
            op = {BRANCH_COND: Opcode.BNE, BRANCH_JAL: Opcode.JAL,
                  BRANCH_JR: Opcode.JR}[kind]
            reference.warm(DynInst(
                seq=0, pc=pc, op=op, opclass=OpClass.BRANCH, rd=None,
                srcs=(), mem_addr=None, is_load=False, is_store=False,
                is_branch=True, is_conditional=kind == BRANCH_COND,
                taken=bool(taken), next_pc=target))
        bulk.warm_many(events)
        assert bulk.warm_state() == reference.warm_state()


# ----------------------------------------------------------------------
# Execution equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", WORKLOADS)
class TestExecutionEquivalence:
    def test_plain_run_bit_identical(self, name):
        program = small_program(name)
        interp = FunctionalCore(program)
        fast = FastCore(program)
        assert interp.run_to_completion() == fast.run_to_completion()
        assert interp.state == fast.state
        assert interp.instructions_retired == fast.instructions_retired

    def test_warmed_run_bit_identical(self, name, machine_8way):
        program = small_program(name)
        states, stats, arches, written_sets = [], [], [], []
        for engine in ("interp", "fastpath"):
            core = create_core(program, engine=engine)
            microarch = MicroarchState(machine_8way)
            microarch.flush()
            warmer = FunctionalWarmer(microarch)
            written: set[int] = set()
            core.run_warmed(1 << 60, warmer, written)
            states.append(microarch.snapshot_state())
            stats.append(microarch.stats_summary())
            arches.append(core.state)
            written_sets.append(written)
        assert states[0] == states[1]
        assert stats[0] == stats[1]
        assert arches[0] == arches[1]
        assert written_sets[0] == written_sets[1]

    def test_chunked_budgets_bit_identical(self, name, machine_8way):
        """Odd budgets force mid-block stops onto the interpreter path."""
        program = small_program(name)
        interp = FunctionalCore(program)
        fast = FastCore(program)
        warm_i = FunctionalWarmer(MicroarchState(machine_8way))
        warm_f = FunctionalWarmer(MicroarchState(machine_8way))
        for chunk in (1, 7, 2, 137, 13, 999, 3, 20_000):
            assert interp.run_warmed(chunk, warm_i) == \
                fast.run_warmed(chunk, warm_f)
            assert interp.state == fast.state
            assert interp.instructions_retired == fast.instructions_retired
        assert warm_i.microarch.snapshot_state() == \
            warm_f.microarch.snapshot_state()
        assert warm_i.instructions_warmed == warm_f.instructions_warmed

    def test_max_instructions_budget(self, name):
        program = small_program(name)
        interp = FunctionalCore(program, max_instructions=1234)
        fast = FastCore(program, max_instructions=1234)
        assert interp.run(10_000) == fast.run(10_000)
        assert interp.halted == fast.halted
        assert interp.state == fast.state

    def test_checkpoint_build_identical(self, name, machine_8way,
                                        monkeypatch):
        program = small_program(name)
        built = []
        for engine in ("interp", "fastpath"):
            monkeypatch.setenv("REPRO_ENGINE", engine)
            built.append(build_checkpoints(program, machine_8way,
                                           unit_size=25))
        interp_ckpt, fast_ckpt = built
        assert interp_ckpt.benchmark_length == fast_ckpt.benchmark_length
        assert [s.position for s in interp_ckpt.snapshots] == \
            [s.position for s in fast_ckpt.snapshots]
        for left, right in zip(interp_ckpt.snapshots, fast_ckpt.snapshots):
            assert left.pc == right.pc
            assert left.int_regs == right.int_regs
            assert left.fp_regs == right.fp_regs
            assert left.mem_delta == right.mem_delta
            assert left.micro == right.micro
            assert left.micro_delta == right.micro_delta


# ----------------------------------------------------------------------
# Line-granular fetch events (warm closures compiled per fetch unit)
# ----------------------------------------------------------------------
def _assert_warmed_like_interpreter(program, config):
    """Warm ``program`` under ``config`` with both engines, in budgets
    that cut blocks and in one run to the end: identical architectural
    state, warm state, statistics of every structure and stores."""
    runs = []
    for core in (FunctionalCore(program), FastCore(program)):
        warmer = FunctionalWarmer(MicroarchState(config))
        written: set[int] = set()
        executed = [core.run_warmed(budget, warmer, written)
                    for budget in (7, 1_000, 13, 1 << 60)]
        hierarchy = warmer.microarch.hierarchy
        stats = {name: vars(getattr(hierarchy, name).stats)
                 for name in ("itlb", "dtlb", "l1i", "l1d", "l2")}
        runs.append((executed, core.state, warmer.microarch.snapshot_state(),
                     stats, written, warmer.instructions_warmed))
    assert runs[0] == runs[1]


class TestLineGranularFetches:
    @pytest.mark.parametrize("geometry", HAND_BUILT)
    @pytest.mark.parametrize("name", ["gcc.syn", "mcf.syn"])
    def test_warm_closures_match_interpreter(self, name, geometry):
        _assert_warmed_like_interpreter(small_program(name),
                                        _geometry(geometry))

    def test_one_program_under_two_fetch_units(self):
        """A warm closure compiled for a coarse fetch unit would drop
        fetches a finer one needs: each unit gets its own closures."""
        program = self_loop_program(40)
        coarse, fine = _geometry("page16-line64"), _geometry("page2-line32")
        for config in (coarse, fine, coarse):
            _assert_warmed_like_interpreter(program, config)
        units = {MemoryHierarchy(config).fetch_unit
                 for config in (coarse, fine)}
        assert units == {16, 2}
        assert units <= set(compiled_program(program).warmed)


# ----------------------------------------------------------------------
# Self-loop blocks (iterated inside their closures)
# ----------------------------------------------------------------------
#: Instructions before the loop, and in its one self-loop block.
LOOP_PROLOGUE, LOOP_LENGTH = 2, 5


def self_loop_program(iterations: int):
    """A load, a store to a fresh address, two ALU ops and the branch
    back, run ``iterations`` times as one self-loop block, then HALT."""
    b = ProgramBuilder(f"self-loop-{iterations}")
    b.addi("r2", "r0", iterations)
    b.addi("r4", "r0", 4096)
    b.label("loop")
    b.load("r1", "r4", 0)
    b.store("r2", "r4", 8)
    b.addi("r4", "r4", 16)
    b.addi("r2", "r2", -1)
    b.bne("r2", "r0", "loop")
    b.halt()
    return b.build()


#: Budgets that end runs exactly at, one short of and one past iteration
#: boundaries, inside an iteration, and past the end of the program.
LOOP_BUDGETS = (LOOP_PROLOGUE, LOOP_LENGTH, 3 * LOOP_LENGTH - 1, 1,
                LOOP_LENGTH + 1, 7 * LOOP_LENGTH, 2, 3, 40 * LOOP_LENGTH + 3,
                LOOP_LENGTH, 10_000)


class TestSelfLoopBlocks:
    def test_only_the_self_loop_block_iterates(self):
        compiled = compiled_program(self_loop_program(50))
        loop = compiled.block_at(LOOP_PROLOGUE)
        assert loop.loops and loop.length == LOOP_LENGTH
        assert not compiled.block_at(0).loops
        assert not compiled.block_at(LOOP_PROLOGUE + 1).loops  # mid-loop

    def test_whole_run_counts_iterations(self):
        program = self_loop_program(300)
        fast, interp = FastCore(program), FunctionalCore(program)
        assert fast.run_to_completion() == interp.run_to_completion()
        assert fast.state == interp.state
        # Prologue block, 300 iterations, HALT block: one call each.
        assert fast.blocks_executed == 302
        assert fast.fallback_instructions == 0

    def test_plain_budget_cuts(self):
        program = self_loop_program(100)
        fast, interp = FastCore(program), FunctionalCore(program)
        for count in LOOP_BUDGETS:
            assert fast.run(count) == interp.run(count)
            assert fast.state == interp.state
            assert fast.instructions_retired == interp.instructions_retired

    @pytest.mark.parametrize("iterations", [3, 4, 10])
    @pytest.mark.parametrize("cut", [-1, 0, 1, 2])
    def test_max_instructions_cuts(self, iterations, cut):
        program = self_loop_program(50)
        limit = LOOP_PROLOGUE + iterations * LOOP_LENGTH + cut
        fast = FastCore(program, max_instructions=limit)
        interp = FunctionalCore(program, max_instructions=limit)
        assert fast.run(10_000) == interp.run(10_000) == limit
        assert fast.state == interp.state

    def test_warmed_budget_cuts_with_written(self, machine_8way):
        program = self_loop_program(100)
        cores = FastCore(program), FunctionalCore(program)
        warmers = [FunctionalWarmer(MicroarchState(machine_8way))
                   for _ in cores]
        written = [set(), set()]
        for count in LOOP_BUDGETS:
            executed = [core.run_warmed(count, warmer, seen) for
                        core, warmer, seen in zip(cores, warmers, written)]
            assert executed[0] == executed[1]
            assert cores[0].state == cores[1].state
            assert written[0] == written[1]
            assert (warmers[0].microarch.snapshot_state()
                    == warmers[1].microarch.snapshot_state())
        assert warmers[0].instructions_warmed == \
            warmers[1].instructions_warmed
        assert len(written[0]) == 100

    def test_flush_cap_bounds_the_event_buffer(self, machine_8way,
                                               monkeypatch):
        # Two memory events per iteration, a load and a store: the loop
        # body's five instructions share one fetch unit, so its closure
        # emits one fetch per call, not per iteration.
        iterations = 9 * FLUSH_EVENTS // 2
        program = self_loop_program(iterations)
        fast, interp = FastCore(program), FunctionalCore(program)
        warm_fast = FunctionalWarmer(MicroarchState(machine_8way))
        warm_interp = FunctionalWarmer(MicroarchState(machine_8way))
        hierarchy = warm_fast.microarch.hierarchy
        batches = []
        real = hierarchy.warm_many

        def recording(events, fetches):
            batches.append(len(events))
            real(events, fetches)

        monkeypatch.setattr(hierarchy, "warm_many", recording)
        written_fast, written_interp = set(), set()
        assert fast.run_warmed(1 << 40, warm_fast, written_fast) == \
            interp.run_warmed(1 << 40, warm_interp, written_interp)
        assert fast.state == interp.state
        assert written_fast == written_interp
        assert warm_fast.microarch.snapshot_state() == \
            warm_interp.microarch.snapshot_state()
        # A capped call adds at most 2 * FLUSH_EVENTS memory events to a
        # buffer that held fewer than FLUSH_EVENTS.
        assert len(batches) > 6
        assert max(batches) < 3 * FLUSH_EVENTS


# ----------------------------------------------------------------------
# Estimate-level golden equivalence (the fig6/fig7/table5 shapes)
# ----------------------------------------------------------------------
def _estimation_specs() -> list[RunSpec]:
    """The suite-grid shapes: fig6 (CPI, both machines), fig7 (EPI),
    no-functional-warming, and a stratified design."""
    systematic = SystematicStrategy(unit_size=25, n_init=60, max_rounds=2,
                                    detailed_warming=50)
    return [
        RunSpec(benchmark="micro.syn", machine="8-way",
                strategy=systematic, metric="cpi"),
        RunSpec(benchmark="micro.syn", machine="16-way",
                strategy=systematic, metric="cpi"),
        RunSpec(benchmark="micro.syn", machine="8-way",
                strategy=systematic, metric="epi"),
        RunSpec(benchmark="gzip.syn", machine="8-way", scale=0.05,
                strategy=systematic, metric="cpi", checkpoints="auto"),
        RunSpec(benchmark="micro.syn", machine="8-way",
                strategy=SystematicStrategy(
                    unit_size=25, n_init=40, max_rounds=1,
                    detailed_warming=50, functional_warming=False)),
        RunSpec(benchmark="micro.syn", machine="8-way", seed=3,
                strategy=StratifiedStrategy(
                    unit_size=25, sample_size=60, units_per_interval=10,
                    detailed_warming=50)),
    ]


def test_estimates_bit_identical_across_engines(monkeypatch):
    """``RunResult.estimates_dict()`` is engine-independent, per spec."""
    payloads = {}
    for engine in ("interp", "fastpath"):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        payloads[engine] = [run_spec(spec).estimates_dict()
                            for spec in _estimation_specs()]
    assert payloads["interp"] == payloads["fastpath"]


def test_bias_measurement_bit_identical(monkeypatch, micro, machine_8way,
                                        micro_reference):
    """The table5 bias measurement is engine-independent."""
    results = {}
    for engine in ("interp", "fastpath"):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        measurement = measure_bias(
            micro.program, machine_8way, micro_reference,
            unit_size=25, target_sample_size=60, detailed_warming=50,
            functional_warming=True, phases=2)
        results[engine] = (measurement.bias, measurement.phase_errors)
    assert results["interp"] == results["fastpath"]


# ----------------------------------------------------------------------
# Count-based performance guard (no wall-clock: single-core CI)
# ----------------------------------------------------------------------
class TestDispatchCounts:
    def test_fastpath_executes_blocks_not_instructions(self, machine_8way):
        program = small_program("gzip.syn")
        core = FastCore(program)
        warmer = FunctionalWarmer(MicroarchState(machine_8way))
        executed = core.run_warmed(1 << 60, warmer)
        assert executed > 10_000
        block_instructions = executed - core.fallback_instructions
        # Virtually everything retires through compiled blocks...
        assert block_instructions / executed > 0.95
        # ...and each closure call covers several instructions, so the
        # dispatch count (closure calls + stepped instructions) is a
        # small fraction of the per-instruction dispatch the interpreter
        # would perform.
        dispatches = core.blocks_executed + core.fallback_instructions
        assert dispatches < 0.6 * executed

    def test_fastforward_budgets_stay_block_dominated(self, machine_8way):
        """The SMARTS schedule (short warm/measure windows between
        fast-forwards) must not degrade into per-instruction stepping."""
        program = small_program("mcf.syn")
        core = FastCore(program)
        warmer = FunctionalWarmer(MicroarchState(machine_8way))
        executed = 0
        while True:
            advanced = core.run_warmed(450, warmer)  # k*U - W - U shape
            executed += advanced
            if advanced < 450:
                break
            executed += core.run(75)  # detailed window stand-in
        assert executed > 10_000
        assert core.fallback_instructions / executed < 0.35


    def test_warming_events_are_line_granular(self, machine_8way,
                                              monkeypatch):
        """Every warmed instruction is one I-TLB and one L1I access, but
        the memory events handed to ``warm_many`` are about one fetch per
        I-cache line plus the data accesses: 1.24 per warmed instruction
        with one fetch event per instruction, 0.24 line-granular (0.48
        if a self-loop block fetched once per iteration)."""
        program = small_program("mcf.syn")
        core = FastCore(program)
        warmer = FunctionalWarmer(MicroarchState(machine_8way))
        hierarchy = warmer.microarch.hierarchy
        handed = []
        real = hierarchy.warm_many

        def recording(events, fetches):
            handed.append(len(events))
            real(events, fetches)

        monkeypatch.setattr(hierarchy, "warm_many", recording)
        executed = core.run_warmed(1 << 60, warmer)
        assert executed > 10_000
        assert (hierarchy.itlb.stats.accesses == hierarchy.l1i.stats.accesses
                == warmer.instructions_warmed == executed)
        assert sum(handed) / executed <= 0.35


class TestDetailedDispatchCounts:
    """The detailed timing model is fed by compiled blocks (trace
    closures, or prefixes of them where a budget or window ends inside
    a block) and never steps the interpreter; a SMARTS run makes one
    detailed call per linked chain of units."""

    def test_dense_detailed_runs_retire_through_blocks(self, machine_8way):
        # The ``dense`` benchmark shape: one detailed-warming window, then
        # back-to-back 50-instruction units to the end of the stream.
        program = small_program("gcc.syn")
        core = FastCore(program)
        sim = DetailedSimulator(machine_8way, MicroarchState(machine_8way))
        instructions = 0
        for count in itertools.chain([2_000], itertools.repeat(50)):
            executed = sim.run(core, count).instructions
            instructions += executed
            if executed < count:
                break
        assert instructions > 10_000
        assert core.fallback_instructions == 0

    @pytest.mark.parametrize("interval, warming", [(1, 2_000), (2, 50),
                                                   (3, 100), (5, 100)])
    def test_one_detailed_call_per_linked_chain(self, monkeypatch,
                                                machine_8way, interval,
                                                warming):
        monkeypatch.setenv("REPRO_ENGINE", "fastpath")
        program = small_program("gcc.syn")
        length = measure_program_length(program)
        plan = SystematicSamplingPlan(unit_size=50, interval=interval,
                                      offset=interval - 1,
                                      detailed_warming=warming)
        calls = []
        real = DetailedSimulator.run

        def counting(self, core, count, *args, **kwargs):
            calls.append(core)
            return real(self, core, count, *args, **kwargs)

        monkeypatch.setattr(DetailedSimulator, "run", counting)
        result = SmartsEngine(machine_8way).run(program, plan, length)
        # A unit is linked to its predecessor when its warming window
        # starts by the predecessor's end.
        units = list(plan.units(length))
        chains = 1 + sum(1 for prev, unit in zip(units, units[1:])
                         if unit.start - warming > prev.end)
        assert len(result.units) == len(units) > 20
        assert len(calls) == chains
        assert all(core.fallback_instructions == 0 for core in calls)

    def test_functional_paths_compile_no_trace_closures(self, monkeypatch,
                                                        machine_8way):
        """Set-up (``measure_program_length``) and warming never pay for
        the detailed variant of a block."""
        monkeypatch.setenv("REPRO_ENGINE", "fastpath")
        program = small_program("gcc.syn")
        measure_program_length(program)
        FastCore(program).run_warmed(
            1 << 60, FunctionalWarmer(MicroarchState(machine_8way)))
        compiled = compiled_program(program)
        assert compiled.compiled_blocks > 0
        assert compiled.traced == {}
        DetailedSimulator(machine_8way, MicroarchState(machine_8way)).run(
            FastCore(program), 100)
        assert compiled.traced
