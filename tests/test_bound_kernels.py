"""The detailed timing model's bound kernels against their specifications.

``DetailedSimulator.run`` reaches the cache hierarchy and the branch unit
through per-call kernels, ``MemoryHierarchy.bind()`` and
``BranchUnit.bind()``, whose closures hold every structure's sets and
tables in locals, check a set's MRU entry first, keep statistics in
locals until ``close()`` and fuse a taken branch's BTB probe with its
install.  The per-access methods — ``access_code`` (through
``TLB.access`` and ``SetAssociativeCache.access``) and ``resolve_at``
(through ``BranchTargetBuffer.lookup``/``update``) — stay the
specification.  These tests drive both with the same streams and assert
identical results, final warm state and statistics:

* address streams of fetches, loads and stores with same-line repeats
  and set conflicts, on every registered machine and on hand-built
  geometries (a page smaller than a line, a page that does not divide a
  line, 1-way and 8-way sets), also through ``warm_many``;
* branch streams of all four kinds with RAS overflow and underflow, BTB
  set conflicts and taken branches retargeted mid-run;
* the heap-based ``MSHRFile``/``StoreBuffer`` expiry against the
  list-rebuilding logic it replaced, embedded here as the oracle;
* whole detailed runs with the kernels swapped for the per-access
  methods, on the engine ``REPRO_ENGINE`` selects (CI runs this file
  under both), and a guard that a detailed run calls none of the
  per-access methods.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.btb import BranchTargetBuffer
from repro.branch.unit import BranchUnit
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
from repro.functional.engine import ENGINES, create_core
from repro.memory.cache import SetAssociativeCache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.mshr import MSHRFile, MSHRStats
from repro.memory.store_buffer import StoreBuffer, StoreBufferStats
from repro.memory.tlb import TLB
from repro.workloads import get_benchmark

STRUCTURES = ("itlb", "dtlb", "l1i", "l1d", "l2")


# ----------------------------------------------------------------------
# Geometries
# ----------------------------------------------------------------------
def _hand_built(name: str):
    """A scaled 8-way machine with one geometry changed on both sides."""
    base = scaled_8way()
    if name == "page16-line64":  # a page smaller than a line
        line, page, l1_assoc, l2_assoc, tlb_assoc = 64, 16, 2, 4, 2
    elif name == "page48-line32":  # a page that does not divide a line
        line, page, l1_assoc, l2_assoc, tlb_assoc = 32, 48, 2, 4, 2
    elif name == "direct-mapped":  # 1-way sets everywhere
        line, page, l1_assoc, l2_assoc, tlb_assoc = 32, 256, 1, 1, 1
    else:  # "8-way-sets"
        line, page, l1_assoc, l2_assoc, tlb_assoc = 32, 256, 8, 8, 8
    l1 = CacheConfig(1024, l1_assoc, block_bytes=line)
    return dataclasses.replace(
        base, name=name, l1i=l1, l1d=l1,
        l2=CacheConfig(8192, l2_assoc, block_bytes=2 * line),
        itlb=TLBConfig(8, tlb_assoc, page_bytes=page),
        dtlb=TLBConfig(8, tlb_assoc, page_bytes=page))


HAND_BUILT = ("page16-line64", "page48-line32", "direct-mapped",
              "8-way-sets")
GEOMETRIES = (*CONFIGURATIONS, *HAND_BUILT)


def _machine(name: str):
    return get_config(name) if name in CONFIGURATIONS else _hand_built(name)


def _stats(hierarchy) -> dict:
    return {name: asdict(getattr(hierarchy, name).stats)
            for name in STRUCTURES}


# ----------------------------------------------------------------------
# Memory kernel
# ----------------------------------------------------------------------
#: One stream step: kind (0 fetch, 1 load, 2 store), which structure's
#: conflict stride to step by, how many strides (ways), a byte offset,
#: and how many same-line repeats follow (each its own kind).
_MEMORY_STEP = st.tuples(
    st.sampled_from((0, 0, 1, 1, 2)),
    st.sampled_from(STRUCTURES),
    st.integers(0, 9),
    st.integers(0, 255),
    st.lists(st.sampled_from((0, 1, 2)), max_size=4))


def _stride(hierarchy, structure: str) -> int:
    """Bytes between addresses that map to the same set of a structure."""
    part = getattr(hierarchy, structure)
    if structure.endswith("tlb"):
        return part.num_sets * part.page_bytes
    return part.num_sets * part.block_bytes


def _address_stream(hierarchy, steps) -> list[tuple[int, int]]:
    """``(address, kind)`` accesses: code below 1 MiB, data above it."""
    stream = []
    for kind, structure, ways, offset, repeats in steps:
        base = 0 if kind == 0 else 1 << 20
        address = base + ways * _stride(hierarchy, structure) + offset
        stream.append((address, kind))
        for repeat, again in enumerate(repeats):
            # The same line (a nearby byte when the line is long enough).
            stream.append((address + (repeat % 2), again))
    return stream


class TestMemoryKernel:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @settings(max_examples=25, deadline=None)
    @given(steps=st.lists(_MEMORY_STEP, min_size=1, max_size=120),
           cuts=st.lists(st.integers(1, 60), max_size=4))
    def test_kernel_matches_access_code(self, geometry, steps, cuts):
        """Every code, the final tag arrays and every counter equal the
        per-access path, with the stream split over several binds."""
        config = _machine(geometry)
        reference = MemoryHierarchy(config)
        kernel = MemoryHierarchy(config)
        bulk = MemoryHierarchy(config)
        stream = _address_stream(reference, steps)
        bounds = sorted({min(cut, len(stream)) for cut in
                         itertools.accumulate(cuts)} | {len(stream)})
        start = 0
        for end in bounds:
            access, close = kernel.bind()
            chunk = stream[start:end]
            for address, kind in chunk:
                assert access(address, kind) == reference.access_code(
                    address, kind), (address, kind)
            close()
            bulk.warm_many([address << 2 | kind for address, kind in chunk])
            # Evict the chunk's last data line between binds (a new bind
            # must not treat its line as a repeat).
            data = [address for address, kind in chunk if kind]
            if data:
                stride = _stride(reference, "l1d")
                for way in range(1, reference.l1d.assoc + 1):
                    for hierarchy in (reference, kernel, bulk):
                        hierarchy.access_code(data[-1] + way * stride, 1)
            start = end
        state = reference.snapshot_state()
        assert kernel.snapshot_state() == state
        assert bulk.snapshot_state() == state
        assert _stats(kernel) == _stats(reference)
        assert _stats(bulk) == _stats(reference)

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_dense_stream_exercises_every_path(self, geometry):
        """A fixed stream through one bind hits MRU entries, deeper ways,
        evictions of dirty lines, TLB misses and same-key repeats, and
        still matches the per-access path."""
        reference = MemoryHierarchy(_machine(geometry))
        kernel = MemoryHierarchy(_machine(geometry))
        steps = [(kind, structure, ways, offset, [1, 2][:ways % 3])
                 for ways in range(10) for structure in STRUCTURES
                 for kind, offset in ((0, 4), (2, 8), (1, 200), (0, 100))]
        stream = _address_stream(reference, steps * 3)
        access, close = kernel.bind()
        codes = [access(address, kind) for address, kind in stream]
        close()
        assert codes == [reference.access_code(address, kind)
                         for address, kind in stream]
        assert kernel.snapshot_state() == reference.snapshot_state()
        assert _stats(kernel) == _stats(reference)
        stats = _stats(reference)
        assert stats["itlb"]["misses"] and stats["dtlb"]["misses"]
        assert stats["l2"]["writebacks"] and stats["l1i"]["evictions"]
        assert {code >> 1 for code in codes} == {0, 1, 2}

    def test_statistics_are_written_only_on_close(self, machine_8way):
        hierarchy = MemoryHierarchy(machine_8way)
        access, close = hierarchy.bind()
        access(64, 0)
        access(1 << 20, 2)
        assert _stats(hierarchy) == _stats(MemoryHierarchy(machine_8way))
        close()
        assert hierarchy.l1i.stats.accesses == 1
        assert hierarchy.l1d.stats.misses == 1
        assert hierarchy.l2.stats.accesses == 2


# ----------------------------------------------------------------------
# Branch kernel
# ----------------------------------------------------------------------
BRANCH_GEOMETRIES = {
    **{name: get_config(name).branch for name in CONFIGURATIONS},
    "btb-1way-ras2": BranchConfig(table_entries=64, history_bits=4,
                                  btb_entries=16, btb_assoc=1,
                                  ras_entries=2),
    "btb-8way-ras4": BranchConfig(table_entries=128, history_bits=6,
                                  btb_entries=32, btb_assoc=8,
                                  ras_entries=4),
}

#: One stream segment: shape, which branch pc (a small pool plus BTB
#: set conflicts of it), a run length and a target choice.
_BRANCH_STEP = st.tuples(
    st.sampled_from(("taken-run", "not-taken-run", "loop", "retarget",
                     "calls", "returns", "jump", "random")),
    st.integers(0, 5), st.integers(0, 3), st.integers(1, 12),
    st.integers(0, 3))


def _branch_stream(unit, steps, seed_bits) -> list[tuple[int, int, int, int]]:
    """``(pc, kind, taken, target)`` branches as the timing model issues
    them: a not-taken conditional targets ``pc + 1``; JAL, JR and JUMP
    are always taken, a JR to the pushed return address or elsewhere."""
    btb_sets = unit.btb.num_sets
    stream = []
    returns: list[int] = []
    bits = itertools.cycle(seed_bits or [1])
    for shape, slot, conflict, count, choice in steps:
        pc = 100 + 37 * slot + conflict * btb_sets
        target = 3 + 11 * choice
        if shape == "taken-run":
            stream += [(pc, 0, 1, target)] * count
        elif shape == "not-taken-run":
            stream += [(pc, 0, 0, pc + 1)] * count
        elif shape == "loop":
            stream += [(pc, 0, 1, target)] * count + [(pc, 0, 0, pc + 1)]
        elif shape == "retarget":  # a taken run whose target moves
            stream += [(pc, 0, 1, target)] * count
            stream += [(pc, 0, 1, target + 1 + choice)] * (1 + count % 3)
        elif shape == "calls":  # may overflow the RAS
            for call in range(count):
                stream.append((pc + call, 1, 1, target + call))
                returns.append(pc + call + 1)
        elif shape == "returns":  # may underflow the RAS
            for ret in range(count):
                expected = returns.pop() if returns else target
                stream.append((pc, 2, 1, expected if (ret + choice) % 3
                               else expected + 5))
        elif shape == "jump":
            stream += [(pc, 3, 1, target)] * count
        else:
            for _ in range(count):
                taken = next(bits)
                stream.append((pc, 0, taken, target if taken else pc + 1))
    return stream


class TestBranchKernel:
    @pytest.mark.parametrize("geometry", sorted(BRANCH_GEOMETRIES))
    @settings(max_examples=30, deadline=None)
    @given(steps=st.lists(_BRANCH_STEP, min_size=1, max_size=40),
           seed_bits=st.lists(st.integers(0, 1), max_size=16),
           cut=st.integers(0, 200))
    def test_kernel_matches_resolve_at(self, geometry, steps, seed_bits,
                                       cut):
        """Every mispredict flag, the final predictor/BTB/RAS state and
        every counter equal ``resolve_at``, across two binds."""
        config = BRANCH_GEOMETRIES[geometry]
        reference, kernel = BranchUnit(config), BranchUnit(config)
        stream = _branch_stream(reference, steps, seed_bits)
        for part in (stream[:cut], stream[cut:]):
            resolve, close = kernel.bind()
            for pc, kind, taken, target in part:
                expected = reference.resolve_at(pc, kind, taken, target)[2]
                assert resolve(pc, kind, taken, target) == expected
            close()
        assert kernel.warm_state() == reference.warm_state()
        assert _branch_stats(kernel) == _branch_stats(reference)

    def test_fixed_stream_exercises_every_path(self):
        """Overflow and underflow of the RAS, BTB conflict evictions,
        retargets, and both kinds of mispredict all occur."""
        config = BRANCH_GEOMETRIES["btb-1way-ras2"]
        reference, kernel = BranchUnit(config), BranchUnit(config)
        shapes = ("taken-run", "not-taken-run", "loop", "retarget",
                  "calls", "returns", "jump", "random")
        steps = [(shape, slot, conflict, 5, slot % 4) for slot in range(3)
                 for conflict in range(3) for shape in shapes] * 2
        stream = _branch_stream(reference, steps, [1, 0, 0, 1, 1])
        resolve, close = kernel.bind()
        flags = [resolve(*branch) for branch in stream]
        close()
        assert flags == [reference.resolve_at(*branch)[2]
                         for branch in stream]
        assert kernel.warm_state() == reference.warm_state()
        assert _branch_stats(kernel) == _branch_stats(reference)
        assert True in flags and False in flags
        assert reference.btb.lookups > reference.btb.hits > 0
        kinds = {kind for _, kind, _, _ in stream}
        assert kinds == {0, 1, 2, 3}

    def test_predicted_taken_exit_refreshes_btb_recency(self,
                                                        machine_8way):
        """A loop exit predicted taken probes the BTB, which moves its
        entry ahead of a conflicting branch taken since then."""
        reference = BranchUnit(machine_8way.branch)
        kernel = BranchUnit(machine_8way.branch)
        loop = 40
        other = loop + reference.btb.num_sets  # same BTB set
        stream = ([(loop, 0, 1, 30)] * 6 + [(other, 3, 1, 90)]
                  + [(loop, 0, 0, loop + 1)])
        resolve, close = kernel.bind()
        flags = [resolve(*branch) for branch in stream]
        close()
        assert flags == [reference.resolve_at(*branch)[2]
                         for branch in stream]
        assert flags[-1]  # predicted taken, so it probed the BTB
        btb_set = reference.btb.warm_state()[loop % reference.btb.num_sets]
        assert btb_set[-1][0] == loop // reference.btb.num_sets
        assert kernel.warm_state() == reference.warm_state()
        assert _branch_stats(kernel) == _branch_stats(reference)

    def test_counters_are_written_only_on_close(self, machine_8way):
        unit = BranchUnit(machine_8way.branch)
        resolve, close = unit.bind()
        resolve(10, 3, 1, 40)
        assert (unit.branches, unit.btb.lookups) == (0, 0)
        close()
        assert (unit.branches, unit.mispredictions) == (1, 1)
        assert (unit.btb.lookups, unit.btb.hits) == (1, 0)


def _branch_stats(unit) -> dict:
    return {"branches": unit.branches,
            "mispredictions": unit.mispredictions,
            "btb_lookups": unit.btb.lookups, "btb_hits": unit.btb.hits,
            "predictor_lookups": unit.predictor.lookups,
            "predictor_mispredictions": unit.predictor.mispredictions}


# ----------------------------------------------------------------------
# MSHR file and store buffer: heap expiry against list rebuilds
# ----------------------------------------------------------------------
class ListMSHRFile:
    """The list-rebuilding ``MSHRFile`` the skip-until-due one replaced."""

    def __init__(self, entries):
        self.entries = entries
        self.stats = MSHRStats()
        self._outstanding = {}

    def _expire(self, now):
        if self._outstanding:
            expired = [blk for blk, t in self._outstanding.items() if t <= now]
            for blk in expired:
                del self._outstanding[blk]

    def outstanding(self, now):
        self._expire(now)
        return len(self._outstanding)

    def request(self, block, now, latency):
        self._expire(now)
        existing = self._outstanding.get(block)
        if existing is not None and existing > now:
            self.stats.merges += 1
            return existing, 0
        stall = 0
        if len(self._outstanding) >= self.entries:
            earliest = min(self._outstanding.values())
            stall = max(0, earliest - now)
            self.stats.structural_stalls += 1
            self.stats.stall_cycles += stall
            self._expire(earliest)
            if len(self._outstanding) >= self.entries:
                oldest = min(self._outstanding, key=self._outstanding.get)
                del self._outstanding[oldest]
        ready = now + stall + latency
        self._outstanding[block] = ready
        self.stats.allocations += 1
        return ready, stall


class ListStoreBuffer:
    """The list-rebuilding ``StoreBuffer`` the heap-based one replaced."""

    def __init__(self, entries):
        self.entries = entries
        self.stats = StoreBufferStats()
        self._inflight = []

    def _expire(self, now):
        if self._inflight:
            self._inflight = [t for t in self._inflight if t > now]

    def occupancy(self, now):
        self._expire(now)
        return len(self._inflight)

    def push(self, now, drain_latency):
        self._expire(now)
        stall = 0
        if len(self._inflight) >= self.entries:
            earliest = min(self._inflight)
            stall = max(0, earliest - now)
            self.stats.full_stalls += 1
            self.stats.stall_cycles += stall
            self._expire(earliest)
            if len(self._inflight) >= self.entries:
                self._inflight.remove(min(self._inflight))
        completion = now + stall + drain_latency
        self._inflight.append(completion)
        self.stats.stores += 1
        return completion, stall


#: ``(cycles since the previous request, block, latency)``; small gaps
#: and few blocks give merges, expiries and structural stalls.
_REQUESTS = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 9),
                               st.sampled_from((1, 3, 10, 40, 100))),
                     min_size=1, max_size=200)


class TestTimedQueues:
    @settings(max_examples=60, deadline=None)
    @given(requests=_REQUESTS, entries=st.integers(1, 6))
    def test_mshr_file_matches_list_rebuild(self, requests, entries):
        oracle, heap = ListMSHRFile(entries), MSHRFile(entries)
        now = 0
        for gap, block, latency in requests:
            now += gap
            assert heap.request(block, now, latency) == oracle.request(
                block, now, latency)
            probe = now + gap // 2
            assert heap.outstanding(probe) == oracle.outstanding(probe)
        assert heap.stats == oracle.stats
        heap.flush()
        assert heap.outstanding(0) == 0
        assert heap.request(1, 0, 5) == (5, 0)

    @settings(max_examples=60, deadline=None)
    @given(requests=_REQUESTS, entries=st.integers(1, 6))
    def test_store_buffer_matches_list_rebuild(self, requests, entries):
        oracle, heap = ListStoreBuffer(entries), StoreBuffer(entries)
        now = 0
        for gap, _, latency in requests:
            now += gap
            assert heap.push(now, latency) == oracle.push(now, latency)
            probe = now + gap // 2
            assert heap.occupancy(probe) == oracle.occupancy(probe)
        assert heap.stats == oracle.stats

    def test_full_store_buffer_drains_every_earliest_entry(self):
        """Waiting for the earliest completion frees every entry that
        completes then, not just one."""
        oracle, heap = ListStoreBuffer(2), StoreBuffer(2)
        pushes = [heap.push(now, 5) for now in (0, 0, 1, 2, 3)]
        assert pushes == [oracle.push(now, 5) for now in (0, 0, 1, 2, 3)]
        # Both stores completing at 5 drained, so the store at 2 fits.
        assert pushes[2:4] == [(10, 4), (7, 0)]
        assert heap.stats == oracle.stats


# ----------------------------------------------------------------------
# Whole detailed runs
# ----------------------------------------------------------------------
def _per_access_kernels(monkeypatch):
    """Make ``bind`` hand out the per-access specification methods."""
    monkeypatch.setattr(MemoryHierarchy, "bind",
                        lambda self: (self.access_code, lambda: None))
    monkeypatch.setattr(
        BranchUnit, "bind",
        lambda self: (lambda *branch: self.resolve_at(*branch)[2],
                      lambda: None))


def _detailed_records(program, machine, engine=None) -> list:
    """Counters, statistics and warm state after each ``run`` of a
    SMARTS-shaped schedule (detailed warming, then short units)."""
    core = create_core(program, engine=engine)
    microarch = MicroarchState(machine)
    sim = DetailedSimulator(machine, microarch)
    records = []
    for count in (1_500, 50, 7, 50, 400, 1, 50):
        counters = sim.run(core, count)
        branch = microarch.branch_unit
        records.append((counters.as_dict(), _stats(microarch.hierarchy),
                        _branch_stats(branch), microarch.snapshot_state()))
    return records


class TestDetailedRuns:
    @pytest.mark.parametrize("name", ["gcc.syn", "mcf.syn", "mesa.syn"])
    @pytest.mark.parametrize("machine", ["8-way-scaled", "16-way-scaled",
                                         "direct-mapped", "page48-line32"])
    def test_kernels_match_per_access_run(self, monkeypatch, name,
                                          machine):
        """A detailed run through the kernels equals one through
        ``access_code``/``resolve_at``, call by call, on the engine the
        environment selects."""
        program = get_benchmark(name, scale=0.05).program
        config = _machine(machine)
        bound = _detailed_records(program, config)
        _per_access_kernels(monkeypatch)
        assert _detailed_records(program, config) == bound

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_calls_no_per_access_method(self, monkeypatch, engine,
                                            machine_8way):
        """The hot loop goes through the kernels only: a detailed run
        with every per-access method patched to raise still completes."""
        def forbidden(*args, **kwargs):
            raise AssertionError("per-access method called in a detailed run")

        for owner, method in ((MemoryHierarchy, "access_code"),
                              (BranchUnit, "resolve_at"),
                              (SetAssociativeCache, "access"),
                              (TLB, "access"),
                              (BranchTargetBuffer, "lookup"),
                              (BranchTargetBuffer, "update")):
            monkeypatch.setattr(owner, method, forbidden)
        program = get_benchmark("gcc.syn", scale=0.05).program
        records = _detailed_records(program, machine_8way, engine)
        counters, stats, branch, _ = records[0]
        assert counters["instructions"] == 1_500
        assert stats["l1d"]["accesses"] and stats["l2"]["misses"]
        assert branch["branches"] and branch["btb_lookups"]
