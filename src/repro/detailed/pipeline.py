"""Detailed out-of-order superscalar timing model.

This is the repository's stand-in for SimpleScalar's ``sim-outorder``
(enhanced, per Section 3.2 of the paper, with a store buffer, MSHRs and
memory-interconnect bottlenecks).  It is an execution-driven,
timestamp-based out-of-order model.  The functional core executes the
stream in segments — whole trace-compiled basic blocks on the fastpath
engine, single interpreted instructions otherwise — and reports only
each segment's dynamic values (load/store addresses, conditional-branch
outcomes, the next pc).  The model then walks the segment's static
instructions in program order against a per-program decode table and
schedules each one against

* fetch bandwidth, I-cache/I-TLB misses and branch-redirect stalls,
* RUU (register update unit) and LSQ occupancy,
* operand readiness through a register timestamp scoreboard,
* functional-unit availability and latency,
* D-cache/D-TLB misses through a finite MSHR file,
* store-buffer capacity at commit, and
* commit bandwidth.

Compared to a cycle-by-cycle structural simulator the model processes
each instruction exactly once, which keeps pure-Python simulation rates
high enough for SMARTS-scale experiments while still producing the
behaviour the paper studies: CPI that varies with cache and predictor
state, short-term pipeline state that needs detailed warming, and
long-history state that needs functional warming.  Wrong-path fetch is
modeled as a redirect penalty rather than by executing wrong-path
instructions; the paper (Section 4.5, citing Cain et al.) reports that
speculative wrong-path effects have minimal impact on CPI.
"""

from __future__ import annotations

from collections import deque
from heapq import heapreplace

from repro.branch.unit import branch_kind
from repro.config.machines import MachineConfig
from repro.detailed.counters import PipelineCounters
from repro.detailed.state import MicroarchState
from repro.functional.simulator import INST_SIZE, FunctionalCore
from repro.isa.instruction import NUM_FP_REGS, NUM_INT_REGS
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.program import Program
from repro.memory.mshr import MSHRFile
from repro.memory.store_buffer import StoreBuffer

#: Pipeline front-end depth between fetch and dispatch (decode/rename).
DECODE_STAGES = 2

#: Opcodes that occupy their functional unit for the full execution
#: latency (unpipelined divide/sqrt units).
_UNPIPELINED = frozenset({Opcode.DIV, Opcode.MOD, Opcode.FDIV, Opcode.FSQRT})

#: Functional-unit pools, in the order of ``DetailedSimulator._pools``;
#: loads and stores issue on the memory ports (the last pool), branches
#: and NOPs on the integer ALUs.
_POOL_CLASSES = (OpClass.IALU, OpClass.IMULT, OpClass.FPALU, OpClass.FPMULT)
_MEM_POOL = len(_POOL_CLASSES)

#: The counters fixed by an instruction's static fields.  ``run`` adds
#: them once per executed segment, packed into one int of
#: ``_FIELD_BITS``-bit fields (one big-int add instead of a dozen).
_STATIC_FIELDS = ("instructions", "window_inserts", "regfile_reads",
                  "regfile_writes", "loads", "stores", "l1d_accesses",
                  "branches", "ialu_ops", "imult_ops", "fpalu_ops",
                  "fpmult_ops")
_FIELD_BITS = 48

#: Segments are memoized by ``start << _KEY_BITS | length``; compiled
#: blocks are at most ``MAX_BLOCK_LENGTH`` (256) long.
_KEY_BITS = 9


def _decode_table(program: Program, config: MachineConfig) -> tuple:
    """Per-static-instruction timing rows for ``program`` on ``config``.

    Row ``pc`` is ``(pc, fetch_addr, fetch_block, mem, src1, src2, rd,
    pool, occupancy, latency, branch_kind, target)``: ``mem`` is 0 /
    1 = load / 2 = store; ``occupancy`` is the cycles the instruction
    holds its functional unit (1 when pipelined, the execution latency
    for :data:`_UNPIPELINED` opcodes); absent source registers read the
    always-zero slot ``NUM_REGS`` and an absent destination writes the
    never-read slot ``NUM_REGS + 1`` of the scoreboard; ``branch_kind``
    is :func:`~repro.branch.unit.branch_kind`'s code (0 = conditional,
    2 = JR, tested as literals in ``run``) or -1 for non-branches.  Returns ``(rows, statics)`` where
    ``statics[pc]`` is the instruction's packed contribution to
    :data:`_STATIC_FIELDS`.
    """
    num_regs = NUM_INT_REGS + NUM_FP_REGS
    block_bytes = config.l1i.block_bytes
    rows = []
    statics = []
    for pc, inst in enumerate(program.instructions):
        opclass = inst.opclass
        mem = 1 if inst.is_load else 2 if inst.is_store else 0
        if opclass in (OpClass.LOAD, OpClass.STORE):
            pool = _MEM_POOL
        elif opclass in (OpClass.BRANCH, OpClass.NOP):
            pool = 0
        else:
            pool = _POOL_CLASSES.index(opclass)
        srcs = inst.source_regs() + (num_regs, num_regs)
        kind = (branch_kind(inst.op, inst.is_conditional) if inst.is_branch
                else -1)
        fetch_addr = pc * INST_SIZE
        latency = config.exec_latency(inst.op, opclass)
        rows.append((
            pc, fetch_addr, fetch_addr // block_bytes, mem, srcs[0], srcs[1],
            num_regs + 1 if inst.rd is None else inst.rd, pool,
            latency if inst.op in _UNPIPELINED else 1, latency,
            kind, inst.target))
        ops = [0, 0, 0, 0]
        if not mem and opclass in _POOL_CLASSES:
            ops[_POOL_CLASSES.index(opclass)] = 1
        counts = (1, 1, len(inst.source_regs()), inst.rd is not None,
                  mem == 1, mem == 2, mem != 0, inst.is_branch, *ops)
        statics.append(sum(int(value) << (_FIELD_BITS * field)
                           for field, value in enumerate(counts)))
    return tuple(rows), tuple(statics)


class DetailedSimulator:
    """Timestamp-based out-of-order timing model.

    One instance is created per SMARTS run (or per reference simulation)
    and shares its :class:`MicroarchState` with functional warming.

    Typical use::

        sim = DetailedSimulator(config, microarch)
        sim.begin_period()                      # cold pipeline
        sim.run(core, W)                        # detailed warming
        counters = sim.run(core, U)             # measured sampling unit
    """

    def __init__(self, config: MachineConfig, microarch: MicroarchState) -> None:
        self.config = config
        self.microarch = microarch
        self._num_regs = NUM_INT_REGS + NUM_FP_REGS
        self._program: Program | None = None
        self._rows: tuple = ()
        self._statics: tuple = ()
        self._segments: dict[int, tuple] = {}
        self.begin_period()

    # ------------------------------------------------------------------
    # Period management
    # ------------------------------------------------------------------
    def begin_period(self) -> None:
        """Reset all short-history pipeline state (empty pipeline).

        Called when detailed simulation resumes after a stretch of
        functional simulation.  Long-history state (caches, TLBs, branch
        predictors) is *not* touched — its freshness is governed by the
        warming policy of the surrounding SMARTS run.
        """
        config = self.config
        self._next_fetch_cycle = 0
        self._redirect_cycle = 0
        self._fetch_bw_cycle = -1
        self._fetch_bw_count = 0
        self._last_fetch_block = -1
        # Two extra scoreboard slots: an always-ready source for absent
        # operands and a write-only sink for absent destinations.
        self._reg_ready = [0] * (self._num_regs + 2)
        self._window: deque[int] = deque()
        self._lsq: deque[int] = deque()
        self._last_commit_cycle = 0
        self._commits_in_cycle = 0
        # Each pool is a min-heap of its units' next-free cycles: units
        # are interchangeable, so issue needs only the earliest one.
        self._pools = [[0] * config.fu_counts[opclass]
                       for opclass in _POOL_CLASSES] + [[0] * config.l1d.ports]
        self._mshr_i = MSHRFile(config.l1i.mshr_entries)
        self._mshr_d = MSHRFile(config.l1d.mshr_entries)
        self._store_buffer = StoreBuffer(config.store_buffer_entries)
        self._pending_stores: dict[int, int] = {}

    @property
    def current_cycle(self) -> int:
        """Commit-time clock of the current detailed period."""
        return self._last_commit_cycle

    def _decode(self, program: Program) -> None:
        """Build (once per program) the decode table ``run`` walks."""
        if program is not self._program:
            self._rows, self._statics = _decode_table(program, self.config)
            self._segments = {}
            self._program = program

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, core: FunctionalCore, count: int,
            written: set[int] | None = None) -> PipelineCounters:
        """Simulate up to ``count`` instructions in detail.

        Returns the counters (including elapsed cycles) for exactly the
        instructions processed by this call.  The pipeline clock carries
        over across consecutive ``run`` calls within one period, so a
        warming call followed by a measurement call behaves like one
        continuous stretch of detailed simulation.

        ``written`` (when given) collects the memory addresses stored to
        by this call, letting a full-stream reference pass record the
        same per-stride memory deltas the functional checkpoint builder
        derives from :func:`~repro.functional.warming.warming_pass`.

        The core executes the instructions in segments
        (:meth:`~repro.functional.simulator.FunctionalCore.trace_segments`:
        whole compiled blocks on the fastpath engine, single instructions
        otherwise) and reports only each segment's dynamic values — load
        and store addresses, conditional-branch outcomes, and the next
        pc.  Everything static about an instruction comes from the
        decode table, and the pipeline state lives in locals for the
        duration of the call.  The caches, TLBs and branch unit are
        reached through the kernels of
        :meth:`~repro.memory.hierarchy.MemoryHierarchy.bind` and
        :meth:`~repro.branch.unit.BranchUnit.bind`, bound once per call
        and closed in a ``finally``, which writes their statistics back.
        """
        config = self.config
        self._decode(core.program)
        latencies = self.microarch.hierarchy.latencies()
        l2_latency, mem_latency = config.l2_latency, config.mem_latency
        tlb_penalty = config.tlb_miss_latency
        fetch_width = config.fetch_width
        commit_width = config.commit_width
        ruu_size = config.ruu_size
        lsq_size = config.lsq_size
        l1d_block = config.l1d.block_bytes
        mispredict_penalty = config.branch.mispredict_penalty
        decode_stages = DECODE_STAGES
        single_prediction = config.branch.predictions_per_cycle < 2

        reg_ready = self._reg_ready
        window = self._window
        lsq = self._lsq
        pools = self._pools
        pending_stores = self._pending_stores
        pending_get = pending_stores.get
        mshr_i = self._mshr_i.request
        mshr_d = self._mshr_d.request
        store_push = self._store_buffer.push
        window_pop, window_push = window.popleft, window.append
        lsq_pop, lsq_push = lsq.popleft, lsq.append

        next_fetch = self._next_fetch_cycle
        redirect = self._redirect_cycle
        bw_cycle = self._fetch_bw_cycle
        bw_count = self._fetch_bw_count
        last_fetch_block = self._last_fetch_block
        last_commit = cycles_start = self._last_commit_cycle
        commits_in_cycle = self._commits_in_cycle

        fetch_accesses = l1i_misses = itlb_misses = 0
        l1d_misses = l2_accesses = l2_misses = dtlb_misses = 0
        store_forwards = mispredictions = mshr_stalls = 0
        ruu_stall_cycles = lsq_stall_cycles = store_buffer_stalls = 0
        segment_at = self._segments.get
        statics = 0
        tr: list[int] = []

        access, close_access = self.microarch.hierarchy.bind()
        resolve, close_resolve = self.microarch.branch_unit.bind()
        try:
            for start, length, next_pc in core.trace_segments(count, tr):
                segment = (segment_at(start << _KEY_BITS | length)
                           or self._segment(start, length))
                statics += segment[1]
                k = 0
                for (pc, fetch_addr, fetch_block, mem, src1, src2, rd,
                     pool_index, occupancy, latency, branch_kind,
                     target) in segment[0]:
                    # ------------------------------------------------------
                    # Fetch
                    # ------------------------------------------------------
                    fetch_cycle = (next_fetch if next_fetch >= redirect
                                   else redirect)
                    if fetch_cycle == bw_cycle:
                        if bw_count >= fetch_width:
                            fetch_cycle += 1
                            bw_cycle = fetch_cycle
                            bw_count = 1
                        else:
                            bw_count += 1
                    else:
                        bw_cycle = fetch_cycle
                        bw_count = 1
                    if fetch_block != last_fetch_block:
                        last_fetch_block = fetch_block
                        code = access(fetch_addr, 0)
                        fetch_accesses += 1
                        if code:
                            if code & 1:
                                itlb_misses += 1
                                fetch_cycle += tlb_penalty
                            if code > 1:
                                l1i_misses += 1
                                fetch_cycle, stall = mshr_i(
                                    fetch_block, fetch_cycle,
                                    l2_latency if code < 4 else mem_latency)
                                if stall:
                                    mshr_stalls += 1
                    next_fetch = fetch_cycle

                    # ------------------------------------------------------
                    # Dispatch (decode/rename into RUU and LSQ)
                    # ------------------------------------------------------
                    dispatch_cycle = fetch_cycle + decode_stages
                    if len(window) >= ruu_size:
                        free_at = window_pop()
                        if free_at > dispatch_cycle:
                            ruu_stall_cycles += free_at - dispatch_cycle
                            dispatch_cycle = free_at
                    if mem and len(lsq) >= lsq_size:
                        free_at = lsq_pop()
                        if free_at > dispatch_cycle:
                            lsq_stall_cycles += free_at - dispatch_cycle
                            dispatch_cycle = free_at

                    # ------------------------------------------------------
                    # Operand readiness, then issue on the earliest free unit
                    # ------------------------------------------------------
                    ready_cycle = dispatch_cycle
                    src_ready = reg_ready[src1]
                    if src_ready > ready_cycle:
                        ready_cycle = src_ready
                    src_ready = reg_ready[src2]
                    if src_ready > ready_cycle:
                        ready_cycle = src_ready
                    pool = pools[pool_index]
                    unit_free = pool[0]
                    issue_cycle = (ready_cycle if ready_cycle >= unit_free
                                   else unit_free)

                    # ------------------------------------------------------
                    # Execute
                    # ------------------------------------------------------
                    if mem:
                        address = tr[k]
                        k += 1
                        code = access(address, mem)
                        if code:
                            if code & 1:
                                dtlb_misses += 1
                            if code > 1:
                                l1d_misses += 1
                                l2_accesses += 1
                                if code > 3:
                                    l2_misses += 1
                        if mem == 2:
                            if written is not None:
                                written.add(address)
                            complete_cycle = issue_cycle + 1
                        elif pending_get(address, -1) > issue_cycle:
                            store_forwards += 1
                            complete_cycle = issue_cycle + latencies[code & 1]
                        elif code < 2:
                            complete_cycle = issue_cycle + latencies[code]
                        else:
                            complete_cycle, stall = mshr_d(
                                address // l1d_block, issue_cycle,
                                latencies[code])
                            if stall:
                                mshr_stalls += 1
                    else:
                        complete_cycle = issue_cycle + latency

                    # Functional unit occupancy: pipelined units free the
                    # issue slot next cycle; divides occupy the unit until
                    # completion.
                    heapreplace(pool, issue_cycle + occupancy)
                    reg_ready[rd] = complete_cycle

                    # ------------------------------------------------------
                    # Branch resolution
                    # ------------------------------------------------------
                    if branch_kind >= 0:
                        if branch_kind == 0:
                            taken = tr[k]
                            k += 1
                            mispredicted = resolve(pc, 0, taken,
                                                   target if taken
                                                   else pc + 1)
                        else:
                            taken = 1
                            mispredicted = resolve(pc, branch_kind, 1,
                                                   next_pc if branch_kind == 2
                                                   else target)
                        if mispredicted:
                            mispredictions += 1
                            if complete_cycle + mispredict_penalty > redirect:
                                redirect = complete_cycle + mispredict_penalty
                        elif taken and single_prediction:
                            # A correctly predicted taken branch ends the fetch
                            # group; the target is fetched the following cycle.
                            if fetch_cycle + 1 > redirect:
                                redirect = fetch_cycle + 1

                    # ------------------------------------------------------
                    # Commit (in order, bounded by commit width)
                    # ------------------------------------------------------
                    commit_cycle = complete_cycle + 1
                    if commit_cycle <= last_commit:
                        commit_cycle = last_commit
                        if commits_in_cycle >= commit_width:
                            commit_cycle += 1
                            commits_in_cycle = 1
                        else:
                            commits_in_cycle += 1
                    else:
                        commits_in_cycle = 1

                    if mem == 2:
                        completion, stall = store_push(commit_cycle,
                                                       latencies[code])
                        if stall:
                            store_buffer_stalls += 1
                            commit_cycle += stall
                            commits_in_cycle = 1
                        pending_stores[address] = completion
                        if len(pending_stores) > 2048:
                            stale = [a for a, t in pending_stores.items()
                                     if t <= commit_cycle]
                            for stale_address in stale:
                                del pending_stores[stale_address]

                    last_commit = commit_cycle
                    window_push(commit_cycle)
                    if mem:
                        lsq_push(commit_cycle)
        finally:
            close_access()
            close_resolve()

        self._next_fetch_cycle = next_fetch
        self._redirect_cycle = redirect
        self._fetch_bw_cycle = bw_cycle
        self._fetch_bw_count = bw_count
        self._last_fetch_block = last_fetch_block
        self._last_commit_cycle = last_commit
        self._commits_in_cycle = commits_in_cycle

        counters = PipelineCounters(
            cycles=last_commit - cycles_start,
            fetch_accesses=fetch_accesses, l1i_misses=l1i_misses,
            itlb_misses=itlb_misses, l1d_misses=l1d_misses,
            l2_accesses=l2_accesses, l2_misses=l2_misses,
            dtlb_misses=dtlb_misses, store_forwards=store_forwards,
            mispredictions=mispredictions,
            ruu_stall_cycles=ruu_stall_cycles,
            lsq_stall_cycles=lsq_stall_cycles,
            store_buffer_stalls=store_buffer_stalls,
            mshr_stalls=mshr_stalls)
        mask = (1 << _FIELD_BITS) - 1
        for field, name in enumerate(_STATIC_FIELDS):
            setattr(counters, name, statics >> (_FIELD_BITS * field) & mask)
        return counters

    def _segment(self, start: int, length: int) -> tuple:
        """The decode rows and packed static counts of one segment shape
        (memoized for the decode table's lifetime)."""
        end = start + length
        segment = (self._rows[start:end], sum(self._statics[start:end]))
        self._segments[start << _KEY_BITS | length] = segment
        return segment

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def simulate(self, core: FunctionalCore, count: int | None = None) -> PipelineCounters:
        """Simulate ``count`` instructions (or to completion) in one period."""
        self.begin_period()
        budget = count if count is not None else 1 << 62
        return self.run(core, budget)
