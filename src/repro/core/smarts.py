"""The SMARTS sampling simulation engine (Section 3 of the paper).

The engine orchestrates one sampling simulation run: it alternates
between fast-forwarding (functional simulation, optionally with
functional warming) and detailed simulation (W instructions of detailed
warming followed by a measured sampling unit of U instructions), exactly
as Figure 1 of the paper illustrates:

    |---- functional simulation of U(k-1) - W instructions ----|
    |-- detailed warming, W instructions (not measured) --|
    |-- detailed simulation + measurement of U instructions --|
    ... repeated for the n sampling units of the systematic sample ...

The measurement loop lives in :class:`MeasurementSession`, which is
*resumable*: a run can be extended with more sampling units after
inspecting the estimate so far (the adaptive run-to-target-CI strategy
drives this).  :meth:`SmartsEngine.run` is the one-shot wrapper — one
session, one batch.

The engine is metric-agnostic at measurement time: every unit's cycle
count and energy are recorded, and CPI / EPI estimates (with their
coefficients of variation and confidence intervals) are derived by
:class:`~repro.core.estimates.SmartsRunResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from repro.config.machines import MachineConfig
from repro.core.estimates import SmartsRunResult, UnitRecord
from repro.core.sampling import SamplingPlan, SamplingUnit
from repro.detailed.pipeline import DetailedSimulator
from repro.detailed.state import MicroarchState
from repro.energy.wattch import EnergyModel
from repro.functional.engine import create_core
from repro.functional.warming import FunctionalWarmer
from repro.isa.program import Program


class MeasurementSession:
    """A resumable SMARTS measurement over one program and machine.

    The session owns the live simulation state (functional core,
    microarchitectural state, detailed simulator) and accepts sampling
    units in *batches* via :meth:`extend`.  Batches may interleave with
    units measured earlier — progressive refinement adds units at
    stream positions the core has already passed — and the session
    re-enters the stream (fresh functional replay from instruction 0,
    or a checkpoint restore) whenever a batch requires it.

    The correctness contract is *golden equivalence*: after any
    sequence of ``extend`` calls, :meth:`result` is unit-for-unit
    bit-identical to a one-shot :meth:`SmartsEngine.run` over the same
    final unit set.  Two properties of the simulator make this hold:

    * long-history state (caches, TLBs, branch predictors) evolves
      identically under functional warming and detailed simulation, so
      skipping an already-measured unit functionally reproduces the
      state a one-shot run reaches by measuring it in detail;
    * short-history pipeline state is reset (``begin_period``) exactly
      when fast-forwarding skipped instructions.  Units closer together
      than W keep the pipeline primed across them in a one-shot run, so
      the session re-executes such *context chains* in detail (without
      re-recording them) before measuring a new unit inside one.

    Only the first measurement of each unit enters
    ``instructions_measured`` (so it equals what the equivalent one-shot
    run reports); context replays and re-measurements count as detailed
    warming, and re-entry replays as fast-forwarding — all the
    incremental-execution overhead stays visible in the bookkeeping,
    just not conflated with the statistical sample's size.
    """

    def __init__(
        self,
        program: Program,
        machine: MachineConfig,
        benchmark_length: int,
        unit_size: int,
        detailed_warming: int,
        functional_warming: bool = True,
        measure_energy: bool = True,
        cold_start: bool = True,
        checkpoints=None,
    ):
        if unit_size <= 0:
            raise ValueError("unit_size must be positive")
        if detailed_warming < 0:
            raise ValueError("detailed_warming must be non-negative")
        self.program = program
        self.machine = machine
        self.benchmark_length = benchmark_length
        self.unit_size = unit_size
        self.detailed_warming = detailed_warming
        self.functional_warming = functional_warming
        self.measure_energy = measure_energy
        self.cold_start = cold_start

        if checkpoints is not None and (not functional_warming or not cold_start):
            checkpoints = None
        if checkpoints is not None and not checkpoints.matches(program, machine):
            raise ValueError(
                "checkpoint set was built for a different program or "
                "machine warm geometry; rebuild it (or run without "
                "checkpoints)")
        self.checkpoints = checkpoints

        self._energy_model = EnergyModel(machine) if measure_energy else None
        #: Every unit ever handed to extend(), by index (measured or not).
        self._selected: dict[int, SamplingUnit] = {}
        #: Measurements of units that produced a record.
        self._records: dict[int, UnitRecord] = {}
        #: Stream position where the program halted, once known.
        self._halt_position: int | None = None
        self._bookkeeping = SmartsRunResult(
            benchmark=program.name,
            machine=machine.name,
            unit_size=unit_size,
            interval=0,
            offset=0,
            detailed_warming=detailed_warming,
            functional_warming=functional_warming,
            benchmark_length=benchmark_length,
        )
        self._enter_stream()

    # ------------------------------------------------------------------
    # Stream entry / re-entry
    # ------------------------------------------------------------------
    def _enter_stream(self) -> None:
        """(Re)start the simulated stream from instruction 0.

        Functional warming is deterministic, so a fresh core replayed
        from the start reproduces the cold-start warming trajectory a
        one-shot run follows — which is also the trajectory checkpoint
        snapshots capture.
        """
        self._core = create_core(self.program)
        self._microarch = MicroarchState(self.machine)
        if self.cold_start:
            self._microarch.flush()
        self._detailed = DetailedSimulator(self.machine, self._microarch)
        self._warmer = (FunctionalWarmer(self._microarch)
                        if self.functional_warming else None)
        self._pipeline_stale = True

    @property
    def position(self) -> int:
        """Current stream position (instructions retired)."""
        return self._core.instructions_retired

    @property
    def measured_indices(self) -> frozenset[int]:
        """Indices of units that have produced a measurement."""
        return frozenset(self._records)

    @property
    def population_size(self) -> int:
        return self.benchmark_length // self.unit_size

    # ------------------------------------------------------------------
    # Batch measurement
    # ------------------------------------------------------------------
    def extend(self, units: Iterable[SamplingUnit]) -> int:
        """Measure the given units (skipping any already measured).

        Units may lie anywhere in the stream; the session replays or
        restores as needed so every measurement is bit-identical to the
        one a one-shot run over the whole cumulative unit set would
        record.  Returns the number of units newly measured.
        """
        population = self.population_size
        new_indices: set[int] = set()
        for unit in units:
            if unit.index >= population or unit.index in self._selected:
                continue
            if unit.size != self.unit_size or unit.start != unit.index * self.unit_size:
                raise ValueError(
                    f"unit {unit.index} does not match the session geometry "
                    f"(U={self.unit_size})")
            self._selected[unit.index] = unit
            new_indices.add(unit.index)
        if not new_indices:
            return 0

        dirty, needed = self._plan_pass(new_indices)
        to_execute = [self._selected[index] for index in sorted(needed)]

        # Re-enter the stream if the core is already past the first
        # unit's entry point (its chain head's warming start).
        entry = max(to_execute[0].start - self.detailed_warming, 0)
        if self.position > entry:
            self._enter_stream()
        if self._halt_position is not None:
            # The stream ends before these units begin.
            to_execute = [unit for unit in to_execute
                          if unit.start < self._halt_position]

        # Linked chains: a unit whose warming starts by the end of the
        # previous one continues its stretch of detailed simulation.
        chains: list[list[SamplingUnit]] = []
        for unit in to_execute:
            if chains and (unit.start - self.detailed_warming
                           <= chains[-1][-1].end):
                chains[-1].append(unit)
            else:
                chains.append([unit])

        measured = 0
        for chain in chains:
            measured += self._run_chain(chain, dirty, new_indices)
            if self._core.halted:
                self._note_halt()
                break
        return measured

    def _plan_pass(self, new_indices: set[int]) -> tuple[set[int], set[int]]:
        """Decide which cumulative units this pass must run in detail.

        Two linear scans over the cumulative (sorted) unit set, with
        *linked* meaning consecutive units closer than W — the exact
        condition under which a one-shot run does not reset the pipeline
        between them:

        * ``dirty`` (ascending scan): units whose measurement this pass
          must (re)record.  New units are dirty, and dirtiness
          propagates up through links — inserting a unit within W of an
          already-measured successor changes that successor's warming
          gap and pipeline priming, so its stored record no longer
          matches the merged one-shot run and must be re-measured.
        * ``needed`` (descending scan): dirty units plus the clean
          context units below them in a linked chain, which are
          re-executed (without re-recording) purely to reconstruct the
          pipeline state the merged one-shot run would carry in.
        """
        warming = self.detailed_warming
        ordered = [self._selected[i] for i in sorted(self._selected)]

        dirty: set[int] = set()
        prev = None
        for unit in ordered:
            if unit.index in new_indices or (
                    prev is not None and prev.index in dirty
                    and prev.end >= unit.start - warming):
                dirty.add(unit.index)
            prev = unit

        needed: set[int] = set()
        succ = None
        for unit in reversed(ordered):
            if unit.index in dirty or (
                    succ is not None and succ.index in needed
                    and unit.end >= succ.start - warming):
                needed.add(unit.index)
            succ = unit
        return dirty, needed

    def _run_chain(self, chain: list[SamplingUnit], dirty: set[int],
                   new_indices: set[int]) -> int:
        """Fast-forward to a linked chain of units and run it in detail.

        This is the classic SMARTS loop body, once per chain: fast-forward
        (or restore) to the head's detailed-warming window, then one
        detailed stretch with the windows ``[W₁, U₁, W₂, U₂, …]``, where
        ``Wᵢ`` is the warming gap before unit ``i`` (at most W).  A chain
        has no fast-forward inside it, so the pipeline stays primed
        across its units, as in a continuous detailed run.

        A unit not in ``dirty`` is executed purely to reconstruct
        pipeline context (its measurement already exists); a dirty unit
        not in ``new_indices`` is re-measured because a new neighbour
        changed its context.  Only fresh measurements charge
        ``instructions_measured`` — everything else is warming work.
        Records the chain's measurements and returns how many are fresh.
        """
        core, result = self._core, self._bookkeeping
        position = core.instructions_retired
        if position >= self.benchmark_length or core.halted:
            self._note_halt()
            return 0

        # Fast-forward up to the start of the detailed-warming window,
        # first jumping over as much of the gap as a checkpoint covers.
        warm_start = max(chain[0].start - self.detailed_warming, position)
        if self.checkpoints is not None:
            index = self.checkpoints.restore_point(warm_start)
            if index is not None and self.checkpoints.position(index) > position:
                skipped = self.checkpoints.restore_into(
                    index, core, self._microarch)
                result.instructions_restored += skipped
                result.checkpoint_restores += 1
                self._pipeline_stale = True
                position = core.instructions_retired
        fast_forward = warm_start - position
        if fast_forward > 0:
            t0 = time.perf_counter()
            if self._warmer is not None:
                executed = core.run_warmed(fast_forward, self._warmer)
            else:
                executed = core.run(fast_forward)
            result.seconds_fastforward += time.perf_counter() - t0
            result.instructions_fastforwarded += executed
            self._pipeline_stale = True
            if executed < fast_forward:
                self._note_halt()  # program ended during fast-forward
                return 0

        # The pipeline's short-history state is only reset when
        # functional fast-forwarding actually skipped instructions;
        # back-to-back units (k == 1, the full-detailed degenerate case)
        # keep the pipeline primed, as a real continuous detailed run
        # would.
        if self._pipeline_stale:
            self._detailed.begin_period()
            self._pipeline_stale = False
        windows = []
        end = core.instructions_retired
        for unit in chain:
            windows += (unit.start - end, unit.size)
            end = unit.end
        counters: list = []
        t0 = time.perf_counter()
        self._detailed.run(core, windows, counters=counters)
        result.seconds_detailed += time.perf_counter() - t0

        # Detailed warming is not measured; a halt leaves every later
        # window empty.
        measured = 0
        for unit, warm_size, warm, unit_counters in zip(
                chain, windows[::2], counters[::2], counters[1::2]):
            result.instructions_detailed_warming += warm.instructions
            executed = unit_counters.instructions
            if warm.instructions < warm_size or executed == 0:
                break
            if unit.index not in dirty:
                result.instructions_detailed_warming += executed
                continue
            if unit.index in new_indices:
                result.instructions_measured += executed
                measured += 1
            else:
                result.instructions_detailed_warming += executed
            energy = (self._energy_model.total_energy(unit_counters)
                      if self._energy_model else 0.0)
            self._records[unit.index] = UnitRecord(
                index=unit.index,
                instructions=executed,
                cycles=unit_counters.cycles,
                energy=energy,
                truncated=executed < unit.size,
            )
        return measured

    def _note_halt(self) -> None:
        if self._core.halted and self._halt_position is None:
            self._halt_position = self._core.instructions_retired

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self, interval: int = 0, offset: int = 0) -> SmartsRunResult:
        """The cumulative run result over every unit measured so far.

        ``interval``/``offset`` annotate the systematic design when the
        caller has one (non-systematic unit sets record the degenerate
        zeros, as stratified plans do).
        """
        book = self._bookkeeping
        return SmartsRunResult(
            benchmark=book.benchmark,
            machine=book.machine,
            unit_size=book.unit_size,
            interval=interval,
            offset=offset,
            detailed_warming=book.detailed_warming,
            functional_warming=book.functional_warming,
            units=[self._records[i] for i in sorted(self._records)],
            benchmark_length=book.benchmark_length,
            instructions_measured=book.instructions_measured,
            instructions_detailed_warming=book.instructions_detailed_warming,
            instructions_fastforwarded=book.instructions_fastforwarded,
            instructions_restored=book.instructions_restored,
            checkpoint_restores=book.checkpoint_restores,
            seconds_detailed=book.seconds_detailed,
            seconds_fastforward=book.seconds_fastforward,
        )


@dataclass
class SmartsEngine:
    """Runs SMARTS sampling simulations on one machine configuration.

    ``checkpoints`` (a :class:`repro.checkpoint.CheckpointSet`, here or
    per-``run``) lets the engine *restore* pre-warmed state at each
    sampling unit instead of fast-forwarding from wherever the previous
    unit ended.  Because functional warming and detailed simulation
    maintain long-history state identically, restored runs are
    bit-identical to serial ones in every per-unit measurement; only the
    fast-forward bookkeeping differs.
    """

    machine: MachineConfig
    measure_energy: bool = True
    checkpoints: object | None = None

    def start(
        self,
        program: Program,
        benchmark_length: int,
        unit_size: int,
        detailed_warming: int,
        functional_warming: bool = True,
        cold_start: bool = True,
        checkpoints=None,
    ) -> MeasurementSession:
        """Open a resumable measurement session (see MeasurementSession).

        ``checkpoints`` overrides the engine's own set; either is used
        only for cold-start runs with functional warming (snapshots
        capture the cold-start warming trajectory, which other modes do
        not follow).
        """
        if checkpoints is None:
            checkpoints = self.checkpoints
        return MeasurementSession(
            program=program,
            machine=self.machine,
            benchmark_length=benchmark_length,
            unit_size=unit_size,
            detailed_warming=detailed_warming,
            functional_warming=functional_warming,
            measure_energy=self.measure_energy,
            cold_start=cold_start,
            checkpoints=checkpoints,
        )

    def run(
        self,
        program: Program,
        plan: SamplingPlan,
        benchmark_length: int,
        cold_start: bool = True,
        checkpoints=None,
    ) -> SmartsRunResult:
        """Execute one SMARTS sampling run (a single-batch session).

        Args:
            program: The benchmark program.
            plan: Any :class:`~repro.core.sampling.SamplingPlan`
                (systematic U/k/j, random, or stratified) plus its
                warming parameters.
            benchmark_length: Dynamic instruction count of the benchmark
                (the population is ``benchmark_length // U`` units).
            cold_start: When True (default) the run begins with cold
                microarchitectural state, as a fresh simulator invocation
                would.
            checkpoints: Optional checkpoint set overriding the engine's
                own.  Used only for cold-start runs with functional
                warming (snapshots capture the cold-start warming
                trajectory, which other modes do not follow).

        Returns:
            A :class:`SmartsRunResult` with per-unit measurements and
            bookkeeping of how much work each simulation mode performed.
        """
        session = self.start(
            program,
            benchmark_length,
            unit_size=plan.unit_size,
            detailed_warming=plan.detailed_warming,
            functional_warming=plan.functional_warming,
            cold_start=cold_start,
            checkpoints=checkpoints,
        )
        session.extend(plan.units(benchmark_length))
        return session.result(
            # Non-systematic plans have no fixed interval/offset; record
            # the degenerate values so results stay uniform downstream.
            interval=getattr(plan, "interval", 0),
            offset=getattr(plan, "offset", 0),
        )


def run_smarts(
    program: Program,
    machine: MachineConfig,
    plan: SamplingPlan,
    benchmark_length: int,
    measure_energy: bool = True,
    checkpoints=None,
) -> SmartsRunResult:
    """Convenience wrapper: run one SMARTS sampling simulation."""
    engine = SmartsEngine(machine=machine, measure_energy=measure_energy)
    return engine.run(program, plan, benchmark_length, checkpoints=checkpoints)
