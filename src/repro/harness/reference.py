"""Reference (full-stream detailed) simulation with on-disk caching.

The paper's evaluation rests on a reference data set: "we collect
cycle-by-cycle traces of instruction commits in sim-outorder for the
entire length of each benchmark" (Section 3.2).  This module produces
the equivalent for our synthetic suite — a full detailed simulation of
every benchmark with per-chunk cycle and energy traces — and caches the
result in the artifact store's ``reftrace`` namespace because the
experiments (Figures 2, 3, 5, 6, 7, 8 and Tables 4, 5) all reuse it.

The reference pass can also *capture checkpoints* while it runs
(``capture_units``): warm microarchitectural state evolves identically
under functional warming and detailed simulation (the path-independence
contract the checkpoint subsystem rests on), so the full-stream
detailed pass records the same per-stride snapshots a functional
checkpoint build would — one warm pass populates both the ``reftrace``
and ``checkpoint`` namespaces, and study workflows skip the separate
functional build pass entirely.
"""

from __future__ import annotations

import io
import time
from pathlib import Path

import numpy as np

from repro.config.machines import MachineConfig
from repro.core.estimates import ReferenceResult
from repro.core.procedure import recommended_warming
from repro.detailed.counters import PipelineCounters
from repro.detailed.pipeline import DetailedSimulator
from repro.detailed.state import MicroarchState
from repro.energy.wattch import EnergyModel
from repro.functional.engine import create_core
from repro.functional.warming import _boundaries
from repro.isa.program import Program
from repro.store import ArtifactStore, record_pass, register_artifact_kind
from repro.checkpoint.snapshot import (
    machine_warm_fingerprint,
    program_fingerprint,
)
from repro.checkpoint.store import (
    DEFAULT_STRIDE,
    CheckpointSet,
    CheckpointStore,
    SnapshotRecorder,
    snapshot_offsets,
)

#: Bump when simulator behaviour changes in a way that invalidates caches.
CACHE_VERSION = 3

#: Default per-chunk granularity of the reference trace (instructions).
DEFAULT_CHUNK_SIZE = 25

#: Most trace chunks one detailed call covers: a call holds one counter
#: set per chunk, so a whole stream runs in several calls.
CALL_CHUNKS = 1024

register_artifact_kind("reftrace", ".npz", f"--v{CACHE_VERSION}.npz")


def _program_digest(program: Program) -> str:
    """Short content digest of a program (code + data), for cache keys.

    The same benchmark name built at a different scale (or after a
    workload change) produces different code/data and therefore a
    different digest, so stale cached traces are never reused.
    """
    import hashlib

    hasher = hashlib.sha256()
    for inst in program.instructions:
        hasher.update(str(inst).encode())
    for addr in sorted(program.data):
        hasher.update(f"{addr}:{program.data[addr]}".encode())
    return hasher.hexdigest()[:12]


def _cache_path(program: Program, machine: str, chunk_size: int,
                cache_dir: Path) -> Path:
    safe = program.name.replace("/", "_")
    digest = _program_digest(program)
    return (cache_dir
            / f"{safe}--{machine}--c{chunk_size}--{digest}--v{CACHE_VERSION}.npz")


def run_reference(
    program: Program,
    machine: MachineConfig,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    use_cache: bool = True,
    cache_dir: Path | None = None,
    capture_units: int | None = None,
    checkpoint_store: CheckpointStore | None = None,
) -> ReferenceResult:
    """Run (or load) the full-stream detailed simulation of a benchmark.

    Returns a :class:`ReferenceResult` whose ``chunk_cycles`` /
    ``chunk_energy`` arrays hold the cycle and energy cost of every
    ``chunk_size``-instruction slice of the stream, enabling CPI / EPI
    aggregation at any unit size that is a multiple of ``chunk_size``.

    ``capture_units`` (a sampling-unit size) additionally captures the
    checkpoint set of that unit size *during* the reference pass and
    stores it through ``checkpoint_store`` (default: the shared store),
    unless a matching set already exists.  The snapshots land on the
    same positions a functional build would use, and since warm state
    evolves identically under both paths, the stored set is
    bit-equivalent to a functionally built one.  Capture ends a
    detailed call at each snapshot position; per-chunk counters
    accumulate across the split, so the trace itself is unchanged.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    store = ArtifactStore(
        overrides={"reftrace": cache_dir} if cache_dir else None)
    path = _cache_path(program, machine.name, chunk_size,
                       store.namespace_dir("reftrace"))

    if use_cache:
        blob = store.read_path(path)
        if blob is not None:
            data = np.load(io.BytesIO(blob))
            return ReferenceResult(
                benchmark=program.name,
                machine=machine.name,
                instructions=int(data["instructions"]),
                cycles=int(data["cycles"]),
                energy=float(data["energy"]),
                chunk_size=chunk_size,
                chunk_cycles=data["chunk_cycles"],
                chunk_energy=data["chunk_energy"],
                seconds=float(data["seconds"]),
            )

    core = create_core(program)
    microarch = MicroarchState(machine)
    detailed = DetailedSimulator(machine, microarch)
    energy_model = EnergyModel(machine)

    # Snapshot capture piggybacks on the pass: same boundary grid as
    # build_checkpoints (stride plus the detailed-warming offset), with
    # the stored-address set feeding the per-stride memory deltas.
    recorder = None
    written: set[int] | None = None
    next_snap = None
    if capture_units is not None and capture_units > 0:
        if checkpoint_store is None:
            checkpoint_store = CheckpointStore()
        if (checkpoint_store.enabled
                and checkpoint_store.get(program, machine,
                                         capture_units) is None):
            ckpt_chunk = capture_units * DEFAULT_STRIDE
            offsets = snapshot_offsets(ckpt_chunk,
                                       recommended_warming(machine))
            boundary_iter = _boundaries(0, ckpt_chunk, offsets)
            next_snap = next(boundary_iter)
            recorder = SnapshotRecorder()
            written = set()

    chunk_cycles: list[int] = []
    chunk_energy: list[float] = []
    total_instructions = 0
    total_cycles = 0
    total_energy = 0.0

    def add_chunk(counters: PipelineCounters) -> None:
        nonlocal total_instructions, total_cycles, total_energy
        chunk_total_energy = energy_model.total_energy(counters)
        total_instructions += counters.instructions
        total_cycles += counters.cycles
        total_energy += chunk_total_energy
        # A trailing partial chunk contributes to the full-stream totals
        # but is excluded from the per-chunk trace so that the trace
        # aligns exactly with whole sampling units.
        if counters.instructions == chunk_size:
            chunk_cycles.append(counters.cycles)
            chunk_energy.append(chunk_total_energy)

    start = time.perf_counter()
    detailed.begin_period()
    position = 0
    chunk = None  # the counters of the chunk in progress
    halted = False
    while not (halted or core.halted):
        # One detailed call per snapshot window (at most CALL_CHUNKS
        # chunks), with a window per trace chunk, split at the snapshot
        # position.  PipelineCounters telescope exactly across windows
        # and calls (cycles are commit-clock differences), so the chunk
        # counters — and therefore the trace — are bit-identical with
        # capture on or off.
        stop = position + CALL_CHUNKS * chunk_size
        if next_snap is not None and next_snap < stop:
            stop = next_snap
        windows = []
        edge = position
        while edge < stop:
            windows.append(min(chunk_size - edge % chunk_size, stop - edge))
            edge += windows[-1]
        pieces: list[PipelineCounters] = []
        detailed.run(core, windows, written, pieces)
        for size, piece in zip(windows, pieces):
            position += piece.instructions
            if chunk is None:
                chunk = piece
            else:
                chunk.add(piece)
            if piece.instructions < size:
                halted = True  # the program halted in this window
                break
            if position % chunk_size == 0:
                add_chunk(chunk)
                chunk = None
        if recorder is not None and position == next_snap:
            recorder.capture(core, microarch, position, written)
            written = set()
            next_snap = next(boundary_iter)
    if chunk is not None and chunk.instructions:
        add_chunk(chunk)
    seconds = time.perf_counter() - start
    record_pass("reference", program.name, total_instructions)

    if recorder is not None and core.state.halted:
        # Mirrors build_checkpoints' refusal to store a partial set: a
        # non-halting pass (impossible here — the loop above runs to
        # halt) would leave snapshots past a restore anyone performs.
        checkpoint_store.put(CheckpointSet(
            benchmark=program.name,
            machine=machine.name,
            program_hash=program_fingerprint(program),
            machine_hash=machine_warm_fingerprint(machine),
            unit_size=capture_units,
            stride=DEFAULT_STRIDE,
            benchmark_length=core.instructions_retired,
            snapshots=recorder.snapshots,
        ), program, machine)

    result = ReferenceResult(
        benchmark=program.name,
        machine=machine.name,
        instructions=total_instructions,
        cycles=total_cycles,
        energy=total_energy,
        chunk_size=chunk_size,
        chunk_cycles=np.asarray(chunk_cycles, dtype=np.int64),
        chunk_energy=np.asarray(chunk_energy, dtype=float),
        seconds=seconds,
    )

    if use_cache:
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer,
            instructions=result.instructions,
            cycles=result.cycles,
            energy=result.energy,
            chunk_cycles=result.chunk_cycles,
            chunk_energy=result.chunk_energy,
            seconds=result.seconds,
        )
        store.write_path(path, buffer.getvalue())
    return result


def unit_cpi_trace(reference: ReferenceResult, unit_size: int) -> np.ndarray:
    """Per-unit CPI values of the reference trace at a given unit size.

    ``unit_size`` must be a multiple of the reference chunk size; the
    trailing partial unit (if any) is dropped, mirroring how the sampling
    population is defined as whole units.
    """
    if unit_size % reference.chunk_size != 0:
        raise ValueError(
            f"unit_size {unit_size} must be a multiple of the reference "
            f"chunk size {reference.chunk_size}")
    chunks_per_unit = unit_size // reference.chunk_size
    cycles = reference.chunk_cycles
    usable = (len(cycles) // chunks_per_unit) * chunks_per_unit
    if usable == 0:
        raise ValueError("reference trace shorter than one unit")
    grouped = cycles[:usable].reshape(-1, chunks_per_unit).sum(axis=1)
    return grouped / float(unit_size)


def unit_epi_trace(reference: ReferenceResult, unit_size: int) -> np.ndarray:
    """Per-unit EPI values of the reference trace at a given unit size."""
    if unit_size % reference.chunk_size != 0:
        raise ValueError(
            f"unit_size {unit_size} must be a multiple of the reference "
            f"chunk size {reference.chunk_size}")
    chunks_per_unit = unit_size // reference.chunk_size
    energy = reference.chunk_energy
    usable = (len(energy) // chunks_per_unit) * chunks_per_unit
    if usable == 0:
        raise ValueError("reference trace shorter than one unit")
    grouped = energy[:usable].reshape(-1, chunks_per_unit).sum(axis=1)
    return grouped / float(unit_size)
