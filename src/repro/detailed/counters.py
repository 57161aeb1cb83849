"""Event counters collected by the detailed timing model.

The counters serve two purposes: they are the activity factors consumed
by the Wattch-style energy model (:mod:`repro.energy`), and they give the
tests observable internal behaviour (e.g. "a pointer-chasing loop misses
in L1D", "a biased branch is predicted well").
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(slots=True)
class PipelineCounters:
    """Per-measurement-interval pipeline event counts."""

    instructions: int = 0
    cycles: int = 0

    fetch_accesses: int = 0
    l1i_misses: int = 0
    itlb_misses: int = 0

    loads: int = 0
    stores: int = 0
    l1d_accesses: int = 0
    l1d_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    dtlb_misses: int = 0
    store_forwards: int = 0

    branches: int = 0
    mispredictions: int = 0

    ialu_ops: int = 0
    imult_ops: int = 0
    fpalu_ops: int = 0
    fpmult_ops: int = 0

    regfile_reads: int = 0
    regfile_writes: int = 0
    window_inserts: int = 0

    ruu_stall_cycles: int = 0
    lsq_stall_cycles: int = 0
    store_buffer_stalls: int = 0
    mshr_stalls: int = 0

    @property
    def cpi(self) -> float:
        """Cycles per committed instruction over the counted interval."""
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    def add(self, other: "PipelineCounters") -> None:
        """Accumulate ``other`` into this counter set in place."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def copy(self) -> "PipelineCounters":
        return PipelineCounters(**{f.name: getattr(self, f.name) for f in fields(self)})

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}
