"""Program representation: a finalized static instruction sequence.

Programs are produced by :class:`repro.isa.builder.ProgramBuilder` (or by
the workload generators in :mod:`repro.workloads`).  A finalized program
has all branch targets resolved to static instruction indices and carries
the initial contents of its data segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode

#: Size in bytes of every memory word in the ISA.
WORD_SIZE = 8


class ProgramError(Exception):
    """Raised when a program is malformed (undefined label, bad target)."""


@dataclass
class Program:
    """A finalized program.

    Attributes:
        name: Human readable program name (used as cache keys by the
            experiment harness, so it should be unique per workload).
        instructions: The static instruction sequence.  Branch targets
            are static indices into this list.
        data: Initial data segment contents, ``{byte address: value}``.
            Values may be ints or floats.
        entry: Index of the first instruction to execute.
        labels: Resolved label table (useful for debugging and for basic
            block analysis in :mod:`repro.simpoint`).
    """

    name: str
    instructions: list[Instruction]
    data: dict[int, float] = field(default_factory=dict)
    entry: int = 0
    labels: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        n = len(self.instructions)
        if n == 0:
            raise ProgramError(f"program {self.name!r} has no instructions")
        if not 0 <= self.entry < n:
            raise ProgramError(
                f"program {self.name!r} entry point {self.entry} out of range"
            )
        for idx, inst in enumerate(self.instructions):
            if inst.is_branch and inst.op not in (Opcode.JR,):
                if inst.target is None:
                    raise ProgramError(
                        f"{self.name!r}[{idx}]: branch without target"
                    )
                if isinstance(inst.target, str):
                    raise ProgramError(
                        f"{self.name!r}[{idx}]: unresolved label {inst.target!r}"
                    )
                if not 0 <= inst.target < n:
                    raise ProgramError(
                        f"{self.name!r}[{idx}]: branch target {inst.target} "
                        f"out of range (program has {n} instructions)"
                    )

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def static_size(self) -> int:
        """Number of static instructions."""
        return len(self.instructions)

    def basic_block_leaders(self) -> list[int]:
        """Return the sorted list of static basic block leader indices.

        A leader is the program entry, any branch target, and any
        instruction that follows a control-flow instruction.  Used by the
        SimPoint baseline to build basic block vectors.
        """
        leaders = {self.entry}
        for idx, inst in enumerate(self.instructions):
            if inst.is_branch:
                if isinstance(inst.target, int):
                    leaders.add(inst.target)
                if idx + 1 < len(self.instructions):
                    leaders.add(idx + 1)
        return sorted(leaders)

    def basic_block_map(self) -> dict[int, int]:
        """Map every static instruction index to its basic block id.

        Basic block ids are dense integers assigned in ascending leader
        order.
        """
        leaders = self.basic_block_leaders()
        block_of: dict[int, int] = {}
        block_id = -1
        leader_set = set(leaders)
        for idx in range(len(self.instructions)):
            if idx in leader_set:
                block_id += 1
            block_of[idx] = max(block_id, 0)
        return block_of

    def describe(self) -> str:
        """Short human readable summary of the program."""
        return (
            f"Program {self.name!r}: {len(self.instructions)} static "
            f"instructions, {len(self.data)} initialized data words, "
            f"{len(self.basic_block_leaders())} basic blocks"
        )
