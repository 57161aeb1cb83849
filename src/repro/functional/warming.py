"""Functional warming: keeping long-history microarchitectural state warm.

During fast-forwarding between sampling units, SMARTS can either update
nothing but architectural state (plain functional simulation) or also
keep the cache hierarchy, TLBs and branch predictors warm (functional
warming, Section 4.1 of the paper).  The :class:`FunctionalWarmer`
implements the latter: it observes every dynamic instruction produced by
the functional core and applies the corresponding state updates to the
shared :class:`~repro.detailed.state.MicroarchState`.

The paper reports that functional warming adds roughly 75% overhead over
plain functional simulation in SMARTSim; :data:`WARMING_OVERHEAD` records
that reference value for the analytical performance model.
"""

from __future__ import annotations

from repro.isa.instruction import DynInst

#: Paper-reported relative overhead of functional warming over plain
#: functional simulation (Section 4.1): "functional warming operations
#: introduce an overhead of approximately 75%".
WARMING_OVERHEAD = 0.75

#: Bytes per instruction for forming fetch addresses (matches
#: :data:`repro.functional.simulator.INST_SIZE`).
from repro.functional.simulator import INST_SIZE  # noqa: E402


class FunctionalWarmer:
    """Applies warming updates for each functionally executed instruction."""

    def __init__(self, microarch) -> None:
        """``microarch`` is a :class:`repro.detailed.state.MicroarchState`."""
        self.microarch = microarch
        self.instructions_warmed = 0

    def observe(self, dyn: DynInst) -> None:
        """Warm caches, TLBs and branch predictors with one instruction."""
        access = self.microarch.hierarchy.access_code
        access(dyn.pc * INST_SIZE, 0)
        if dyn.mem_addr is not None:
            access(dyn.mem_addr, 2 if dyn.is_store else 1)
        if dyn.is_branch:
            self.microarch.branch_unit.warm(dyn)
        self.instructions_warmed += 1

    # The warmer is designed to be passed directly as the per-instruction
    # callback of :meth:`repro.functional.simulator.FunctionalCore.run`.
    __call__ = observe


def _boundaries(start: int, chunk_size: int, offsets: tuple[int, ...]):
    """Ascending snapshot positions: the stride grid plus shifted points.

    Yields ``start + i*chunk_size + r`` for every ``r`` in ``offsets``
    (each in ``(0, chunk_size)``) interleaved with the plain stride grid
    ``start + i*chunk_size`` — the grid :func:`warming_pass` snapshots at.
    """
    base = start
    while True:
        for offset in offsets:
            yield base + offset
        base += chunk_size
        yield base


def warming_pass(core, warmer: FunctionalWarmer, chunk_size: int,
                 limit: int | None = None,
                 extra_offsets: tuple[int, ...] = ()):
    """Functionally warm ``core`` in strides, yielding at boundaries.

    The generator drives one functional-warming pass over the program in
    ``chunk_size``-instruction strides and yields ``(position,
    written_addresses)`` after every *complete* stride — the snapshot
    points of the checkpoint subsystem.  ``written_addresses`` is the set
    of (word-aligned) memory addresses stored to during that stride, so
    consumers can record compact per-stride memory deltas.  The pass ends
    when the program halts (no partial-stride snapshot is emitted; a
    restore point past the halt would never be used) or when ``limit``
    instructions have executed.

    ``extra_offsets`` adds snapshot points *within* each stride, at the
    given offsets from the stride start (each in ``(0, chunk_size)``).
    The checkpoint builder uses this to align snapshots with the
    ``unit.start - W`` positions a systematic sampling run warms from,
    so the residual per-unit fast-forward drops to zero whenever the
    sampling grid lands on the snapshot stride (see
    :func:`repro.checkpoint.store.build_checkpoints`).

    Warming runs through :meth:`FunctionalCore.run_warmed`, which the
    trace-compiled engine overrides with block-at-a-time execution and
    bulk ``warm_many`` calls — this generator is the checkpoint-build
    hot loop.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    offsets = tuple(sorted({int(r) for r in extra_offsets
                            if 0 < int(r) < chunk_size}))
    written: set[int] = set()
    position = core.instructions_retired
    for target in _boundaries(position, chunk_size, offsets):
        if core.halted or (limit is not None and position >= limit):
            break
        budget = target - position
        if limit is not None:
            budget = min(budget, limit - position)
        executed = core.run_warmed(budget, warmer, written)
        position += executed
        if executed < budget or executed == 0:
            break
        yield position, written
        written = set()
