"""Golden detailed-counter corpus: the timing model against a frozen record.

``DetailedSimulator.run`` is fed either by compiled basic blocks (the
fastpath engine) or one instruction at a time (the interpreter, and the
fastpath's partial-block remainders).  Both sources must drive the one
timing loop to exactly the results recorded in
``tests/detailed_golden.json``: after *every* ``run`` call of a cell, the
returned :class:`PipelineCounters`, the cache / TLB / BTB / predictor
statistics, the functional core's position, and a digest of
``MicroarchState.snapshot_state()`` (tag arrays, LRU order, predictor
tables, history, RAS).

Cells cover gcc, mcf, mesa and art at test scale on the 8-way and 16-way
machines under several call chunkings (1, 3 and 7 instructions per call;
a SMARTS-shaped W=2000 then U=50 schedule between warmed fast-forwards;
the whole stream in one call), plus edge cases: ``max_instructions``
cutting a block, a ``HALT`` ending a block with code after it, a
conditional branch to ``pc+1``, and the ``written`` store set.

Every cell runs on both functional engines.  To re-record the corpus
after an *intended* timing-model change::

    PYTHONPATH=src python tests/test_detailed_golden.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.config import scaled_16way, scaled_8way
from repro.detailed import DetailedSimulator, MicroarchState
from repro.functional.engine import ENGINES, create_core
from repro.functional.warming import FunctionalWarmer
from repro.isa import ProgramBuilder
from repro.workloads import get_benchmark

GOLDEN_PATH = Path(__file__).with_name("detailed_golden.json")

PROGRAMS = ("gcc.syn", "mcf.syn", "mesa.syn", "art.syn")
MACHINES = {"8-way": scaled_8way, "16-way": scaled_16way}
SCALE = 0.05

#: ``run`` calls made by each fixed-chunk cell (after a warmed
#: fast-forward to a mid-stream position).
CHUNK_CALLS = 120
CHUNK_START = 4_000

#: The SMARTS-shaped schedule: detailed warming W, measured unit U, and
#: the functionally warmed gap between periods.
WARMING, UNIT, GAP = 2_000, 50, 6_000


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _record(core, microarch, counters, written=None) -> dict:
    hierarchy = microarch.hierarchy
    branch = microarch.branch_unit
    record = {
        "counters": counters.as_dict(),
        "caches": {name: asdict(getattr(hierarchy, name).stats)
                   for name in ("l1i", "l1d", "l2", "itlb", "dtlb")},
        "branch": {
            "branches": branch.branches,
            "mispredictions": branch.mispredictions,
            "btb_lookups": branch.btb.lookups,
            "btb_hits": branch.btb.hits,
            "predictor_lookups": branch.predictor.lookups,
            "predictor_mispredictions": branch.predictor.mispredictions,
        },
        "core": [core.instructions_retired, core.state.pc,
                 core.state.halted],
        "state": _digest(microarch.snapshot_state()),
    }
    if written is not None:
        record["written"] = _digest(sorted(written))
    return record


def _edge_program():
    """A loop exercising the block edge cases the chunked cells can miss:
    a conditional branch to ``pc+1`` taken on alternate iterations, a
    call/return pair, an unpipelined divide, FP work, stores, and a
    ``HALT`` that ends a straight-line block with dead code after it."""
    b = ProgramBuilder("edge")
    b.data_block(0x2000, [float(i) for i in range(16)])
    b.addi("r20", "r0", 60)
    b.addi("r3", "r0", 1)
    b.addi("r10", "r0", 0x2000)
    b.addi("r7", "r0", 7)
    b.label("top")
    b.load("r1", "r10", 0)
    b.and_("r2", "r20", "r3")
    b.beq("r2", "r0", "next")      # target is pc+1
    b.label("next")
    b.add("r4", "r4", "r1")
    b.div("r5", "r4", "r7")
    b.store("r5", "r10", 8)
    b.jal("r31", "sub")
    b.addi("r20", "r20", -1)
    b.bne("r20", "r0", "top")
    b.fadd("f1", "f1", "f2")
    b.addi("r6", "r6", 3)
    b.halt()                        # ends a block; code follows
    b.addi("r6", "r6", 1)
    b.nop()
    b.halt()
    b.label("sub")
    b.fload("f2", "r10", 16)
    b.fmul("f1", "f1", "f2")
    b.jr("r31")
    return b.build()


def _program(name: str):
    if name == "edge":
        return _edge_program()
    return get_benchmark(name, scale=SCALE).program


def _run_cell(program_name: str, machine_name: str, schedule: str,
              engine: str) -> list[dict]:
    """Execute one cell and return the record taken after each call."""
    program = _program(program_name)
    machine = MACHINES[machine_name]()
    max_instructions = 2_345 if schedule == "max" else None
    core = create_core(program, max_instructions, engine=engine)
    microarch = MicroarchState(machine)
    sim = DetailedSimulator(machine, microarch)
    records: list[dict] = []

    def detail(count, written=None):
        counters = sim.run(core, count, written)
        records.append(_record(core, microarch, counters, written))
        return counters.instructions

    if schedule.startswith("chunk"):
        core.run_warmed(CHUNK_START, FunctionalWarmer(microarch))
        chunk = int(schedule[len("chunk"):])
        for _ in range(CHUNK_CALLS):
            detail(chunk)
    elif schedule == "wu":
        warmer = FunctionalWarmer(microarch)
        while not core.halted:
            sim.begin_period()
            detail(WARMING)
            detail(UNIT)
            core.run_warmed(GAP, warmer)
    elif schedule == "whole":
        detail(1 << 62)
    elif schedule == "max":
        while detail(100):
            pass
    elif schedule == "written":
        written: set[int] = set()
        while detail(997, written):
            pass
    elif schedule == "edge":
        for count in (5, 3, 1, 17, 40, 1 << 20, 10):
            detail(count)
    else:  # pragma: no cover - corpus definition error
        raise ValueError(schedule)
    return records


def _cells() -> list[tuple[str, str, str]]:
    cells = [(program, machine, schedule)
             for program in PROGRAMS for machine in MACHINES
             for schedule in ("chunk1", "chunk3", "chunk7", "wu", "whole")]
    cells += [("gcc.syn", "8-way", "max"), ("mcf.syn", "16-way", "max"),
              ("gcc.syn", "8-way", "written"),
              ("art.syn", "16-way", "written"),
              ("edge", "8-way", "edge"), ("edge", "16-way", "edge")]
    return cells


def _cell_id(cell) -> str:
    return "/".join(cell)


def _summarize(records: list[dict]) -> dict:
    return {"calls": [_digest(r) for r in records], "last": records[-1]}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("cell", _cells(), ids=_cell_id)
def test_detailed_counters_match_golden(golden, cell, engine):
    expected = golden[_cell_id(cell)]
    actual = _summarize(_run_cell(*cell, engine=engine))
    assert len(actual["calls"]) == len(expected["calls"])
    for index, (got, want) in enumerate(zip(actual["calls"],
                                            expected["calls"])):
        if got != want:
            break
    else:
        assert actual["last"] == expected["last"]
        return
    pytest.fail(f"{_cell_id(cell)} [{engine}] diverges from the golden "
                f"corpus at run call {index} of {len(expected['calls'])}")


def test_corpus_covers_every_cell(golden):
    assert sorted(golden) == sorted(_cell_id(c) for c in _cells())


def _write_corpus(corpus: dict) -> None:
    """One cell per line, so a re-recording diffs cell by cell."""
    lines = [f"{json.dumps(cell)}: {json.dumps(corpus[cell], sort_keys=True)}"
             for cell in sorted(corpus)]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    _write_corpus({_cell_id(cell): _summarize(_run_cell(*cell,
                                                        engine="interp"))
                   for cell in _cells()})
    print(f"wrote {len(_cells())} cells to {GOLDEN_PATH}")
