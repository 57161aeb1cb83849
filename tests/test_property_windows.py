"""Property tests for budget-exact compiled blocks and detailed windows.

The trace-compiled engine runs a *prefix* of any block a budget (or a
window end) cuts, so it never steps the interpreter and a run that
executes fewer instructions than asked has halted.  The detailed timing
model runs a stretch of back-to-back windows in one call and reports a
counter set per window.  Both must be invisible in the results:

* plain, warm and trace runs with random budgets leave the state, warm
  state and statistics, and trace values the interpreter leaves;
* one ``run`` over random windows (zeros, windows that cross the halt,
  windows past the end) reports, window by window, exactly what one call
  per window on a fresh simulator reports, and leaves the same warm and
  architectural state — on both engines.

Programs come from :mod:`test_property_simulation`'s generator, whose
masked ``mul`` keeps every program finite.
"""

from __future__ import annotations

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import scaled_8way
from repro.detailed import DetailedSimulator, MicroarchState
from repro.functional import FunctionalCore
from repro.functional.fastpath import FastCore
from repro.functional.warming import FunctionalWarmer

from test_property_simulation import SQUARING, straight_line_programs

ENGINES = (FunctionalCore, FastCore)

#: Budgets and window sizes: zeros, cuts inside and across blocks, and
#: sizes that run past the end of any generated program (at most
#: 9 + 20 * 26 + 1 instructions).
sizes = st.one_of(st.just(0), st.integers(1, 40), st.integers(41, 700))
size_lists = st.lists(sizes, min_size=1, max_size=8)
limits = st.one_of(st.none(), st.integers(0, 600))


def _warm_view(microarch: MicroarchState) -> tuple:
    return microarch.snapshot_state(), microarch.stats_summary()


class TestBudgetExactBlocks:
    @given(straight_line_programs(), size_lists, limits)
    @example(SQUARING, [1, 2, 3, 700], None)
    @settings(max_examples=30, deadline=None)
    def test_plain_runs_match_the_interpreter(self, program, budgets, limit):
        fast = FastCore(program, max_instructions=limit)
        interp = FunctionalCore(program, max_instructions=limit)
        for budget in budgets:
            executed = fast.run(budget)
            assert executed == interp.run(budget)
            assert executed == budget or fast.halted
            assert fast.state == interp.state
            assert fast.instructions_retired == interp.instructions_retired
        assert fast.fallback_instructions == 0

    @given(straight_line_programs(), size_lists, limits)
    @settings(max_examples=30, deadline=None)
    def test_warm_runs_match_the_interpreter(self, program, budgets, limit):
        machine = scaled_8way()
        fast = FastCore(program, max_instructions=limit)
        interp = FunctionalCore(program, max_instructions=limit)
        fast_warmer = FunctionalWarmer(MicroarchState(machine))
        interp_warmer = FunctionalWarmer(MicroarchState(machine))
        fast_written, interp_written = set(), set()
        for budget in budgets:
            executed = fast.run_warmed(budget, fast_warmer, fast_written)
            assert executed == interp.run_warmed(budget, interp_warmer,
                                                 interp_written)
            assert executed == budget or fast.halted
            assert fast.state == interp.state
            assert (_warm_view(fast_warmer.microarch)
                    == _warm_view(interp_warmer.microarch))
        assert (fast_warmer.instructions_warmed
                == interp_warmer.instructions_warmed)
        assert fast_written == interp_written
        assert fast.fallback_instructions == 0

    @given(straight_line_programs(), size_lists,
           st.lists(st.integers(0, 300), max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_trace_segments_match_the_interpreter(self, program, budgets,
                                                  stops):
        fast, interp = FastCore(program), FunctionalCore(program)
        for budget in budgets:
            runs = []
            for core in (fast, interp):
                tr: list[int] = []
                pcs, values, ends, done = [], [], set(), 0
                for pc, length, next_pc in core.trace_segments(budget, tr,
                                                               stops):
                    pcs.extend(range(pc, pc + length))
                    values.extend(tr)
                    done += length
                    ends.add(done)
                runs.append((pcs, values, next_pc if pcs else None, ends))
            (pcs, values, next_pc, ends), expected = runs
            assert (pcs, values, next_pc) == expected[:3]
            assert len(pcs) == budget or fast.halted
            # Every stop inside the executed stretch ends a segment.
            assert {stop for stop in stops if 0 < stop <= len(pcs)} <= ends
            assert fast.state == interp.state
        assert fast.fallback_instructions == 0


class TestDetailedWindows:
    @staticmethod
    def _both(program, engine, windows):
        machine = scaled_8way()
        core, microarch = engine(program), MicroarchState(machine)
        reported: list = []
        total = DetailedSimulator(machine, microarch).run(
            core, windows, counters=reported)

        fresh_core, fresh_microarch = engine(program), MicroarchState(machine)
        fresh = DetailedSimulator(machine, fresh_microarch)
        separate = [fresh.run(fresh_core, size) for size in windows]

        assert reported == separate
        assert total.as_dict() == {
            name: sum(counters.as_dict()[name] for counters in separate)
            for name in total.as_dict()}
        assert _warm_view(microarch) == _warm_view(fresh_microarch)
        assert core.state == fresh_core.state
        assert core.instructions_retired == fresh_core.instructions_retired
        return core, reported

    @given(straight_line_programs(), size_lists)
    @example(SQUARING, [0, 0, 5, 0, 700, 3, 0])
    @settings(max_examples=25, deadline=None)
    def test_windows_match_one_call_per_window(self, program, windows):
        for engine in ENGINES:
            core, reported = self._both(program, engine, windows)
            assert len(reported) == len(windows)
            assert all(c.instructions <= size
                       for c, size in zip(reported, windows))
            if isinstance(core, FastCore):
                assert core.fallback_instructions == 0

    def test_dense_shaped_stretch_on_a_workload(self, micro):
        """A detailed-warming window, then back-to-back units with empty
        warming gaps, running past the halt."""
        windows = [2_000] + [0, 50] * 300
        for engine in ENGINES:
            core, reported = self._both(micro.program, engine, windows)
            assert core.halted
            assert sum(c.instructions for c in reported) < sum(windows)
            assert reported[-1].instructions == 0
