"""Engine microbenchmark: functional-warming and detailed throughput.

A SMARTS run spends its host time in two loops, functional warming and
detailed simulation, and the split depends on the regime: when ~15% of
the stream is simulated in detail (``bench``'s ``sampled`` workload)
both loops matter, and when the tuned sample covers the stream
(``dense``, or a default ``RunSpec`` at test scale) nearly all of it is
detailed simulation.  The trace-compiled engine speeds up both: it
executes whole basic blocks for functional warming (``run_warmed``)
and feeds the detailed timing model whole blocks through ``run_trace``
instead of one interpreted ``DynInst`` per instruction.

This benchmark measures both loops on the same workloads for a
behaviourally diverse subset of the suite and records the rates into
``results/host-timed/perf_engine.txt`` (untracked: every run and host
gives other rates):

* functional warming — cold caches and predictors, full event stream,
  interpreter vs fastpath engine, asserting the fastpath's >= 3x
  speedup (the acceptance criterion of the engine work);
* detailed simulation — ``DetailedSimulator.run`` in the ``dense``
  shape (one 2000-instruction warming call, then back-to-back
  50-instruction units), step-fed (interpreter core) vs block-fed
  (fastpath core), with identical counters asserted and a >= 1.5x
  block-fed speedup.

Ratios are measured inside one process on one core, so they are
meaningful on the single-core CI box; the *absolute* rates are
host-dependent and recorded for context only.  The structural
guarantees behind the speedups (block-level dispatch, bulk warming,
block-fed detailed runs) are guarded count-based in
``tests/test_engine_fastpath.py``.
"""

from __future__ import annotations

import itertools
import os
import time

import numpy as np
import pytest
from conftest import record_report

from repro.config.machines import scaled_8way
from repro.detailed.pipeline import DetailedSimulator
from repro.detailed.state import MicroarchState
from repro.functional.engine import create_core
from repro.functional.warming import FunctionalWarmer
from repro.harness.reporting import format_table

#: Instructions measured per engine after warm-up (compile + hot caches).
MEASURE_INSTRUCTIONS = 150_000
WARMUP_INSTRUCTIONS = 10_000

#: The detailed measurement's call shape: one warming window, then
#: back-to-back sampling units, for this many instructions (or to the
#: end of the stream).
DETAILED_WARMING, DETAILED_UNIT = 2_000, 50
DETAILED_INSTRUCTIONS = 100_000

#: Timing rounds per engine; the best round is reported.  The ratio is
#: measured in one process on one core, but a GC pause or transient
#: contention landing inside a single sub-second window would skew it —
#: taking the max over interleaved rounds removes that one-off noise.
MEASURE_ROUNDS = 2


def _warming_rate(program, machine, engine: str) -> tuple[float, int, object]:
    """(instructions/second, executed, final arch state) for one engine."""
    core = create_core(program, engine=engine)
    microarch = MicroarchState(machine)
    microarch.flush()
    warmer = FunctionalWarmer(microarch)
    core.run_warmed(WARMUP_INSTRUCTIONS, warmer)
    start = time.perf_counter()
    executed = core.run_warmed(MEASURE_INSTRUCTIONS, warmer)
    seconds = time.perf_counter() - start
    return executed / max(seconds, 1e-9), executed, core.state


def _detailed_rate(program, machine, engine: str) -> tuple[float, dict]:
    """(instructions/second, summed counters) of dense-shaped detailed
    runs on one engine's core."""
    core = create_core(program, engine=engine)
    sim = DetailedSimulator(machine, MicroarchState(machine))
    total = None
    seconds = 0.0
    for count in itertools.chain([DETAILED_WARMING],
                                 itertools.repeat(DETAILED_UNIT)):
        start = time.perf_counter()
        counters = sim.run(core, count)
        seconds += time.perf_counter() - start
        if total is None:
            total = counters
        else:
            total.add(counters)
        if (counters.instructions < count
                or total.instructions >= DETAILED_INSTRUCTIONS):
            break
    return total.instructions / max(seconds, 1e-9), total.as_dict()


def _detailed_report(program_names, ctx, machine) -> tuple[dict, str]:
    rows = []
    details = {}
    for name in program_names:
        program = ctx.benchmark(name).program
        step_rate = block_rate = 0.0
        for _ in range(MEASURE_ROUNDS):
            rate, step_counters = _detailed_rate(program, machine, "interp")
            step_rate = max(step_rate, rate)
            rate, block_counters = _detailed_rate(program, machine,
                                                  "fastpath")
            block_rate = max(block_rate, rate)
        # Both feeds drive the one timing loop: identical counters.
        assert step_counters == block_counters
        ratio = block_rate / step_rate
        details[name] = {"instructions": block_counters["instructions"],
                         "step_ips": step_rate, "block_ips": block_rate,
                         "speedup": ratio}
        rows.append([name, f"{block_counters['instructions']:,}",
                     f"{step_rate:,.0f}", f"{block_rate:,.0f}",
                     f"{ratio:.2f}x"])
    geomean = float(np.exp(np.mean(
        [np.log(d["speedup"]) for d in details.values()])))
    report = format_table(
        ["benchmark", "instructions", "step-fed (instr/s)",
         "block-fed (instr/s)", "speedup"],
        rows,
        title="Detailed-simulation throughput by feed, DetailedSimulator.run "
              f"in {DETAILED_WARMING}+{DETAILED_UNIT}x calls (single "
              f"process, one core; geomean speedup {geomean:.2f}x)")
    return {"details": details, "geomean_speedup": geomean}, report


def test_perf_engine_throughput(benchmark, ctx):
    machine = scaled_8way()
    names = ctx.subset(2 if ctx.fast else 3)

    def run():
        rows = []
        details = {}
        for name in names:
            program = ctx.benchmark(name).program
            interp_rate = fast_rate = 0.0
            for _ in range(MEASURE_ROUNDS):
                rate, interp_n, interp_state = _warming_rate(
                    program, machine, "interp")
                interp_rate = max(interp_rate, rate)
                rate, fast_n, fast_state = _warming_rate(
                    program, machine, "fastpath")
                fast_rate = max(fast_rate, rate)
            # The engines must execute the same stream to the same state;
            # otherwise the rate comparison is meaningless.
            assert interp_n == fast_n
            assert interp_state == fast_state
            speedup = fast_rate / interp_rate
            details[name] = {
                "instructions": fast_n,
                "interp_ips": interp_rate,
                "fastpath_ips": fast_rate,
                "speedup": speedup,
            }
            rows.append([
                name, f"{fast_n:,}",
                f"{interp_rate:,.0f}", f"{fast_rate:,.0f}",
                f"{speedup:.2f}x",
            ])
        geomean = float(np.exp(np.mean(
            [np.log(d["speedup"]) for d in details.values()])))
        report = format_table(
            ["benchmark", "instructions", "interp (instr/s)",
             "fastpath (instr/s)", "speedup"],
            rows,
            title="Functional-warming throughput by engine "
                  f"(single process, one core; geomean speedup "
                  f"{geomean:.2f}x)")
        detailed, detailed_report = _detailed_report(names, ctx, machine)
        return {"details": details, "geomean_speedup": geomean,
                "detailed": detailed,
                "report": report + "\n\n" + detailed_report}

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    record_report("perf_engine", data["report"], host_timed=True)

    if os.environ.get("CI"):
        pytest.skip(
            "rates recorded, ratio not gated on CI: shared runners can "
            "sustain contention across rounds; CI perf guards are the "
            "count-based dispatch checks in tests/test_engine_fastpath.py")

    # The acceptance bar of the trace-compiled engine: >= 3x warming
    # throughput over the interpreter across the workload subset.
    assert data["geomean_speedup"] >= 3.0
    for name, detail in data["details"].items():
        assert detail["speedup"] >= 2.0, name
    # Block-fed detailed simulation must stay clearly ahead of step-fed
    # (measured ~2x on gcc/mcf/ammp; gated well below that).
    assert data["detailed"]["geomean_speedup"] >= 1.5
