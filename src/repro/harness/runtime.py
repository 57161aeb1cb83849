"""Measured simulator rates and runtime accounting (Table 6, Figure 4).

The paper characterizes its simulators by three rates: functional
simulation (S_F, normalized to 1), detailed simulation (S_D, ~1/60 of
S_F for sim-outorder), and functional warming (S_FW ~0.55 of S_F).  This
module measures the equivalent rates of this repository's simulators on
a calibration workload so the analytical performance model can be
evaluated both with our measured rates and with the paper's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

from repro.config.machines import MachineConfig
from repro.core.perf_model import SimulatorRates
from repro.detailed.pipeline import DetailedSimulator
from repro.detailed.state import MicroarchState
from repro.functional.engine import create_core
from repro.functional.warming import FunctionalWarmer
from repro.isa.program import Program


@dataclass(frozen=True)
class MeasuredRates:
    """Raw instruction-per-second rates of each simulation mode."""

    functional_ips: float
    warming_ips: float
    detailed_ips: float

    @property
    def s_detailed(self) -> float:
        """Detailed rate relative to functional (the paper's S_D)."""
        return self.detailed_ips / self.functional_ips

    @property
    def s_warming(self) -> float:
        """Functional-warming rate relative to functional (S_FW)."""
        return self.warming_ips / self.functional_ips

    def to_simulator_rates(self) -> SimulatorRates:
        return SimulatorRates(
            functional_ips=self.functional_ips,
            s_detailed=min(1.0, self.s_detailed),
            s_warming=min(1.0, self.s_warming),
        )


def _timed(prepare) -> tuple[int, float]:
    """``(instructions, seconds)`` of the fastest of three timed passes.

    ``prepare()`` builds fresh state and returns the pass as a callable.
    The first pass runs untimed, so the blocks the mode executes are
    compiled (compiled closures are memoized per program) and the rate
    does not depend on what earlier calls left compiled.  The fastest
    pass is the one least disturbed by other work on the host.
    """
    def timed_pass() -> tuple[int, float]:
        run = prepare()
        start = time.perf_counter()
        executed = run()
        return executed, time.perf_counter() - start

    prepare()()
    return min((timed_pass() for _ in range(3)), key=lambda p: p[1])


def measure_rates(program: Program, machine: MachineConfig,
                  instructions: int = 60_000) -> MeasuredRates:
    """Measure functional / warming / detailed rates on one program.

    Each mode executes ``instructions`` dynamic instructions from the
    start of the program (on a fresh core each time, so all three
    measurements cover the same stream), once untimed and then three
    times timed; the rate is that of the fastest timed pass.
    """
    if instructions <= 0:
        raise ValueError("instructions must be positive")

    def functional():
        return partial(create_core(program).run, instructions)

    def warming():
        warmer = FunctionalWarmer(MicroarchState(machine))
        return partial(create_core(program).run_warmed, instructions, warmer)

    def detailed():
        simulator = DetailedSimulator(machine, MicroarchState(machine))
        core = create_core(program)
        return lambda: simulator.simulate(core, instructions).instructions

    executed, functional_seconds = _timed(functional)
    if executed == 0:
        raise ValueError("program executed no instructions")
    executed_warm, warming_seconds = _timed(warming)
    executed_detailed, detailed_seconds = _timed(detailed)
    return MeasuredRates(
        functional_ips=executed / max(functional_seconds, 1e-9),
        warming_ips=executed_warm / max(warming_seconds, 1e-9),
        detailed_ips=executed_detailed / max(detailed_seconds, 1e-9),
    )
