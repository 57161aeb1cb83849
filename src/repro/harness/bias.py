"""Warming-bias measurement (Tables 4 and 5 of the paper).

Bias is the systematic component of estimation error caused by incorrect
microarchitectural state at the start of each measured sampling unit.
Following Section 4.3, the true bias (an average over all k possible
systematic sample phases) is approximated by averaging the signed errors
of a few evenly distributed phases ``j``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config.machines import MachineConfig
from repro.core.estimates import ReferenceResult, SmartsRunResult
from repro.core.sampling import SystematicSamplingPlan, offsets_for_bias_estimation
from repro.core.smarts import run_smarts
from repro.isa.program import Program


@dataclass
class BiasMeasurement:
    """Signed estimation bias of a SMARTS configuration for one benchmark.

    Bias is isolated from sampling error by comparing, for each sample
    phase j, the sampled measurement of the selected units against the
    *true* mean of exactly those units taken from the full-stream
    reference trace.  (The paper, lacking cheap per-unit ground truth,
    compares against the full-stream mean and relies on a large n to make
    sampling error negligible; with the reference traces in hand the
    per-unit comparison measures the same quantity without needing a huge
    sample.)
    """

    benchmark: str
    machine: str
    unit_size: int
    interval: int
    detailed_warming: int
    functional_warming: bool
    true_value: float
    phase_errors: list[float] = field(default_factory=list)
    phase_total_errors: list[float] = field(default_factory=list)
    runs: list[SmartsRunResult] = field(default_factory=list)

    @property
    def bias(self) -> float:
        """Average signed measurement bias over the sample phases."""
        if not self.phase_errors:
            return 0.0
        return sum(self.phase_errors) / len(self.phase_errors)

    @property
    def total_error(self) -> float:
        """Average signed error against the full-stream mean (bias plus
        residual sampling error)."""
        if not self.phase_total_errors:
            return 0.0
        return sum(self.phase_total_errors) / len(self.phase_total_errors)


def measure_bias(
    program: Program,
    machine: MachineConfig,
    reference: ReferenceResult,
    unit_size: int,
    target_sample_size: int,
    detailed_warming: int,
    functional_warming: bool,
    phases: int = 5,
    metric: str = "cpi",
) -> BiasMeasurement:
    """Measure warming-induced bias for one (W, warming-mode) setting.

    Runs SMARTS once per sample phase j (evenly distributed over the
    sampling interval, as in Section 4.3).  For every phase the sampled
    estimate is compared against the true mean of the same sampling units
    computed from the reference trace, and the signed errors are averaged
    into the bias.
    """
    from repro.harness.reference import unit_cpi_trace, unit_epi_trace

    benchmark_length = reference.instructions
    base_plan = SystematicSamplingPlan.for_sample_size(
        benchmark_length=benchmark_length,
        unit_size=unit_size,
        target_sample_size=target_sample_size,
        detailed_warming=detailed_warming,
        functional_warming=functional_warming,
    )
    true_value = reference.cpi if metric == "cpi" else reference.epi
    trace_fn = unit_cpi_trace if metric == "cpi" else unit_epi_trace
    unit_trace = trace_fn(reference, unit_size)

    measurement = BiasMeasurement(
        benchmark=program.name,
        machine=machine.name,
        unit_size=unit_size,
        interval=base_plan.interval,
        detailed_warming=detailed_warming,
        functional_warming=functional_warming,
        true_value=true_value,
    )

    for offset in offsets_for_bias_estimation(base_plan.interval, phases):
        plan = SystematicSamplingPlan(
            unit_size=unit_size,
            interval=base_plan.interval,
            offset=offset,
            detailed_warming=detailed_warming,
            functional_warming=functional_warming,
        )
        run = run_smarts(program, machine, plan, benchmark_length,
                         measure_energy=(metric == "epi"))
        # Compare only whole units that exist in the reference trace.
        sampled = [(u.index, u.cpi if metric == "cpi" else u.epi)
                   for u in run.units
                   if u.instructions == unit_size and u.index < len(unit_trace)]
        if not sampled:
            continue
        measured_mean = sum(value for _, value in sampled) / len(sampled)
        true_same_units = float(
            sum(unit_trace[idx] for idx, _ in sampled) / len(sampled))
        if true_same_units:
            measurement.phase_errors.append(
                (measured_mean - true_same_units) / true_same_units)
        if true_value:
            estimate = run.cpi.mean if metric == "cpi" else run.epi.mean
            measurement.phase_total_errors.append(
                (estimate - true_value) / true_value)
        measurement.runs.append(run)

    return measurement


def required_detailed_warming(
    program: Program,
    machine: MachineConfig,
    reference: ReferenceResult,
    unit_size: int,
    target_sample_size: int,
    warming_values: list[int],
    bias_threshold: float = 0.015,
    phases: int = 3,
) -> tuple[int | None, dict[int, float]]:
    """Smallest W (detailed warming only) keeping |bias| under a threshold.

    This is the Table 4 experiment: without functional warming, sweep W
    upward until the measured bias magnitude drops below
    ``bias_threshold`` (the paper uses 1.5%).  Returns ``(W, biases)``
    where ``W`` is ``None`` when even the largest tested value fails —
    the paper's "W > 500,000" category.
    """
    biases: dict[int, float] = {}
    for warming in sorted(warming_values):
        measurement = measure_bias(
            program, machine, reference,
            unit_size=unit_size,
            target_sample_size=target_sample_size,
            detailed_warming=warming,
            functional_warming=False,
            phases=phases,
        )
        biases[warming] = measurement.bias
        if abs(measurement.bias) < bias_threshold:
            return warming, biases
    return None, biases
