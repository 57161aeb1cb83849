"""The paper's tables and figures as registered Study definitions.

Every experiment of the SMARTS evaluation (Tables 3-6, Figures 2-8) is
declared here as a :class:`~repro.api.study.Study`: a grid of RunSpecs
(where the experiment runs sampled simulations) plus an analysis over
the executed :class:`~repro.api.resultset.ResultSet` producing the
experiment payload — structured data and a formatted text report.  The
estimation studies (Figures 6/7/8) get parallel batches, on-disk result
caching, and checkpointed warming from the session layer for free; the
pure-analysis studies (reference-trace statistics, the runtime model)
have no grid and everything happens in ``analyze``.

Scaling: studies run the synthetic suite at a configurable scale
(``REPRO_SCALE``, default 0.6) with sampling parameters scaled from the
paper's canonical values in the same proportion as the benchmark
lengths (see API.md, "Studies").  ``REPRO_SUITE`` selects a benchmark
subset, and ``REPRO_FAST=1`` shrinks the most expensive sweeps.

Run one with ``Session.run_study("fig6")`` or
``repro-smarts study run fig6``.
"""

from __future__ import annotations

import numpy as np

from repro.core.perf_model import (
    PAPER_SD_FUTURE,
    PAPER_SD_TODAY,
    SamplingWorkload,
    SimulatorRates,
    detailed_runtime_seconds,
    functional_runtime_seconds,
    paper_rate,
    runtime_seconds,
    speedup_over_detailed,
)
from repro.core.stats import required_sample_size
from repro.harness.bias import measure_bias, required_detailed_warming
from repro.harness.cv_analysis import (
    FIGURE3_TARGETS,
    cv_versus_unit_size,
    default_unit_sizes,
    minimum_measured_instructions,
)
from repro.harness.reporting import format_table, percent, unsigned_percent
from repro.simpoint.estimator import run_simpoint
from repro.workloads.suite import EXTRA_NAMES
from repro.api.resultset import ResultSet
from repro.api.study import Study, StudyContext, register_study


# ----------------------------------------------------------------------
# Table 3 — machine configurations
# ----------------------------------------------------------------------
def _table3_analyze(ctx: StudyContext, results: ResultSet) -> dict:
    """Table 3: the 8-way and 16-way machine configurations."""
    rows = []
    eight = ctx.machine("8-way").describe()
    sixteen = ctx.machine("16-way").describe()
    for key in eight:
        rows.append((key, eight[key], sixteen[key]))
    report = format_table(
        ["Parameter", "8-way (baseline)", "16-way"], rows,
        title="Table 3: machine configurations (scaled)")
    return {"rows": rows, "report": report}


def _table3_tidy(data: dict) -> list[dict]:
    return [{"parameter": p, "8-way": a, "16-way": b}
            for p, a, b in data["rows"]]


# ----------------------------------------------------------------------
# Figure 2 — coefficient of variation of CPI vs U
# ----------------------------------------------------------------------
def _fig2_analyze(ctx: StudyContext, results: ResultSet,
                  machine_name: str = "8-way", metric: str = "cpi") -> dict:
    """Figure 2: V_CPI of every benchmark as a function of unit size U."""
    curves: dict[str, dict[int, float]] = {}
    for name in ctx.suite_names:
        reference = ctx.reference(name, machine_name)
        sizes = default_unit_sizes(reference)
        curves[name] = cv_versus_unit_size(reference, sizes, metric=metric)

    all_sizes = sorted({u for curve in curves.values() for u in curve})
    rows = []
    for name, curve in curves.items():
        rows.append([name] + [round(curve.get(u, float("nan")), 4)
                              for u in all_sizes])
    report = format_table(
        ["benchmark"] + [f"U={u}" for u in all_sizes], rows,
        title=f"Figure 2: coefficient of variation of {metric.upper()} vs "
              f"sampling unit size ({machine_name})")
    return {"curves": curves, "unit_sizes": all_sizes, "report": report}


def _fig2_tidy(data: dict) -> list[dict]:
    return [{"benchmark": name, "unit_size": u, "cv": cv}
            for name, curve in data["curves"].items()
            for u, cv in curve.items()]


# ----------------------------------------------------------------------
# Figure 3 — minimum measured instructions per confidence target
# ----------------------------------------------------------------------
#: Dynamic length used for "paper-scale" projections: a mid-sized SPEC2K
#: reference run (the paper's benchmarks span 2-547 billion instructions).
PAPER_SCALE_LENGTH = 50_000_000_000


def _fig3_analyze(ctx: StudyContext, results: ResultSet,
                  machine_names: tuple[str, ...] = ("8-way", "16-way"),
                  ) -> dict:
    """Figure 3: minimum n·U to reach the standard confidence targets.

    For every benchmark the measured CV is used twice: once against the
    benchmark's own (scaled-down) population, and once projected onto a
    SPEC-length stream of ``PAPER_SCALE_LENGTH`` instructions — the
    latter is the quantity Figure 3 actually plots, and it shows the
    "well under 0.1% of the stream" result the paper reports.
    """
    per_benchmark: dict[tuple[str, str], dict] = {}
    paper_scale_fractions: dict[tuple[str, str], float] = {}
    headline = FIGURE3_TARGETS[1]    # ±3% at 99.7%
    rows = []
    for machine_name in machine_names:
        for name in ctx.suite_names:
            reference = ctx.reference(name, machine_name)
            targets = minimum_measured_instructions(
                reference, ctx.unit_size, FIGURE3_TARGETS)
            per_benchmark[(machine_name, name)] = targets
            cv = next(iter(targets.values()))["cv"]
            paper_population = PAPER_SCALE_LENGTH // ctx.unit_size
            paper_n = required_sample_size(cv, headline.epsilon,
                                           headline.confidence,
                                           population_size=paper_population)
            paper_fraction = paper_n * ctx.unit_size / PAPER_SCALE_LENGTH
            paper_scale_fractions[(machine_name, name)] = paper_fraction
            row = [machine_name, name, round(cv, 3)]
            for target in FIGURE3_TARGETS:
                info = targets[target]
                row.append(f"{int(info['measured_instructions']):,} "
                           f"({unsigned_percent(info['fraction_of_benchmark'])})")
            row.append(f"{paper_fraction:.5%}")
            rows.append(row)
    headers = (["machine", "benchmark", f"V@U={ctx.unit_size}"]
               + [t.label for t in FIGURE3_TARGETS]
               + [f"{headline.label} at SPEC length"])
    report = format_table(
        headers, rows,
        title="Figure 3: minimum measured instructions (and fraction of "
              "benchmark) per confidence target")
    return {"targets": per_benchmark,
            "paper_scale_fractions": paper_scale_fractions,
            "report": report}


def _fig3_tidy(data: dict) -> list[dict]:
    rows = []
    for (machine, name), targets in data["targets"].items():
        for target, info in targets.items():
            rows.append({
                "machine": machine,
                "benchmark": name,
                "target": target.label,
                "cv": info["cv"],
                "measured_instructions": info["measured_instructions"],
                "fraction_of_benchmark": info["fraction_of_benchmark"],
                "paper_scale_fraction":
                    data["paper_scale_fractions"][(machine, name)],
            })
    return rows


# ----------------------------------------------------------------------
# Figure 4 — modeled SMARTS simulation rate vs W
# ----------------------------------------------------------------------
def _fig4_analyze(ctx: StudyContext, results: ResultSet,
                  benchmark_name: str = "gcc.syn") -> dict:
    """Figure 4: modeled simulation rate as a function of detailed warming W.

    Evaluated at paper scale (a gcc-sized benchmark with U = 1000 and
    n = 10,000 sampling units) with the paper's S_D values, plus one
    curve using this host's measured rates (in ``measured_report``).
    """
    paper_length = 46_900_000_000       # gcc-1 dynamic length (paper: ~47B)
    sample_size = 10_000
    unit_size = 1000
    warming_values = [0, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000,
                      1_000_000, 3_000_000, 10_000_000]

    curves: dict[str, list[tuple[int, float]]] = {}
    for label, s_d in (("S_D=1/60", PAPER_SD_TODAY), ("S_D=1/600", PAPER_SD_FUTURE)):
        rates = SimulatorRates.paper(s_d)
        curve = []
        for warming in warming_values:
            workload = SamplingWorkload(paper_length, sample_size, unit_size, warming)
            curve.append((warming, paper_rate(workload, rates,
                                              functional_warming=False)))
        curves[label] = curve

    # With functional warming the fast-forward rate drops to S_FW but the
    # rate is insensitive to W (bounded small); show the same sweep.
    rates = SimulatorRates.paper(PAPER_SD_TODAY)
    curves["S_FW=0.55 (functional warming)"] = [
        (warming, paper_rate(
            SamplingWorkload(paper_length, sample_size, unit_size,
                             min(warming, 2000)),
            rates, functional_warming=True))
        for warming in warming_values
    ]

    rows = [[warming] + [round(dict(curve)[warming], 4)
                         for curve in curves.values()]
            for warming in warming_values]
    report = format_table(
        ["W"] + list(curves), rows,
        title="Figure 4: modeled SMARTS simulation rate (normalized to "
              "functional simulation) vs detailed warming W")

    # This host's measured rates on the calibration benchmark.
    measured = ctx.measured_rates(benchmark_name, "8-way")
    our_rates = measured.to_simulator_rates()
    length = ctx.benchmark_length(benchmark_name)
    our_sample = max(1, ctx.n_init)
    label = "measured rates (this repo, functional warming)"
    curves[label] = measured_curve = [
        (warming, paper_rate(
            SamplingWorkload(length, our_sample, ctx.unit_size,
                             min(warming, ctx.warming(ctx.machine("8-way")))),
            our_rates, functional_warming=True))
        for warming in warming_values
    ]
    measured_report = format_table(
        ["W", "rate"], [[w, round(rate, 4)] for w, rate in measured_curve],
        title=f"Figure 4 (measured rates): modeled SMARTS simulation rate "
              f"with functional warming, this host's rates on "
              f"{benchmark_name} (8-way): S_D={measured.s_detailed:.3f}, "
              f"S_FW={measured.s_warming:.3f}")
    return {"curves": curves, "measured_rates": measured, "report": report,
            "measured_report": measured_report}


def _fig4_tidy(data: dict) -> list[dict]:
    return [{"curve": label, "warming": w, "rate": rate}
            for label, curve in data["curves"].items()
            for w, rate in curve]


# ----------------------------------------------------------------------
# Figure 5 — optimal sampling unit size
# ----------------------------------------------------------------------
def _fig5_analyze(ctx: StudyContext, results: ResultSet,
                  benchmark_names: list[str] | None = None,
                  machine_name: str = "8-way") -> dict:
    """Figure 5: detail-simulated fraction vs U for several W values."""
    if benchmark_names is None:
        candidates = ["gcc.syn", "bzip2.syn", "mesa.syn", "mcf.syn"]
        benchmark_names = [n for n in candidates if n in ctx.suite_names] or \
            ctx.subset(4)
    machine = ctx.machine(machine_name)
    base_warming = ctx.warming(machine)
    warming_values = [0, base_warming, 3 * base_warming]

    results_by_name: dict[str, dict[int, dict[int, float]]] = {}
    optima: dict[str, dict[int, int]] = {}
    for name in benchmark_names:
        reference = ctx.reference(name, machine_name)
        sizes = default_unit_sizes(reference)
        cv_curve = cv_versus_unit_size(reference, sizes)
        per_warming: dict[int, dict[int, float]] = {}
        best_per_warming: dict[int, int] = {}
        for warming in warming_values:
            fractions: dict[int, float] = {}
            for unit_size, cv in cv_curve.items():
                population = reference.instructions // unit_size
                if population < 2:
                    continue
                n = required_sample_size(cv, ctx.epsilon, ctx.confidence,
                                         population_size=population)
                # The fraction cannot exceed full detailed simulation of
                # the whole stream (at paper-scale populations it never
                # comes close; at our reduced scale high-CV benchmarks
                # saturate).
                fractions[unit_size] = min(
                    1.0, n * (unit_size + warming) / reference.instructions)
            per_warming[warming] = fractions
            best_per_warming[warming] = min(fractions, key=fractions.get)
        results_by_name[name] = per_warming
        optima[name] = best_per_warming

    rows = []
    for name in benchmark_names:
        for warming in warming_values:
            fractions = results_by_name[name][warming]
            best = optima[name][warming]
            rows.append([
                name, warming, best,
                unsigned_percent(fractions[best]),
                unsigned_percent(fractions.get(ctx.unit_size,
                                               min(fractions.values()))),
            ])
    report = format_table(
        ["benchmark", "W", "optimal U", "fraction at optimal U",
         f"fraction at U={ctx.unit_size}"],
        rows,
        title="Figure 5: optimal sampling unit size vs detailed warming")
    return {"fractions": results_by_name, "optima": optima, "report": report}


def _fig5_tidy(data: dict) -> list[dict]:
    rows = []
    for name, per_warming in data["fractions"].items():
        for warming, fractions in per_warming.items():
            best = data["optima"][name][warming]
            rows.append({"benchmark": name, "warming": warming,
                         "optimal_unit_size": best,
                         "fraction_at_optimal": fractions[best]})
    return rows


# ----------------------------------------------------------------------
# Table 4 — detailed warming requirements (no functional warming)
# ----------------------------------------------------------------------
def _table4_analyze(ctx: StudyContext, results: ResultSet,
                    machine_name: str = "8-way",
                    benchmark_names: list[str] | None = None,
                    warming_values: list[int] | None = None,
                    bias_threshold: float = 0.015) -> dict:
    """Table 4: W needed (without functional warming) for <1.5% bias."""
    machine = ctx.machine(machine_name)
    if benchmark_names is None:
        benchmark_names = ctx.subset(6 if ctx.fast else len(ctx.suite_names))
    if warming_values is None:
        base = ctx.warming(machine)
        warming_values = [0, base // 2, base, 3 * base, 8 * base]
        if ctx.fast:
            warming_values = [0, base, 5 * base]

    requirements: dict[str, int | None] = {}
    biases: dict[str, dict[int, float]] = {}
    for name in benchmark_names:
        benchmark = ctx.benchmark(name)
        reference = ctx.reference(name, machine_name)
        required, bias_curve = required_detailed_warming(
            benchmark.program, machine, reference,
            unit_size=ctx.unit_size,
            # Bias is measured against per-unit ground truth, so a modest
            # sample per phase suffices and keeps the W sweep affordable.
            target_sample_size=max(100, ctx.n_init // 3),
            warming_values=warming_values,
            bias_threshold=bias_threshold,
            phases=2,
        )
        requirements[name] = required
        biases[name] = bias_curve

    rows = []
    for name in benchmark_names:
        required = requirements[name]
        label = str(required) if required is not None else f"> {max(warming_values)}"
        curve = "  ".join(f"W={w}:{percent(b, 1)}" for w, b in biases[name].items())
        rows.append([name, label, curve])
    report = format_table(
        ["benchmark", f"W for |bias| < {bias_threshold:.1%}", "measured bias by W"],
        rows,
        title=f"Table 4: detailed warming requirements without functional "
              f"warming ({machine_name})")
    return {"requirements": requirements, "biases": biases,
            "warming_values": warming_values, "report": report}


def _table4_tidy(data: dict) -> list[dict]:
    return [{"benchmark": name, "warming": w, "bias": bias,
             "required_warming": data["requirements"][name]}
            for name, curve in data["biases"].items()
            for w, bias in curve.items()]


# ----------------------------------------------------------------------
# Table 5 — residual bias with functional warming
# ----------------------------------------------------------------------
def _table5_analyze(ctx: StudyContext, results: ResultSet,
                    machine_names: tuple[str, ...] = ("8-way", "16-way"),
                    phases: int | None = None) -> dict:
    """Table 5: CPI bias with functional warming and minimal detailed warming."""
    if phases is None:
        phases = 2
    biases: dict[tuple[str, str], float] = {}
    for machine_name in machine_names:
        machine = ctx.machine(machine_name)
        for name in ctx.suite_names:
            benchmark = ctx.benchmark(name)
            reference = ctx.reference(name, machine_name)
            measurement = measure_bias(
                benchmark.program, machine, reference,
                unit_size=ctx.unit_size,
                target_sample_size=max(150, ctx.n_init // 2),
                detailed_warming=ctx.warming(machine),
                functional_warming=True,
                phases=phases,
            )
            biases[(machine_name, name)] = measurement.bias

    rows = []
    for machine_name in machine_names:
        machine_biases = {n: b for (m, n), b in biases.items() if m == machine_name}
        ordered = sorted(machine_biases.items(), key=lambda kv: -abs(kv[1]))
        for name, bias in ordered:
            rows.append([machine_name, name, percent(bias)])
        average = np.mean([abs(b) for b in machine_biases.values()])
        rows.append([machine_name, "average |bias|", unsigned_percent(float(average))])
    report = format_table(
        ["machine", "benchmark", "CPI bias"], rows,
        title="Table 5: CPI bias with functional warming and minimal "
              "detailed warming")
    return {"biases": biases, "report": report}


def _table5_tidy(data: dict) -> list[dict]:
    return [{"machine": machine, "benchmark": name, "bias": bias}
            for (machine, name), bias in data["biases"].items()]


# ----------------------------------------------------------------------
# Figures 6 and 7 — CPI / EPI estimation with n_init (and n_tuned)
# ----------------------------------------------------------------------
def _estimation_grid(ctx: StudyContext,
                     machine_names: tuple[str, ...],
                     metric: str, max_rounds: int) -> list:
    return [ctx.estimation_spec(name, machine_name, metric=metric,
                                max_rounds=max_rounds)
            for machine_name in machine_names
            for name in ctx.suite_names]


def _fig6_grid(ctx: StudyContext,
               machine_names: tuple[str, ...] = ("8-way", "16-way"),
               metric: str = "cpi") -> list:
    return _estimation_grid(ctx, machine_names, metric, max_rounds=2)


def _fig6_analyze(ctx: StudyContext, results: ResultSet,
                  machine_names: tuple[str, ...] = ("8-way", "16-way"),
                  metric: str = "cpi") -> dict:
    """Figure 6 (CPI) / Figure 7 (EPI): estimation error vs confidence interval.

    The suite sweep runs through the session layer: one RunSpec per
    (machine, benchmark) cell, batch-executed (in parallel when
    ``ctx.max_workers`` is set) with on-disk result caching.
    """
    by_cell = results.by_cell()
    entries: dict[tuple[str, str], dict] = {}
    for machine_name in machine_names:
        for name in ctx.suite_names:
            result = by_cell[(machine_name, name)]
            reference = ctx.reference(name, machine_name)
            true_value = reference.cpi if metric == "cpi" else reference.epi
            initial = result.initial_estimate
            entries[(machine_name, name)] = {
                "true": true_value,
                "initial_estimate": initial["mean"],
                "initial_ci": initial["ci"],
                "initial_error": (initial["mean"] - true_value) / true_value,
                "final_estimate": result.estimate_mean,
                "final_ci": result.confidence_interval,
                "final_error": (result.estimate_mean - true_value) / true_value,
                "rounds": result.rounds,
                "n_final": result.sample_size,
                "tuned_n": (result.tuned_sample_sizes[-1]
                            if result.tuned_sample_sizes else None),
                "measured_instructions": result.instructions_measured,
                "detailed_fraction": result.detailed_fraction,
                "target_met": result.target_met,
            }

    rows = []
    for (machine_name, name), entry in sorted(
            entries.items(), key=lambda kv: -abs(kv[1]["initial_ci"])):
        rows.append([
            machine_name, name,
            round(entry["true"], 4),
            round(entry["initial_estimate"], 4),
            percent(entry["initial_error"]),
            unsigned_percent(entry["initial_ci"]),
            entry["rounds"],
            entry["n_final"],
            percent(entry["final_error"]),
            unsigned_percent(entry["final_ci"]),
        ])
    label = metric.upper()
    report = format_table(
        ["machine", "benchmark", f"true {label}", f"{label} (n_init)",
         "error (n_init)", "CI (n_init)", "rounds", "n final",
         "error (final)", "CI (final)"],
        rows,
        title=f"Figure {'6' if metric == 'cpi' else '7'}: {label} estimation "
              f"with n_init={ctx.n_init}, U={ctx.unit_size} "
              f"(99.7% confidence intervals)")
    return {"entries": entries, "report": report}


def _fig6_tidy(data: dict) -> list[dict]:
    return [{"machine": machine, "benchmark": name, **entry}
            for (machine, name), entry in data["entries"].items()]


def _fig7_grid(ctx: StudyContext,
               machine_names: tuple[str, ...] = ("8-way",)) -> list:
    return _estimation_grid(ctx, machine_names, metric="epi", max_rounds=2)


def _fig7_analyze(ctx: StudyContext, results: ResultSet,
                  machine_names: tuple[str, ...] = ("8-way",)) -> dict:
    """Figure 7: EPI estimation (8-way) with n_init."""
    return _fig6_analyze(ctx, results, machine_names=machine_names,
                         metric="epi")


# ----------------------------------------------------------------------
# Table 6 — runtimes of functional / detailed / SMARTS simulation
# ----------------------------------------------------------------------
def _table6_analyze(ctx: StudyContext, results: ResultSet,
                    machine_name: str = "8-way") -> dict:
    """Table 6: projected runtimes and speedups, paper-scale and measured
    (this host's rates, in ``measured_report``)."""
    machine = ctx.machine(machine_name)
    calibration = ctx.subset(1)[0]
    measured = ctx.measured_rates(calibration, machine_name)
    our_rates = measured.to_simulator_rates()
    paper_rates = SimulatorRates.paper(PAPER_SD_TODAY)

    model_rows, measured_rows = [], []
    details: dict[str, dict] = {}
    for name in ctx.suite_names:
        length = ctx.benchmark_length(name)
        reference = ctx.reference(name, machine_name)
        workload = SamplingWorkload(
            benchmark_length=length,
            sample_size=min(ctx.n_init, length // ctx.unit_size),
            unit_size=ctx.unit_size,
            detailed_warming=ctx.warming(machine),
        )
        functional_s = functional_runtime_seconds(length, our_rates)
        detailed_s = detailed_runtime_seconds(length, our_rates)
        smarts_s = runtime_seconds(workload, our_rates, functional_warming=True)
        speedup = speedup_over_detailed(workload, our_rates, functional_warming=True)

        # Paper-scale projection: same benchmark "shape" blown up to a
        # SPEC-sized stream with the paper's canonical parameters.
        paper_length = length * 100_000
        paper_workload = SamplingWorkload(
            benchmark_length=paper_length,
            sample_size=10_000,
            unit_size=1000,
            detailed_warming=2000 if machine_name == "8-way" else 4000,
        )
        paper_speedup = speedup_over_detailed(paper_workload, paper_rates,
                                              functional_warming=True)
        details[name] = {
            "functional_seconds": functional_s,
            "detailed_seconds": detailed_s,
            "smarts_seconds": smarts_s,
            "measured_detailed_seconds": reference.seconds,
            "speedup": speedup,
            "paper_scale_speedup": paper_speedup,
        }
        model_rows.append([name, round(paper_speedup, 1)])
        measured_rows.append([
            name,
            round(detailed_s, 1),
            round(functional_s, 1),
            round(smarts_s, 1),
            round(speedup, 1),
        ])

    average_speedup = float(np.mean([d["speedup"] for d in details.values()]))
    paper_average = float(np.mean([d["paper_scale_speedup"] for d in details.values()]))
    report = format_table(
        ["benchmark", "speedup (paper-scale model)"], model_rows,
        title=f"Table 6: SMARTS speedup over detailed simulation "
              f"({machine_name}), paper-scale model: the paper's rates, "
              f"U=1000, n=10,000")
    measured_report = format_table(
        ["benchmark", "detailed (s)", "functional (s)", "SMARTS (s)",
         "speedup (this repo)"],
        measured_rows,
        title=f"Table 6 (measured rates): runtimes for SMARTS compared to "
              f"detailed and functional simulation ({machine_name}); this "
              f"host's rates on {calibration}: "
              f"S_D={measured.s_detailed:.3f}, S_FW={measured.s_warming:.3f}")

    checkpoint = _table6_checkpoint_analyze(ctx, machine_name=machine_name)
    report = report + "\n\n" + checkpoint.pop("report")
    return {"details": details, "measured_rates": measured,
            "average_speedup": average_speedup,
            "paper_scale_average_speedup": paper_average,
            "checkpoint": checkpoint, "report": report,
            "measured_report": measured_report}


def _table6_checkpoint_analyze(ctx: StudyContext,
                               machine_name: str = "8-way") -> dict:
    """Checkpointed column of Table 6: measured, count-based.

    For a behaviourally diverse subset, one systematic sampling run is
    executed twice — serial functional warming vs. checkpointed restore
    — and compared on the *instruction counts* each mode executed (the
    container is single-core, so wall-clock speedups are never
    asserted).  The per-unit measurements of the two runs must be
    bit-identical; the checkpointed run merely replaces most functional
    warming work with snapshot restores.
    """
    from repro.checkpoint import CheckpointStore
    from repro.core.sampling import SystematicSamplingPlan
    from repro.core.smarts import run_smarts

    machine = ctx.machine(machine_name)
    # Go through the store (honouring ctx.use_cache like the reference
    # traces do) so repeated table6 runs pay the warming build only once.
    store = CheckpointStore(enabled=ctx.use_cache)
    rows = []
    details: dict[str, dict] = {}
    for name in ctx.subset(2 if ctx.fast else 3):
        benchmark = ctx.benchmark(name)
        length = ctx.benchmark_length(name)
        plan = SystematicSamplingPlan.for_sample_size(
            benchmark_length=length,
            unit_size=ctx.unit_size,
            target_sample_size=min(ctx.n_init, length // ctx.unit_size),
            detailed_warming=ctx.warming(machine),
        )
        serial = run_smarts(benchmark.program, machine, plan, length,
                            measure_energy=False)
        ckpt = store.get_or_build(benchmark.program, machine, ctx.unit_size)
        restored = run_smarts(benchmark.program, machine, plan, length,
                              measure_energy=False, checkpoints=ckpt)
        ff_serial = serial.instructions_fastforwarded
        ff_ckpt = restored.instructions_fastforwarded
        reduction = 1.0 - ff_ckpt / ff_serial if ff_serial else 0.0
        details[name] = {
            "ff_serial": ff_serial,
            "ff_checkpointed": ff_ckpt,
            "instructions_restored": restored.instructions_restored,
            "checkpoint_restores": restored.checkpoint_restores,
            "warming_reduction": reduction,
            "identical_units": serial.units == restored.units,
        }
        rows.append([
            name,
            f"{ff_serial:,}",
            f"{ff_ckpt:,}",
            f"{restored.instructions_restored:,}",
            percent(reduction),
            "yes" if details[name]["identical_units"] else "NO",
        ])
    average = float(np.mean([d["warming_reduction"] for d in details.values()]))
    report = format_table(
        ["benchmark", "warmed instr. (serial)", "warmed instr. (ckpt)",
         "restored instr.", "warming reduction", "bit-identical"],
        rows,
        title=f"Table 6 (checkpointed column): functional-warming "
              f"instructions with and without checkpoint restore "
              f"({machine_name})")
    return {"details": details, "average_warming_reduction": average,
            "report": report}


def _table6_tidy(data: dict) -> list[dict]:
    rows = [{"kind": "runtime", "benchmark": name, **detail}
            for name, detail in data["details"].items()]
    rows += [{"kind": "checkpoint", "benchmark": name, **detail}
             for name, detail in data["checkpoint"]["details"].items()]
    return rows


# ----------------------------------------------------------------------
# Figure 8 — comparison against SimPoint
# ----------------------------------------------------------------------
def _fig8_benchmarks(ctx: StudyContext,
                     benchmark_names: list[str] | None) -> list[str]:
    if benchmark_names is None:
        return ctx.subset(6 if ctx.fast else len(ctx.suite_names))
    return benchmark_names


def _fig8_grid(ctx: StudyContext, machine_name: str = "8-way",
               benchmark_names: list[str] | None = None) -> list:
    return [ctx.estimation_spec(name, machine_name, metric="cpi",
                                max_rounds=1)
            for name in _fig8_benchmarks(ctx, benchmark_names)]


def _fig8_analyze(ctx: StudyContext, results: ResultSet,
                  machine_name: str = "8-way",
                  benchmark_names: list[str] | None = None,
                  interval_size: int | None = None,
                  max_clusters: int = 8) -> dict:
    """Figure 8: per-benchmark CPI error of SimPoint vs SMARTS."""
    machine = ctx.machine(machine_name)
    benchmark_names = _fig8_benchmarks(ctx, benchmark_names)
    if interval_size is None:
        # SimPoint uses very large units (100M at SPEC scale); scaled to
        # roughly 1/100 of a benchmark here.
        interval_size = max(1000, ctx.unit_size * 50)

    by_cell = results.by_cell()
    entries: dict[str, dict] = {}
    for name in benchmark_names:
        benchmark = ctx.benchmark(name)
        reference = ctx.reference(name, machine_name)
        true_cpi = reference.cpi

        simpoint = run_simpoint(
            benchmark.program, machine, interval_size=interval_size,
            max_clusters=max_clusters, measure_energy=False)
        smarts = by_cell[(machine_name, name)]
        entries[name] = {
            "true_cpi": true_cpi,
            "simpoint_cpi": simpoint.cpi,
            "simpoint_error": (simpoint.cpi - true_cpi) / true_cpi,
            "simpoint_clusters": simpoint.num_clusters,
            "smarts_cpi": smarts.estimate_mean,
            "smarts_error": (smarts.estimate_mean - true_cpi) / true_cpi,
            "smarts_ci": smarts.confidence_interval,
        }

    rows = []
    for name, entry in sorted(entries.items(),
                              key=lambda kv: -abs(kv[1]["simpoint_error"])):
        rows.append([
            name,
            round(entry["true_cpi"], 4),
            round(entry["simpoint_cpi"], 4),
            percent(entry["simpoint_error"]),
            entry["simpoint_clusters"],
            round(entry["smarts_cpi"], 4),
            percent(entry["smarts_error"]),
            unsigned_percent(entry["smarts_ci"]),
        ])
    simpoint_avg = float(np.mean([abs(e["simpoint_error"]) for e in entries.values()]))
    smarts_avg = float(np.mean([abs(e["smarts_error"]) for e in entries.values()]))
    report = format_table(
        ["benchmark", "true CPI", "SimPoint CPI", "SimPoint error", "clusters",
         "SMARTS CPI", "SMARTS error", "SMARTS CI"],
        rows,
        title=f"Figure 8: SimPoint vs SMARTS CPI error ({machine_name}); "
              f"mean |error|: SimPoint {simpoint_avg:.2%}, SMARTS {smarts_avg:.2%}")
    return {"entries": entries, "simpoint_mean_abs_error": simpoint_avg,
            "smarts_mean_abs_error": smarts_avg, "report": report}


def _fig8_tidy(data: dict) -> list[dict]:
    return [{"benchmark": name, **entry}
            for name, entry in data["entries"].items()]


# ----------------------------------------------------------------------
# Ablation — systematic vs simple random sampling (Section 2's argument)
# ----------------------------------------------------------------------
def _ablation_systematic_errors(trace: np.ndarray,
                                interval: int) -> list[float]:
    """Relative error of systematic samples at up to 10 phases."""
    true_mean = trace.mean()
    return [(trace[offset::interval].mean() - true_mean) / true_mean
            for offset in range(min(interval, 10))]


def _ablation_random_errors(trace: np.ndarray, sample_size: int,
                            trials: int = 10) -> list[float]:
    """Relative error of seeded simple random samples of the same size."""
    true_mean = trace.mean()
    errors = []
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        sample = rng.choice(trace, size=min(sample_size, len(trace)),
                            replace=False)
        errors.append((sample.mean() - true_mean) / true_mean)
    return errors


def _ablation_analyze(ctx: StudyContext, results: ResultSet,
                      machine_name: str = "8-way", trials: int = 10) -> dict:
    """Ablation: homogeneity and systematic-vs-random estimate quality.

    Section 2 of the paper argues that systematic sampling may be
    analyzed with random-sampling mathematics because the benchmarks
    show negligible homogeneity at sampling periodicities.  Both halves
    of that argument are checked on the reference traces: the intraclass
    correlation of per-unit CPI at the experiment's sampling interval,
    and the error spread of systematic vs simple random samples of equal
    size.  Runs entirely on cached reference traces — no additional
    simulation.
    """
    from repro.core.stats import intraclass_correlation
    from repro.harness.reference import unit_cpi_trace

    rows = []
    details: dict[str, dict] = {}
    for name in ctx.suite_names:
        reference = ctx.reference(name, machine_name)
        trace = unit_cpi_trace(reference, ctx.unit_size)
        population = len(trace)
        interval = max(2, population // max(1, ctx.n_init))
        sample_size = population // interval

        delta = intraclass_correlation(trace, interval, offset_stride=1)
        sys_errors = _ablation_systematic_errors(trace, interval)
        rand_errors = _ablation_random_errors(trace, sample_size,
                                              trials=trials)
        details[name] = {
            "delta": delta,
            "systematic_rmse": float(np.sqrt(np.mean(np.square(sys_errors)))),
            "random_rmse": float(np.sqrt(np.mean(np.square(rand_errors)))),
            "systematic_mean_error": float(np.mean(sys_errors)),
        }
        rows.append([
            name, f"{delta:+.4f}",
            percent(details[name]["systematic_mean_error"]),
            percent(details[name]["systematic_rmse"]),
            percent(details[name]["random_rmse"]),
        ])
    report = format_table(
        ["benchmark", "intraclass corr.", "systematic mean error",
         "systematic RMSE", "random RMSE"],
        rows,
        title="Ablation: systematic vs simple random sampling "
              f"(U={ctx.unit_size}, {machine_name})")
    return {"details": details, "report": report}


def _ablation_tidy(data: dict) -> list[dict]:
    return [{"benchmark": name, **detail}
            for name, detail in data["details"].items()]


# ----------------------------------------------------------------------
# Adaptive run-to-target-CI sampling vs the two-round procedure
# ----------------------------------------------------------------------
def _adaptive_grid(ctx: StudyContext, machine_name: str = "8-way",
                   metric: str = "cpi") -> list:
    """One adaptive and one two-round RunSpec per benchmark.

    Covers the configured suite plus the extra stress-test workloads
    (phase-shifting and irregular pointer chasing), which are exactly
    the population shapes a fixed up-front sample size handles worst.
    Benchmark lengths are measured functionally per spec (no reference
    simulations needed), so the study runs standalone.
    """
    from repro.api import AdaptiveStrategy, RunSpec, SystematicStrategy

    machine = ctx.machine(machine_name)
    warming = ctx.warming(machine)
    n_min = max(8, ctx.n_init // 8)
    batch_size = max(8, ctx.n_init // 6)
    specs = []
    for name in [*ctx.suite_names, *EXTRA_NAMES]:
        common = dict(
            benchmark=name, machine=machine_name, scale=ctx.scale,
            metric=metric, epsilon=ctx.epsilon, confidence=ctx.confidence,
            checkpoints=ctx.checkpoints,
        )
        specs.append(RunSpec(strategy=AdaptiveStrategy(
            unit_size=ctx.unit_size, n_min=n_min, batch_size=batch_size,
            detailed_warming=warming, functional_warming=True), **common))
        specs.append(RunSpec(strategy=SystematicStrategy(
            unit_size=ctx.unit_size, n_init=ctx.n_init, max_rounds=2,
            detailed_warming=warming, functional_warming=True), **common))
    return specs


def _adaptive_analyze(ctx: StudyContext, results: ResultSet,
                      machine_name: str = "8-way",
                      metric: str = "cpi") -> dict:
    """Per-benchmark cost and achieved-CI comparison of the two modes.

    The adaptive mode's achieved CI is the finite-population-corrected
    interval its stopping rule operates on (``strategy_info``); the
    two-round column shows the paper procedure's uncorrected interval
    alongside its total measured-instruction bill (every round counts).
    """
    entries: dict[str, dict] = {}
    for name in [*ctx.suite_names, *EXTRA_NAMES]:
        adaptive = results.filter(benchmark=name, strategy="adaptive")[0]
        two_round = results.filter(benchmark=name, strategy="systematic")[0]
        achieved_ci = adaptive.strategy_info.get(
            "achieved_ci", adaptive.confidence_interval)
        entries[name] = {
            "adaptive_n": adaptive.sample_size,
            "adaptive_measured": adaptive.instructions_measured,
            "adaptive_ci": adaptive.confidence_interval,
            "adaptive_ci_corrected": achieved_ci,
            "adaptive_stopping": adaptive.strategy_info.get("stopping"),
            "adaptive_batches": len(adaptive.strategy_info.get("batches", ())),
            "adaptive_meets_target": achieved_ci <= adaptive.spec.epsilon,
            "two_round_n": two_round.sample_size,
            "two_round_rounds": two_round.rounds,
            "two_round_measured": two_round.instructions_measured,
            "two_round_ci": two_round.confidence_interval,
            "adaptive_estimate": adaptive.estimate_mean,
            "two_round_estimate": two_round.estimate_mean,
            "adaptive_cheaper": (adaptive.instructions_measured
                                 <= two_round.instructions_measured),
        }

    cheaper = sum(e["adaptive_cheaper"] for e in entries.values())
    met = sum(e["adaptive_meets_target"] for e in entries.values())
    rows = []
    for name, e in entries.items():
        rows.append([
            name,
            e["adaptive_n"], e["adaptive_batches"], e["adaptive_stopping"],
            unsigned_percent(e["adaptive_ci_corrected"]),
            e["adaptive_measured"],
            e["two_round_n"], e["two_round_rounds"],
            unsigned_percent(e["two_round_ci"]),
            e["two_round_measured"],
            "yes" if e["adaptive_cheaper"] else "no",
        ])
    report = format_table(
        ["benchmark", "n (adaptive)", "batches", "stop",
         "CI (adaptive, FPC)", "measured (adaptive)", "n (2-round)",
         "rounds", "CI (2-round)", "measured (2-round)", "adaptive cheaper"],
        rows,
        title=f"Adaptive vs two-round {metric.upper()} estimation "
              f"(±{ctx.epsilon:.1%} target, U={ctx.unit_size}, "
              f"{machine_name}); adaptive meets target on "
              f"{met}/{len(entries)}, cheaper on {cheaper}/{len(entries)}")
    return {
        "entries": entries,
        "meets_target_count": met,
        "cheaper_count": cheaper,
        "total": len(entries),
        "report": report,
    }


def _adaptive_tidy(data: dict) -> list[dict]:
    return [{"benchmark": name, **entry}
            for name, entry in data["entries"].items()]


# ----------------------------------------------------------------------
# Registry: one Study per paper table/figure, in paper order
# ----------------------------------------------------------------------
register_study(Study(
    name="table3", title="Table 3: machine configurations",
    analyze=_table3_analyze, tidy=_table3_tidy))
register_study(Study(
    name="fig2", title="Figure 2: CV of CPI vs sampling unit size",
    analyze=_fig2_analyze, tidy=_fig2_tidy))
register_study(Study(
    name="fig3", title="Figure 3: minimum measured instructions per target",
    analyze=_fig3_analyze, tidy=_fig3_tidy))
register_study(Study(
    name="fig4", title="Figure 4: modeled simulation rate vs detailed warming",
    analyze=_fig4_analyze, tidy=_fig4_tidy))
register_study(Study(
    name="fig5", title="Figure 5: optimal sampling unit size",
    analyze=_fig5_analyze, tidy=_fig5_tidy))
register_study(Study(
    name="table4", title="Table 4: detailed warming requirements",
    analyze=_table4_analyze, tidy=_table4_tidy))
register_study(Study(
    name="table5", title="Table 5: CPI bias with functional warming",
    analyze=_table5_analyze, tidy=_table5_tidy))
register_study(Study(
    name="fig6", title="Figure 6: CPI estimation across the suite",
    grid=_fig6_grid, analyze=_fig6_analyze, tidy=_fig6_tidy))
register_study(Study(
    name="fig7", title="Figure 7: EPI estimation across the suite",
    grid=_fig7_grid, analyze=_fig7_analyze, tidy=_fig6_tidy))
register_study(Study(
    name="table6", title="Table 6: runtimes and speedups",
    analyze=_table6_analyze, tidy=_table6_tidy))
register_study(Study(
    name="fig8", title="Figure 8: SimPoint vs SMARTS CPI error",
    grid=_fig8_grid, analyze=_fig8_analyze, tidy=_fig8_tidy))
register_study(Study(
    name="ablation", title="Ablation: systematic vs simple random sampling",
    analyze=_ablation_analyze, tidy=_ablation_tidy))
register_study(Study(
    name="adaptive_vs_two_round",
    title="Adaptive run-to-target-CI sampling vs the two-round procedure",
    grid=_adaptive_grid, analyze=_adaptive_analyze, tidy=_adaptive_tidy))
