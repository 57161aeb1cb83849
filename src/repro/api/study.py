"""Declarative studies: named experiment grids plus attached analyses.

A :class:`Study` is the data that used to be a bespoke harness function:
a name, a *grid* of :class:`~repro.api.spec.RunSpec`s (possibly empty —
several of the paper's figures are pure analyses over reference traces),
and an *analysis* that turns the executed :class:`~repro.api.resultset.ResultSet`
into the experiment's payload (structured data plus a formatted text
report).  Studies live in a registry and execute through
:meth:`repro.api.Session.run_study`, which gives every experiment the
session layer's parallel batches, on-disk result caching, and
checkpointed warming for free.

:class:`StudyContext` carries the shared configuration and caches
(machines, benchmarks, reference runs, the session) that every study
reads.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from repro.config.machines import MachineConfig, scaled_16way, scaled_8way
from repro.core.estimates import ReferenceResult
from repro.core.procedure import recommended_warming
from repro.core.stats import CONFIDENCE_997, DEFAULT_EPSILON
from repro.workloads.suite import SUITE_NAMES, Benchmark, get_benchmark
from repro.api.resultset import ResultSet, rows_to_csv


@dataclass
class StudyContext:
    """Shared configuration and caches for all studies."""

    scale: float = field(
        default_factory=lambda: float(os.environ.get("REPRO_SCALE", "0.6")))
    fast: bool = field(
        default_factory=lambda: os.environ.get("REPRO_FAST", "0") == "1")
    suite_names: list[str] = field(default_factory=list)
    unit_size: int = 50
    chunk_size: int = 25
    n_init: int = 300
    epsilon: float = DEFAULT_EPSILON
    confidence: float = CONFIDENCE_997
    use_cache: bool = True
    #: Worker processes for suite sweeps (0/None = serial; REPRO_WORKERS).
    max_workers: int | None = field(
        default_factory=lambda: int(os.environ.get("REPRO_WORKERS") or 0) or None)
    #: Checkpoint mode for suite sweeps ("off"/"auto"; REPRO_CHECKPOINTS).
    checkpoints: str = field(
        default_factory=lambda: os.environ.get("REPRO_CHECKPOINTS", "off"))

    def __post_init__(self) -> None:
        if not self.suite_names:
            env = os.environ.get("REPRO_SUITE", "")
            if env:
                self.suite_names = [name.strip() for name in env.split(",") if name.strip()]
            else:
                self.suite_names = list(SUITE_NAMES)
        self._benchmarks: dict[str, Benchmark] = {}
        self._lengths: dict[str, int] = {}
        self._references: dict[tuple[str, str], ReferenceResult] = {}
        self._rates: dict[tuple[str, str], object] = {}
        self._machines = {"8-way": scaled_8way(), "16-way": scaled_16way()}
        self._session = None

    # ------------------------------------------------------------------
    # Machines / benchmarks / references
    # ------------------------------------------------------------------
    @property
    def machines(self) -> dict[str, MachineConfig]:
        return self._machines

    def machine(self, name: str) -> MachineConfig:
        return self._machines[name]

    def warming(self, machine: MachineConfig) -> int:
        return recommended_warming(machine)

    def benchmark(self, name: str) -> Benchmark:
        if name not in self._benchmarks:
            self._benchmarks[name] = get_benchmark(name, scale=self.scale)
        return self._benchmarks[name]

    def benchmark_length(self, name: str) -> int:
        if name not in self._lengths:
            self._lengths[name] = self.reference(name, "8-way").instructions
        return self._lengths[name]

    def reference(self, benchmark_name: str, machine_name: str) -> ReferenceResult:
        key = (benchmark_name, machine_name)
        if key not in self._references:
            from repro.harness.reference import run_reference

            benchmark = self.benchmark(benchmark_name)
            # When the study's sweeps run with checkpoints, let the
            # reference pass capture the checkpoint set as it goes: one
            # warm pass over the stream populates both the reference
            # trace and the checkpoint store, and the separate
            # functional build pass never runs.
            self._references[key] = run_reference(
                benchmark.program,
                self.machine(machine_name),
                chunk_size=self.chunk_size,
                use_cache=self.use_cache,
                capture_units=(self.unit_size
                               if self.checkpoints == "auto" else None),
            )
        return self._references[key]

    def measured_rates(self, benchmark_name: str, machine_name: str):
        """This host's simulator rates on one benchmark and machine
        (:func:`repro.harness.runtime.measure_rates`), measured once per
        context so every study that reports them reports one
        measurement."""
        key = (benchmark_name, machine_name)
        if key not in self._rates:
            from repro.harness.runtime import measure_rates

            self._rates[key] = measure_rates(
                self.benchmark(benchmark_name).program,
                self.machine(machine_name))
        return self._rates[key]

    def subset(self, count: int) -> list[str]:
        """A smaller, behaviourally diverse subset for expensive sweeps."""
        preferred = ["gcc.syn", "mcf.syn", "ammp.syn", "gzip.syn", "mgrid.syn",
                     "vpr.syn", "mesa.syn", "bzip2.syn"]
        names = [n for n in preferred if n in self.suite_names]
        names += [n for n in self.suite_names if n not in names]
        return names[:count]

    # ------------------------------------------------------------------
    # Session-layer sweeps
    # ------------------------------------------------------------------
    @property
    def session(self):
        """The :class:`repro.api.Session` used for suite sweeps."""
        if self._session is None:
            from repro.api import Session

            self._session = Session(max_workers=self.max_workers,
                                    use_cache=self.use_cache)
        return self._session

    def estimation_spec(self, benchmark_name: str, machine_name: str,
                        metric: str = "cpi", max_rounds: int = 2):
        """The RunSpec for one suite-sweep cell (Fig 6/7/8 style)."""
        from repro.api import RunSpec, SystematicStrategy

        machine = self.machine(machine_name)
        return RunSpec(
            benchmark=benchmark_name,
            machine=machine_name,
            strategy=SystematicStrategy(
                unit_size=self.unit_size,
                n_init=self.n_init,
                max_rounds=max_rounds,
                detailed_warming=self.warming(machine),
                functional_warming=True,
            ),
            scale=self.scale,
            metric=metric,
            epsilon=self.epsilon,
            confidence=self.confidence,
            benchmark_length=self.reference(benchmark_name,
                                            machine_name).instructions,
            checkpoints=self.checkpoints,
        )


@lru_cache(maxsize=1)
def default_context() -> StudyContext:
    """Process-wide study context (shared caches across benchmarks)."""
    return StudyContext()


# ----------------------------------------------------------------------
# Study definitions and registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Study:
    """One declarative experiment: a spec grid plus an analysis.

    Args:
        name: Registry key (also the CLI name, e.g. ``"fig6"``).
        title: Human-readable one-liner for listings.
        grid: ``grid(ctx, **params) -> list[RunSpec]`` building the
            study's run grid; ``None`` for pure-analysis studies.
        analyze: ``analyze(ctx, results, **params) -> dict`` turning the
            executed :class:`ResultSet` into the experiment payload
            (must include a formatted ``"report"`` string).
        tidy: Optional ``tidy(data) -> list[dict]`` flattening the
            payload into tidy rows for CSV/JSON export.
    """

    name: str
    title: str
    analyze: Callable[..., dict]
    grid: Callable[..., list] | None = None
    tidy: Callable[[dict], list[dict]] | None = None

    def describe(self) -> dict:
        """Flat metadata row for ``study ls`` style listings."""
        return {
            "name": self.name,
            "title": self.title,
            "has_grid": self.grid is not None,
        }


STUDIES: dict[str, Study] = {}


def register_study(study: Study) -> Study:
    """Add a study to the global registry (idempotent per name/object)."""
    existing = STUDIES.get(study.name)
    if existing is not None and existing is not study:
        raise ValueError(f"study name {study.name!r} already registered")
    STUDIES[study.name] = study
    return study


def get_study(name: str) -> Study:
    """Look up a registered study by name."""
    try:
        return STUDIES[name]
    except KeyError:
        raise KeyError(f"unknown study {name!r}; "
                       f"available: {sorted(STUDIES)}") from None


def study_names() -> tuple[str, ...]:
    """Registered study names, in registration order."""
    return tuple(STUDIES)


@dataclass
class StudyReport:
    """What :meth:`Session.run_study` returns.

    ``data`` is the study's full payload (structured data plus the
    formatted ``"report"`` string).  ``rows`` is the tidy flattening,
    and ``results`` the executed grid (empty for pure-analysis
    studies).
    """

    study: str
    title: str
    data: dict
    rows: list[dict] = field(default_factory=list)
    results: ResultSet = field(default_factory=ResultSet)

    @property
    def report(self) -> str:
        """The formatted text report."""
        return self.data.get("report", "")

    def rows_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.rows, indent=indent, sort_keys=True,
                          default=_json_default)

    def rows_csv(self) -> str:
        return rows_to_csv(self.rows)


def _json_default(value):
    """Encode the numpy scalars that slip into tidy rows."""
    import numpy as np

    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)
