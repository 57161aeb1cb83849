"""Declarative run contracts: RunSpec in, RunResult out.

A :class:`RunSpec` fully describes one sampled-simulation run —
benchmark, machine, strategy, scale, metric, seed, and confidence
target — and nothing else; executing the same spec twice produces the
same estimates.  Both spec and result round-trip losslessly through
``to_dict`` / ``from_dict`` (plain-JSON payloads), which gives the
executor its cache key (:meth:`RunSpec.key`) and on-disk cache format
for free.
A spec is the one validator of a run: it rejects what a worker could
not run with a :class:`SpecError`, so no caller re-checks it.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace

from repro.config.machines import CONFIGURATIONS
from repro.core.estimates import UnitRecord
from repro.core.stats import CONFIDENCE_997, DEFAULT_EPSILON
from repro.api.strategies import (
    STRATEGIES,
    SamplingStrategy,
    StrategyOutcome,
    SystematicStrategy,
)
from repro.workloads.suite import EXTRA_NAMES, SUITE_NAMES

#: Benchmarks a spec may name: the suite, the extra stress-test
#: workloads, and the tiny test benchmark.
BENCHMARK_NAMES = (*SUITE_NAMES, *EXTRA_NAMES, "micro.syn")

#: Machines a spec may name: the registry's names, of which ``"8-way"``
#: and ``"16-way"`` run as the scaled Table 3 pair (``resolve_machine``).
MACHINE_NAMES = tuple(CONFIGURATIONS)

_CHOICES = {"benchmark": BENCHMARK_NAMES, "machine": MACHINE_NAMES,
            "metric": ("cpi", "epi"), "checkpoints": ("off", "auto")}


class SpecError(ValueError):
    """A run description that cannot run.

    ``errors`` lists every problem as ``{"field": str, "message": str}``,
    in RunSpec field order (unknown fields last).
    """

    def __init__(self, errors: list[dict]):
        self.errors = list(errors)
        super().__init__("; ".join(
            f"{e['field']}: {e['message']}" for e in self.errors))


def _problem(name: str, value) -> str | None:
    """Why ``value`` cannot be the scalar RunSpec field ``name``, or None."""
    if name in _CHOICES:
        if value in _CHOICES[name]:
            return None
        return (f"unknown {name} {value!r}; "
                f"available: {list(_CHOICES[name])}")
    if name == "benchmark_length" and value is None:
        return None
    integer = name in ("seed", "benchmark_length")
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        return (f"expected {'an integer' if integer else 'a number'}, "
                f"got {value!r}")
    if name == "seed":
        return None if value >= 0 else f"must be non-negative, got {value!r}"
    if name == "confidence":
        return None if 0 < value < 1 else f"must be in (0, 1), got {value!r}"
    # scale, epsilon, benchmark_length (the comparison also rejects NaN).
    if 0 < value < math.inf:
        return None
    return f"must be positive and finite, got {value!r}"


def _strategy(value) -> tuple[SamplingStrategy | None, list[dict]]:
    """``(strategy, errors)`` for a strategy or its ``to_dict`` form."""
    if isinstance(value, SamplingStrategy):
        return value, []
    if not isinstance(value, dict):
        return None, [{"field": "strategy",
                       "message": f"expected a sampling strategy or its "
                                  f"dict form, got {value!r}"}]
    name = value.get("name")
    cls = STRATEGIES.get(name) if isinstance(name, str) else None
    if cls is None:
        return None, [{"field": "strategy.name",
                       "message": f"unknown strategy {name!r}; "
                                  f"available: {sorted(STRATEGIES)}"}]
    params = value.get("params", {})
    if not isinstance(params, dict):
        return None, [{"field": "strategy.params",
                       "message": f"expected an object, got {params!r}"}]
    try:
        return cls.from_params(dict(params)), []
    except (ValueError, TypeError) as exc:
        return None, [{"field": "strategy.params", "message": str(exc)}]


def _validate(values: dict) -> tuple[dict, list[dict]]:
    """Check the given RunSpec field values in field order.

    Returns the values with a dict-form strategy built, and every
    problem found.
    """
    errors = []
    for name in _FIELDS:
        if name not in values:
            continue
        if name == "strategy":
            strategy, problems = _strategy(values[name])
            values = {**values, name: strategy}
            errors += problems
            continue
        problem = _problem(name, values[name])
        length = values[name] if name == "benchmark_length" else None
        if problem is None and length is not None:
            # An omitted strategy (from_dict) is the default one.
            strategy = (values["strategy"] if "strategy" in values
                        else SystematicStrategy())
            unit = getattr(strategy, "unit_size", None)
            if unit and length < unit:
                problem = (f"shorter than one sampling unit ({unit} "
                           f"instructions), got {length!r}")
        if problem is not None:
            errors.append({"field": name, "message": problem})
    return values, errors


@dataclass(frozen=True)
class RunSpec:
    """Declarative description of one sampled-simulation run.

    Args:
        benchmark: A :data:`BENCHMARK_NAMES` entry (e.g. ``"gcc.syn"``,
            or ``"micro.syn"`` for the tiny test benchmark).
        machine: A :data:`MACHINE_NAMES` entry; ``"8-way"`` /
            ``"16-way"`` resolve to the scaled Table 3 configurations.
        strategy: The sampling strategy to run (or its ``to_dict`` form).
        scale: Benchmark length scale factor (positive, finite).
        metric: ``"cpi"`` or ``"epi"``.
        seed: Non-negative seed threaded into seed-consuming strategies
            (random unit selection, BBV clustering); systematic sampling
            ignores it.
        epsilon: Target relative confidence-interval half-width
            (positive, finite).
        confidence: Target confidence level, in (0, 1).
        benchmark_length: Optional explicit dynamic instruction count,
            at least one sampling unit; measured when omitted.
        checkpoints: ``"off"`` (default) or ``"auto"``.  Auto mode loads
            — building once if needed — the warm-state checkpoint set
            for this benchmark/machine/unit-size and restores at each
            sampling unit instead of fast-forwarding.  Estimates are
            bit-identical either way; only the fast-forward work
            bookkeeping changes (see ``RunResult.estimates_dict``).

    Raises:
        SpecError: listing every field that breaks these rules (a
            ``bool`` is not a number); no value is ever normalised.
    """

    benchmark: str
    machine: str = "8-way"
    strategy: SamplingStrategy = field(default_factory=SystematicStrategy)
    scale: float = 0.25
    metric: str = "cpi"
    seed: int = 0
    epsilon: float = DEFAULT_EPSILON
    confidence: float = CONFIDENCE_997
    benchmark_length: int | None = None
    checkpoints: str = "off"

    def __post_init__(self) -> None:
        values, errors = _validate(
            {name: getattr(self, name) for name in _FIELDS})
        if errors:
            raise SpecError(errors)
        if values["strategy"] is not self.strategy:
            object.__setattr__(self, "strategy", values["strategy"])

    # ------------------------------------------------------------------
    # Serialization / identity
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "machine": self.machine,
            "strategy": self.strategy.to_dict(),
            "scale": self.scale,
            "metric": self.metric,
            "seed": self.seed,
            "epsilon": self.epsilon,
            "confidence": self.confidence,
            "benchmark_length": self.benchmark_length,
            "checkpoints": self.checkpoints,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Build a spec from its ``to_dict`` form (omitted fields default).

        Raises one :class:`SpecError` listing every problem: a missing
        ``benchmark``, each bad value, and each unknown field.
        """
        if not isinstance(data, dict):
            raise SpecError([{"field": "spec",
                              "message": f"expected a JSON object, got "
                                         f"{type(data).__name__}"}])
        values, errors = _validate(
            {name: data[name] for name in _FIELDS if name in data})
        if "benchmark" not in data:
            errors.insert(0, {"field": "benchmark",
                              "message": "required field is missing"})
        errors += [{"field": name,
                    "message": f"unknown RunSpec field; known: "
                               f"{list(_FIELDS)}"}
                   for name in sorted(set(data) - set(_FIELDS))]
        if errors:
            raise SpecError(errors)
        return cls(**values)

    def key(self) -> str:
        """Stable content hash identifying this spec (cache key)."""
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def with_(self, **changes) -> "RunSpec":
        """A copy of this spec with the given fields replaced."""
        return replace(self, **changes)


#: RunSpec field names, in declaration (and error-report) order.
_FIELDS = tuple(f.name for f in fields(RunSpec))


@dataclass
class RunResult:
    """Everything one executed RunSpec produced.

    ``estimate_mean`` / ``estimate_cv`` / ``confidence_interval`` always
    describe the spec's requested metric over the *final* sampling run;
    ``round_estimates`` keeps the per-round view (the SMARTS procedure
    runs up to two rounds), and ``units`` the raw per-unit measurements
    of the final run.
    """

    spec: RunSpec
    estimate_mean: float
    estimate_cv: float
    confidence_interval: float
    target_met: bool
    sample_size: int
    population_size: int
    benchmark_length: int
    rounds: int
    round_estimates: list[dict] = field(default_factory=list)
    tuned_sample_sizes: list[int] = field(default_factory=list)
    instructions_measured: int = 0
    instructions_detailed_warming: int = 0
    instructions_fastforwarded: int = 0
    instructions_restored: int = 0
    checkpoint_restores: int = 0
    detailed_fraction: float = 0.0
    wall_seconds: float = 0.0
    units: list[UnitRecord] = field(default_factory=list)
    #: Strategy-specific extras (e.g. phase allocation for stratified).
    strategy_info: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction from a strategy outcome
    # ------------------------------------------------------------------
    @classmethod
    def from_outcome(cls, spec: RunSpec, outcome: StrategyOutcome,
                     wall_seconds: float | None = None) -> "RunResult":
        rounds = []
        for run in outcome.runs:
            estimate = run.cpi if spec.metric == "cpi" else run.epi
            rounds.append({
                "sample_size": run.sample_size,
                "mean": estimate.mean,
                "cv": estimate.coefficient_of_variation,
                "ci": estimate.confidence_interval(spec.confidence),
            })
        final = outcome.final_run
        final_round = rounds[-1]
        if wall_seconds is None:
            wall_seconds = sum(run.wall_seconds for run in outcome.runs)
        return cls(
            spec=spec,
            estimate_mean=final_round["mean"],
            estimate_cv=final_round["cv"],
            confidence_interval=final_round["ci"],
            target_met=final_round["ci"] <= spec.epsilon,
            sample_size=final.sample_size,
            population_size=final.population_size,
            benchmark_length=final.benchmark_length,
            rounds=len(outcome.runs),
            round_estimates=rounds,
            tuned_sample_sizes=list(outcome.tuned_sample_sizes),
            instructions_measured=sum(
                run.instructions_measured for run in outcome.runs),
            instructions_detailed_warming=sum(
                run.instructions_detailed_warming for run in outcome.runs),
            instructions_fastforwarded=sum(
                run.instructions_fastforwarded for run in outcome.runs),
            instructions_restored=sum(
                run.instructions_restored for run in outcome.runs),
            checkpoint_restores=sum(
                run.checkpoint_restores for run in outcome.runs),
            detailed_fraction=final.detailed_fraction,
            wall_seconds=wall_seconds,
            units=list(final.units),
            strategy_info=dict(outcome.info),
        )

    # ------------------------------------------------------------------
    # Convenience views
    # ------------------------------------------------------------------
    @property
    def initial_estimate(self) -> dict:
        """The first round's estimate summary."""
        return self.round_estimates[0]

    def summary(self) -> dict:
        """Compact flat dictionary for tables and quick inspection."""
        return {
            "benchmark": self.spec.benchmark,
            "machine": self.spec.machine,
            "strategy": self.spec.strategy.name,
            "metric": self.spec.metric,
            "estimate": self.estimate_mean,
            "cv": self.estimate_cv,
            "ci": self.confidence_interval,
            "target_met": self.target_met,
            "n": self.sample_size,
            "rounds": self.rounds,
            "measured_instructions": self.instructions_measured,
            "detailed_fraction": self.detailed_fraction,
            "checkpoint_restores": self.checkpoint_restores,
            "wall_seconds": self.wall_seconds,
        }

    def estimates_dict(self) -> dict:
        """The estimate-determining payload, for equivalence checks.

        This is :meth:`to_dict` minus the fields that describe *how much
        work* the run performed rather than *what it estimated*: wall
        time, fast-forwarded/restored instruction counts, restore
        counts, and the spec's ``checkpoints`` mode.  A checkpointed run
        and a serial run of the same spec are bit-identical under this
        view — per-unit cycle counts included — which is the correctness
        contract of the checkpoint subsystem.
        """
        payload = self.to_dict()
        for key in ("wall_seconds", "instructions_fastforwarded",
                    "instructions_restored", "checkpoint_restores"):
            payload.pop(key)
        payload["spec"].pop("checkpoints")
        return payload

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "estimate_mean": self.estimate_mean,
            "estimate_cv": self.estimate_cv,
            "confidence_interval": self.confidence_interval,
            "target_met": self.target_met,
            "sample_size": self.sample_size,
            "population_size": self.population_size,
            "benchmark_length": self.benchmark_length,
            "rounds": self.rounds,
            "round_estimates": self.round_estimates,
            "tuned_sample_sizes": self.tuned_sample_sizes,
            "instructions_measured": self.instructions_measured,
            "instructions_detailed_warming": self.instructions_detailed_warming,
            "instructions_fastforwarded": self.instructions_fastforwarded,
            "instructions_restored": self.instructions_restored,
            "checkpoint_restores": self.checkpoint_restores,
            "detailed_fraction": self.detailed_fraction,
            "wall_seconds": self.wall_seconds,
            "units": [
                {"index": u.index, "instructions": u.instructions,
                 "cycles": u.cycles, "energy": u.energy,
                 "truncated": u.truncated}
                for u in self.units
            ],
            "strategy_info": self.strategy_info,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        data = dict(data)
        data["spec"] = RunSpec.from_dict(data["spec"])
        data["units"] = [UnitRecord(**u) for u in data["units"]]
        # Ignore keys this version doesn't know (e.g. the CLI's
        # "validation" annotation, or fields added by newer versions),
        # so annotated payloads and future cache entries still load.
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "RunResult":
        return cls.from_dict(json.loads(payload))
