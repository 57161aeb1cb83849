"""Tests for the repro.api contracts: strategies, RunSpec, RunResult."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    BENCHMARK_NAMES,
    MACHINE_NAMES,
    STRATEGIES,
    AdaptiveStrategy,
    RandomStrategy,
    RunResult,
    RunSpec,
    SamplingStrategy,
    SpecError,
    StratifiedStrategy,
    SystematicStrategy,
    get_strategy,
    register_strategy,
    strategy_from_dict,
)
from repro.api.executor import CACHE_VERSION
from repro.core.estimates import UnitRecord


class TestStrategyRegistry:
    def test_builtin_strategies_registered(self):
        assert STRATEGIES["systematic"] is SystematicStrategy
        assert STRATEGIES["adaptive"] is AdaptiveStrategy
        assert STRATEGIES["random"] is RandomStrategy
        assert STRATEGIES["stratified"] is StratifiedStrategy

    def test_get_strategy_dispatch(self):
        assert get_strategy("systematic") is SystematicStrategy
        assert get_strategy("random") is RandomStrategy

    def test_get_strategy_unknown(self):
        with pytest.raises(KeyError, match="unknown strategy"):
            get_strategy("quantum")

    def test_strategy_roundtrip_through_dict(self):
        strategy = RandomStrategy(unit_size=25, sample_size=77, seed_offset=3)
        rebuilt = strategy_from_dict(strategy.to_dict())
        assert rebuilt == strategy
        assert isinstance(rebuilt, RandomStrategy)

    def test_from_params_rejects_unknown_parameters(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            strategy_from_dict({"name": "systematic",
                                "params": {"warp_factor": 9}})

    def test_duplicate_name_rejected(self):
        from dataclasses import dataclass
        from typing import ClassVar

        with pytest.raises(ValueError, match="already registered"):
            @register_strategy
            @dataclass(frozen=True)
            class Impostor(SamplingStrategy):
                name: ClassVar[str] = "systematic"

                def run(self, *args, **kwargs):
                    raise NotImplementedError

    def test_custom_strategy_registration(self):
        from dataclasses import dataclass
        from typing import ClassVar

        @register_strategy
        @dataclass(frozen=True)
        class EveryNth(SamplingStrategy):
            name: ClassVar[str] = "test-every-nth"
            n: int = 10

            def run(self, *args, **kwargs):
                raise NotImplementedError

        try:
            assert get_strategy("test-every-nth") is EveryNth
            assert strategy_from_dict(
                {"name": "test-every-nth", "params": {"n": 4}}) == EveryNth(n=4)
        finally:
            del STRATEGIES["test-every-nth"]


class TestRunSpec:
    def test_json_roundtrip_equality(self):
        spec = RunSpec(
            benchmark="gcc.syn",
            machine="16-way",
            strategy=StratifiedStrategy(unit_size=25, sample_size=120,
                                        max_phases=4),
            scale=0.1,
            metric="epi",
            seed=42,
            epsilon=0.05,
            confidence=0.95,
            benchmark_length=123456,
        )
        payload = json.dumps(spec.to_dict())
        rebuilt = RunSpec.from_dict(json.loads(payload))
        assert rebuilt == spec
        assert rebuilt.key() == spec.key()

    def test_key_distinguishes_specs(self):
        base = RunSpec(benchmark="gcc.syn")
        assert base.key() != base.with_(seed=1).key()
        assert base.key() != base.with_(machine="16-way").key()
        assert base.key() != base.with_(
            strategy=RandomStrategy()).key()
        # Same content, fresh objects -> same key.
        assert base.key() == RunSpec(benchmark="gcc.syn").key()

    def test_adaptive_spec_json_and_cache_key_roundtrip(self):
        """An adaptive RunSpec must survive serialization with its key
        (the run-result cache and the server both depend on it)."""
        spec = RunSpec(
            benchmark="mcf.syn",
            strategy=AdaptiveStrategy(unit_size=25, n_min=10, n_max=200,
                                      batch_size=40, detailed_warming=64),
            scale=0.1,
            epsilon=0.05,
        )
        payload = json.dumps(spec.to_dict())
        rebuilt = RunSpec.from_dict(json.loads(payload))
        assert rebuilt == spec
        assert rebuilt.strategy == spec.strategy
        assert rebuilt.key() == spec.key()
        # Guards are part of the identity: changing one changes the key.
        assert spec.key() != spec.with_(
            strategy=AdaptiveStrategy(unit_size=25, n_min=10, n_max=None,
                                      batch_size=40,
                                      detailed_warming=64)).key()

    def test_adaptive_guard_validation(self):
        with pytest.raises(ValueError, match="n_min"):
            AdaptiveStrategy(n_min=1)
        with pytest.raises(ValueError, match="batch_size"):
            AdaptiveStrategy(batch_size=0)
        with pytest.raises(ValueError, match="n_max"):
            AdaptiveStrategy(n_min=30, n_max=10)

    def test_strategy_dict_coerced(self):
        spec = RunSpec(benchmark="gcc.syn",
                       strategy={"name": "random", "params": {"sample_size": 9}})
        assert spec.strategy == RandomStrategy(sample_size=9)

    def test_validation(self):
        with pytest.raises(ValueError, match="metric"):
            RunSpec(benchmark="gcc.syn", metric="ipc")
        with pytest.raises(ValueError, match="scale"):
            RunSpec(benchmark="gcc.syn", scale=0)


class TestSpecValidation:
    """A spec rejects what a worker could not run, at construction."""

    @pytest.mark.parametrize("field,value", [
        ("benchmark", "nope.syn"),
        ("machine", "3-way"),
        ("epsilon", 0),
        ("epsilon", math.inf),
        ("confidence", 1.5),
        ("confidence", 1.0),
        ("seed", 1.5),
        ("seed", -1),
        ("seed", True),
        ("scale", math.nan),
        ("scale", "big"),
        ("benchmark_length", -3),
        ("benchmark_length", 0),
        ("benchmark_length", 49),
        ("metric", "ipc"),
        ("checkpoints", "on"),
        ("strategy", "systematic"),
    ])
    def test_invalid_field_raises_spec_error(self, field, value):
        with pytest.raises(SpecError) as info:
            RunSpec(**{"benchmark": "micro.syn", field: value})
        assert isinstance(info.value, ValueError)
        assert [e["field"] for e in info.value.errors] == [field]

    @pytest.mark.parametrize("cls,params,field", [
        (SystematicStrategy, {"unit_size": 0, "n_init": 1}, "unit_size"),
        (SystematicStrategy, {"n_init": 0}, "n_init"),
        (SystematicStrategy, {"max_rounds": 0}, "max_rounds"),
        (SystematicStrategy, {"offset": -1}, "offset"),
        (SystematicStrategy, {"detailed_warming": -5}, "detailed_warming"),
        (SystematicStrategy, {"unit_size": 2.5}, "unit_size"),
        (RandomStrategy, {"sample_size": 0}, "sample_size"),
        (StratifiedStrategy, {"units_per_interval": 0},
         "units_per_interval"),
        (StratifiedStrategy, {"max_phases": 0}, "max_phases"),
        (AdaptiveStrategy, {"batch_size": True}, "batch_size"),
    ])
    def test_invalid_strategy_parameter(self, cls, params, field):
        with pytest.raises(SpecError) as info:
            cls(**params)
        assert [e["field"] for e in info.value.errors] == [field]

    def test_values_used_by_studies_examples_and_bench_construct(self):
        SystematicStrategy(unit_size=25, n_init=1, max_rounds=1, offset=0,
                           detailed_warming=0)
        AdaptiveStrategy(unit_size=50, n_min=8, n_max=None, batch_size=8)
        RandomStrategy(unit_size=50, sample_size=300, seed_offset=0)
        StratifiedStrategy(unit_size=50, sample_size=300,
                           units_per_interval=20, max_phases=6)
        for benchmark in BENCHMARK_NAMES:
            for machine in MACHINE_NAMES:
                RunSpec(benchmark=benchmark, machine=machine, scale=1)

    def test_from_dict_reports_every_problem_in_field_order(self):
        with pytest.raises(SpecError) as info:
            RunSpec.from_dict({
                "machine": "3-way", "wat": 1, "scale": math.nan,
                "strategy": {"name": "systematic",
                             "params": {"unit_size": 0}},
                "confidence": 1.5, "benchmark_length": -5})
        assert [e["field"] for e in info.value.errors] == [
            "benchmark", "machine", "strategy.params", "scale",
            "confidence", "benchmark_length", "wat"]
        assert "required" in info.value.errors[0]["message"]
        assert "unit_size" in info.value.errors[2]["message"]

    def test_from_dict_strategy_problems(self):
        with pytest.raises(SpecError) as info:
            RunSpec.from_dict({"benchmark": "micro.syn",
                               "strategy": {"name": "magic"}})
        assert info.value.errors[0]["field"] == "strategy.name"
        with pytest.raises(SpecError) as info:
            RunSpec.from_dict({"benchmark": "micro.syn",
                               "strategy": {"name": "systematic",
                                            "params": [1]}})
        assert info.value.errors[0]["field"] == "strategy.params"
        with pytest.raises(SpecError) as info:
            RunSpec.from_dict(["micro.syn"])
        assert info.value.errors[0]["field"] == "spec"

    def test_benchmark_length_must_hold_one_unit_of_the_strategy(self):
        strategy = {"name": "random", "params": {"unit_size": 100}}
        with pytest.raises(SpecError) as info:
            RunSpec.from_dict({"benchmark": "micro.syn",
                               "benchmark_length": 99, "strategy": strategy})
        assert info.value.errors[0]["field"] == "benchmark_length"
        assert RunSpec.from_dict({"benchmark": "micro.syn",
                                  "benchmark_length": 100,
                                  "strategy": strategy})
        with pytest.raises(SpecError):
            RunSpec.from_dict({"benchmark": "micro.syn",
                               "benchmark_length": 49})

    def test_from_dict_fills_omitted_fields_from_defaults(self):
        assert RunSpec.from_dict({"benchmark": "micro.syn"}) \
            == RunSpec(benchmark="micro.syn")

    def test_validation_never_normalises(self):
        spec = RunSpec(benchmark="gzip.syn", scale=1, epsilon=1)
        assert type(spec.scale) is int and type(spec.epsilon) is int
        assert spec.to_dict()["scale"] == 1
        assert json.dumps(spec.to_dict()["scale"]) == "1"


#: Specs and their keys as recorded before validation moved into the
#: spec; a key change would orphan every cached result.
PINNED_KEYS = [
    (RunSpec(benchmark="micro.syn"), "1660b1d17ca34ef2"),
    (RunSpec(benchmark="gcc.syn", machine="16-way", scale=0.05,
             metric="epi", seed=3, epsilon=0.5, confidence=0.95,
             benchmark_length=12345, checkpoints="auto"),
     "c2f7e35404efe99f"),
    (RunSpec(benchmark="mcf.syn", machine="8-way-scaled",
             strategy=SystematicStrategy(
                 unit_size=25, n_init=40, max_rounds=1, offset=2,
                 detailed_warming=64, functional_warming=False)),
     "018bb8670b913209"),
    (RunSpec(benchmark="equake.syn", machine="16-way-scaled",
             strategy=AdaptiveStrategy(unit_size=100, n_min=10, n_max=500,
                                       batch_size=20)),
     "29dbad0a069ef6af"),
    (RunSpec(benchmark="gzip.syn", scale=1,
             strategy=RandomStrategy(sample_size=50, seed_offset=7)),
     "335ca81de6c21769"),
    (RunSpec(benchmark="mesa.syn", epsilon=0.03,
             strategy=StratifiedStrategy(sample_size=60,
                                         units_per_interval=10,
                                         max_phases=4,
                                         profile_cache=False)),
     "fa0c8021183dd341"),
]


class TestSpecKeys:
    @pytest.mark.parametrize("spec,key", PINNED_KEYS)
    def test_key_is_pinned(self, spec, key):
        assert spec.key() == key
        assert RunSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) \
            .key() == key

    def test_cache_version_is_pinned(self):
        assert CACHE_VERSION == 4


_optional_int = st.one_of(st.none(), st.integers(0, 5000))
_strategies = st.one_of(
    st.builds(SystematicStrategy, unit_size=st.integers(1, 500),
              n_init=st.integers(1, 1000), max_rounds=st.integers(1, 3),
              offset=st.integers(0, 100), detailed_warming=_optional_int,
              functional_warming=st.booleans()),
    st.builds(AdaptiveStrategy, unit_size=st.integers(1, 500),
              n_min=st.integers(2, 50), n_max=st.none(),
              batch_size=st.integers(1, 200),
              detailed_warming=_optional_int),
    st.builds(RandomStrategy, unit_size=st.integers(1, 500),
              sample_size=st.integers(1, 1000),
              seed_offset=st.integers(-100, 100)),
    st.builds(StratifiedStrategy, unit_size=st.integers(1, 500),
              sample_size=st.integers(1, 1000),
              units_per_interval=st.integers(1, 50),
              max_phases=st.integers(1, 10)),
)
_positive = st.one_of(
    st.integers(1, 10**6),
    st.floats(min_value=1e-9, max_value=1e6, allow_nan=False,
              allow_infinity=False))
_specs = st.builds(
    RunSpec,
    benchmark=st.sampled_from(BENCHMARK_NAMES),
    machine=st.sampled_from(MACHINE_NAMES),
    strategy=_strategies,
    scale=_positive,
    metric=st.sampled_from(["cpi", "epi"]),
    seed=st.integers(0, 2**32 - 1),
    epsilon=_positive,
    confidence=st.floats(min_value=1e-6, max_value=1 - 1e-6),
    benchmark_length=st.one_of(st.none(), st.integers(500, 10**9)),
    checkpoints=st.sampled_from(["off", "auto"]),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_specs)
def test_from_dict_round_trip_keeps_the_key(spec):
    payload = json.loads(json.dumps(spec.to_dict()))
    rebuilt = RunSpec.from_dict(payload)
    assert rebuilt == spec
    assert rebuilt.key() == spec.key()
    assert rebuilt.to_dict() == spec.to_dict()


class TestRunResult:
    def _result(self) -> RunResult:
        spec = RunSpec(benchmark="gcc.syn", scale=0.05)
        return RunResult(
            spec=spec,
            estimate_mean=1.5,
            estimate_cv=0.3,
            confidence_interval=0.04,
            target_met=True,
            sample_size=100,
            population_size=400,
            benchmark_length=20000,
            rounds=2,
            round_estimates=[
                {"sample_size": 60, "mean": 1.52, "cv": 0.31, "ci": 0.09},
                {"sample_size": 100, "mean": 1.5, "cv": 0.3, "ci": 0.04},
            ],
            tuned_sample_sizes=[100],
            instructions_measured=8000,
            detailed_fraction=0.4,
            wall_seconds=1.25,
            units=[UnitRecord(index=3, instructions=50, cycles=75, energy=1.0)],
            strategy_info={"phases": 3},
        )

    def test_json_roundtrip_equality(self):
        result = self._result()
        assert RunResult.from_json(result.to_json()) == result

    def test_initial_estimate_and_summary(self):
        result = self._result()
        assert result.initial_estimate["sample_size"] == 60
        summary = result.summary()
        assert summary["estimate"] == 1.5
        assert summary["strategy"] == "systematic"
        assert summary["rounds"] == 2
