"""Tests for the repro.api session layer: execution, caching, parallelism.

The specs here run the tiny ``micro.syn`` benchmark (~15k instructions)
or suite benchmarks at very small scale so the whole module stays fast.
"""

import pytest

from repro.api import (
    RandomStrategy,
    ResultCache,
    RunSpec,
    Session,
    StratifiedStrategy,
    SystematicStrategy,
    execute_spec,
    resolve_benchmark,
    resolve_machine,
)

@pytest.fixture(autouse=True)
def isolated_artifact_store(tmp_path, monkeypatch):
    """Keep stratified runs' BBV profiles out of the repo's store."""
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "artifacts"))


#: A cheap systematic spec on the micro benchmark.
MICRO_SPEC = RunSpec(
    benchmark="micro.syn",
    strategy=SystematicStrategy(unit_size=25, n_init=40, max_rounds=1,
                                detailed_warming=64),
    epsilon=0.5,
)


class TestResolvers:
    def test_resolve_machine_scaled_names(self):
        assert resolve_machine("8-way").name == "8-way-scaled"
        assert resolve_machine("16-way").name == "16-way-scaled"
        assert resolve_machine("8-way-scaled").name == "8-way-scaled"

    def test_resolve_benchmark(self):
        assert resolve_benchmark("micro.syn", 1.0).name == "micro.syn"
        assert resolve_benchmark("gzip.syn", 0.05).name == "gzip.syn"


class TestExecuteSpec:
    def test_systematic(self):
        result = execute_spec(MICRO_SPEC)
        assert result.spec == MICRO_SPEC
        assert result.estimate_mean > 0
        assert result.sample_size >= 40
        assert result.rounds == 1
        assert len(result.units) == result.sample_size
        assert result.benchmark_length > 0

    def test_deterministic(self):
        a = execute_spec(MICRO_SPEC)
        b = execute_spec(MICRO_SPEC)
        assert a.estimate_mean == b.estimate_mean
        assert a.units == b.units

    def test_random_strategy_seeded(self):
        spec = MICRO_SPEC.with_(
            strategy=RandomStrategy(unit_size=25, sample_size=40,
                                    detailed_warming=64))
        a = execute_spec(spec.with_(seed=1))
        b = execute_spec(spec.with_(seed=1))
        c = execute_spec(spec.with_(seed=2))
        assert [u.index for u in a.units] == [u.index for u in b.units]
        assert [u.index for u in a.units] != [u.index for u in c.units]

    def test_stratified_strategy_covers_phases(self):
        spec = MICRO_SPEC.with_(
            strategy=StratifiedStrategy(unit_size=25, sample_size=40,
                                        detailed_warming=64,
                                        units_per_interval=8, max_phases=4))
        result = execute_spec(spec)
        info = result.strategy_info
        assert info["phases"] >= 1
        assert sum(info["allocation"].values()) >= result.sample_size
        # Unit indices must be strictly increasing (one forward pass).
        indices = [u.index for u in result.units]
        assert indices == sorted(indices)

    def test_stratified_respects_sample_budget(self):
        # More phases than budget: the allocation must never exceed the
        # requested sample size (no silent 1-per-stratum inflation).
        spec = MICRO_SPEC.with_(
            strategy=StratifiedStrategy(unit_size=25, sample_size=2,
                                        detailed_warming=64,
                                        units_per_interval=8, max_phases=6))
        result = execute_spec(spec)
        assert result.sample_size <= 2
        assert sum(result.strategy_info["allocation"].values()) <= 2

    def test_epi_metric(self):
        result = execute_spec(MICRO_SPEC.with_(metric="epi"))
        assert result.estimate_mean > 0
        assert all(u.energy > 0 for u in result.units)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(MICRO_SPEC) is None
        result = execute_spec(MICRO_SPEC)
        cache.put(result)
        hit = cache.get(MICRO_SPEC)
        assert hit == result
        assert cache.path(MICRO_SPEC).exists()

    def test_different_spec_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(execute_spec(MICRO_SPEC))
        assert cache.get(MICRO_SPEC.with_(seed=9)) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(execute_spec(MICRO_SPEC))
        cache.path(MICRO_SPEC).write_text("{not json")
        assert cache.get(MICRO_SPEC) is None

    def test_disabled_cache_never_stores(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=False)
        cache.put(execute_spec(MICRO_SPEC))
        assert cache.get(MICRO_SPEC) is None
        # tmp_path also holds the artifact store, where execute_spec
        # keeps the program length; no result file may be written.
        assert not any(tmp_path.glob("*.json"))


class TestSession:
    def test_run_uses_cache(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        first = session.run(MICRO_SPEC)
        second = session.run(MICRO_SPEC)
        # The second call is a cache hit: identical payload, including
        # the recorded wall time of the original execution.
        assert second == first

    def test_estimate_shim(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        result = session.estimate("micro.syn", epsilon=0.5,
                                  unit_size=25, n_init=40, max_rounds=1,
                                  detailed_warming=64)
        assert result == session.run(MICRO_SPEC)

    def test_estimate_shim_rejects_mixed_strategy_params(self):
        session = Session(use_cache=False)
        with pytest.raises(TypeError, match="strategy parameters"):
            session.estimate("micro.syn", strategy=RandomStrategy(),
                             unit_size=25)

    def test_sweep_specs_cross_product(self):
        specs = Session.sweep_specs(["gzip.syn", "mcf.syn"],
                                    machines=["8-way", "16-way"],
                                    scale=0.1)
        assert len(specs) == 4
        assert {(s.benchmark, s.machine) for s in specs} == {
            ("gzip.syn", "8-way"), ("gzip.syn", "16-way"),
            ("mcf.syn", "8-way"), ("mcf.syn", "16-way")}

    def test_parallel_matches_serial_bit_for_bit(self, tmp_path):
        strategy = SystematicStrategy(unit_size=25, n_init=30, max_rounds=1,
                                      detailed_warming=64)
        specs = [RunSpec(benchmark=name, strategy=strategy, scale=0.03,
                         epsilon=0.5)
                 for name in ["gzip.syn", "mcf.syn", "mesa.syn", "parser.syn"]]

        serial = Session(use_cache=False).run_batch(specs)
        parallel = Session(use_cache=False).run_batch(specs, max_workers=2)

        assert [r.spec for r in parallel] == specs
        for s, p in zip(serial, parallel):
            assert p.estimate_mean == s.estimate_mean
            assert p.units == s.units
            assert p.round_estimates == s.round_estimates

    def test_parallel_fills_cache(self, tmp_path):
        strategy = SystematicStrategy(unit_size=25, n_init=30, max_rounds=1,
                                      detailed_warming=64)
        specs = [RunSpec(benchmark=name, strategy=strategy, scale=0.03,
                         epsilon=0.5)
                 for name in ["gzip.syn", "mcf.syn"]]
        session = Session(cache_dir=tmp_path)
        first = session.run_batch(specs, max_workers=2)
        second = session.run_batch(specs)  # all hits
        assert second == first
