"""Tests for the declarative study layer.

Covers the registry, `Session.run_study`, custom study registration,
and golden equality of every paper study's payload between the
module-level `run_study` and a fresh `Session` replaying the artifact
store (same data dictionary, byte-identical report) at miniature scale.
"""

import json

import pytest

from repro.api import (
    STUDIES,
    ResultSet,
    RunSpec,
    Session,
    Study,
    StudyContext,
    SystematicStrategy,
    get_study,
    register_study,
    run_study,
    study_names,
)


@pytest.fixture(scope="module")
def tiny_ctx(tmp_path_factory):
    """A miniature study context with an isolated artifact store.

    ``use_cache=True`` so the second execution of each study (the
    replay side of the golden comparison) hits the run-result cache
    instead of re-simulating.
    """
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_ARTIFACT_DIR",
              str(tmp_path_factory.mktemp("study_store")))
    ctx = StudyContext(
        scale=0.05,
        fast=True,
        suite_names=["gzip.syn", "mcf.syn"],
        unit_size=50,
        chunk_size=25,
        n_init=60,
        epsilon=0.2,
        use_cache=True,
    )
    yield ctx
    mp.undo()


class TestRegistry:
    def test_all_paper_experiments_are_registered(self):
        assert set(study_names()) == {
            "table3", "fig2", "fig3", "fig4", "fig5", "table4", "table5",
            "fig6", "fig7", "table6", "fig8", "ablation",
            "adaptive_vs_two_round"}
        assert tuple(STUDIES) == study_names()

    def test_get_study_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown study"):
            get_study("fig99")

    def test_estimation_studies_have_grids(self):
        for name in ("fig6", "fig7", "fig8"):
            assert get_study(name).grid is not None
        for name in ("table3", "fig2", "table6"):
            assert get_study(name).grid is None

    def test_ablation_study_registered_without_grid(self):
        study = get_study("ablation")
        assert study.grid is None
        assert study.tidy is not None

    def test_ablation_study_payload(self, tiny_ctx):
        report = run_study("ablation", tiny_ctx)
        details = report.data["details"]
        assert set(details) == set(tiny_ctx.suite_names)
        for detail in details.values():
            assert {"delta", "systematic_rmse", "random_rmse",
                    "systematic_mean_error"} <= set(detail)
        assert "systematic vs simple random" in report.report
        rows = report.rows
        assert len(rows) == len(tiny_ctx.suite_names)
        assert {row["benchmark"] for row in rows} == set(details)

    def test_duplicate_name_rejected(self):
        clone = Study(name="fig6", title="imposter",
                      analyze=lambda ctx, results: {})
        with pytest.raises(ValueError, match="already registered"):
            register_study(clone)

    def test_reregistering_same_object_is_idempotent(self):
        study = get_study("fig6")
        assert register_study(study) is study

    def test_describe_row(self):
        row = get_study("fig6").describe()
        assert row == {"name": "fig6",
                       "title": "Figure 6: CPI estimation across the suite",
                       "has_grid": True}


class TestRunStudy:
    def test_custom_study_runs_through_session(self, tiny_ctx):
        def grid(ctx, epsilon=0.5):
            return [RunSpec(benchmark="micro.syn", scale=0.05,
                            epsilon=epsilon,
                            strategy=SystematicStrategy(
                                unit_size=25, n_init=20, max_rounds=1,
                                detailed_warming=50))]

        def analyze(ctx, results, epsilon=0.5):
            assert isinstance(results, ResultSet)
            return {"cpi": results[0].estimate_mean,
                    "report": f"micro CPI {results[0].estimate_mean:.3f}"}

        study = Study(name="micro-demo", title="demo", grid=grid,
                      analyze=analyze,
                      tidy=lambda data: [{"cpi": data["cpi"]}])
        session = Session(use_cache=False)
        report = session.run_study(study, ctx=tiny_ctx,
                                   params={"epsilon": 0.4})
        assert report.study == "micro-demo"
        assert report.data["cpi"] > 0
        assert report.rows == [{"cpi": report.data["cpi"]}]
        assert len(report.results) == 1
        assert report.results[0].spec.epsilon == 0.4
        assert "micro CPI" in report.report

    def test_report_row_export(self, tiny_ctx):
        report = run_study("table3", tiny_ctx)
        assert report.rows[0]["parameter"] == "RUU/LSQ"
        csv_text = report.rows_csv()
        assert csv_text.splitlines()[0] == "parameter,8-way,16-way"
        assert "RUU/LSQ" in report.rows_json()

    def test_analysis_only_params_need_no_grid_mirror(self, tiny_ctx):
        """A param only the analysis accepts must not reach the grid."""
        def grid(ctx):
            return []

        def analyze(ctx, results, label="default"):
            return {"label": label, "report": label}

        study = Study(name="param-split", title="demo", grid=grid,
                      analyze=analyze)
        report = Session(use_cache=False).run_study(
            study, ctx=tiny_ctx, params={"label": "custom"})
        assert report.data["label"] == "custom"

    def test_unknown_param_raises_before_running(self, tiny_ctx):
        study = Study(name="strict-params", title="demo",
                      analyze=lambda ctx, results: {"report": ""})
        with pytest.raises(TypeError, match="no parameter"):
            Session(use_cache=False).run_study(
                study, ctx=tiny_ctx, params={"typo": 1})

    def test_rows_json_handles_numpy_scalars(self):
        import numpy as np

        from repro.api import StudyReport

        report = StudyReport(study="x", title="x", data={}, rows=[
            {"a": np.float64(1.5), "b": np.int64(2),
             "c": np.array([1, 2])}])
        assert json.loads(report.rows_json()) == \
            [{"a": 1.5, "b": 2, "c": [1, 2]}]

    def test_grid_study_exposes_executed_results(self, tiny_ctx):
        report = run_study("fig6", tiny_ctx,
                           params={"machine_names": ("8-way",)})
        assert len(report.results) == len(tiny_ctx.suite_names)
        assert {r.spec.benchmark for r in report.results} == \
            set(tiny_ctx.suite_names)
        assert report.rows and report.rows[0]["machine"] == "8-way"


#: (study name, params) — miniature-scale variants of every paper table
#: and figure.
GOLDEN_CASES = [
    ("table3", {}),
    ("fig2", {"machine_name": "8-way"}),
    ("fig3", {"machine_names": ("8-way",)}),
    ("fig4", {"benchmark_name": "gzip.syn"}),
    ("fig5", {"benchmark_names": ["gzip.syn"], "machine_name": "8-way"}),
    ("table4", {"benchmark_names": ["gzip.syn"], "warming_values": [0, 128]}),
    ("table5", {"machine_names": ("8-way",), "phases": 2}),
    ("fig6", {"machine_names": ("8-way",)}),
    ("fig7", {"machine_names": ("8-way",)}),
    ("table6", {"machine_name": "8-way"}),
    ("fig8", {"benchmark_names": ["gzip.syn"], "interval_size": 1500,
              "max_clusters": 4}),
]

#: Payload keys derived from measured host speed: fig4 and table6 embed
#: ``measure_rates``, which times real execution, so two executions agree
#: on these keys' structure only.  Their ``report`` holds only what
#: regenerates exactly.
TIMED_KEYS = {
    "fig4": {"measured_rates", "measured_report", "curves"},
    "table6": {"measured_rates", "measured_report", "details",
               "average_speedup"},
}


class TestGoldenEquality:
    """Every paper study's payload is reproducible across entry points.

    The module-level `run_study` (the context's own session) runs first
    and fills the run-result cache; a fresh `Session` then replays the
    study from the on-disk artifact store and must produce the same data
    dictionary, report and tidy rows.
    """

    @pytest.mark.parametrize("name,params", GOLDEN_CASES,
                             ids=[c[0] for c in GOLDEN_CASES])
    def test_study_matches_legacy_entry_point(self, tiny_ctx, name, params):
        report = run_study(name, tiny_ctx, params=params)
        replay = Session(use_cache=True).run_study(name, ctx=tiny_ctx,
                                                   params=params)
        assert report.report == report.data["report"]
        assert report.rows, f"study {name} produced no tidy rows"
        assert replay.data.keys() == report.data.keys()
        timed = TIMED_KEYS.get(name, set())
        for key, value in report.data.items():
            if key not in timed:
                assert replay.data[key] == value, key
            elif isinstance(value, dict):
                assert replay.data[key].keys() == value.keys(), key
        assert replay.report == report.report
        if not timed:
            assert replay.rows == report.rows


class TestMeasuredRates:
    def test_table6_and_fig4_share_one_measurement(self, tmp_path,
                                                    monkeypatch):
        """Both studies report the rates of one ``measure_rates`` call
        per context and (program, machine), so their S_D and S_FW agree."""
        from repro.harness import runtime

        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        calls = []

        def measure(program, machine):
            calls.append((program, machine))
            return runtime.MeasuredRates(functional_ips=1e6,
                                         warming_ips=4e5,
                                         detailed_ips=1e5)

        monkeypatch.setattr(runtime, "measure_rates", measure)
        ctx = StudyContext(scale=0.05, fast=True, suite_names=["gzip.syn"],
                           n_init=60, use_cache=False)
        table6 = run_study("table6", ctx)
        fig4 = run_study("fig4", ctx, params={"benchmark_name": "gzip.syn"})
        assert len(calls) == 1
        assert (fig4.data["measured_rates"]
                is table6.data["measured_rates"])
        for report in (table6, fig4):
            assert "S_D=0.100, S_FW=0.400" in report.data["measured_report"]
            assert "S_FW=0.400" not in report.report
