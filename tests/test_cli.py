"""Tests for the command line interface."""

import json

import pytest

from repro.api import STUDIES, default_context
from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def isolated_artifact_store(tmp_path, monkeypatch):
    """Keep CLI runs out of the repository's artifact store."""
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "artifacts"))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_estimate_defaults(self):
        args = build_parser().parse_args(["estimate", "gzip.syn"])
        assert args.benchmark == "gzip.syn"
        assert args.machine == "8-way"
        assert args.metric == "cpi"
        assert args.n_init == 300

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate", "not-a-benchmark"])

    def test_experiment_choices_cover_all_tables_and_figures(self):
        expected = {"table3", "table4", "table5", "table6",
                    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                    "ablation", "adaptive_vs_two_round"}
        assert set(STUDIES) == expected
        for name in expected:
            assert build_parser().parse_args(["study", "run", name]).name \
                == name

    def test_study_run_workers_flag(self):
        args = build_parser().parse_args(["study", "run", "table3",
                                          "--workers", "2"])
        assert args.workers == 2
        assert build_parser().parse_args(
            ["study", "run", "table3"]).workers is None


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gzip.syn" in out and "mcf.syn" in out

    def test_estimate_small_run(self, capsys):
        code = main([
            "estimate", "gzip.syn", "--scale", "0.05", "--n-init", "40",
            "--epsilon", "0.5", "--rounds", "1", "--unit-size", "25",
            "--warming", "50", "--validate",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "CPI estimate" in out
        assert "confidence interval" in out
        assert "actual error" in out

    def test_estimate_epi_without_functional_warming(self, capsys):
        code = main([
            "estimate", "mcf.syn", "--scale", "0.03", "--metric", "epi",
            "--n-init", "30", "--epsilon", "0.9", "--rounds", "1",
            "--unit-size", "25", "--warming", "25", "--no-functional-warming",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "EPI estimate" in out
        assert "detailed-only" in out

    def test_reference(self, capsys):
        code = main(["reference", "gzip.syn", "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CPI" in out and "instructions" in out

    def test_simpoint(self, capsys):
        code = main(["simpoint", "gzip.syn", "--scale", "0.05",
                     "--interval-size", "1000", "--max-clusters", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CPI estimate" in out
        assert "clusters" in out

    @pytest.mark.parametrize("flag, field", [
        ("--interval-size", "interval_size"),
        ("--max-clusters", "max_clusters")])
    def test_nonpositive_simpoint_value_exits_2(self, capsys, flag, field):
        code = main(["simpoint", "micro.syn", flag, "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err

    def test_experiment_table3(self, capsys):
        before = default_context().checkpoints
        code = main(["study", "run", "table3", "--checkpoints"])
        assert code == 0
        out = capsys.readouterr().out
        assert "RUU/LSQ" in out
        # --checkpoints applies to this invocation only.
        assert default_context().checkpoints == before


class TestJsonOutput:
    def test_estimate_json_is_runresult_payload(self, capsys):
        code = main([
            "estimate", "gzip.syn", "--scale", "0.05", "--n-init", "40",
            "--epsilon", "0.5", "--rounds", "1", "--unit-size", "25",
            "--warming", "50", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["benchmark"] == "gzip.syn"
        assert payload["spec"]["strategy"]["name"] == "systematic"
        assert payload["estimate_mean"] > 0
        assert payload["sample_size"] >= 40
        assert isinstance(payload["units"], list)
        # The payload round-trips through the RunResult contract.
        from repro.api import RunResult
        result = RunResult.from_dict(payload)
        assert result.estimate_mean == payload["estimate_mean"]

    def test_estimate_json_with_validation_still_roundtrips(self, capsys):
        code = main([
            "estimate", "gzip.syn", "--scale", "0.05", "--n-init", "40",
            "--epsilon", "0.5", "--rounds", "1", "--unit-size", "25",
            "--warming", "50", "--json", "--validate",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "validation" in payload
        from repro.api import RunResult
        result = RunResult.from_dict(payload)  # extra key tolerated
        assert result.estimate_mean == payload["estimate_mean"]

    def test_experiment_json(self, capsys):
        code = main(["study", "run", "table3", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"study", "title", "rows", "data"}
        assert "report" not in payload["data"]
        assert payload["data"]["rows"]


class TestSweep:
    def test_sweep_table_output(self, capsys):
        code = main([
            "sweep", "--benchmarks", "gzip.syn,mcf.syn", "--scale", "0.05",
            "--epsilon", "0.5", "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "gzip.syn" in out and "mcf.syn" in out
        assert "Sweep" in out

    def test_sweep_json_output(self, capsys):
        code = main([
            "sweep", "--benchmarks", "gzip.syn", "--scale", "0.05",
            "--epsilon", "0.5", "--strategy", "random", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        assert payload[0]["spec"]["strategy"]["name"] == "random"


    @pytest.mark.parametrize("flags,message", [
        (["--benchmarks", "gzip.syn,nope.syn"],
         "unknown benchmark 'nope.syn'"),
        (["--machines", "8-way,3-way"], "unknown machine '3-way'"),
        (["--epsilon", "0"], "epsilon: must be positive"),
        (["--scale", "nan"], "scale: must be positive"),
        (["--seed", "-1"], "seed: must be non-negative"),
    ])
    def test_invalid_sweep_builds_and_runs_nothing(self, capsys, monkeypatch,
                                                   flags, message):
        """A bad value exits 2 before a session, backend or spec runs."""
        import repro.api.executor as executor
        import repro.cli as cli

        sessions, executed = [], []

        class CountingSession(cli.Session):
            def __init__(self, *args, **kwargs):
                sessions.append(kwargs)
                super().__init__(*args, **kwargs)

        def execute_spec(spec):
            executed.append(spec)
            raise AssertionError("an invalid sweep must not execute")

        monkeypatch.setattr(cli, "Session", CountingSession)
        monkeypatch.setattr(executor, "execute_spec", execute_spec)
        argv = ["sweep", "--benchmarks", "gzip.syn", "--scale", "0.05"]
        assert main(argv + flags) == 2
        assert message in capsys.readouterr().err
        assert sessions == [] and executed == []

    def test_estimate_invalid_value_exits_2(self, capsys):
        assert main(["estimate", "micro.syn", "--epsilon", "0"]) == 2
        assert "epsilon" in capsys.readouterr().err
        assert main(["estimate", "micro.syn", "--unit-size", "0"]) == 2
        assert "unit_size" in capsys.readouterr().err

class TestStudyCommands:
    def test_study_ls_lists_registry(self, capsys):
        assert main(["study", "ls"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "table3" in out
        assert "Figure 6: CPI estimation across the suite" in out

    def test_study_ls_json(self, capsys):
        assert main(["study", "ls", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {row["name"] for row in payload["studies"]}
        assert names == set(STUDIES)
        fig6 = next(r for r in payload["studies"] if r["name"] == "fig6")
        assert fig6["has_grid"] is True

    def test_study_run_prints_report(self, capsys):
        assert main(["study", "run", "table3"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "RUU/LSQ" in out

    def test_study_run_json(self, capsys):
        assert main(["study", "run", "table3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["study"] == "table3"
        assert payload["rows"][0]["parameter"] == "RUU/LSQ"
        assert "report" not in payload["data"]

    def test_study_report_csv(self, capsys):
        assert main(["study", "report", "table3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "parameter,8-way,16-way"

    def test_study_report_json_to_file(self, capsys, tmp_path):
        target = tmp_path / "rows.json"
        assert main(["study", "report", "table3", "--format", "json",
                     "--output", str(target)]) == 0
        rows = json.loads(target.read_text())
        assert rows[0]["parameter"] == "RUU/LSQ"
        assert "wrote" in capsys.readouterr().out

    def test_study_run_with_workers_override(self, capsys):
        """--workers threads through run_study (inert for gridless
        studies, but the invocation path must accept it)."""
        assert main(["study", "run", "table3", "--workers", "2"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_study_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "run", "not-a-study"])


class TestCheckpointBatchBuild:
    def test_batch_build_suite_and_machines(self, capsys):
        code = main(["checkpoint", "build", "--benchmarks", "micro.syn",
                     "--machines", "8-way,16-way", "--unit-size", "25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Checkpoint batch build: 2 sets" in out
        assert out.count("micro.syn") == 2

    def test_single_positional_build_keeps_detailed_output(self, capsys):
        code = main(["checkpoint", "build", "micro.syn",
                     "--unit-size", "25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "snapshots       :" in out

    def test_positional_and_batch_flags_conflict(self, capsys):
        code = main(["checkpoint", "build", "micro.syn",
                     "--benchmarks", "micro.syn"])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_missing_benchmark_rejected(self, capsys):
        assert main(["checkpoint", "build"]) == 2
        assert "required" in capsys.readouterr().err

    def test_unknown_batch_benchmark_rejected(self, capsys):
        assert main(["checkpoint", "build", "--benchmarks", "nope.syn"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_unknown_batch_machine_rejected(self, capsys):
        code = main(["checkpoint", "build", "--benchmarks", "micro.syn",
                     "--machines", "32-way"])
        assert code == 2
        assert "unknown machine" in capsys.readouterr().err

    def test_nonpositive_stride_exits_2(self, capsys):
        code = main(["checkpoint", "build", "micro.syn", "--unit-size", "25",
                     "--stride", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "stride" in err
        assert "Traceback" not in err


class TestStoreCommands:
    def _populate(self):
        from repro.store import ArtifactStore
        from repro.api.executor import CACHE_VERSION
        from repro.checkpoint import CHECKPOINT_VERSION

        store = ArtifactStore()
        store.put("result", f"a--v{CACHE_VERSION}.json", b"{}",
                  checksum=False)
        store.put("result", "stale--v0.json", b"{}", checksum=False)
        self.ckpt_name = f"c--v{CHECKPOINT_VERSION}.ckpt"
        store.put("checkpoint", self.ckpt_name, b"payload")
        return store

    def test_store_stats_table(self, capsys):
        self._populate()
        assert main(["store", "stats"]) == 0
        out = capsys.readouterr().out
        assert "Artifact store:" in out
        for namespace in ("result", "checkpoint", "bbv", "reftrace"):
            assert namespace in out

    def test_store_stats_json(self, capsys):
        self._populate()
        assert main(["store", "stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["namespaces"]["result"]["files"] == 2
        assert payload["namespaces"]["result"]["entries"] == 1

    def test_store_ls(self, capsys):
        self._populate()
        assert main(["store", "ls"]) == 0
        out = capsys.readouterr().out
        assert self.ckpt_name in out
        assert main(["store", "ls", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {e["namespace"] for e in payload["artifacts"]} \
            == {"result", "checkpoint"}

    def test_store_gc_dry_run_then_real(self, capsys):
        store = self._populate()
        stale = store.path("result", "stale--v0.json")
        assert main(["store", "gc", "--dry-run"]) == 0
        assert "would remove 1 file(s)" in capsys.readouterr().out
        assert stale.exists()
        assert main(["store", "gc"]) == 0
        assert "removed 1 file(s)" in capsys.readouterr().out
        assert not stale.exists()

    def test_store_gc_namespace_filter(self, capsys):
        self._populate()
        assert main(["store", "gc", "--namespaces", "checkpoint",
                     "--dry-run"]) == 0
        assert "would remove 0 file(s)" in capsys.readouterr().out

    def test_store_gc_unknown_namespace_rejected(self, capsys):
        assert main(["store", "gc", "--namespaces", "nope"]) == 2
        assert "unknown namespace" in capsys.readouterr().err

    def test_checkpoint_gc_dry_run_delegates_to_store(self, capsys):
        self._populate()
        assert main(["store", "gc", "--namespaces", "checkpoint,bbv",
                     "--all", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would remove" in out and self.ckpt_name in out
        assert main(["store", "stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["namespaces"]["checkpoint"]["files"] == 1


class TestWorkerCommand:
    def test_worker_exits_idle_and_reports(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_QUEUE_DIR", str(tmp_path / "queue"))
        assert main(["worker", "--max-idle", "0.1", "--poll", "0.02"]) == 0
        assert "worker exiting after 0 job(s)" in capsys.readouterr().out

    def test_worker_flags_match_queue_backend_spawn(self):
        # QueueBackend spawns `repro worker --queue-dir ... --poll ...
        # --lease ... --max-idle ...`; the parser must accept that shape.
        args = build_parser().parse_args(
            ["worker", "--queue-dir", "/tmp/q", "--poll", "0.1",
             "--lease", "30.0", "--max-idle", "20"])
        assert args.queue_dir == "/tmp/q"
        assert args.max_idle == 20.0
        assert args.max_jobs is None


class TestBackendFlags:
    def test_sweep_accepts_backend(self):
        args = build_parser().parse_args(["sweep", "--backend", "serial"])
        assert args.backend == "serial"
        assert build_parser().parse_args(["sweep"]).backend is None

    def test_serve_accepts_backend(self):
        args = build_parser().parse_args(["serve", "--backend", "queue"])
        assert args.backend == "queue"

    def test_sweep_with_explicit_serial_backend(self, capsys):
        code = main(["sweep", "--benchmarks", "gzip.syn", "--scale", "0.05",
                     "--backend", "serial", "--epsilon", "0.5"])
        assert code == 0
        assert "gzip.syn" in capsys.readouterr().out
