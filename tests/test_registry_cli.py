"""Experiment registry, caching runner and CLI."""

import json
import pkgutil

import pytest

import repro.experiments as experiments_package
from repro import cli
from repro.bench import MICRO_NAMES
from repro.experiments import get_scale
from repro.experiments.registry import (
    all_specs,
    experiment_names,
    get_spec,
    register,
    unregister,
)
from repro.experiments.runner import config_hash, run_experiment, run_many

PAPER_ARTIFACTS = {"fig4", "fig5", "fig6", "fig7", "fig8", "table1", "table2", "ablation"}

#: Experiment-package modules that are infrastructure, not paper artifacts.
_NON_DRIVER_MODULES = {"common", "config", "registry", "reporting", "runner"}


def _skip_all_but(*kept: str) -> list[str]:
    """``--skip`` flags for every bench micro a test does not check."""
    return [flag for name in MICRO_NAMES if name not in kept
            for flag in ("--skip", name)]


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert PAPER_ARTIFACTS <= set(experiment_names())

    def test_every_driver_module_is_registered(self):
        driver_modules = {
            module.name for module in pkgutil.iter_modules(experiments_package.__path__)
        } - _NON_DRIVER_MODULES
        assert driver_modules == set(experiment_names()), \
            "every experiments module must register an ExperimentSpec (or be " \
            "listed in _NON_DRIVER_MODULES)"

    def test_specs_have_runner_and_title(self):
        for spec in all_specs():
            assert callable(spec.runner)
            assert spec.title
            assert spec.artifact

    def test_unknown_experiment_lists_available(self):
        with pytest.raises(KeyError, match="fig4"):
            get_spec("fig99")

    def test_conflicting_registration_rejected(self):
        register(name="_dupe", artifact="Test", title="t", runner=lambda scale: {})
        try:
            with pytest.raises(ValueError, match="already registered"):
                register(name="_dupe", artifact="Other", title="different",
                         runner=lambda scale: {})
        finally:
            unregister("_dupe")

    def test_identical_reregistration_is_idempotent(self):
        # Running a driver as a script re-executes its module under __main__,
        # hitting the module-bottom register() a second time.
        def runner(scale):
            return {}

        first = register(name="_idem", artifact="Test", title="t", runner=runner)
        try:
            second = register(name="_idem", artifact="Test", title="t", runner=runner)
            assert second is first
        finally:
            unregister("_idem")

    def test_driver_runs_as_script(self):
        import os
        import subprocess
        import sys

        import repro
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-m", "repro.experiments.table1"],
            capture_output=True, text=True, timeout=120, env=env)
        assert completed.returncode == 0, completed.stderr
        assert "Table I" in completed.stdout


class _CountingRunner:
    def __init__(self):
        self.calls = 0

    def __call__(self, scale):
        self.calls += 1
        return {"rows": [{"value": 1}], "report": "counting report",
                "scale": scale.name}


@pytest.fixture
def counting_spec():
    runner = _CountingRunner()
    spec = register(name="_probe", artifact="Test", title="cache probe", runner=runner)
    yield spec, runner
    unregister("_probe")


class TestRunnerCache:
    def test_cache_hit_skips_execution(self, tmp_path, counting_spec):
        _, runner = counting_spec
        first = run_experiment("_probe", scale="smoke", cache_dir=tmp_path)
        assert not first.cache_hit and runner.calls == 1
        assert first.path.exists()
        second = run_experiment("_probe", scale="smoke", cache_dir=tmp_path)
        assert second.cache_hit and runner.calls == 1
        assert second.result == first.result

    def test_force_recomputes(self, tmp_path, counting_spec):
        _, runner = counting_spec
        run_experiment("_probe", scale="smoke", cache_dir=tmp_path)
        forced = run_experiment("_probe", scale="smoke", cache_dir=tmp_path, force=True)
        assert not forced.cache_hit and runner.calls == 2

    def test_config_change_invalidates(self, tmp_path, counting_spec):
        spec, runner = counting_spec
        smoke = get_scale("smoke")
        run_experiment("_probe", scale=smoke, cache_dir=tmp_path)
        changed = smoke.with_overrides(epochs=smoke.epochs + 1)
        assert config_hash(spec, smoke) != config_hash(spec, changed)
        outcome = run_experiment("_probe", scale=changed, cache_dir=tmp_path)
        assert not outcome.cache_hit and runner.calls == 2
        # Returning to the original config is still a hit — both artifacts coexist.
        back = run_experiment("_probe", scale=smoke, cache_dir=tmp_path)
        assert back.cache_hit and runner.calls == 2

    def test_spec_version_participates_in_hash(self, counting_spec):
        spec, _ = counting_spec
        bumped = type(spec)(name=spec.name, artifact=spec.artifact, title=spec.title,
                            runner=spec.runner, version=spec.version + 1)
        assert config_hash(spec, get_scale("smoke")) != \
            config_hash(bumped, get_scale("smoke"))

    def test_artifact_json_structure(self, tmp_path, counting_spec):
        outcome = run_experiment("_probe", scale="smoke", cache_dir=tmp_path)
        artifact = json.loads(outcome.path.read_text())
        assert artifact["meta"]["experiment"] == "_probe"
        assert artifact["meta"]["scale"] == "smoke"
        assert artifact["meta"]["config_hash"] == outcome.config_hash
        assert artifact["result"]["rows"] == [{"value": 1}]

    def test_stale_format_version_recomputed(self, tmp_path, counting_spec):
        _, runner = counting_spec
        first = run_experiment("_probe", scale="smoke", cache_dir=tmp_path)
        artifact = json.loads(first.path.read_text())
        artifact["meta"]["format_version"] = -1
        first.path.write_text(json.dumps(artifact))
        refreshed = run_experiment("_probe", scale="smoke", cache_dir=tmp_path)
        assert not refreshed.cache_hit and runner.calls == 2

    def test_corrupt_artifact_recomputed(self, tmp_path, counting_spec):
        _, runner = counting_spec
        first = run_experiment("_probe", scale="smoke", cache_dir=tmp_path)
        first.path.write_text("{ truncated")
        refreshed = run_experiment("_probe", scale="smoke", cache_dir=tmp_path)
        assert not refreshed.cache_hit and runner.calls == 2

    def test_scale_independent_experiment_cached_across_scales(self, tmp_path):
        calls = []
        runner = lambda: calls.append(1) or {"rows": []}  # noqa: E731
        register(name="_noscale", artifact="Test", title="scale-free probe",
                 runner=runner, uses_scale=False)
        try:
            first = run_experiment("_noscale", scale="smoke", cache_dir=tmp_path)
            second = run_experiment("_noscale", scale="bench", cache_dir=tmp_path)
            assert not first.cache_hit and second.cache_hit
            assert first.path == second.path
            assert len(calls) == 1
        finally:
            unregister("_noscale")

    def test_run_many_reports_progress(self, tmp_path, counting_spec):
        seen = []
        outcomes = run_many(["_probe", "_probe"], scale="smoke", cache_dir=tmp_path,
                            progress=lambda outcome: seen.append(outcome.cache_hit))
        assert [outcome.cache_hit for outcome in outcomes] == [False, True]
        assert seen == [False, True]


class TestCLI:
    def test_list_shows_all_experiments(self, capsys, tmp_path):
        assert cli.main(["list", "--cache-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        for name in PAPER_ARTIFACTS:
            assert name in output

    def test_run_uses_cache_on_second_invocation(self, capsys, tmp_path, counting_spec):
        _, runner = counting_spec
        assert cli.main(["run", "_probe", "--scale", "smoke",
                         "--cache-dir", str(tmp_path)]) == 0
        first_output = capsys.readouterr().out
        assert "counting report" in first_output
        assert cli.main(["run", "_probe", "--scale", "smoke",
                         "--cache-dir", str(tmp_path)]) == 0
        second_output = capsys.readouterr().out
        assert "cached" in second_output
        assert runner.calls == 1

    def test_run_force_recomputes(self, capsys, tmp_path, counting_spec):
        _, runner = counting_spec
        cli.main(["run", "_probe", "--scale", "smoke", "--cache-dir", str(tmp_path)])
        cli.main(["run", "_probe", "--scale", "smoke", "--cache-dir", str(tmp_path),
                  "--force"])
        assert runner.calls == 2

    def test_run_table1_real_experiment(self, capsys, tmp_path):
        assert cli.main(["run", "table1", "--cache-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "proposed" in output
        assert list(tmp_path.glob("table1-*.json"))

    def test_run_unknown_experiment_fails_cleanly(self, capsys, tmp_path):
        assert cli.main(["run", "fig99", "--cache-dir", str(tmp_path)]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_bench_times_experiments(self, capsys, tmp_path, counting_spec):
        json_path = tmp_path / "bench.json"
        assert cli.main(["bench", "_probe", "--scale", "smoke",
                         "--cache-dir", str(tmp_path), *_skip_all_but(),
                         "--output", str(json_path)]) == 0
        summary = json.loads(json_path.read_text())
        assert summary["scale"] == "smoke"
        assert summary["figure_repros"]["_probe"]["rounds"] == 1
        assert summary["figure_repros"]["_probe"]["mean_seconds"] >= 0.0

    def test_bench_warms_the_cache(self, capsys, tmp_path, counting_spec):
        _, runner = counting_spec
        assert cli.main(["bench", "_probe", "--scale", "smoke", *_skip_all_but(),
                         "--cache-dir", str(tmp_path), "--output", ""]) == 0
        assert runner.calls == 1
        # The forced bench run wrote through the cache: a subsequent run hits.
        assert cli.main(["run", "_probe", "--scale", "smoke",
                         "--cache-dir", str(tmp_path)]) == 0
        assert runner.calls == 1
        assert "cached" in capsys.readouterr().out

    def test_bench_fused_gate(self, capsys, tmp_path, counting_spec):
        common = ["bench", "_probe", "--scale", "smoke", "--cache-dir", str(tmp_path),
                  "--output", "", "--rounds", "3", *_skip_all_but("fused")]
        assert cli.main(common + ["--gate", "fused=1e9"]) == 1
        assert "PERF REGRESSION" in capsys.readouterr().err
        assert cli.main(common + ["--gate", "fused=0.0"]) == 0

    def test_bench_inference_micro_recorded(self, capsys, tmp_path, counting_spec):
        json_path = tmp_path / "bench.json"
        assert cli.main(["bench", "_probe", "--scale", "smoke",
                         *_skip_all_but("inference"),
                         "--cache-dir", str(tmp_path), "--rounds", "3",
                         "--output", str(json_path)]) == 0
        summary = json.loads(json_path.read_text())
        inference = summary["inference"]
        assert inference["batch_size"] == 64
        assert inference["batched"]["mean_seconds"] > 0
        assert inference["per_sample"]["mean_seconds"] > 0
        assert inference["speedup"] > 0
        assert "inference batch speedup" in capsys.readouterr().out

    def test_bench_inference_gate(self, capsys, tmp_path, counting_spec):
        common = ["bench", "_probe", "--scale", "smoke", "--cache-dir",
                  str(tmp_path), "--output", "", "--rounds", "3",
                  *_skip_all_but("inference")]
        assert cli.main(common + ["--gate", "inference=1e9"]) == 1
        assert "PERF REGRESSION" in capsys.readouterr().err
        assert cli.main(common + ["--gate", "inference=0.0"]) == 0

    def test_run_jobs_flag_summary_and_exit(self, capsys, tmp_path, counting_spec):
        assert cli.main(["run", "_probe", "--scale", "smoke", "--jobs", "1",
                         "--cache-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "1 ran" in output and "0 cached" in output and "0 failed" in output

    def test_run_all_flag_resolves_every_experiment(self):
        from repro.experiments.registry import experiment_names

        assert cli._resolve_names([], run_all=True) == experiment_names()
        assert cli._resolve_names(["all"]) == experiment_names()
        assert set(PAPER_ARTIFACTS) <= set(cli._resolve_names([], run_all=True))

    def test_sweep_command(self, capsys, tmp_path, counting_spec):
        assert cli.main(["sweep", "_probe", "--scales", "smoke",
                         "--jobs", "1", "--cache-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "sweep @ smoke" in output
        assert "1 ran" in output
        # Second sweep over the same configuration is all cache hits.
        assert cli.main(["sweep", "_probe", "--scales", "smoke",
                         "--jobs", "1", "--cache-dir", str(tmp_path)]) == 0
        assert "1 cached" in capsys.readouterr().out

    def test_bad_scale_fails_cleanly(self, capsys, tmp_path):
        assert cli.main(["run", "table1", "--scale", "galactic",
                         "--cache-dir", str(tmp_path)]) == 1
        assert "galactic" in capsys.readouterr().err
