"""The ``repro bench`` micro table: one gate rule, one CLI spelling, CI floors."""

import json
import shlex
from pathlib import Path

import pytest

from repro import bench, cli
from repro.bench import MICRO_NAMES, build_summary, check_gates

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The floors the CI ``bench`` job gates; lowering one needs a reason in CHANGES.md.
CI_FLOORS = {"fused": 1.05, "inference": 3.0, "serving": 2.0, "trace": 1.3,
             "pool": 1.05, "generate": 2.0, "train": 1.05}


def _result(name: str, ratio: float, best: float) -> dict:
    """The smallest result of micro ``name`` that carries one gated ratio."""
    if name == "fused":
        return {"fused_ops": {},
                "fused_speedups": {"quadratic_linear_speedup": ratio,
                                   "quadratic_linear_speedup_best": best}}
    if name == "trace":
        return {"model": "mlp", "batches": {"1": {"speedup": ratio,
                                                  "speedup_best": best}}}
    return {"speedup": ratio, "speedup_best": best}


class TestCheckGates:
    @pytest.mark.parametrize("name", MICRO_NAMES)
    def test_gated_micro_without_a_ratio_is_a_violation(self, name):
        summary = build_summary({}, {}, scale="smoke", started=0.0)
        assert check_gates(summary, {name: 1.0}) == \
            [f"{name} benchmark missing from the summary"]

    @pytest.mark.parametrize("name", MICRO_NAMES)
    def test_mean_or_best_rule(self, name):
        def gate(ratio, best):
            summary = build_summary({}, {name: _result(name, ratio, best)},
                                    scale="smoke", started=0.0)
            return check_gates(summary, {name: 1.0})

        assert gate(0.9, 1.2) == []
        assert gate(1.2, 0.9) == []
        violations = gate(0.9, 0.95)
        assert len(violations) == 1
        assert "= 0.900x (best-of-rounds 0.950x) is below the 1.00x floor" \
            in violations[0]

    def test_ungated_micros_are_not_checked(self):
        summary = build_summary({}, {}, scale="smoke", started=0.0)
        assert check_gates(summary, {}) == []

    def test_trace_batch_without_a_ratio_is_a_violation(self):
        summary = {"trace": {"model": "mlp", "batches": {
            "1": {"speedup": 2.0, "speedup_best": 2.0}, "8": {"fallback": True}}}}
        assert check_gates(summary, {"trace": 1.0}) == \
            ["traced-replay speedup at batch 8 (mlp) missing"]

    def test_unknown_floor_name_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            check_gates({}, {"bogus": 1.0})

    def test_summary_sections_match_the_committed_trajectory(self):
        committed = json.loads((REPO_ROOT / "BENCH_autograd.json").read_text())
        results = {name: _result(name, 1.0, 1.0) for name in MICRO_NAMES}
        summary = build_summary({}, results, scale="smoke", started=0.0)
        assert set(summary) == set(committed)
        assert "pool" in summary["serving"] and "pool" in committed["serving"]


class TestBenchCLI:
    @staticmethod
    def _bench(tmp_path, *flags):
        return cli.main(["bench", "table1", "--cache-dir", str(tmp_path),
                         "--output", "", *flags])

    @pytest.mark.parametrize("name", MICRO_NAMES)
    def test_skip_and_gate_same_micro_rejected(self, capsys, tmp_path, name):
        assert self._bench(tmp_path, "--skip", name, "--gate", f"{name}=1.0") == 2
        assert "vacuous" in capsys.readouterr().err

    def test_micro_gated_twice_rejected(self, capsys, tmp_path):
        assert self._bench(tmp_path, "--gate", "fused=1.0",
                           "--gate", "fused=2.0") == 2
        assert "--gate fused given twice" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--gate", "bogus=1.0"], "unknown micro-benchmark 'bogus'"),
        (["--gate", "fused=fast"], "NAME=FLOOR"),
        (["--gate", "fused"], "NAME=FLOOR"),
        (["--gate", "fused=nan"], "NAME=FLOOR"),
        (["--skip", "bogus"], "invalid choice: 'bogus'"),
    ])
    def test_bad_flag_exits_2_with_message(self, capsys, tmp_path, flags, message):
        with pytest.raises(SystemExit) as exit_info:
            self._bench(tmp_path, *flags)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_ci_bench_step_gates_every_micro_at_its_floor(self):
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        commands = [line.split("python -m repro ", 1)[1]
                    for line in workflow.splitlines()
                    if "python -m repro bench" in line]
        assert len(commands) == 1, commands
        args = cli.build_parser().parse_args(shlex.split(commands[0]))
        assert args.skip == []
        assert dict(args.gate) == CI_FLOORS
        assert len(args.gate) == len(CI_FLOORS)
        assert set(CI_FLOORS) == set(MICRO_NAMES)


class TestBenchMicros:
    def test_trace_benchmark_shape_and_gate(self):
        result = bench.trace_benchmarks(rounds=2, warmup=1, batch_sizes=(1, 2))
        assert set(result["batches"]) == {"1", "2"}
        for entry in result["batches"].values():
            assert entry["traced"]["mean_seconds"] > 0
            assert entry["dispatched"]["mean_seconds"] > 0
            assert "speedup" in entry
        assert "simple_cnn/proposed" in result["reference"]
        summary = {"trace": result}
        assert check_gates(summary, {"trace": 0.0001}) == []
        assert len(check_gates(summary, {"trace": 10_000.0})) == 2
        assert check_gates({"trace": {}}, {"trace": 1.0}) == \
            ["trace benchmark missing from the summary"]

    def test_generation_benchmark_shape_and_gate(self):
        result = bench.generation_benchmarks(rounds=1, warmup=0, batch=2,
                                             max_len=12)
        assert result["steps"] == 11
        assert result["incremental_tokens_per_second"] > 0
        assert result["reference_tokens_per_second"] > 0
        assert "speedup" in result
        summary = {"generation": result}
        assert check_gates(summary, {"generate": 0.0001}) == []
        assert check_gates(summary, {"generate": 10_000.0})
        assert check_gates({"generation": {}}, {"generate": 1.0}) == \
            ["generate benchmark missing from the summary"]

    def test_training_benchmark_shape_and_gate(self):
        result = bench.training_benchmarks(rounds=1, warmup=1, world_size=2,
                                           worker_counts=(1, 2), batches=2,
                                           batch_size=8)
        assert result["worker_counts"] == [1, 2]
        for workers in ("1", "2"):
            assert result["workers"][workers]["samples_per_second"] > 0
        assert "speedup" in result
        summary = {"training": result}
        assert check_gates(summary, {"train": 0.0001}) == []
        assert check_gates(summary, {"train": 10_000.0})
        assert check_gates({"training": {}}, {"train": 1.0}) == \
            ["train benchmark missing from the summary"]
