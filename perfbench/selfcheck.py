"""Self-check of the benchmark, plus its tracing overhead.

Usage (from the repository root)::

    python3 perfbench/selfcheck.py [--seconds 3] [--seed 0]

Checks, failing with exit code 1 if any does not hold:

* every workload, untraced, prints exactly the ``end_to_end`` metrics of
  ``BENCHMARK.json`` with their units, all positive, with every output
  correct and nothing failed;
* every workload, traced, prints exactly the ``per_layer`` metrics, all
  finite;
* a ``predict_http`` run with two deliberately malformed requests counts
  them as attempted and failed instead of dropping them;
* run from a directory holding only ``BENCHMARK.json`` and the benchmark,
  the command fails without printing a result;
* no workload run, traced or not, leaves a process behind.

It then prints, per workload, the traced run's end-to-end figures minus the
untraced run's (the tracing overhead) and the share of the workload's time
the named layers account for (``trace.<workload>.layer_share``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.common import ROOT, load_spec  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(workload: str, seed: int, seconds: float, trace: bool,
         *extra: str, cwd: Path = ROOT):
    """Run the benchmark command in a process group of its own; returns
    ``(exit code, stdout lines, whether a process of the group outlived
    it)``."""
    command = [*load_spec()["command"], "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace)), *extra]
    process = subprocess.Popen(command, cwd=cwd, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=600)
    finally:
        try:
            os.killpg(process.pid, 0)
            leftover = True
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            leftover = False
    return process.returncode, stdout.splitlines(), leftover


def _result(lines) -> dict | None:
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) and set(result) == RESULT_KEYS \
        else None


def _figures(lines, workload: str) -> dict:
    for line in lines:
        if line.startswith(workload + " "):
            return json.loads(line[len(workload) + 1:])["end_to_end"]
    return {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    problems = []

    def expect(ok: bool, message: str) -> None:
        print(("ok    " if ok else "FAIL  ") + message, flush=True)
        if not ok:
            problems.append(message)

    overhead = {}
    for workload in WORKLOADS:
        runs = {}
        for trace in (False, True):
            kind = "per_layer" if trace else "end_to_end"
            code, lines, leftover = _run(workload, args.seed, args.seconds,
                                         trace)
            result = _result(lines)
            expect(code == 0 and result is not None,
                   f"{workload} trace={int(trace)}: exit 0 with a result line")
            expect(not leftover, f"{workload} trace={int(trace)}: no process "
                                 f"outlives the run")
            if result is None:
                continue
            runs[trace] = lines
            metrics = result["metrics"]
            units = {m["name"]: m["unit"] for m in spec[kind]}
            expect(set(metrics) == set(units) and all(
                metrics[name]["unit"] == unit for name, unit in units.items()),
                f"{workload} trace={int(trace)}: emits exactly the {kind} "
                f"metrics with their units")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0,
                   f"{workload} trace={int(trace)}: correct, "
                   f"{result['attempted']} attempted, {result['failed']} failed")
            if trace:
                expect(all(math.isfinite(metrics[name]["value"])
                           for name in units),
                       f"{workload}: every per-layer metric is finite")
            else:
                expect(all(metrics[name]["value"] > 0 for name in units),
                       f"{workload}: every end-to-end metric is positive")
        if len(runs) == 2:
            overhead[workload] = (
                _figures(runs[False], workload), _figures(runs[True], workload),
                _result(runs[True])["metrics"]
                [f"trace.{workload}.layer_share"]["value"])

    code, lines, _ = _run("predict_http", args.seed, args.seconds, False,
                          "--refuse", "2")
    result = _result(lines)
    expect(code == 0 and result is not None and result["failed"] == 2
           and result["attempted"] > 2 and result["correct"],
           "predict_http: 2 refused requests are attempted and failed, "
           "not dropped")

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = _run("predict_http", args.seed, args.seconds, False,
                              cwd=bare)
        expect(code != 0 and _result(lines) is None,
               "without the program: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("\ntracing overhead (traced minus untraced) and layer share:")
    for workload, (untraced, traced, share) in overhead.items():
        deltas = ", ".join(
            f"{name} {traced[name] - untraced[name]:+.3g} "
            f"({100 * (traced[name] / untraced[name] - 1):+.0f}%)"
            for name in untraced if name in traced and untraced[name])
        print(f"  {workload}: {deltas}; layer share {share:.2f}")
    print(f"\n{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
