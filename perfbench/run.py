"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload predict_http --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object: ``{"correct",
"attempted", "failed", "metrics"}``.  With ``--trace 0`` the metrics are the
end-to-end ones of ``BENCHMARK.json``, measured on the workload.  With
``--trace 1`` spans are recorded around each layer's public calls and the
metrics are the per-layer ones: the workload runs for ``--seconds`` and
every other workload for :data:`PROBE_SECONDS`, so that every layer is
measured in every traced run.  Spans are written to ``.perfbench/traces/``.

``BENCHMARK.json`` lists the workloads whose end-to-end metrics are steady
enough to compare commits by: ``predict_http`` and ``generate_http``.
``score_pool`` and ``train_dp`` keep all cores busy, so host CPU steal moves
their figures by twice its share (medians of ten-run sets differed by up to
24 %); they still run here by name, and every traced run measures their
layers.

Earlier lines give the run's hardware context and, per workload run, its
figures under the names users know (``predict_p50_ms``,
``pool_rows_per_s``, ...) and the share of CPU time the host stole from
this machine meanwhile (``cpu_steal_share``; the CPU-bound workloads slow
down by about twice that share).  ``--workload all`` runs every workload
in turn.
Inputs and model bundles derive from ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import sys
import tempfile
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.common import ROOT  # noqa: E402

WORKLOADS = ("predict_http", "score_pool", "generate_http", "train_dp")
#: Seconds each other workload runs in a traced run, to measure its layers.
PROBE_SECONDS = 3.0


def _workload(name: str):
    from perfbench import generate_http, predict_http, score_pool, train_dp

    return {"predict_http": predict_http, "score_pool": score_pool,
            "generate_http": generate_http, "train_dp": train_dp}[name]


def run_one(name: str, seed: int, seconds: float, trace: bool,
            refuse: int = 0):
    """Run workload ``name`` once, print its figures and return its
    :class:`~perfbench.common.Outcome`."""
    from perfbench.common import cpu_ticks, log

    ticks = cpu_ticks()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        log(f"[perfbench] {name} seed={seed} seconds={seconds} trace={int(trace)}")
        options = {"refuse": refuse} if refuse else {}
        outcome = _workload(name).run(seed, seconds, workdir, trace, **options)
        if trace:
            traces = scratch / "traces"
            traces.mkdir(exist_ok=True)
            for path in workdir.glob("*spans.jsonl"):
                shutil.copyfile(path, traces / f"{name}-seed{seed}-{path.name}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    figures = {key: {"value": value, "unit": unit}
               for key, (value, unit) in outcome.named.items()}
    after = cpu_ticks()
    if ticks and after and after[1] > ticks[1]:
        figures["cpu_steal_share"] = {
            "value": (after[0] - ticks[0]) / (after[1] - ticks[1]),
            "unit": "ratio"}
    print(f"{name} " + json.dumps({
        "seed": seed, "trace": int(trace), "correct": outcome.correct,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "figures": figures, "end_to_end": outcome.metrics}), flush=True)
    return outcome


def _result(outcomes: dict, spec: dict, trace: bool, counts: dict) -> dict:
    """The final JSON object: every metric of one kind, with its unit."""
    units = {metric["name"]: metric["unit"]
             for metric in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        values = dict(counts)
        for outcome in outcomes.values():
            values.update(outcome.layers)
    elif len(outcomes) == 1:
        values = next(iter(outcomes.values())).metrics
    else:  # --workload all: one set of end-to-end metrics per workload
        values = {f"{name}.{metric}": value
                  for name, outcome in outcomes.items()
                  for metric, value in outcome.metrics.items()}
        units = {f"{name}.{metric}": unit for name in outcomes
                 for metric, unit in units.items()}
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json lists "
                           f"{sorted(units)}")
    unmeasured = [name for name in units if not math.isfinite(values[name])]
    if unmeasured:
        raise RuntimeError(f"no measurement for {unmeasured}")
    return {
        "correct": all(outcome.correct for outcome in outcomes.values()),
        "attempted": sum(outcome.attempted for outcome in outcomes.values()),
        "failed": sum(outcome.failed for outcome in outcomes.values()),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refuse", type=int, default=0,
                        help="predict_http only: send this many requests the "
                             "server must refuse (benchmark self-check)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run the "
              f"benchmark from a full checkout", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    # SIGTERM unwinds like an error, so servers and workers are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    from perfbench.common import (hardware_context, load_spec, model_counts,
                                  stop_child_processes)

    spec = load_spec()
    trace = bool(args.trace)
    print("context " + json.dumps(hardware_context()), flush=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        outcomes = {name: run_one(name, args.seed, args.seconds, trace,
                                  args.refuse if name == "predict_http" else 0)
                    for name in names}
        counts = {}
        if trace:
            for name in WORKLOADS:
                if name not in outcomes:
                    outcomes[name] = run_one(name, args.seed, PROBE_SECONDS,
                                             True)
            counts = model_counts(args.seed)
        result = _result(outcomes, spec, trace, counts)
    finally:
        stop_child_processes()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
