"""Unified benchmark harness behind ``python -m repro bench``.

Produces the repository's perf trajectory (``BENCH_autograd.json``) from the
same machinery the sweeps use:

* **Figure/table timings** come from the cached experiment runner
  (:func:`repro.experiments.runner.run_many` with ``force=True``), so the
  numbers measure exactly what ``python -m repro run`` executes — no separate
  pytest harness with its own import and fixture overhead.
* **Micro-benchmarks** are declared once, in :data:`MICROS`: each
  :class:`Micro` names its run function, its rounds rule, where its section
  lands in the summary, how to read its gated ratio(s), and its report
  lines.  The fused-kernel micro times a forward+backward training step
  through the fused ``quadratic_response`` / ``quadratic_conv2d`` registry
  ops against the node-by-node unfused reference path, preserving the
  workloads (and result keys) of ``benchmarks/test_bench_fused_ops.py`` so
  the speedup trajectory stays comparable across PRs.

:func:`check_gates` is the CI gate: one rule for every micro — a ratio
passes when *either* its mean-based or its best-of-rounds value clears the
floor — and a gated micro that recorded no ratio is a violation, never a
vacuous pass.

The pytest-benchmark suite under ``benchmarks/`` remains for interactive
profiling.
"""

from __future__ import annotations

import platform
import statistics
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .experiments.runner import default_cache_dir, run_many
from .io.serialization import atomic_write_json

__all__ = ["time_callable", "fused_kernel_benchmarks", "inference_benchmarks",
           "serving_benchmarks", "pool_benchmarks", "trace_benchmarks",
           "generation_benchmarks", "training_benchmarks",
           "benchmark_experiments", "Micro", "MICROS", "MICRO_NAMES",
           "build_summary", "check_gates", "write_summary"]

#: Fused micro-benchmark result keys, kept identical to the historical
#: pytest-benchmark test names so BENCH_autograd.json stays a trajectory.
FUSED_BENCH_KEYS = {
    ("linear", True): "test_bench_fused_quadratic_linear",
    ("linear", False): "test_bench_unfused_quadratic_linear",
    ("conv", True): "test_bench_fused_quadratic_conv",
    ("conv", False): "test_bench_unfused_quadratic_conv",
}


def time_callable(function, rounds: int = 10, warmup: int = 1) -> dict:
    """Wall-clock statistics for ``rounds`` calls of ``function()``."""
    for _ in range(warmup):
        function()
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        function()
        samples.append(time.perf_counter() - started)
    return {
        "mean_seconds": statistics.fmean(samples),
        "min_seconds": min(samples),
        "stddev_seconds": statistics.stdev(samples) if len(samples) > 1 else 0.0,
        "rounds": rounds,
    }


def _speedups(slow: dict, fast: dict) -> dict:
    """``speedup`` (mean-based, the trajectory number) and ``speedup_best``
    (best-of-rounds, far less sensitive to scheduler noise) of ``fast`` over
    ``slow`` timings; empty when ``fast`` has a zero time."""
    if fast["mean_seconds"] <= 0 or fast["min_seconds"] <= 0:
        return {}
    return {"speedup": slow["mean_seconds"] / fast["mean_seconds"],
            "speedup_best": slow["min_seconds"] / fast["min_seconds"]}


def _run_clients(clients: int, client) -> None:
    """Run ``client()`` on ``clients`` threads released together by a
    barrier; re-raise the first error once all have finished."""
    import threading

    barrier = threading.Barrier(clients)
    errors: list[Exception] = []

    def run():
        try:
            barrier.wait()
            client()
        except Exception as error:  # noqa: BLE001 — re-raised below
            errors.append(error)

    threads = [threading.Thread(target=run) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _fused_workloads():
    """The fused-vs-unfused training-step pairs (same shapes as the pytest suite)."""
    from .quadratic import EfficientQuadraticConv2d, EfficientQuadraticLinear
    from .tensor import Tensor

    dense_layer = EfficientQuadraticLinear(256, 32, rank=9, lambda_init=0.1,
                                           rng=np.random.default_rng(0))
    dense_x = Tensor(np.random.default_rng(1).standard_normal((128, 256))
                     .astype(np.float32), requires_grad=True)
    conv_layer = EfficientQuadraticConv2d(16, 4, 3, padding=1, rank=9, lambda_init=0.1,
                                          rng=np.random.default_rng(0))
    conv_x = Tensor(np.random.default_rng(1).standard_normal((8, 16, 16, 16))
                    .astype(np.float32), requires_grad=True)

    def train_step(layer, x, forward):
        for parameter in layer.parameters():
            parameter.zero_grad()
        x.zero_grad()
        forward(x).sum().backward()

    return {
        "linear": (dense_layer, dense_x),
        "conv": (conv_layer, conv_x),
    }, train_step


def fused_kernel_benchmarks(rounds: int = 30, warmup: int = 3) -> dict:
    """Time fused vs unfused kernels; return the ``fused_ops`` and
    ``fused_speedups`` summary sections.

    ``fused_speedups`` carries the legacy mean-based ratios (the trajectory
    numbers) plus ``*_speedup_best`` best-of-rounds ratios (see
    :func:`_speedups`).
    """
    workloads, train_step = _fused_workloads()
    fused_ops: dict[str, dict] = {}
    speedups: dict[str, float] = {}
    for kind, (layer, x) in workloads.items():
        for fused in (True, False):
            forward = layer if fused else layer._forward_unfused
            fused_ops[FUSED_BENCH_KEYS[kind, fused]] = time_callable(
                lambda layer=layer, x=x, forward=forward: train_step(layer, x, forward),
                rounds=rounds, warmup=warmup)
        for key, ratio in _speedups(fused_ops[FUSED_BENCH_KEYS[kind, False]],
                                    fused_ops[FUSED_BENCH_KEYS[kind, True]]).items():
            speedups[f"quadratic_{kind}_{key}"] = ratio
    return {"fused_ops": fused_ops, "fused_speedups": speedups}


def inference_benchmarks(rounds: int = 5, warmup: int = 2,
                         batch_size: int = 64) -> dict:
    """Time batched :class:`~repro.serve.InferenceSession.predict` against a
    naive per-sample loop over the same session.

    This is the serving layer's headline number: one warm session answers the
    same ``batch_size`` samples either as a single micro-batched forward or
    as ``batch_size`` one-sample forwards.  The batched path amortizes the
    im2col expansion and the BLAS dispatch across the whole batch, which is
    exactly the inference-efficiency claim ``repro serve`` exists to exploit.
    """
    from .models import SimpleCNN
    from .serve import InferenceSession

    model = SimpleCNN(num_classes=10, neuron_type="proposed", rank=3,
                      base_width=8, image_size=16, seed=0)
    # compile=False: this micro isolates micro-batching amortization, so both
    # paths run classic dispatch (trace-and-replay has its own section).
    session = InferenceSession(model, max_batch=batch_size, compile=False)
    inputs = np.random.default_rng(1).standard_normal(
        (batch_size, 3, 16, 16)).astype(np.float32)
    session.warm(input_shape=inputs.shape[1:], batch_sizes=(batch_size, 1))

    batched = time_callable(lambda: session.predict(inputs),
                            rounds=rounds, warmup=warmup)
    per_sample = time_callable(
        lambda: [session.predict(inputs[index:index + 1])
                 for index in range(batch_size)],
        rounds=rounds, warmup=warmup)
    return {
        "model": "simple_cnn/proposed",
        "batch_size": batch_size,
        "batched": batched,
        "per_sample": per_sample,
        **_speedups(per_sample, batched),
    }


def serving_benchmarks(rounds: int = 3, warmup: int = 1, clients: int = 8,
                       requests_per_client: int = 25) -> dict:
    """Throughput of the batched vs the direct serving engine under
    concurrent load: ``clients`` threads each fire ``requests_per_client``
    single-sample requests (submitted as futures, then awaited).

    This is the cross-request story the engine layer exists for: the direct
    engine answers 8 threads as 8×R serialized one-row forwards, each paying
    the full im2col/BLAS-dispatch overhead, while the batched engine's
    scheduler coalesces the queue into fused forwards.  Requests/sec for both
    engines and their ratio land in ``BENCH_autograd.json`` under
    ``serving`` (CI floor: 2x at 8 clients).
    """
    from .models import SimpleCNN
    from .serve import BatchedEngine, DirectEngine, InferenceSession
    from .serve.metrics import LatencyHistogram

    model = SimpleCNN(num_classes=10, neuron_type="proposed", rank=3,
                      base_width=8, image_size=16, seed=0)
    sample = np.random.default_rng(1).standard_normal((1, 3, 16, 16)) \
        .astype(np.float32)
    total_requests = clients * requests_per_client

    def storm(engine, histogram):
        def client():
            futures = []
            for _ in range(requests_per_client):
                submitted = time.perf_counter()
                future = engine.submit(sample)
                # Completion callback, not result(): per-request latency
                # is submit → done, independent of await order.
                future.add_done_callback(
                    lambda f, t0=submitted: histogram.record(
                        time.perf_counter() - t0))
                futures.append(future)
            for future in futures:
                future.result(timeout=120)

        _run_clients(clients, client)

    # compile=False on both sides: this micro isolates the scheduling layer
    # (queue/coalesce/demux vs serialized one-row forwards); plan compilation
    # is measured separately by :func:`trace_benchmarks`.
    session_direct = InferenceSession(model, max_batch=64, compile=False)
    session_direct.warm(input_shape=sample.shape[1:], batch_sizes=(1,))
    session_batched = InferenceSession(model, max_batch=64, compile=False)
    session_batched.warm(input_shape=sample.shape[1:],
                         batch_sizes=(64, clients, 1))

    direct_engine = DirectEngine(session_direct)
    batched_engine = BatchedEngine(session_batched, max_batch=64,
                                   max_wait_ms=2.0,
                                   queue_size=total_requests + clients)
    direct_latency = LatencyHistogram()
    batched_latency = LatencyHistogram()
    try:
        direct = time_callable(lambda: storm(direct_engine, direct_latency),
                               rounds=rounds, warmup=warmup)
        batched = time_callable(lambda: storm(batched_engine, batched_latency),
                                rounds=rounds, warmup=warmup)
        batched_stats = batched_engine.stats()
    finally:
        batched_engine.close()
        direct_engine.close()

    def _percentiles(histogram):
        summary = histogram.summary()
        return {key: summary[key]
                for key in ("count", "mean_ms", "p50_ms", "p95_ms", "p99_ms")}

    return {
        "model": "simple_cnn/proposed",
        "clients": clients,
        "requests_per_client": requests_per_client,
        "rows_per_request": 1,
        "direct": direct,
        "batched": batched,
        "direct_rps": total_requests / direct["mean_seconds"],
        "batched_rps": total_requests / batched["mean_seconds"],
        "direct_latency": _percentiles(direct_latency),
        "batched_latency": _percentiles(batched_latency),
        "mean_batch_rows": batched_stats["mean_batch_rows"],
        **_speedups(direct, batched),
    }


def pool_benchmarks(rounds: int = 2, warmup: int = 1, clients: int = 4,
                    requests_per_client: int = 6, rows_per_request: int = 16,
                    worker_counts: tuple[int, ...] = (1, 2, 4)) -> dict:
    """Worker-count scaling curve of the process-pool serving engine.

    The workload is deliberately *compute-bound* — multi-row requests, so
    each fused forward carries real convolution work — because that is the
    regime the pool exists for: :func:`serving_benchmarks` already shows the
    batched engine winning the scheduling game at single-row requests, and
    this micro shows what no single-process engine can do — put more than
    one core behind the forwards.  ``clients`` threads each fire
    ``requests_per_client`` requests of ``rows_per_request`` rows at a
    single-process :class:`~repro.serve.BatchedEngine` baseline and at a
    :class:`~repro.serve.ProcessPoolEngine` for each worker count; rows/sec
    per configuration lands under ``serving.pool`` in
    ``BENCH_autograd.json`` as the scaling curve.

    ``speedup`` compares the *largest* pool against the batched baseline —
    that ratio is CI-gated (``--gate pool=FLOOR``) on multi-core runners.
    On a single-core box the pool cannot win (same arithmetic plus IPC), and
    the recorded curve will honestly say so.
    """
    import tempfile
    from pathlib import Path

    from .io.bundle import save_bundle
    from .models import SimpleCNN
    from .serve import BatchedEngine, InferenceSession, ProcessPoolEngine

    model = SimpleCNN(num_classes=10, neuron_type="proposed", rank=3,
                      base_width=8, image_size=16, seed=0)
    request = np.random.default_rng(1).standard_normal(
        (rows_per_request, 3, 16, 16)).astype(np.float32)
    total_requests = clients * requests_per_client
    total_rows = total_requests * rows_per_request

    def storm(engine):
        def client():
            futures = [engine.submit(request)
                       for _ in range(requests_per_client)]
            for future in futures:
                future.result(timeout=300)

        _run_clients(clients, client)

    def measure(engine) -> dict:
        try:
            timing = time_callable(lambda: storm(engine),
                                   rounds=rounds, warmup=warmup)
        finally:
            engine.close()
        timing["rows_per_second"] = total_rows / timing["mean_seconds"]
        timing["rows_per_second_best"] = total_rows / timing["min_seconds"]
        return timing

    # compile=False everywhere, matching serving_benchmarks: this micro
    # isolates scheduling + parallel execution, not plan compilation.
    engine_kwargs = {"max_batch": rows_per_request * 2, "max_wait_ms": 2.0,
                     "queue_size": total_requests + clients}
    with tempfile.TemporaryDirectory(prefix="repro-bench-pool-") as tmp:
        bundle_path = save_bundle(Path(tmp) / "bench_pool.npz", model,
                                  info={"input_shape": [3, 16, 16]})

        def session():
            return InferenceSession(bundle_path, max_batch=rows_per_request * 2,
                                    compile=False)

        batched = measure(BatchedEngine(session(), **engine_kwargs))
        pools: dict[str, dict] = {}
        for workers in worker_counts:
            engine = ProcessPoolEngine(session(), workers=workers,
                                       **engine_kwargs)
            engine.warm((3, 16, 16))
            pools[str(workers)] = measure(engine)

    return {
        "model": "simple_cnn/proposed",
        "clients": clients,
        "requests_per_client": requests_per_client,
        "rows_per_request": rows_per_request,
        "worker_counts": list(worker_counts),
        "batched": batched,
        "workers": pools,
        **_speedups(batched, pools[str(max(worker_counts))]),
    }


def trace_benchmarks(rounds: int = 100, warmup: int = 10,
                     batch_sizes: tuple[int, ...] = (1, 8)) -> dict:
    """Traced-replay vs dispatched no-grad forward through a warm session.

    Both paths run the same weights on the same arrays; the only difference
    is dispatched op-by-op execution vs replaying the compiled
    :class:`~repro.tensor.plan.ExecutionPlan`, so the ratio isolates what the
    compiler saves: per-op registry lookup, Tensor/OpContext construction,
    and per-op output allocation (fused chains + arena buffers).

    The gated micro uses ``mlp_classifier`` — small dense matmuls, so the
    forward is dispatch-overhead-dominated and the ratio directly measures
    interpreter cost (the thing the compiler removes).  ``simple_cnn`` is
    recorded alongside for reference but not gated: its quadratic convolutions
    dominate the forward, bounding the achievable ratio (Amdahl).
    """
    from .models import MLPClassifier, SimpleCNN
    from .tensor import Tensor, no_grad
    from .tensor.plan import compile_forward

    def measure(model, sample_shape):
        model = model.eval()
        batches = {}
        plan_info = {}
        for batch in batch_sizes:
            inputs = np.random.default_rng(2).standard_normal(
                (batch, *sample_shape)).astype(np.float32)
            plan, _ = compile_forward(model, inputs)
            entry = {}
            if plan is None:  # untraceable model: record the miss, don't crash
                entry["fallback"] = True
            else:
                with no_grad():
                    dispatched = time_callable(
                        lambda: model(Tensor(inputs)).data,
                        rounds=rounds, warmup=warmup)
                    traced = time_callable(lambda: plan.replay(inputs),
                                           rounds=rounds, warmup=warmup)
                entry = {"dispatched": dispatched, "traced": traced,
                         **_speedups(dispatched, traced)}
                plan_info = {k: v for k, v in plan.describe().items()
                             if k != "replays"}
            batches[str(batch)] = entry
        return batches, plan_info

    mlp = MLPClassifier(in_features=3 * 16 * 16, num_classes=10,
                        neuron_type="proposed", seed=0)
    cnn = SimpleCNN(num_classes=10, neuron_type="proposed", rank=3,
                    base_width=8, image_size=16, seed=0)
    mlp_batches, mlp_plan = measure(mlp, (3, 16, 16))
    cnn_batches, cnn_plan = measure(cnn, (3, 16, 16))
    return {
        "model": "mlp_classifier/proposed",
        "batches": mlp_batches,
        "plan": mlp_plan,
        "reference": {
            "simple_cnn/proposed": {"batches": cnn_batches, "plan": cnn_plan},
        },
    }


def generation_benchmarks(rounds: int = 3, warmup: int = 1, batch: int = 16,
                          max_len: int = 32) -> dict:
    """Incremental KV-cached decoding vs the full-prefix recompute.

    Both paths drive the same Transformer through ``max_len - 1`` forced
    decode steps (termination disabled, so the measured work is identical
    and independent of what an untrained model happens to emit): the
    incremental path feeds one token per step through
    :meth:`~repro.models.transformer.Transformer.decode_step`, the reference
    re-runs :meth:`~repro.models.transformer.Transformer.decode` over the
    whole growing prefix — O(T) versus O(T²) in decoder forwards.  Tokens/sec
    for both and their ratio land under ``generation`` in
    ``BENCH_autograd.json`` (CI floor: 2x at ``max_len`` 32).
    """
    from .models import Transformer
    from .tensor import no_grad

    model = Transformer(src_vocab_size=101, tgt_vocab_size=97, model_dim=64,
                        num_heads=4, num_layers=2, hidden_dim=128,
                        neuron_type="proposed", rank=4, max_len=max_len,
                        seed=0).eval()
    rng = np.random.default_rng(3)
    src_ids = rng.integers(4, 101, size=(batch, 12), dtype=np.int64)
    steps = max_len - 1
    bos = 1

    def incremental():
        with no_grad():
            state = model.start_decode(src_ids, max_len=max_len)
            tokens = np.full(batch, bos, dtype=np.int64)
            for _ in range(steps):
                logits = model.decode_step(state, tokens)
                tokens = logits.argmax(axis=-1)
                tokens = np.where(tokens == model.pad_id, bos, tokens)

    def reference():
        with no_grad():
            memory, src_mask = model.encode(src_ids)
            generated = np.full((batch, 1), bos, dtype=np.int64)
            for _ in range(steps):
                logits = model.decode(generated, memory, src_mask)
                tokens = logits.data[:, -1, :].argmax(axis=-1)
                tokens = np.where(tokens == model.pad_id, bos, tokens)
                generated = np.concatenate([generated, tokens[:, None]], axis=1)

    incremental_stats = time_callable(incremental, rounds=rounds, warmup=warmup)
    reference_stats = time_callable(reference, rounds=rounds, warmup=warmup)
    tokens_per_round = batch * steps
    return {
        "model": "transformer/proposed",
        "batch": batch,
        "max_len": max_len,
        "steps": steps,
        "incremental": incremental_stats,
        "reference": reference_stats,
        "incremental_tokens_per_second":
            tokens_per_round / incremental_stats["mean_seconds"],
        "reference_tokens_per_second":
            tokens_per_round / reference_stats["mean_seconds"],
        **_speedups(reference_stats, incremental_stats),
    }


def training_benchmarks(rounds: int = 2, warmup: int = 1, world_size: int = 4,
                        worker_counts: tuple[int, ...] = (1, 2, 4),
                        batches: int = 4, batch_size: int = 64) -> dict:
    """Worker-count scaling curve of data-parallel training.

    One epoch of :class:`~repro.training.DataParallelTrainer` over a fixed
    synthetic workload, at a **fixed** ``world_size`` and varying worker
    counts — so every configuration computes byte-identical parameters (the
    shard arithmetic never changes) and the curve measures pure execution
    scaling: shards running concurrently in worker processes versus
    sequentially inline.  Samples/sec per worker count lands under
    ``training`` in ``BENCH_autograd.json``.

    The warmup round spawns the worker fleet, so process startup is excluded
    from the timed rounds (steady-state training amortizes spawn over the
    whole run).  ``speedup`` compares the largest fleet against inline
    execution; that ratio is CI-gated (``--gate train=FLOOR``) on
    multi-core runners — on one core the workers pay IPC for the same
    arithmetic and the recorded curve will honestly say so.
    """
    from .data import DataLoader
    from .models import build_model
    from .nn import CrossEntropyLoss
    from .optim import SGD
    from .training import DataParallelTrainer

    rng = np.random.default_rng(7)
    inputs = rng.standard_normal(
        (batches * batch_size, 3, 16, 16)).astype(np.float32)
    targets = rng.integers(0, 10, size=batches * batch_size)
    total_samples = batches * batch_size

    def measure(workers: int) -> dict:
        model = build_model("simple_cnn", num_classes=10, neuron_type="proposed",
                            rank=3, base_width=8, image_size=16, seed=0)
        optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
        trainer = DataParallelTrainer(model, optimizer, CrossEntropyLoss(),
                                      world_size=world_size, workers=workers,
                                      seed=0)
        loader = DataLoader(inputs, targets, batch_size=batch_size,
                            shuffle=False, seed=0)
        try:
            timing = time_callable(lambda: trainer.train_epoch(loader),
                                   rounds=rounds, warmup=warmup)
        finally:
            trainer.close()
        timing["samples_per_second"] = total_samples / timing["mean_seconds"]
        timing["samples_per_second_best"] = total_samples / timing["min_seconds"]
        return timing

    results = {str(workers): measure(workers) for workers in worker_counts}
    return {
        "model": "simple_cnn/proposed",
        "world_size": world_size,
        "batch_size": batch_size,
        "batches": batches,
        "worker_counts": list(worker_counts),
        "workers": results,
        **_speedups(results[str(min(worker_counts))],
                    results[str(max(worker_counts))]),
    }


def benchmark_experiments(names: list[str], scale: str = "smoke",
                          cache_dir=None, progress=None) -> dict:
    """End-to-end wall time per experiment via the cached runner (cache bypassed).

    Always runs sequentially (``jobs=1``): concurrent experiments contend for
    cores and would inflate each other's wall times, corrupting the trajectory
    that successive PRs compare against.  The fresh artifacts still land in
    the cache, so a later ``repro run`` of the same configuration is a cache
    hit — benching warms the sweep.
    """
    cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
    outcomes = run_many(names, scale=scale, cache_dir=cache_dir, force=True,
                        jobs=1, progress=progress)
    timings: dict[str, dict] = {}
    for outcome in outcomes:
        if not outcome.ok:
            raise RuntimeError(f"benchmark run of '{outcome.name}' failed: "
                               f"{outcome.error}")
        timings[outcome.name] = {
            "mean_seconds": outcome.elapsed_seconds,
            "min_seconds": outcome.elapsed_seconds,
            "stddev_seconds": 0.0,
            "rounds": 1,
        }
    return timings


def _one_ratio(label):
    """Reader of the single ``speedup`` / ``speedup_best`` pair most micros
    record; ``label(section)`` names it in gate messages."""
    def read(section: dict) -> list[tuple]:
        if "speedup" not in section:
            return []
        ratio = section["speedup"]
        return [(label(section), ratio, section.get("speedup_best", ratio))]
    return read


def _fused_ratios(summary: dict) -> list[tuple]:
    speedups = summary.get("fused_speedups") or {}
    return [(name, ratio, speedups.get(f"{name}_best", ratio))
            for name, ratio in sorted(speedups.items())
            if not name.endswith("_best")]


def _trace_ratios(trace: dict) -> list[tuple]:
    # Gates the mlp_classifier micro only (dispatch-overhead-dominated, so the
    # ratio is stable); the compute-bound simple_cnn reference is not gated.
    batches = sorted((trace.get("batches") or {}).items(),
                     key=lambda item: int(item[0]))
    return [(f"traced-replay speedup at batch {batch} ({trace.get('model')})",
             entry.get("speedup"), entry.get("speedup_best", entry.get("speedup")))
            for batch, entry in batches]


def _fused_report(result: dict):
    for name, stats in sorted(result["fused_ops"].items()):
        yield name, f"{stats['mean_seconds'] * 1e6:>12.1f} us"
    for name, ratio in sorted(result["fused_speedups"].items()):
        yield name, f"{ratio:>11.2f}x"


def _inference_report(result: dict):
    for label, key in ((f"batched (batch {result['batch_size']})", "batched"),
                       ("per-sample loop", "per_sample")):
        yield f"inference {label}", f"{result[key]['mean_seconds'] * 1e6:>12.1f} us"
    yield "inference batch speedup", f"{result['speedup']:>11.2f}x"


def _serving_report(result: dict):
    for engine in ("direct", "batched"):
        yield (f"serving {engine} ({result['clients']} clients)",
               f"{result[engine + '_rps']:>10.1f} r/s")
    yield "serving batched-engine speedup", f"{result['speedup']:>11.2f}x"
    latency = result.get("batched_latency")
    if latency:
        yield ("serving batched p50/p95/p99",
               f"{latency['p50_ms']:>7.2f} / {latency['p95_ms']:.2f} / "
               f"{latency['p99_ms']:.2f} ms")


def _pool_report(result: dict):
    yield ("pool baseline: batched engine",
           f"{result['batched']['rows_per_second']:>10.1f} rows/s")
    for workers in result["worker_counts"]:
        rate = result["workers"][str(workers)]["rows_per_second"]
        yield f"pool({workers}) rows/sec", f"{rate:>10.1f} rows/s"
    yield (f"pool({max(result['worker_counts'])}) vs batched",
           f"{result['speedup']:>11.2f}x")


def _trace_report(result: dict):
    for batch, entry in sorted(result["batches"].items(),
                               key=lambda item: int(item[0])):
        yield f"traced replay speedup (batch {batch})", f"{entry['speedup']:>11.2f}x"


def _generation_report(result: dict):
    yield (f"generation incremental (batch {result['batch']}, "
           f"{result['steps']} steps)",
           f"{result['incremental_tokens_per_second']:>8.1f} tok/s")
    yield ("generation full-prefix recompute",
           f"{result['reference_tokens_per_second']:>8.1f} tok/s")
    yield "generation incremental speedup", f"{result['speedup']:>11.2f}x"


def _training_report(result: dict):
    counts = result["worker_counts"]
    for workers in counts:
        rate = result["workers"][str(workers)]["samples_per_second"]
        yield (f"train dp({workers}) samples/sec (world {result['world_size']})",
               f"{rate:>8.1f} smp/s")
    yield f"train dp({max(counts)}) vs dp({min(counts)})", f"{result['speedup']:>11.2f}x"


@dataclass(frozen=True)
class Micro:
    """One micro-benchmark of ``repro bench``, declared once.

    ``run(rounds=...)`` returns the micro's result, which
    :func:`build_summary` places at ``path`` in the summary (``()`` merges
    the result's keys into the top level).  ``ratios(section)`` reads the
    gated ``(label, ratio, best_ratio)`` triples back out of that section;
    ``report(result)`` yields the ``(label, value)`` lines ``repro bench``
    prints.
    """

    name: str
    title: str
    run: Callable[..., dict]
    rounds: Callable[[int], int]
    path: tuple[str, ...]
    ratios: Callable[[dict], list[tuple]]
    report: Callable[[dict], Iterator[tuple[str, str]]]


#: Every micro ``repro bench`` runs, in run order.  ``rounds`` maps the
#: ``--rounds`` value onto each micro's own round count.
MICROS = (
    Micro("fused", "fused-kernel vs unfused training steps",
          fused_kernel_benchmarks, lambda rounds: rounds, (),
          _fused_ratios, _fused_report),
    Micro("inference", "batched inference vs the per-sample loop",
          inference_benchmarks, lambda rounds: max(3, rounds // 6), ("inference",),
          _one_ratio(lambda s: "batched inference speedup at batch "
                               f"{s.get('batch_size')}"),
          _inference_report),
    Micro("serving", "batched vs direct engine under concurrent load",
          serving_benchmarks, lambda rounds: max(3, rounds // 10), ("serving",),
          _one_ratio(lambda s: "batched-engine serving speedup at "
                               f"{s.get('clients')} concurrent clients"),
          _serving_report),
    Micro("pool", "largest process pool vs the batched engine on multi-row "
                  "requests (spawns up to 4 workers)",
          pool_benchmarks, lambda rounds: max(2, rounds // 15), ("serving", "pool"),
          _one_ratio(lambda s: f"pool({max(s.get('worker_counts', [0]))}) serving "
                               "speedup over the batched engine at "
                               f"{s.get('rows_per_request')} rows/request"),
          _pool_report),
    Micro("trace", "traced-plan replay vs dispatched no-grad forwards, "
                   "at every benched batch size",
          trace_benchmarks, lambda rounds: max(10, rounds * 3), ("trace",),
          _trace_ratios, _trace_report),
    Micro("generate", "KV-cached incremental decoding vs full-prefix recompute",
          generation_benchmarks, lambda rounds: max(3, rounds // 10), ("generation",),
          _one_ratio(lambda s: "incremental-decode speedup at max_len "
                               f"{s.get('max_len')}"),
          _generation_report),
    Micro("train", "largest data-parallel fleet vs one worker at a fixed "
                   "shard count (spawns up to 4 workers)",
          training_benchmarks, lambda rounds: max(2, rounds // 15), ("training",),
          _one_ratio(lambda s: "data-parallel training speedup of "
                               f"{max(s.get('worker_counts', [0]))} workers over "
                               f"inline at world_size {s.get('world_size')}"),
          _training_report),
)
MICRO_NAMES = tuple(micro.name for micro in MICROS)

#: Top-level micro sections every summary carries, empty when skipped.
_SECTIONS = ("fused_ops", "fused_speedups", "inference", "serving", "trace",
             "generation", "training")


def _section(summary: dict, path: tuple[str, ...]) -> dict:
    for key in path:
        summary = summary.get(key) or {}
    return summary


def build_summary(figure_repros: dict, micros: dict, scale: str,
                  started: float) -> dict:
    """Assemble the ``BENCH_autograd.json`` summary.

    ``micros`` maps micro names to their results; each lands at its table
    path (the pool scaling curve rides inside the serving section).
    """
    summary = {"figure_repros": figure_repros,
               **{key: {} for key in _SECTIONS}}
    for micro in MICROS:
        if micro.name not in micros:
            continue
        if not micro.path:
            summary.update(micros[micro.name])
            continue
        *parents, key = micro.path
        node = summary
        for parent in parents:
            node = node.setdefault(parent, {})
        node[key] = dict(micros[micro.name])
    summary.update({
        "scale": scale,
        "targets": sorted(figure_repros),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(started)),
        "harness_seconds": time.time() - started,
        "python": platform.python_version(),
        "platform": platform.platform(),
    })
    return summary


def check_gates(summary: dict, floors: dict) -> list[str]:
    """Regression messages for every gated ratio below its floor (CI gate).

    ``floors`` maps micro names to minimum ratios.  A ratio passes if
    *either* its mean-based or its best-of-rounds value clears the floor — a
    genuine regression drags both down, while a noisy-neighbor scheduling
    blip rarely corrupts the best-of-rounds number.  A gated micro that
    recorded no ratio is a violation, never a vacuous pass.
    """
    unknown = sorted(set(floors) - set(MICRO_NAMES))
    if unknown:
        raise ValueError(f"unknown micro-benchmark(s) {', '.join(unknown)}; "
                         f"choose from {', '.join(MICRO_NAMES)}")
    violations = []
    for micro in MICROS:
        if micro.name not in floors:
            continue
        floor = floors[micro.name]
        ratios = micro.ratios(_section(summary, micro.path))
        if not ratios:
            violations.append(f"{micro.name} benchmark missing from the summary")
        for label, ratio, best in ratios:
            if ratio is None:
                violations.append(f"{label} missing")
            elif max(ratio, best) < floor:
                violations.append(f"{label} = {ratio:.3f}x (best-of-rounds "
                                  f"{best:.3f}x) is below the {floor:.2f}x floor")
    return violations


def write_summary(summary: dict, output) -> None:
    atomic_write_json(output, {key: summary[key] for key in sorted(summary)})
