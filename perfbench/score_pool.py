"""``score_pool``: closed-loop batch scoring through ``engine.submit``.

One thread keeps :data:`WINDOW` 32-row requests outstanding against a
``simple_cnn/proposed`` bundle loaded with ``repro.load``: first on the
batched engine (the single-process baseline), then on the process pool
with two workers.  No HTTP is involved.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from pathlib import Path

import numpy as np

from . import spans as spanlib
from .common import (IMAGE_SHAPE, SETUP_REPEATS, Outcome, export_cnn_bundle,
                     median, percentile)

ROWS = 32
WINDOW = 4
WORKERS = 2
#: Distinct request inputs (requests cycle through them).
INPUTS = 16
#: Share of the measured time given to the batched baseline; the pool,
#: whose figures are the workload's metrics, gets the rest.
BATCHED_SHARE = 0.25
#: Seconds of traffic before each measured phase (plan caches fill).
WARMUP_SECONDS = 1.0
#: Timed in-parent forwards of the fused shape for ``compute_est``.
COMPUTE_REPEATS = 15


def _closed_loop(engine, inputs, seconds: float, on_result=None):
    """Keep :data:`WINDOW` requests in flight for ``seconds``.

    ``on_result(input_index, logits)`` sees every answer and returns whether
    it is correct.  Returns ``(latencies, rows, elapsed, outcome)``.
    """
    outcome = Outcome()
    latencies = []
    in_flight = deque()

    def submit(index):
        finished = []  # filled by whichever thread resolves the future
        sent = time.perf_counter()
        future = engine.submit(inputs[index % len(inputs)])
        future.add_done_callback(
            lambda _: finished.append(time.perf_counter()))
        in_flight.append((index, sent, future, finished))

    start = time.perf_counter()
    deadline = start + seconds
    for issued in range(WINDOW):
        submit(issued)
    issued = WINDOW
    rows = 0
    while in_flight:
        index, sent, future, finished = in_flight.popleft()
        try:
            result = future.result()
        except Exception:  # noqa: BLE001 — a failed request is counted
            result = None
        end = finished[0] if finished else time.perf_counter()
        ok = result is not None and (
            on_result is None or on_result(index % len(inputs), result))
        outcome.count(ok)
        if ok:
            latencies.append(end - sent)
            rows += len(result)
        if time.perf_counter() < deadline:
            submit(issued)
            issued += 1
    return latencies, rows, time.perf_counter() - start, outcome


def _load_pool(bundle: Path, first_input):
    """Load the pool engine and wait for its first result; returns
    ``(predictor, seconds)``."""
    import repro

    started = time.perf_counter()
    predictor = repro.load(str(bundle), engine="pool", workers=WORKERS)
    try:
        predictor.engine.submit(first_input).result()
    except BaseException:
        predictor.close()
        raise
    return predictor, time.perf_counter() - started


def run(seed: int, seconds: float, workdir: Path, trace: bool) -> Outcome:
    import repro

    rng = np.random.default_rng(seed)
    bundle = export_cnn_bundle(workdir, seed)
    inputs = [rng.standard_normal((ROWS, *IMAGE_SHAPE)).astype(np.float32)
              for _ in range(INPUTS)]
    outcome = Outcome()

    # Phase 1: the batched engine, the baseline the pool must beat; its
    # answers are the reference for the pool's.
    reference = {}

    def remember(index, logits) -> bool:
        reference.setdefault(index, logits)
        return True

    batched = repro.load(str(bundle), engine="batched")
    try:
        _closed_loop(batched.engine, inputs, WARMUP_SECONDS)
        _, batched_rows, batched_elapsed, batched_outcome = _closed_loop(
            batched.engine, inputs, BATCHED_SHARE * seconds, remember)
    finally:
        batched.close()

    def matches_reference(index, logits) -> bool:
        expected = reference.get(index)
        ok = expected is not None and logits.tobytes() == expected.tobytes()
        outcome.check(ok)
        return ok

    # Phase 2: the pool; set-up is load + warm to the first result, repeated
    # (traced runs measure layers, not set-up: one set-up is enough there).
    setups = []
    for _ in range((1 if trace else SETUP_REPEATS) - 1):
        predictor, setup = _load_pool(bundle, inputs[0])
        predictor.close()
        setups.append(setup)
    predictor, setup = _load_pool(bundle, inputs[0])
    setups.append(setup)
    tracer = None
    try:
        _closed_loop(predictor.engine, inputs, WARMUP_SECONDS)
        if trace:
            from .layers import trace_pool

            stats_before = predictor.stats()
            tracer = trace_pool()
        latencies, pool_rows, pool_elapsed, pool_outcome = _closed_loop(
            predictor.engine, inputs, (1 - BATCHED_SHARE) * seconds,
            matches_reference)
        if trace:
            tracer.restore()
            tracer.dump(workdir / "spans.jsonl")
            stats_after = predictor.stats()
            compute = _compute_estimate(predictor, tracer, inputs)
    finally:
        if tracer is not None:
            tracer.restore()
        predictor.close()

    outcome.attempted = pool_outcome.attempted + batched_outcome.attempted
    outcome.failed = pool_outcome.failed + batched_outcome.failed
    pool_rate = pool_rows / pool_elapsed
    batched_rate = batched_rows / batched_elapsed
    outcome.metrics = {
        "setup_s": median(setups),
        "p50_ms": 1e3 * percentile(latencies, 50),
        "p90_ms": 1e3 * percentile(latencies, 90),
        "throughput_per_s": pool_rate,
    }
    outcome.named = {
        "pool_rows_per_s": (pool_rate, "1/s"),
        "batched_rows_per_s": (batched_rate, "1/s"),
        "pool_speedup": (pool_rate / batched_rate, "x"),
    }
    if trace:
        outcome.layers = _layers(tracer, stats_before, stats_after, compute,
                                 pool_elapsed)
        outcome.layers["serve.batched.rows_per_s"] = batched_rate
    return outcome


def _compute_estimate(predictor, tracer, inputs) -> float:
    """p50 seconds of the most common fused shape on an in-parent session
    (outside the timed window)."""
    rows = Counter(span.attrs["rows"] for span in
                   spanlib.named(tracer.spans, "serve.pool.send"))
    fused = np.concatenate(inputs)[:rows.most_common(1)[0][0]]
    session = predictor.session
    session.predict(fused)  # trace and compile this shape first
    times = []
    for _ in range(COMPUTE_REPEATS):
        started = time.perf_counter()
        session.predict(fused)
        times.append(time.perf_counter() - started)
    return median(times)


def _layers(tracer, before: dict, after: dict, compute: float,
            elapsed: float) -> dict:
    """Per-layer metrics from the parent's pipe spans and ``stats()``.

    ``layer_share`` is the part of each dispatcher thread's time spent
    sending to or waiting on its worker.
    """
    sends = spanlib.named(tracer.spans, "serve.pool.send")
    recvs = spanlib.named(tracer.spans, "serve.pool.recv")
    samples = [worker["samples"] - previous["samples"]
               for worker, previous in zip(after["per_worker"],
                                           before["per_worker"])]
    busy = sum(span.duration for span in sends + recvs)
    window = elapsed * max(len(samples), 1)
    return {
        "serve.pool.send_p50_ms": 1e3 * median([s.duration for s in sends]),
        "serve.pool.send_bytes_mean": float(np.mean(
            [s.attrs["bytes"] for s in sends])) if sends else 0.0,
        "serve.pool.recv_wait_p50_ms": 1e3 * median([s.duration for s in recvs]),
        "serve.pool.compute_est_p50_ms": 1e3 * compute,
        "serve.pool.worker_balance": min(samples) / max(max(samples), 1),
        "serve.pool.restarts": float(after["restarts"]),
        "trace.score_pool.layer_share": busy / window,
    }
