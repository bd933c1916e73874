"""``predict_http``: classification traffic against ``repro serve``.

Two keep-alive connections each keep one ``POST /v1/models/default/predict``
in flight (a closed loop: two callers that each wait for their answer)
against a ``repro serve`` process (batched engine, compilation on) serving
a ``simple_cnn/proposed`` 16×16 bundle.  85 % of the requests carry one row
and 15 % carry sixteen, in a seeded order.

Why closed and not open loop: the server writes a response's headers and
body in two sends, so on a keep-alive connection a response can stall
about 40 ms until the client's delayed ACK.  Whether it stalls depends on
how soon after the previous answer the next request goes out.  Under
seeded Poisson arrivals at 15-20 requests/s, 20-45 % of the requests
stalled and the median fell on either side of the stall from seed to seed
(quartile spread 0.28-0.52 of the median over five seeds), too unsteady to
compare commits by.  Back to back, every request is in the same regime.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import spans as spanlib
from .common import IMAGE_SHAPE, Outcome, export_cnn_bundle, median
from .httpload import measure

#: Share of requests carrying :data:`LARGE_ROWS` rows (the rest carry one).
LARGE_SHARE = 0.15
LARGE_ROWS = 16
#: Distinct request bodies (requests reuse them; each has a reference).
SMALL_BODIES = 24
LARGE_BODIES = 8
#: Length of the seeded body order requests cycle through.
ORDER = 200
#: Seconds of traffic before the measured window, so the server's plan
#: cache holds the fused shapes the window will see.
WARMUP_SECONDS = 1.5
#: Two top-1 probabilities closer than this count as a tie: either class is
#: a correct answer (float32 rounding differs between fused batch shapes).
TIE_TOLERANCE = 1e-5
PATH = "/v1/models/default/predict"


def _bodies(rng):
    """Seeded request bodies, their rows and the accepted top-1 classes."""
    bodies, rows = [], []
    for count, size in ((SMALL_BODIES, 1), (LARGE_BODIES, LARGE_ROWS)):
        for _ in range(count):
            array = rng.random((size, *IMAGE_SHAPE)).round(3).astype(np.float32)
            rows.append(array)
            bodies.append(json.dumps({"inputs": array.tolist(),
                                      "top_k": 1}).encode())
    return bodies, rows


def _references(bundle: Path, rows) -> list[list[set]]:
    """Per body, per row: the classes an in-process forward accepts."""
    from repro.serve import InferenceSession, Pipeline

    session = InferenceSession(bundle, compile=False)
    pipeline = Pipeline(session)
    accepted = []
    for array in rows:
        logits = session.predict(pipeline.preprocess(array))
        probabilities = np.exp(logits - logits.max(axis=1, keepdims=True))
        probabilities /= probabilities.sum(axis=1, keepdims=True)
        per_row = []
        for row in probabilities:
            best = row.max()
            per_row.append({int(index) for index in
                            np.flatnonzero(row >= best - TIE_TOLERANCE)})
        accepted.append(per_row)
    return accepted


def _order(rng) -> np.ndarray:
    """Seeded body indices with an exact 15 % share of large requests."""
    large = np.zeros(ORDER, dtype=bool)
    large[:int(round(LARGE_SHARE * ORDER))] = True
    rng.shuffle(large)
    return np.where(large,
                    SMALL_BODIES + rng.integers(0, LARGE_BODIES, size=ORDER),
                    rng.integers(0, SMALL_BODIES, size=ORDER))


def _top1(payload: bytes) -> list[int] | None:
    try:
        return [int(record["class_index"])
                for record in json.loads(payload)["predictions"]]
    except (ValueError, KeyError, TypeError):
        return None


def run(seed: int, seconds: float, workdir: Path, trace: bool,
        refuse: int = 0) -> Outcome:
    rng = np.random.default_rng(seed)
    bundle = export_cnn_bundle(workdir, seed)
    bodies, rows = _bodies(rng)
    order = _order(rng)
    accepted = _references(bundle, rows)
    # Self-check only: the first ``refuse`` measured requests carry a body
    # the server must refuse (400).
    bodies.append(b'{"inputs": [[1.0, 2.0]]}')

    def body_for(request_id: int) -> int:
        return len(bodies) - 1 if request_id < refuse \
            else int(order[request_id % ORDER])

    def check(record):
        predicted = _top1(record["payload"])
        expected = accepted[record["body"]]
        ok = predicted is not None and len(predicted) == len(expected) \
            and all(p in e for p, e in zip(predicted, expected))
        return ok, len(expected)

    window = measure([str(bundle), "--engine", "batched"], workdir, trace,
                     PATH, bodies, body_for, seconds, WARMUP_SECONDS, check)
    outcome = window.outcome
    outcome.named = {
        "predict_p50_ms": (outcome.metrics["p50_ms"], "ms"),
        "predict_p90_ms": (outcome.metrics["p90_ms"], "ms"),
        "predict_rows_per_s": (outcome.metrics["throughput_per_s"], "1/s"),
        "requests": (len(window.records), "count"),
    }
    if trace:
        outcome.layers = _layers(window.spans, window.records, window.before,
                                 window.after)
    return outcome


def _layers(spans, records, before: dict, after: dict) -> dict:
    """Per-layer metrics from the server's spans, the client's records and
    ``/v1/stats`` before and after the window.

    Per request, the client's latency splits into HTTP (client latency
    minus ``predict_topk``), the managed-model wrapper, pre- and
    post-processing, the batching queue wait and the forward that carried
    the request; ``layer_share`` is the part of the latency those cover.
    """
    by_rid = {}
    for span in spans:
        if span.rid is not None and span.name in (
                "serve.ops.predict_topk", "serve.pipeline.preprocess",
                "serve.pipeline.postprocess", "serve.batching.submit"):
            by_rid.setdefault((span.name, int(span.rid)), span)
    by_id = {span.id: span for span in spans}
    children = spanlib.children_of(spans)

    http_self, ops_self, pre, post, wait, forward = [], [], [], [], [], []
    named, total = 0.0, 0.0
    carriers = set()
    for record in records:
        if record["status"] != 200:
            continue
        rid = record["id"]
        topk = by_rid.get(("serve.ops.predict_topk", rid))
        submit = by_rid.get(("serve.batching.submit", rid))
        carrier = by_id.get((submit.attrs or {}).get("carrier")) if submit else None
        if topk is None or carrier is None:
            continue
        client = record["done"] - record["sent"]
        parts = [client - topk.duration,
                 spanlib.self_time(topk, children.get(topk.id, [])),
                 by_rid[("serve.pipeline.preprocess", rid)].duration,
                 by_rid[("serve.pipeline.postprocess", rid)].duration,
                 carrier.start - submit.start,
                 carrier.duration]
        for values, part in zip((http_self, ops_self, pre, post, wait,
                                 forward), parts):
            values.append(part)
        carriers.add(carrier.id)
        named += sum(parts)
        total += client
    replays = [child.duration for carrier in carriers
               for child in children.get(carrier, [])
               if child.name == "tensor.plan.replay"]

    def grew(section, key):
        return (after["models"]["default"][section][key]
                - before["models"]["default"][section][key])

    forwards = sum(grew("plan_cache", key)
                   for key in ("hits", "misses", "fallbacks"))
    return {
        "serve.http.self_p50_ms": 1e3 * median(http_self),
        "serve.ops.self_p50_ms": 1e3 * median(ops_self),
        "serve.pipeline.preprocess_p50_ms": 1e3 * median(pre),
        "serve.pipeline.postprocess_p50_ms": 1e3 * median(post),
        "serve.batching.queue_wait_p50_ms": 1e3 * median(wait),
        "serve.batching.mean_batch_rows":
            grew("scheduler", "samples") / max(grew("scheduler", "batches"), 1),
        "serve.session.forward_p50_ms": 1e3 * median(forward),
        "tensor.plan.replay_p50_ms": 1e3 * median(replays),
        "tensor.plan.hit_ratio": grew("plan_cache", "replays") / max(forwards, 1),
        "trace.predict_http.layer_share": named / total,
    }
