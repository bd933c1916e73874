"""``generate_http``: closed-loop generation traffic against ``repro serve``.

Two keep-alive connections each keep one ``POST /v1/models/default/generate``
in flight.  A request carries :data:`SEQUENCES_PER_REQUEST` seeded source
sequences of varied length and asks for greedy tokens from a
``transformer/proposed`` bundle, with a token budget (``max_new_tokens``)
from :data:`BUDGETS` in equal shares.  The server has :data:`SLOTS` decode
slots for the six sequences in flight, so sequences wait for free slots and
are admitted into them while other sequences are mid-decode (continuous
batching): a decode step carries sequences at different positions, and
sequences retire on different steps.

Sequences decode their whole budget, the way serving benchmarks fix output
lengths by ignoring EOS: of the seeded candidate sources of each length,
the first whose greedy output does not stop at EOS within the largest
budget is used (the longest-decoding one if all of them stop).  How often an
untrained model stops early depends on its seed (0 to 19 of 48 sources
across seeds 1-8); with those sources kept, tokens per second spread by a
quarter of its median and p90 latency by a sixth across five seeds.  Early
retirement is instead set by the budget mix, the same for every seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import spans as spanlib
from .common import Outcome, export_transformer_bundle, median
from .httpload import measure
from .layers import SELECT_SAMPLE

SEQUENCES_PER_REQUEST = 3
SLOTS = 4
#: Token budgets; each is the ``max_new_tokens`` of a third of the requests.
BUDGETS = (8, 12, 16)
#: Distinct source sequences (requests draw from them; each has a
#: reference): one of each length, so every seed has the same lengths.
SOURCES = 16
SOURCE_LENGTHS = np.linspace(4, 14, SOURCES).round().astype(int).tolist()
#: Seeded candidates drawn at most per source; when all of them stop at
#: EOS early, the one that decodes most tokens is used.
CANDIDATES = 20
#: Distinct request bodies, in the seeded order requests cycle through.
REQUESTS = 16 * len(BUDGETS)
#: Seconds of traffic before the measured window.
WARMUP_SECONDS = 0.5
PATH = "/v1/models/default/generate"


def _sources(rng, bundle: Path, vocabulary_size: int):
    """Seeded sources that decode their whole budget, and per ``(source
    index, budget)`` the greedy tokens a solo in-process predictor
    generates for it."""
    from repro.serve.generate import GenerationPredictor

    longest = max(BUDGETS)
    sources, references = [], {}
    predictor = GenerationPredictor(bundle, max_batch=1)

    def generate(source, budget):
        return predictor.generate([source], max_new_tokens=budget,
                                  strategy="greedy")[0]["tokens"]

    try:
        for length in SOURCE_LENGTHS:
            best = None
            for _ in range(CANDIDATES):
                candidate = rng.integers(4, vocabulary_size,
                                         size=length).tolist()
                output = generate(candidate, longest)
                if best is None or len(output) > len(best[1]):
                    best = candidate, output
                if len(output) == longest:  # did not stop at EOS
                    break
            source, tokens = best
            for budget in BUDGETS:
                references[len(sources), budget] = \
                    tokens if budget == longest else generate(source, budget)
            sources.append(source)
    finally:
        predictor.close()
    return sources, references


def run(seed: int, seconds: float, workdir: Path, trace: bool) -> Outcome:
    rng = np.random.default_rng(seed)
    bundle, task = export_transformer_bundle(workdir, seed)
    sources, references = _sources(rng, bundle, len(task.source_vocab))
    budgets = np.repeat(BUDGETS, REQUESTS // len(BUDGETS))
    rng.shuffle(budgets)
    requests = []
    for budget in budgets.tolist():
        chosen = rng.choice(SOURCES, size=SEQUENCES_PER_REQUEST,
                            replace=False).tolist()
        body = json.dumps({"inputs": [sources[i] for i in chosen],
                           "max_new_tokens": budget,
                           "strategy": "greedy"}).encode()
        requests.append((body, [references[i, budget] for i in chosen]))

    def check(record):
        try:
            outputs = [output["tokens"] for output in
                       json.loads(record["payload"])["outputs"]]
        except (ValueError, KeyError, TypeError):
            return False, 0
        return (outputs == requests[record["body"]][1],
                sum(len(produced) for produced in outputs))

    window = measure([str(bundle), "--max-batch", str(SLOTS)], workdir, trace,
                     PATH, [body for body, _ in requests],
                     lambda request_id: request_id % REQUESTS, seconds,
                     WARMUP_SECONDS, check)
    outcome = window.outcome
    outcome.named = {
        "gen_tokens_per_s": (outcome.metrics["throughput_per_s"], "1/s"),
        "gen_p50_ms": (outcome.metrics["p50_ms"], "ms"),
        "gen_p90_ms": (outcome.metrics["p90_ms"], "ms"),
        "requests": (len(window.records), "count"),
    }
    if trace:
        outcome.layers = _layers(window.spans, window.records, window.before,
                                 window.after)
    return outcome


def _layers(spans, records, before: dict, after: dict) -> dict:
    """Per-layer metrics from the server's spans, the client's records and
    ``/v1/stats`` before and after the window.

    ``layer_share`` is the part of the scheduler's time, from the first
    measured submit to the last measured prefill, spent in prefill, decode
    steps and token selection (one selection in :data:`SELECT_SAMPLE` is
    timed, so their sum is scaled up by that factor).
    """
    measured = {record["id"]: record for record in records
                if record["status"] == 200}
    http_self = []
    for span in spans:
        if span.name == "serve.ops.generate" and span.rid is not None \
                and int(span.rid) in measured:
            record = measured[int(span.rid)]
            http_self.append(record["done"] - record["sent"] - span.duration)
    submits = {span.id: span for span in spans
               if span.name == "serve.generate.submit"
               and span.rid is not None and int(span.rid) in measured}
    prefills = [span for span in spans
                if span.name == "models.transformer.prefill" and span.attrs
                and span.attrs.get("submit") in submits]
    first = min(span.start for span in submits.values())
    last = max(span.end for span in prefills)
    decodes = spanlib.named(spans, "models.transformer.decode_step", first, last)
    selects = spanlib.named(spans, "serve.generate.select", first, last)
    queue_wait = [span.start - submits[span.attrs["submit"]].start
                  for span in prefills]
    busy = sum(span.duration for span in prefills + decodes) \
        + SELECT_SAMPLE * sum(span.duration for span in selects)

    def counters(stats):
        entry = stats["models"]["default"]["scheduler"]
        return entry["batches"], entry["mean_batch_rows"] * entry["batches"]

    steps_before, rows_before = counters(before)
    steps_after, rows_after = counters(after)
    steps = max(steps_after - steps_before, 1)
    slots = after["models"]["default"]["scheduler"]["max_batch"]
    return {
        "serve.http.generate_self_p50_ms": 1e3 * median(http_self),
        "serve.generate.queue_wait_p50_ms": 1e3 * median(queue_wait),
        "models.transformer.prefill_p50_ms":
            1e3 * median([span.duration for span in prefills]),
        "models.transformer.decode_step_p50_ms":
            1e3 * median([span.duration for span in decodes]),
        "serve.generate.select_p50_us":
            1e6 * median([span.duration for span in selects]),
        "serve.generate.mean_batch_rows": (rows_after - rows_before) / steps,
        "serve.generate.slot_occupancy":
            (rows_after - rows_before) / (steps * slots),
        "trace.generate_http.layer_share": busy / (last - first),
    }
