"""Where the traced runs record spans: one installer per process kind.

Every span wraps a public call at a layer boundary; the span names are the
layer names the per-layer metrics use.  A few wrappers also record how
spans on different threads belong together:

* ``serve.batching.submit`` notes which ``serve.session.forward`` carried
  its request (the forward that ran just before the request's future
  resolved, on the thread that resolved it);
* ``models.transformer.prefill`` notes the ``serve.generate.submit`` of the
  sequence it encodes (matched by the source array the engine holds);
* the pipe spans record the pickled size of what was sent.
"""

from __future__ import annotations

import itertools
import threading

from .spans import Tracer

#: One ``serve.generate.select`` call in this many records a span: a span
#: on every generated token slowed generation by a fifth.
SELECT_SAMPLE = 16


def _on_thread(prefix: str):
    return lambda: threading.current_thread().name.startswith(prefix)


def _record_sent_bytes(span, args, kwargs, result) -> None:
    """The pickled size of the message, and its row count when it is a
    pool ``("predict", array)`` request."""
    from multiprocessing.reduction import ForkingPickler

    message = args[1]
    span.attrs = {"bytes": len(ForkingPickler.dumps(message))}
    if message[0] == "predict":
        span.attrs["rows"] = len(message[1])


def trace_server() -> Tracer:
    """Spans for a ``repro serve`` process (prediction and generation)."""
    from repro.models.transformer import Transformer
    from repro.serve.batching import QueuedEngine
    from repro.serve.generate.engine import GenerationEngine
    from repro.serve.generate.strategies import GreedyStrategy
    from repro.serve.http import PredictionHandler
    from repro.serve.ops import ManagedModel
    from repro.serve.pipeline import Pipeline
    from repro.serve.session import InferenceSession
    from repro.tensor.plan import ExecutionPlan

    tracer = Tracer()

    def carried_by(span, args, kwargs, future) -> None:
        if future is None:
            return
        submitter = threading.get_ident()

        def done(_):
            thread = threading.get_ident()
            carrier = tracer.last_span("serve.session.forward",
                                       None if thread == submitter else thread)
            span.attrs = {"carrier": carrier.id if carrier else None,
                          "rows": int(len(args[1]))}

        future.add_done_callback(done)

    pending_sources: dict = {}
    sources_lock = threading.Lock()

    def remember_source(span, args, kwargs, future) -> None:
        with sources_lock:
            pending_sources[id(args[1])] = (args[1], span)

    def match_source(span, args, kwargs, result) -> None:
        source = getattr(args[3], "base", None)
        with sources_lock:
            entry = pending_sources.pop(id(source), None)
        if entry is not None and entry[0] is source:
            span.attrs = {"submit": entry[1].id}

    tracer.wrap(PredictionHandler, "do_POST", "serve.http.handler",
                request_id=lambda args, kwargs:
                args[0].headers.get("X-Request-Id"))
    tracer.wrap(ManagedModel, "predict_topk", "serve.ops.predict_topk")
    tracer.wrap(ManagedModel, "generate", "serve.ops.generate")
    tracer.wrap(Pipeline, "predict", "serve.pipeline.predict")
    tracer.wrap(Pipeline, "preprocess", "serve.pipeline.preprocess")
    tracer.wrap(Pipeline, "postprocess", "serve.pipeline.postprocess")
    tracer.wrap(QueuedEngine, "submit", "serve.batching.submit",
                after=carried_by)
    tracer.wrap(InferenceSession, "predict", "serve.session.forward")
    tracer.wrap(ExecutionPlan, "replay", "tensor.plan.replay")
    tracer.wrap(GenerationEngine, "submit", "serve.generate.submit",
                after=remember_source)
    tracer.wrap(Transformer, "prefill", "models.transformer.prefill",
                after=match_source)
    tracer.wrap(Transformer, "decode_step", "models.transformer.decode_step")
    selects = itertools.count()
    tracer.wrap(GreedyStrategy, "select", "serve.generate.select",
                when=lambda: next(selects) % SELECT_SAMPLE == 0)
    return tracer


def trace_pool() -> Tracer:
    """Spans for the parent side of a pool engine's worker pipes."""
    from multiprocessing.connection import Connection

    tracer = Tracer()
    on_dispatcher = _on_thread("repro-pool-worker-")
    tracer.wrap(Connection, "send", "serve.pool.send", when=on_dispatcher,
                after=_record_sent_bytes)
    tracer.wrap(Connection, "recv", "serve.pool.recv", when=on_dispatcher)
    return tracer


def trace_training() -> Tracer:
    """Spans for a data-parallel trainer's parent process."""
    from multiprocessing.connection import Connection

    from repro.optim import SGD
    from repro.training import Trainer

    tracer = Tracer()
    on_dispatcher = _on_thread("repro-dp-dispatch-")
    tracer.wrap(Connection, "send", "training.distributed.send",
                when=on_dispatcher, after=_record_sent_bytes)
    tracer.wrap(Connection, "recv", "training.distributed.recv",
                when=on_dispatcher)
    tracer.wrap(SGD, "step", "optim.step")
    tracer.wrap(Trainer, "save_checkpoint", "io.checkpoint.write")
    return tracer
