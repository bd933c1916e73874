"""``train_dp``: data-parallel training of ``simple_cnn/proposed``.

``DataParallelTrainer(world_size=2, workers=2)`` fits seeded synthetic
16×16 images with SGD + momentum, shuffling, the standard CIFAR
augmentation and batch :data:`BATCH`, writing a step checkpoint every
:data:`CHECKPOINT_EVERY` steps.  The loader stops handing out batches once
the measured time is up and at least one checkpoint was written.  Step time is the gap between successive batches
leaving the loader.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from .common import (CNN_KWARGS, IMAGE_SHAPE, NUM_CLASSES, SETUP_REPEATS,
                     Outcome, median, percentile)

BATCH = 64
WORLD_SIZE = 2
WORKERS = 2
SAMPLES = 2048
CHECKPOINT_EVERY = 25
#: Steps of the ``workers=1`` reference run compared loss for loss.
REFERENCE_STEPS = 6
#: In-parent shard gradient computations timed for ``shard_compute_est``.
SHARD_REPEATS = 7
#: Epochs requested from ``fit``; the loader ends training long before.
EPOCHS = 10_000


class TimeUp(Exception):
    """Raised by the loader to end ``fit`` when the run has had its batches."""


def _loader_class():
    from repro.data import DataLoader

    class TimedLoader(DataLoader):
        """A :class:`DataLoader` that records when each ``next()`` is entered
        and left, and ends training (:class:`TimeUp`) once ``max_batches``
        have left, or once the deadline has passed and a step checkpoint
        has been written."""

        def __init__(self, *args, deadline=float("inf"), max_batches=None,
                     **kwargs):
            super().__init__(*args, **kwargs)
            self.deadline = deadline
            self.max_batches = max_batches
            self.entered: list[float] = []
            self.left: list[float] = []

        def __iter__(self):
            batches = super().__iter__()
            while True:
                self.entered.append(time.perf_counter())
                if (self.entered[-1] >= self.deadline
                        and len(self.left) > CHECKPOINT_EVERY) or (
                        self.max_batches is not None
                        and len(self.left) >= self.max_batches):
                    raise TimeUp
                batch = next(batches, None)
                if batch is None:
                    self.entered.pop()
                    return
                self.left.append(time.perf_counter())
                yield batch

    return TimedLoader


def _trainer(seed: int, workers: int):
    from repro.models import build_model
    from repro.nn import CrossEntropyLoss
    from repro.optim import SGD
    from repro.training import DataParallelTrainer

    model = build_model("simple_cnn", seed=seed, **CNN_KWARGS)
    optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
    return DataParallelTrainer(model, optimizer, CrossEntropyLoss(),
                               world_size=WORLD_SIZE, workers=workers,
                               seed=seed)


def _step_losses(trainer) -> list:
    """Record the loss of every optimization step ``trainer`` takes."""
    losses = []
    step = trainer._optimize_batch

    def recording(batch_inputs, batch_targets):
        result = step(batch_inputs, batch_targets)
        losses.append(result[0])
        return result

    trainer._optimize_batch = recording
    return losses


def run(seed: int, seconds: float, workdir: Path, trace: bool) -> Outcome:
    from repro.data import standard_cifar_augmentation

    TimedLoader = _loader_class()
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((SAMPLES, *IMAGE_SHAPE)).astype(np.float32)
    labels = rng.integers(0, NUM_CLASSES, size=SAMPLES)

    def loader(**limits):
        return TimedLoader(images, labels, batch_size=BATCH, shuffle=True,
                           augmentation=standard_cifar_augmentation(),
                           seed=seed, **limits)

    def fit(trainer, data, directory):
        try:
            trainer.fit(data, EPOCHS, checkpoint_dir=directory,
                        checkpoint_every_steps=CHECKPOINT_EVERY)
        except TimeUp:
            pass

    # Set-up: trainer construction to the end of its first step (the fleet
    # spawns lazily on that step), repeated; the last trainer keeps going.
    # Traced runs measure layers, not set-up: one set-up is enough there.
    setups = []
    for _ in range((1 if trace else SETUP_REPEATS) - 1):
        started = time.perf_counter()
        trainer = _trainer(seed, WORKERS)
        try:
            data = loader(max_batches=1)
            fit(trainer, data, Path(tempfile.mkdtemp(dir=workdir)))
        finally:
            trainer.close()
        setups.append(data.entered[1] - started)

    outcome = Outcome()
    started = time.perf_counter()
    trainer = _trainer(seed, WORKERS)
    try:
        losses = _step_losses(trainer)
        data = loader(deadline=time.perf_counter() + seconds)
        tracer = None
        if trace:
            from .layers import trace_training

            tracer = trace_training()
        try:
            fit(trainer, data, Path(tempfile.mkdtemp(dir=workdir)))
        finally:
            if tracer is not None:
                tracer.restore()
        setups.append(data.entered[1] - started)
        if trace:
            for entered, left in zip(data.entered, data.left):
                tracer.record("data.dataloader.next", entered, left)
            tracer.dump(workdir / "spans.jsonl")
            outcome.layers = _layers(tracer, data, trainer, images, labels)
    finally:
        trainer.close()

    # The same steps at workers=1 (inline) must give the same losses.
    reference = _trainer(seed, workers=1)
    try:
        reference_losses = _step_losses(reference)
        fit(reference, loader(max_batches=REFERENCE_STEPS),
            Path(tempfile.mkdtemp(dir=workdir)))
    finally:
        reference.close()
    for _ in losses:
        outcome.count(True)
    for index, expected in enumerate(reference_losses):
        ok = index < len(losses) and losses[index] == expected
        outcome.check(ok)
        if not ok:
            outcome.failed += 1

    steps = np.diff(data.left)[1:]  # steps after the first
    outcome.metrics = {
        "setup_s": median(setups),
        "p50_ms": 1e3 * percentile(steps, 50),
        "p90_ms": 1e3 * percentile(steps, 90),
        "throughput_per_s": BATCH * len(steps) / float(np.sum(steps)),
    }
    outcome.named = {
        "train_samples_per_s": (outcome.metrics["throughput_per_s"], "1/s"),
        "train_step_p50_ms": (outcome.metrics["p50_ms"], "ms"),
        "train_step_p90_ms": (outcome.metrics["p90_ms"], "ms"),
        "steps": (len(steps), "count"),
    }
    return outcome


def _layers(tracer, data, trainer, images, labels) -> dict:
    """Per-layer metrics from the parent's spans and loader timestamps.

    A step splits into the loader wait, the shard fan-out (first send to
    last receive), the optimizer step and any checkpoint write; the rest is
    the reduction.  ``layer_share`` is the part of the steps the first four
    cover.
    """
    from repro.metrics import record_op_times
    from repro.training.dp_worker import (build_sum_loss, compute_shard_gradients,
                                          loss_spec_of)

    spans = tracer.spans
    boundaries = data.left[1:]  # steps after the first
    steps = len(boundaries) - 1
    window = (boundaries[0], boundaries[-1])

    def inside(name):
        return [span for span in spans if span.name == name
                and window[0] <= span.start < window[1]]

    sends = inside("training.distributed.send")
    recvs = inside("training.distributed.recv")
    optimizer_steps = inside("optim.step")
    checkpoints = inside("io.checkpoint.write")
    waits = [left - entered for entered, left in zip(data.entered, data.left)
             ][2:len(boundaries) + 1]

    named_time, reduce = 0.0, []
    starts = np.asarray(boundaries)
    per_step = [[] for _ in range(steps)]
    for span in sends + recvs + optimizer_steps + checkpoints:
        step = int(np.searchsorted(starts, span.start, side="right")) - 1
        per_step[step].append(span)
    for index in range(steps):
        duration = boundaries[index + 1] - boundaries[index]
        fanout = [s for s in per_step[index]
                  if s.name.startswith("training.distributed.")]
        fanout_time = (max(s.end for s in fanout) - min(s.start for s in fanout)
                       if fanout else 0.0)
        other = sum(s.duration for s in per_step[index]
                    if not s.name.startswith("training.distributed."))
        covered = waits[index] + fanout_time + other
        named_time += covered
        reduce.append(duration - covered)

    # Shard compute, inline in the parent, outside the timed window.
    loss_spec = loss_spec_of(trainer.loss_fn)
    sum_loss, weight_fn = build_sum_loss(loss_spec)
    shard = BATCH // WORLD_SIZE
    trainer.model.train()
    timings = []
    for _ in range(SHARD_REPEATS):
        started = time.perf_counter()
        compute_shard_gradients(trainer.model, sum_loss, weight_fn,
                                images[:shard], labels[:shard])
        timings.append(time.perf_counter() - started)
    with record_op_times() as table:
        compute_shard_gradients(trainer.model, sum_loss, weight_fn,
                                images[:shard], labels[:shard])
    quadratic = sum(seconds for op, seconds in table.total_seconds.items()
                    if op.startswith("quadratic"))

    total = window[1] - window[0]
    return {
        "data.dataloader.wait_p50_ms": 1e3 * median(waits),
        "training.distributed.send_p50_ms":
            1e3 * median([s.duration for s in sends]),
        "training.distributed.send_bytes_per_step":
            sum(s.attrs["bytes"] for s in sends) / max(steps, 1),
        "training.distributed.recv_wait_p50_ms":
            1e3 * median([s.duration for s in recvs]),
        "training.distributed.shard_compute_est_p50_ms": 1e3 * median(timings),
        "tensor.ops.quadratic_share": quadratic / table.grand_total,
        "optim.step_p50_ms": 1e3 * median([s.duration for s in optimizer_steps]),
        "training.distributed.reduce_p50_ms": 1e3 * median(reduce),
        "io.checkpoint.write_p50_ms":
            1e3 * median([s.duration for s in checkpoints]),
        "io.checkpoint.stall_share":
            sum(s.duration for s in checkpoints) / total,
        "trace.train_dp.layer_share": named_time / total,
    }
