"""Shared pieces of the benchmark: results, statistics, models, run context."""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Repository root (the parent of this package).
ROOT = Path(__file__).resolve().parent.parent

#: Image geometry and model shapes every serving and training workload uses.
IMAGE_SHAPE = (3, 16, 16)
NUM_CLASSES = 10
NORMALIZATION = {"mean": 0.5, "std": 0.25}
CNN_KWARGS = {"num_classes": NUM_CLASSES, "neuron_type": "proposed", "rank": 3,
              "base_width": 8, "image_size": 16}
TRANSFORMER_KWARGS = {"model_dim": 64, "num_heads": 4, "num_layers": 2,
                      "hidden_dim": 128, "max_len": 32,
                      "neuron_type": "proposed", "rank": 4}

#: How many times a run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3


@dataclass
class Outcome:
    """What one workload run measured.

    ``metrics`` holds the end-to-end values (untraced runs), ``layers`` the
    per-layer values (traced runs) and ``named`` the workload's own
    user-facing figures, printed for people next to the generic metrics.
    """

    attempted: int = 0
    failed: int = 0
    checked: int = 0
    mismatches: int = 0
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    named: dict = field(default_factory=dict)

    def count(self, ok: bool) -> None:
        """Record one attempted operation and whether it succeeded."""
        self.attempted += 1
        if not ok:
            self.failed += 1

    def check(self, ok: bool) -> None:
        """Record one output compared against its reference."""
        self.checked += 1
        if not ok:
            self.mismatches += 1

    @property
    def correct(self) -> bool:
        return self.checked > 0 and self.mismatches == 0


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); NaN when empty."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50)


def export_cnn_bundle(directory: Path, seed: int) -> Path:
    """A seeded, untrained ``simple_cnn/proposed`` classifier bundle."""
    from repro.io import save_bundle
    from repro.models import build_model

    model = build_model("simple_cnn", seed=seed, **CNN_KWARGS)
    return save_bundle(directory / "simple_cnn.npz", model, info={
        "input_shape": list(IMAGE_SHAPE),
        "classes": [f"class_{index}" for index in range(NUM_CLASSES)],
        "normalization": NORMALIZATION,
    })


def export_transformer_bundle(directory: Path, seed: int):
    """A seeded, untrained ``transformer/proposed`` generation bundle.

    Returns ``(path, task)``; the task supplies the vocabularies and the
    delimiter ids.
    """
    from repro.data import SyntheticTranslationTask
    from repro.io import save_bundle
    from repro.models import build_model
    from repro.serve.generate import generation_bundle_info

    task = SyntheticTranslationTask(train_size=8, test_size=4,
                                    max_len=TRANSFORMER_KWARGS["max_len"],
                                    seed=seed)
    model = build_model("transformer", src_vocab_size=len(task.source_vocab),
                        tgt_vocab_size=len(task.target_vocab),
                        pad_id=task.pad_id, seed=seed, **TRANSFORMER_KWARGS)
    path = save_bundle(directory / "transformer.npz", model,
                       info={"generation": generation_bundle_info(task)})
    return path, task


def model_counts(seed: int) -> dict:
    """Exact parameter and MAC counts of both benchmark models."""
    from repro.metrics import profile_model
    from repro.models import build_model
    from repro.tensor import Tensor

    cnn = build_model("simple_cnn", seed=seed, **CNN_KWARGS)
    cnn_profile = profile_model(cnn, Tensor(np.zeros((1, *IMAGE_SHAPE),
                                                     dtype=np.float32)))
    transformer = build_model("transformer", src_vocab_size=64,
                              tgt_vocab_size=64, seed=seed,
                              **TRANSFORMER_KWARGS)
    ids = np.full((1, 8), 5, dtype=np.int64)
    transformer_profile = profile_model(transformer, ids, ids)
    return {
        "model.simple_cnn.macs_per_sample": float(cnn_profile.total_macs),
        "model.simple_cnn.params": float(cnn_profile.total_parameters),
        "model.transformer.params": float(transformer_profile.total_parameters),
    }


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    try:
        return (ROOT / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def hardware_context() -> dict:
    """Cores, BLAS build and thread settings, versions and commit of a run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        usable = None
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
        "machine": platform.machine(),
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
    }


def cpu_ticks() -> tuple[int, int] | None:
    """``(steal, total)`` CPU ticks of the machine so far, from
    ``/proc/stat``; ``None`` where it does not exist.  Steal is time a
    virtual machine's CPUs waited for the host."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def stop_child_processes(timeout: float = 30.0) -> None:
    """Stop and reap every process this one started through
    :mod:`multiprocessing`: leftover workers and the resource tracker that
    ``spawn`` starts, which would otherwise outlive the benchmark briefly
    (it exits only when it notices its parent is gone)."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def die_with_parent() -> None:
    """For ``Popen(preexec_fn=...)``: the child gets SIGTERM when the
    benchmark dies, even by SIGKILL (Linux only; a no-op elsewhere)."""
    try:
        import ctypes
        import signal

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, int(signal.SIGTERM))  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads and the metric catalogue."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def log(message: str) -> None:
    """Progress output on stderr (stdout carries results only)."""
    print(message, file=sys.stderr, flush=True)
