"""repro — reproduction of "Computational and Storage Efficient Quadratic Neurons
for Deep Neural Networks" (Chen et al., DATE 2024).

The package is organised bottom-up:

* :mod:`repro.tensor`      — NumPy autograd engine (the substrate).
* :mod:`repro.nn`          — layers, containers, losses, initializers.
* :mod:`repro.optim`       — SGD/Adam and learning-rate schedules.
* :mod:`repro.quadratic`   — the paper's efficient quadratic neuron, every
  prior-work baseline neuron, decomposition utilities and the Table I cost model.
* :mod:`repro.models`      — ResNets, CNNs, MLPs and Transformers with
  switchable neuron types.
* :mod:`repro.data`        — synthetic CIFAR/ImageNet/WMT14 stand-ins,
  augmentation and loaders.
* :mod:`repro.metrics`     — accuracy, BLEU, parameter/MAC profiler.
* :mod:`repro.io`          — versioned checkpoints and JSON serialization.
* :mod:`repro.training`    — classification and seq2seq training loops,
  checkpoint/resume, best-model tracking and early stopping.
* :mod:`repro.analysis`    — parameter-distribution, response and stability analyses.
* :mod:`repro.experiments` — declarative registry of paper artifacts plus a
  caching runner (one spec per table/figure).
* :mod:`repro.serve`       — the stable inference API: self-describing model
  bundles in, batched no-grad predictions out (:func:`repro.load` /
  :class:`repro.Predictor`), scheduled through pluggable serving engines
  (direct lock-and-forward, or cross-request dynamic batching) and served
  over a versioned multi-model HTTP API.
* :mod:`repro.cli`         — ``python -m repro {list,run,sweep,bench,train,predict,
  generate,serve,promote,reload}``.
"""

from . import analysis, data, experiments, io, metrics, models, nn, optim, quadratic, tensor
from . import serve, training
from .io import load_bundle, save_bundle
from .quadratic import (
    EfficientQuadraticConv2d,
    EfficientQuadraticLinear,
    QuadraticDecomposition,
    neuron_complexity,
    table_i_rows,
)
from .serve import Predictor, load
from .tensor import Tensor

__version__ = "1.4.0"

__all__ = [
    "analysis",
    "data",
    "experiments",
    "io",
    "metrics",
    "models",
    "nn",
    "optim",
    "quadratic",
    "serve",
    "tensor",
    "training",
    "Tensor",
    "Predictor",
    "load",
    "load_bundle",
    "save_bundle",
    "EfficientQuadraticConv2d",
    "EfficientQuadraticLinear",
    "QuadraticDecomposition",
    "neuron_complexity",
    "table_i_rows",
    "__version__",
]
