"""Fused vs unfused quadratic-neuron kernels: wall-time comparison.

The fused ``quadratic_response`` / ``quadratic_conv2d`` registry ops evaluate
the proposed neuron ``y = wᵀx + b + (fᵏ)ᵀΛᵏfᵏ`` with one hand-derived VJP;
the unfused reference path builds the same computation node by node (two full
convolutions in the conv case).  These benchmarks time a full
forward + backward step through each path so later PRs have a fusion
trajectory to regress against.  ``python -m repro bench`` runs the same
workloads (the ``fused`` micro of :data:`repro.bench.MICROS`) and records
them under these test names in ``BENCH_autograd.json``.
"""

import numpy as np
import pytest

from repro.quadratic import EfficientQuadraticConv2d, EfficientQuadraticLinear
from repro.tensor import Tensor


@pytest.fixture(scope="module")
def dense_setup():
    layer = EfficientQuadraticLinear(256, 32, rank=9, lambda_init=0.1,
                                     rng=np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal((128, 256)).astype(np.float32),
               requires_grad=True)
    return layer, x


@pytest.fixture(scope="module")
def conv_setup():
    layer = EfficientQuadraticConv2d(16, 4, 3, padding=1, rank=9, lambda_init=0.1,
                                     rng=np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal((8, 16, 16, 16)).astype(np.float32),
               requires_grad=True)
    return layer, x


def _train_step(layer, x, forward):
    for parameter in layer.parameters():
        parameter.zero_grad()
    x.zero_grad()
    forward(x).sum().backward()


def test_bench_fused_quadratic_linear(benchmark, dense_setup):
    layer, x = dense_setup
    benchmark(_train_step, layer, x, layer)


def test_bench_unfused_quadratic_linear(benchmark, dense_setup):
    layer, x = dense_setup
    benchmark(_train_step, layer, x, layer._forward_unfused)


def test_bench_fused_quadratic_conv(benchmark, conv_setup):
    layer, x = conv_setup
    benchmark(_train_step, layer, x, layer)


def test_bench_unfused_quadratic_conv(benchmark, conv_setup):
    layer, x = conv_setup
    benchmark(_train_step, layer, x, layer._forward_unfused)
