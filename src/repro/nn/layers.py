"""Concrete layers: convolutions, batch-norm, pooling, activations, linear.

BatchNorm follows the standard formulation with per-batch statistics during
training and exponential running statistics for evaluation; its normalisation
is expressed with autograd primitives so gradients flow to gamma/beta and the
input without a bespoke backward.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import ops_nn
from repro.autograd.tensor import Tensor
from repro.nn.init import kaiming_normal, xavier_uniform
from repro.nn.module import Module, Parameter
from repro.utils.rng import new_rng


class Conv2d(Module):
    """Standard/grouped 2-D convolution (no bias — BN provides the shift).

    ``groups == in_channels == out_channels`` is a depthwise convolution:
    one filter per channel.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int | None = None,
        groups: int = 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if padding is None:
            padding = kernel_size // 2  # "same" padding for odd kernels
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        rng = rng or new_rng()
        shape = (out_channels, in_channels // groups, kernel_size, kernel_size)
        self.weight = Parameter(kaiming_normal(shape, rng))

    def forward(self, x: Tensor) -> Tensor:
        return ops_nn.conv2d(
            x, self.weight, stride=self.stride, padding=self.padding, groups=self.groups
        )


class Linear(Module):
    """Affine layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        rng = rng or new_rng()
        self.weight = Parameter(xavier_uniform((out_features, in_features), rng))
        if bias:
            self.bias: Parameter | None = Parameter(np.zeros(out_features))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return ops_nn.linear(x, self.weight, self.bias)


class BatchNorm2d(Module):
    """Batch normalisation over (N, H, W) per channel."""

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.register_buffer(
            "running_mean", np.zeros(channels, dtype=self.gamma.data.dtype)
        )
        self.register_buffer(
            "running_var", np.ones(channels, dtype=self.gamma.data.dtype)
        )

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got {x.shape}")
        if self.training:
            out, batch_mean, batch_var = ops_nn.batch_norm2d(
                x, self.gamma, self.beta, eps=self.eps
            )
            self.running_mean = (
                (1.0 - self.momentum) * self.running_mean + self.momentum * batch_mean
            )
            self.running_var = (
                (1.0 - self.momentum) * self.running_var + self.momentum * batch_var
            )
            return out
        mean = self.running_mean.reshape(1, -1, 1, 1)
        inv_std = 1.0 / np.sqrt(self.running_var.reshape(1, -1, 1, 1) + self.eps)
        normalised = (x - Tensor(mean)) * Tensor(inv_std)
        gamma = self.gamma.reshape(1, self.channels, 1, 1)
        beta = self.beta.reshape(1, self.channels, 1, 1)
        return normalised * gamma + beta


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return ops_nn.relu(x)


class ReLU6(Module):
    def forward(self, x: Tensor) -> Tensor:
        return ops_nn.relu6(x)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class AvgPool2d(Module):
    def __init__(self, kernel: int) -> None:
        super().__init__()
        self.kernel = kernel

    def forward(self, x: Tensor) -> Tensor:
        return ops_nn.avg_pool2d(x, self.kernel)


class MaxPool2d(Module):
    """Max pooling; supports overlapping windows (kernel > stride)."""

    def __init__(self, kernel: int, stride: int | None = None, padding: int = 0) -> None:
        super().__init__()
        self.kernel = kernel
        self.stride = stride or kernel
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return ops_nn.max_pool2d(x, self.kernel, stride=self.stride, padding=self.padding)


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return ops_nn.global_avg_pool2d(x)
