"""Optimisers (SGD with momentum, Adam) and learning-rate schedules.

The co-search uses two optimisers side by side — one over DNN weights, one
over the fused architecture/implementation variables — exactly as in the
paper's bilevel procedure (Sec. 5).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.autograd.tensor import Tensor


def clip_grad_norm(params: Sequence[Tensor], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.  Standard stabiliser for the bilevel loop —
    early architecture steps can see large gradients from the exponential
    resource barrier.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = total**0.5
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


class Optimizer:
    """Base optimiser over an explicit parameter list."""

    def __init__(self, params: Sequence[Tensor], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum and weight decay.

    Updates run fully in place (velocity, parameters, and a persistent
    per-parameter scratch buffer for the decay/LR products), so a steady-state
    step performs no heap allocation — same arithmetic order, and therefore
    bit-identical results, as the allocating formulation it replaces.
    """

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]
        self._scratch = [np.empty_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v, tmp in zip(self.params, self._velocity, self._scratch):
            if p.grad is None:
                continue
            v *= self.momentum
            if self.weight_decay:
                np.multiply(p.data, self.weight_decay, out=tmp)
                tmp += p.grad
                v += tmp
            else:
                v += p.grad
            np.multiply(v, self.lr, out=tmp)
            p.data -= tmp


class Adam(Optimizer):
    """Adam with bias correction; the paper-style choice for architecture vars.

    Moments and parameters update in place through two persistent scratch
    buffers per parameter — no per-step allocation, with the exact operation
    order (and hence bit-identical results) of the allocating formulation:
    ``p -= (lr * m_hat) / (sqrt(v_hat) + eps)``.
    """

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = [
            (np.empty_like(p.data), np.empty_like(p.data)) for p in self.params
        ]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p, m, v, (t1, t2) in zip(self.params, self._m, self._v, self._scratch):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                np.multiply(p.data, self.weight_decay, out=t1)
                t1 += grad
                grad = t1
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=t2)
            m += t2
            v *= self.beta2
            # ((1-b2) * grad) * grad — the historical association, preserved
            # so results match the allocating formulation bit for bit.
            np.multiply(grad, 1.0 - self.beta2, out=t2)
            t2 *= grad
            v += t2
            # t1 <- lr * m_hat, t2 <- sqrt(v_hat) + eps, update = t1 / t2.
            np.divide(m, bias1, out=t1)
            t1 *= self.lr
            np.divide(v, bias2, out=t2)
            np.sqrt(t2, out=t2)
            t2 += self.eps
            t1 /= t2
            p.data -= t1


class CosineSchedule:
    """Cosine-annealed learning rate from ``lr`` down to ``lr_min``."""

    def __init__(self, optimizer: Optimizer, total_steps: int, lr_min: float = 0.0) -> None:
        if total_steps <= 0:
            raise ValueError(f"total_steps must be positive, got {total_steps}")
        self.optimizer = optimizer
        self.total_steps = total_steps
        self.lr_max = optimizer.lr
        self.lr_min = lr_min
        self._step = 0

    def step(self) -> float:
        self._step = min(self._step + 1, self.total_steps)
        progress = self._step / self.total_steps
        lr = self.lr_min + 0.5 * (self.lr_max - self.lr_min) * (
            1.0 + math.cos(math.pi * progress)
        )
        self.optimizer.lr = lr
        return lr


class StepSchedule:
    """Multiply the learning rate by ``gamma`` every ``step_size`` steps."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1) -> None:
        if step_size <= 0:
            raise ValueError(f"step_size must be positive, got {step_size}")
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self._step = 0

    def step(self) -> float:
        self._step += 1
        if self._step % self.step_size == 0:
            self.optimizer.lr *= self.gamma
        return self.optimizer.lr
