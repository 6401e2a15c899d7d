"""**Ablation C**: Gumbel-Softmax single-path sampling vs weighted mixtures.

The paper motivates Gumbel sampling by memory/speed: evaluating one sampled
candidate per block instead of all M (Sec. 3.1).  We time both forward
modes, and quantify the trade-off the reproduction documents in
DESIGN.md: hard single-path steps are ~M times cheaper, while soft steps
deliver a much larger accuracy gradient to Theta (BatchNorm absorbs the
scalar straight-through gate almost completely in a single-path chain).
"""

import numpy as np
from conftest import bench_config, register_artifact

from repro.autograd.tensor import Tensor
from repro.core.cosearch import build_supernet
from repro.nas.gumbel import GumbelSoftmax
from repro.nn.functional import cross_entropy


def _theta_grad_norm(net, sampler, images, labels, hard):
    net.zero_grad()
    sample = net.sample(sampler, hard=hard)
    loss = cross_entropy(net(Tensor(images), sample=sample), labels)
    loss.backward()
    return float(np.abs(net.theta.grad).sum())


def test_hard_forward_cost(benchmark, bench_space, bench_splits):
    net = build_supernet(bench_space, bench_config("fpga_pipelined"))
    sampler = GumbelSoftmax(seed=0)
    x = Tensor(bench_splits.train.images[:12])

    benchmark(lambda: net(x, sample=net.sample(sampler, hard=True)))


def test_soft_forward_cost_and_gradient_quality(benchmark, bench_space,
                                                bench_splits):
    net = build_supernet(bench_space, bench_config("fpga_pipelined"))
    sampler = GumbelSoftmax(seed=0)
    x = Tensor(bench_splits.train.images[:12])

    benchmark(lambda: net(x, sample=net.sample(sampler, hard=False)))

    images = bench_splits.train.images[:12]
    labels = bench_splits.train.labels[:12]
    hard_grads = [
        _theta_grad_norm(net, sampler, images, labels, hard=True) for _ in range(3)
    ]
    soft_grads = [
        _theta_grad_norm(net, sampler, images, labels, hard=False) for _ in range(3)
    ]
    text = "\n".join([
        "Ablation C: Gumbel single-path (hard) vs weighted mixture (soft)",
        "",
        f"theta accuracy-gradient |sum|, hard sampling: {np.mean(hard_grads):.2e}",
        f"theta accuracy-gradient |sum|, soft sampling: {np.mean(soft_grads):.2e}",
        f"soft/hard gradient ratio: {np.mean(soft_grads) / max(np.mean(hard_grads), 1e-30):.1e}",
        "",
        "Forward-pass timings are in the pytest-benchmark table (the hard",
        "single-path forward evaluates 1 of M candidates per block — the",
        "paper's memory/speed argument; M = "
        f"{bench_space.num_ops} here), while the soft forward runs all M",
        "candidates of every block one after another.",
    ])
    register_artifact("ablation_gumbel", text)

    # Soft sampling must deliver a dramatically larger accuracy gradient.
    assert np.mean(soft_grads) > 10.0 * np.mean(hard_grads)
