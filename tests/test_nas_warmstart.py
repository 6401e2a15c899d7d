"""Unit tests for supernet -> derived-network weight inheritance."""

import dataclasses

import numpy as np
import pytest

from repro.autograd.tensor import Tensor, no_grad
from repro.nas.derive import derive_arch_spec
from repro.nas.network import build_network
from repro.nas.space import SearchSpaceConfig
from repro.nas.supernet import SuperNet
from repro.nas.warmstart import inherit_weights


def _perturbed_supernet(space):
    """A supernet with random theta and non-trivial BatchNorm state.

    Every BN ``gamma``/``beta`` and running statistic is drawn from a seeded
    RNG, so a warm start that skipped any of them could not match.
    """
    net = SuperNet(space, quant=None, seed=3)
    rng = np.random.default_rng(9)
    net.theta.data = rng.normal(size=net.theta.shape)
    for name, p in net.named_parameters():
        if name.endswith(".gamma"):
            p.data = rng.uniform(0.5, 1.5, size=p.shape)
        elif name.endswith(".beta"):
            p.data = rng.normal(scale=0.5, size=p.shape)
    net.load_buffers_dict({
        name: (rng.normal(scale=0.5, size=value.shape)
               if name.endswith("running_mean")
               else rng.uniform(0.5, 2.0, size=value.shape))
        for name, value in net.named_buffers()
    })
    return net


@pytest.fixture
def trained_supernet(tiny_space):
    """A supernet with non-trivial (randomised) weights and a decided theta."""
    return _perturbed_supernet(tiny_space)


SKIP = -1  # the skip candidate is last in a depth-search menu


class TestInheritance:
    def test_copies_report_count(self, trained_supernet):
        spec = derive_arch_spec(trained_supernet, name="child")
        child = build_network(spec, seed=99)
        copied = inherit_weights(trained_supernet, child)
        assert copied > 10

    @pytest.mark.parametrize(
        "space,choices",
        [
            (SearchSpaceConfig.tiny(), None),
            (dataclasses.replace(SearchSpaceConfig.tiny(), allow_skip=True),
             [SKIP, SKIP]),
            (dataclasses.replace(SearchSpaceConfig.reduced(num_blocks=4),
                                 allow_skip=True),
             [SKIP, 2, SKIP, 0]),
        ],
        ids=["tiny-random-theta", "tiny-all-skip", "reduced-mixed-skip"],
    )
    def test_forward_exact_equivalence(self, space, choices, rng):
        """In eval mode, the warm-started child computes exactly what the
        supernet's argmax path computes (quantisation disabled), identity
        and projection skips included."""
        from repro.nas.supernet import constant_sample

        supernet = _perturbed_supernet(space)
        if choices is not None:
            supernet.theta.data[np.arange(space.num_blocks), choices] = 10.0
        spec = derive_arch_spec(supernet, name="child")
        child = build_network(spec, seed=99)
        inherit_weights(supernet, child)

        supernet.eval()
        child.eval()
        size = space.input_size
        x = Tensor(rng.normal(size=(2, 3, size, size)))
        chosen = [int(i) for i in supernet.theta.data.argmax(axis=-1)]
        sample = constant_sample(space, None, chosen)
        with no_grad():
            reference = supernet(x, sample=sample)
            warm = child(x, bits=None)
        np.testing.assert_array_equal(warm.data, reference.data)

    def test_warmstart_beats_cold_start(self, trained_supernet, tiny_splits):
        """After brief supernet training, the inherited child starts with a
        lower loss than a fresh initialisation."""
        from repro.core.config import EDDConfig
        from repro.core.cosearch import EDDSearcher
        from repro.nn.functional import cross_entropy

        space = trained_supernet.space
        config = EDDConfig(target="gpu", epochs=3, batch_size=8, seed=0,
                           arch_start_epoch=0)
        searcher = EDDSearcher(space, tiny_splits, config)
        searcher.search()

        spec = derive_arch_spec(searcher.supernet, name="warm")
        cold = build_network(spec, seed=1)
        warm = build_network(spec, seed=1)
        inherit_weights(searcher.supernet, warm)

        x = Tensor(tiny_splits.val.images)
        y = tiny_splits.val.labels
        cold.eval()
        warm.eval()
        with no_grad():
            cold_loss = cross_entropy(cold(x, bits=None), y).item()
            warm_loss = cross_entropy(warm(x, bits=None), y).item()
        assert warm_loss < cold_loss

    def test_skip_blocks_handled(self, tiny_splits):
        space = dataclasses.replace(SearchSpaceConfig.tiny(), allow_skip=True)
        net = SuperNet(space, quant=None, seed=0)
        # Force skips everywhere (last op index is the skip).
        net.theta.data[:, -1] = 10.0
        spec = derive_arch_spec(net, name="skippy")
        child = build_network(spec, seed=5)
        copied = inherit_weights(net, child)
        assert copied > 0  # stem/head always copy

    @pytest.mark.parametrize(
        "other_space,copy_theta,match",
        [
            # The source's op choices, so the units pair up and the wider
            # blocks surface as a parameter shape mismatch.
            (dataclasses.replace(SearchSpaceConfig.tiny(), block_channels=(24, 48)),
             True, "shape mismatch"),
            (SearchSpaceConfig.reduced(num_blocks=3, num_classes=4, input_size=8),
             False, "unit count mismatch"),
        ],
        ids=["wider-blocks", "more-blocks"],
    )
    def test_space_mismatch_raises(self, trained_supernet, other_space,
                                   copy_theta, match):
        """A child derived from another space cannot inherit the weights."""
        other = SuperNet(other_space, quant=None, seed=0)
        if copy_theta:
            other.theta.data = trained_supernet.theta.data.copy()
        child = build_network(derive_arch_spec(other, name="other"), seed=0)
        with pytest.raises(ValueError, match=match):
            inherit_weights(trained_supernet, child)
