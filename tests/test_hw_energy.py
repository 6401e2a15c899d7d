"""Unit tests for the GPU energy extension (paper future work)."""

import numpy as np
import pytest

from repro.baselines.model_zoo import get_model
from repro.hw.device import TITAN_RTX
from repro.hw.energy import GPUEnergyModel, gpu_energy_mj, gpu_layer_energy_mj
from repro.nas.quantization import QuantizationConfig
from repro.nas.space import BlockGeometry, CandidateOp, candidate_layers
from repro.nas.supernet import SuperNet, constant_sample

pytestmark = pytest.mark.usefixtures("float64_numerics")


GEOM = BlockGeometry(in_ch=16, out_ch=24, stride=2, in_h=16, in_w=16, out_h=8, out_w=8)


def op_energy_mj(op, device, bits):
    """One candidate's entry of the GPU energy table."""
    return sum(
        gpu_layer_energy_mj(layer, device, bits) for layer in candidate_layers(GEOM, op)
    )


class TestOpEnergy:
    def test_positive_and_scales_with_latency(self):
        e32 = op_energy_mj(CandidateOp(3, 4), TITAN_RTX, 32)
        e16 = op_energy_mj(CandidateOp(3, 4), TITAN_RTX, 16)
        assert e32 > e16 > 0

    def test_bigger_ops_cost_more_energy(self):
        small = op_energy_mj(CandidateOp(3, 4), TITAN_RTX, 32)
        big = op_energy_mj(CandidateOp(7, 6), TITAN_RTX, 32)
        assert big > small


class TestGPUEnergyModel:
    def test_perf_is_latency_times_energy(self, tiny_space, gpu_quant):
        model = GPUEnergyModel(tiny_space, gpu_quant)
        sample = constant_sample(tiny_space, gpu_quant, [0] * tiny_space.num_blocks, 1)
        out = model.evaluate(sample)
        lat = out.diagnostics["expected_latency_ms"]
        energy = out.diagnostics["expected_energy_mj"]
        np.testing.assert_allclose(float(out.perf_loss.data), lat * energy, rtol=1e-9)

    def test_gradients_flow(self, tiny_space, gpu_quant, sampler):
        net = SuperNet(tiny_space, gpu_quant, seed=0)
        model = GPUEnergyModel(tiny_space, gpu_quant)
        out = model.evaluate(net.sample(sampler, hard=False))
        out.perf_loss.backward()
        assert np.abs(net.theta.grad).sum() > 0

    def test_usable_as_searcher_model(self, tiny_space, tiny_splits):
        from repro.core.config import EDDConfig
        from repro.core.cosearch import EDDSearcher

        config = EDDConfig(target="gpu", epochs=1, batch_size=8,
                           arch_start_epoch=0, seed=0)
        model = GPUEnergyModel(tiny_space, QuantizationConfig.gpu())
        result = EDDSearcher(tiny_space, tiny_splits, config,
                             hw_model=model).search()
        assert result.spec.metadata["op_labels"]


class TestAnalyticEnergy:
    def test_whole_network_energy_plausible(self):
        energy = gpu_energy_mj(get_model("ResNet18"), TITAN_RTX, 32)
        # 9.7 ms at 60-280 W -> roughly 0.6-2.7 J.
        assert 300.0 < energy < 3000.0

    def test_lower_precision_lower_energy(self):
        spec = get_model("EDD-Net-1")
        assert gpu_energy_mj(spec, TITAN_RTX, 16) < gpu_energy_mj(spec, TITAN_RTX, 32)

    def test_vgg_burns_most_energy(self):
        """Energy = power x time: the slowest, highest-utilisation network
        (VGG16) must top the energy column even where latency/energy
        orderings cross for low-utilisation mobile nets."""
        names = ("MobileNet-V2", "ResNet18", "EDD-Net-1", "VGG16")
        energies = {n: gpu_energy_mj(get_model(n), TITAN_RTX, 32) for n in names}
        assert max(energies, key=energies.get) == "VGG16"
        assert all(e > 0 for e in energies.values())
