"""Unit tests for the GPU latency model (Sec. 4.2) and the bit-serial
accelerator extension (Sec. 4.3)."""

import numpy as np
import pytest

from repro.hw.accel import BitSerialAccelModel
from repro.hw.device import GTX_1080TI, TITAN_RTX
from repro.hw.analytic import gpu_layers_ms
from repro.hw.gpu import GPUModel
from repro.nas.quantization import QuantizationConfig
from repro.nas.space import BlockGeometry, CandidateOp, candidate_layers
from repro.nas.supernet import SuperNet, constant_sample

pytestmark = pytest.mark.usefixtures("float64_numerics")



GEOM = BlockGeometry(in_ch=16, out_ch=24, stride=2, in_h=16, in_w=16, out_h=8, out_w=8)


def op_latency_ms(op, device, bits):
    """One candidate's entry of the GPU search table."""
    return gpu_layers_ms(candidate_layers(GEOM, op), device, bits)


class TestOpLatencyTable:
    def test_latency_positive(self):
        assert op_latency_ms(CandidateOp(3, 4), TITAN_RTX, 32) > 0

    def test_lower_precision_faster(self):
        op = CandidateOp(5, 4)
        lat = [op_latency_ms(op, TITAN_RTX, b) for b in (32, 16, 8)]
        assert lat[0] > lat[1] > lat[2]

    def test_1080ti_ratios_match_table2(self):
        """The 1080 Ti precision factors are the paper's measured ratios."""
        op = CandidateOp(3, 4)
        l32 = op_latency_ms(op, GTX_1080TI, 32)
        l16 = op_latency_ms(op, GTX_1080TI, 16)
        # 2.29/2.83 = 0.809; memory-term differences allow small drift.
        assert 0.75 <= l16 / l32 <= 0.85

    def test_bigger_ops_slower(self):
        small = op_latency_ms(CandidateOp(3, 4), TITAN_RTX, 32)
        big = op_latency_ms(CandidateOp(7, 6), TITAN_RTX, 32)
        assert big > small


class TestGPUModel:
    def test_requires_global_sharing(self, tiny_space):
        with pytest.raises(ValueError, match="global"):
            GPUModel(tiny_space, QuantizationConfig.fpga("per_op"))

    def test_table_shape(self, tiny_space, gpu_quant):
        model = GPUModel(tiny_space, gpu_quant)
        assert model.latency_table_us.shape == (
            tiny_space.num_blocks, tiny_space.num_ops, gpu_quant.num_levels,
        )

    def test_evaluate_sums_blocks(self, tiny_space, gpu_quant):
        model = GPUModel(tiny_space, gpu_quant)
        sample = constant_sample(tiny_space, gpu_quant, [0] * tiny_space.num_blocks, 2)
        out = model.evaluate(sample)
        expected = model.latency_table_us[:, 0, 2].sum() / 1e3
        np.testing.assert_allclose(float(out.perf_loss.data), expected, rtol=1e-9)

    def test_resource_is_fixed_zero(self, tiny_space, gpu_quant):
        model = GPUModel(tiny_space, gpu_quant)
        sample = constant_sample(tiny_space, gpu_quant, [0] * tiny_space.num_blocks, 0)
        assert float(model.evaluate(sample).resource.data) == 0.0
        assert model.resource_bound is None
        assert model.implementation_parameters() == []

    def test_gradients_reach_arch_parameters(self, tiny_space, gpu_quant, sampler):
        net = SuperNet(tiny_space, gpu_quant, seed=0)
        model = GPUModel(tiny_space, gpu_quant)
        sample = net.sample(sampler, hard=False)
        model.evaluate(sample).perf_loss.backward()
        assert np.abs(net.theta.grad).sum() > 0
        assert np.abs(net.phi.grad).sum() > 0


class TestBitSerialAccel:
    def test_requires_per_block_op(self, tiny_space):
        with pytest.raises(ValueError, match="per_block_op"):
            BitSerialAccelModel(tiny_space, QuantizationConfig.fpga("per_op"))

    def test_latency_scales_with_precision(self, tiny_space):
        quant = QuantizationConfig.fpga("per_block_op")
        model = BitSerialAccelModel(tiny_space, quant)
        lo = constant_sample(tiny_space, quant, [0] * tiny_space.num_blocks, 0)
        hi = constant_sample(tiny_space, quant, [0] * tiny_space.num_blocks, 2)
        out_lo = model.evaluate(lo)
        out_hi = model.evaluate(hi)
        # Loom-like: latency and energy ~ proportional to weight precision.
        ratio = out_hi.diagnostics["energy_units"] / out_lo.diagnostics["energy_units"]
        np.testing.assert_allclose(ratio, 16 / 4, rtol=1e-6)

    def test_perf_is_latency_energy_product(self, tiny_space):
        quant = QuantizationConfig.fpga("per_block_op")
        model = BitSerialAccelModel(tiny_space, quant)
        sample = constant_sample(tiny_space, quant, [0] * tiny_space.num_blocks, 1)
        out = model.evaluate(sample)
        np.testing.assert_allclose(
            float(out.perf_loss.data),
            out.diagnostics["latency_units"] * out.diagnostics["energy_units"],
            rtol=1e-6,
        )

    def test_lanes_resource_and_projection(self, tiny_space):
        quant = QuantizationConfig.fpga("per_block_op")
        model = BitSerialAccelModel(tiny_space, quant, lanes_budget=64)
        sample = constant_sample(tiny_space, quant, [0] * tiny_space.num_blocks, 1)
        res = float(model.evaluate(sample).resource.data)
        np.testing.assert_allclose(res, 64.0, rtol=1e-6)  # pf0 splits the budget
        model.pf.data[:] = 99.0
        model.project_parameters()
        assert np.all(model.pf.data <= np.log2(64) + 1e-9)

    def test_gradients_reach_pf(self, tiny_space, sampler):
        quant = QuantizationConfig.fpga("per_block_op")
        net = SuperNet(tiny_space, quant, seed=0)
        model = BitSerialAccelModel(tiny_space, quant)
        out = model.evaluate(net.sample(sampler, hard=False))
        out.perf_loss.backward()
        assert np.abs(model.pf.grad).sum() > 0
