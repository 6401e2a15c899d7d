"""Unit tests for depth search via skip candidates."""

import dataclasses

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.hw.fpga import (
    FPGAModel,
    candidate_uses_multipliers,
    candidate_workload,
    skip_workload,
)
from repro.hw.analytic import gpu_layers_ms
from repro.hw.gpu import GPUModel
from repro.hw.device import TITAN_RTX
from repro.nas.network import build_network
from repro.nas.quantization import QuantizationConfig
from repro.nas.space import BlockGeometry, CandidateOp, candidate_layers
from repro.nas.supernet import SuperNet, constant_sample
from repro.nn.layers import Identity


@pytest.fixture
def skip_space(tiny_space):
    return dataclasses.replace(tiny_space, allow_skip=True)


IDENTITY_GEOM = BlockGeometry(in_ch=8, out_ch=8, stride=1, in_h=4, in_w=4, out_h=4, out_w=4)
PROJECT_GEOM = BlockGeometry(in_ch=8, out_ch=16, stride=2, in_h=4, in_w=4, out_h=2, out_w=2)


class TestCandidateOp:
    def test_skip_sentinel(self):
        op = CandidateOp.skip()
        assert op.is_skip
        assert op.label == "skip"
        assert not CandidateOp(3, 4).is_skip

    def test_menu_grows_by_one(self, tiny_space, skip_space):
        assert skip_space.num_ops == tiny_space.num_ops + 1
        assert skip_space.candidate_ops()[-1].is_skip
        # MBConv indices are stable.
        assert skip_space.candidate_ops()[:-1] == tiny_space.candidate_ops()


class TestSpecAssembly:
    def test_identity_skip_removes_block(self, skip_space):
        ops = skip_space.candidate_ops()
        choices = [ops[0]] * skip_space.num_blocks
        # Find a block where identity is legal (stride 1, same channels)...
        in_ch = skip_space.block_input_channels()
        legal = [
            i for i in range(skip_space.num_blocks)
            if skip_space.block_strides[i] == 1
            and in_ch[i] == skip_space.block_channels[i]
        ]
        assert legal, "tiny space should have at least one skippable block"
        choices[legal[0]] = CandidateOp.skip()
        spec = skip_space.spec_for_choices(choices)
        base = skip_space.spec_for_choices([ops[0]] * skip_space.num_blocks)
        assert len(spec.blocks) == len(base.blocks) - 1

    def test_projection_skip_becomes_conv1x1(self, skip_space):
        from repro.nas.arch_spec import ConvBlock

        choices = [CandidateOp.skip()] * skip_space.num_blocks
        spec = skip_space.spec_for_choices(choices)
        projections = [
            b for b in spec.blocks
            if isinstance(b, ConvBlock) and b.kernel == 1 and
            (b.stride == 2 or b.out_ch != b.out_ch)  # stride-changing ones
        ]
        assert projections  # the strided block cannot vanish

    def test_all_skip_network_trains(self, skip_space, tiny_splits):
        choices = [CandidateOp.skip()] * skip_space.num_blocks
        spec = skip_space.spec_for_choices(choices, name="all-skip")
        net = build_network(spec, seed=0)
        out = net(Tensor(tiny_splits.train.images[:4]))
        assert out.shape == (4, skip_space.num_classes)


class TestWorkloads:
    def test_identity_skip_free(self):
        assert skip_workload(IDENTITY_GEOM) == 0.0
        assert candidate_workload(IDENTITY_GEOM, CandidateOp.skip()) == 0.0

    def test_projection_skip_costs_pointwise(self):
        w = skip_workload(PROJECT_GEOM)
        assert w == 2 * 2 * 8 * 16 + 2 * 2 * 16

    def test_skip_cheaper_than_any_mbconv(self):
        for geom in (IDENTITY_GEOM, PROJECT_GEOM):
            mb = candidate_workload(geom, CandidateOp(3, 2))
            assert candidate_workload(geom, CandidateOp.skip()) < mb

    def test_multiplier_mask(self):
        assert not candidate_uses_multipliers(IDENTITY_GEOM, CandidateOp.skip())
        assert candidate_uses_multipliers(PROJECT_GEOM, CandidateOp.skip())
        assert candidate_uses_multipliers(IDENTITY_GEOM, CandidateOp(3, 2))

    def test_gpu_skip_latency(self):
        def skip_ms(geom):
            return gpu_layers_ms(candidate_layers(geom, CandidateOp.skip()), TITAN_RTX, 32)

        assert skip_ms(IDENTITY_GEOM) == 0.0
        assert skip_ms(PROJECT_GEOM) > 0.0


class TestSupernetWithSkip:
    def test_skip_candidate_forward_identity(self, skip_space, rng):
        net = SuperNet(skip_space, None, seed=0)
        cand = net.candidate(0, skip_space.num_ops - 1)  # block 0 keeps its shape
        assert isinstance(cand, Identity)
        x = Tensor(rng.normal(size=(2, 16, 4, 4)))
        assert cand(x) is x

    def test_skip_candidate_projection_shapes(self, skip_space, rng):
        net = SuperNet(skip_space, QuantizationConfig.fpga(), seed=0)
        cand = net.candidate(1, skip_space.num_ops - 1)  # 16 -> 32 at stride 2
        # The ConvBlock the skip derives to: conv1x1 -> BN -> ReLU6.
        assert cand.conv.kernel_size == 1 and cand.act
        x = Tensor(rng.normal(size=(2, 16, 4, 4)))
        assert cand(x).shape == (2, 32, 2, 2)

    def test_supernet_forward_both_modes(self, skip_space, sampler, rng):
        quant = QuantizationConfig.fpga(sharing="per_block_op")
        net = SuperNet(skip_space, quant, seed=0)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        for hard in (True, False):
            out = net(x, sample=net.sample(sampler, hard=hard))
            assert out.shape == (2, skip_space.num_classes)

    def test_identity_skip_res_masked(self, skip_space):
        quant = QuantizationConfig.fpga(sharing="per_block_op")
        model = FPGAModel(skip_space, quant, architecture="pipelined")
        skip_idx = skip_space.num_ops - 1
        sample = constant_sample(
            skip_space, quant, [skip_idx] * skip_space.num_blocks, 2
        )
        res_all_skip = float(model.evaluate(sample).resource.data)
        dense = constant_sample(skip_space, quant, [0] * skip_space.num_blocks, 2)
        res_dense = float(model.evaluate(dense).resource.data)
        assert res_all_skip < res_dense

    def test_gpu_table_skip_column_cheapest(self, skip_space):
        model = GPUModel(skip_space, QuantizationConfig.gpu())
        skip_idx = skip_space.num_ops - 1
        table = model.latency_table_us
        assert np.all(table[:, skip_idx, :] <= table[:, :-1, :].min(axis=1) + 1e-9)

    def test_search_end_to_end_with_skip(self, skip_space, tiny_splits):
        from repro.core.config import EDDConfig
        from repro.core.cosearch import EDDSearcher
        from repro.core.trainer import train_from_spec

        config = EDDConfig(target="fpga_pipelined", epochs=2, batch_size=8,
                           seed=1, arch_start_epoch=0, resource_fraction=0.1)
        result = EDDSearcher(skip_space, tiny_splits, config).search()
        assert len(result.spec.metadata["op_labels"]) == skip_space.num_blocks
        trained = train_from_spec(result.spec, tiny_splits, epochs=2, batch_size=8)
        assert np.isfinite(trained.top1_error)
