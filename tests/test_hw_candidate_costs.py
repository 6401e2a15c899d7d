"""Search-time cost tables against the whole-network estimators.

EDD's loss carries an implementation cost that should be the cost the
derived network pays.  Two contracts:

* **GPU** — swapping candidates changes the search tables
  (``GPUModel.latency_table_us``, ``GPUEnergyModel.energy_table_mj``) by
  exactly what it changes ``gpu_latency_ms`` / ``gpu_energy_mj`` of the
  derived spec, for every device, bit-width and choice vector;
* **recursive FPGA** — the in-loop model stays the paper's Eq. 12 workload,
  which ranks candidates differently from ``fpga_recursive_latency_ms``'s
  per-layer cost.  The gap is pinned so that a model change that widens it
  fails.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.analytic import fpga_recursive_layer_us, gpu_latency_ms
from repro.hw.device import GPU_DEVICES, ZCU102
from repro.hw.energy import GPUEnergyModel, gpu_energy_mj
from repro.hw.fpga import candidate_workload
from repro.nas.quantization import QuantizationConfig
from repro.nas.space import SearchSpaceConfig, candidate_block, candidate_layers

SKIP_SPACES = {
    "paper": dataclasses.replace(SearchSpaceConfig.paper_scale(), allow_skip=True),
    "reduced": dataclasses.replace(SearchSpaceConfig.reduced(), allow_skip=True),
}


@functools.lru_cache(maxsize=None)
def energy_model(space_name: str, device_name: str) -> GPUEnergyModel:
    """Latency and energy tables (GPUEnergyModel carries both)."""
    return GPUEnergyModel(
        SKIP_SPACES[space_name], QuantizationConfig.gpu(),
        device=GPU_DEVICES[device_name],
    )


@st.composite
def choice_pairs(draw):
    space_name = draw(st.sampled_from(sorted(SKIP_SPACES)))
    space = SKIP_SPACES[space_name]
    vector = st.lists(
        st.integers(0, space.num_ops - 1),
        min_size=space.num_blocks, max_size=space.num_blocks,
    )
    return space_name, draw(vector), draw(vector)


class TestGPUTablesPriceTheEstimate:
    @settings(max_examples=40, deadline=None)
    @given(pair=choice_pairs())
    def test_swap_changes_table_and_estimate_alike(self, pair):
        space_name, a, b = pair
        space = SKIP_SPACES[space_name]
        ops = space.candidate_ops()
        spec_a = space.spec_for_choices([ops[j] for j in a])
        spec_b = space.spec_for_choices([ops[j] for j in b])
        blocks = np.arange(space.num_blocks)
        for device_name, device in GPU_DEVICES.items():
            model = energy_model(space_name, device_name)
            for k, bits in enumerate(model.quant.bitwidths):
                lat_a = gpu_latency_ms(spec_a, device, bits)
                lat_b = gpu_latency_ms(spec_b, device, bits)
                table = model.latency_table_us[:, :, k] / 1e3
                table_delta = table[blocks, a].sum() - table[blocks, b].sum()
                assert abs((lat_a - lat_b) - table_delta) <= 1e-12 * lat_a

                energy_a = gpu_energy_mj(spec_a, device, bits)
                energy_b = gpu_energy_mj(spec_b, device, bits)
                table = model.energy_table_mj[:, :, k]
                table_delta = table[blocks, a].sum() - table[blocks, b].sum()
                assert abs((energy_a - energy_b) - table_delta) <= 1e-12 * energy_a

    @pytest.mark.parametrize("space_name", sorted(SKIP_SPACES))
    def test_identity_skip_is_free(self, space_name):
        space = SKIP_SPACES[space_name]
        skip = space.num_ops - 1
        identity = [
            candidate_block(geom, space.candidate_ops()[skip]) is None
            for geom in space.block_geometries()
        ]
        assert any(identity) and not all(identity)
        for device_name in GPU_DEVICES:
            model = energy_model(space_name, device_name)
            for i, is_identity in enumerate(identity):
                if is_identity:
                    assert np.all(model.energy_table_mj[i, skip] == 0.0)
                    assert np.all(model.latency_table_us[i, skip] == 0.0)
                else:
                    assert np.all(model.energy_table_mj[i, skip] > 0.0)


def recursive_estimate_us(geom, op) -> float:
    """The recursive estimator's cost of one candidate on ZCU102 at 16 bit."""
    return sum(
        fpga_recursive_layer_us(layer, ZCU102, 16) + ZCU102.per_layer_overhead_us
        for layer in candidate_layers(geom, op)
    )


class TestRecursiveRankingGap:
    """Eq. 12 ranks kernel size first; the estimator, which adds a per-layer
    invocation overhead and a per-kind DSP efficiency, ranks expansion first.
    Both agree on every block's fastest candidate."""

    @pytest.mark.parametrize("space, max_discordant", [
        (SearchSpaceConfig.paper_scale(), 132),
        # The space `api.search` and the `search-reduced` benchmark use.
        (SearchSpaceConfig.reduced(num_blocks=3, num_classes=6, input_size=12), 1),
    ], ids=["paper", "search-reduced"])
    def test_eq12_order_against_estimator(self, space, max_discordant):
        ops = space.candidate_ops()
        fastest_agree = discordant = 0
        for geom in space.block_geometries():
            eq12 = [candidate_workload(geom, op) for op in ops]
            estimate = [recursive_estimate_us(geom, op) for op in ops]
            fastest_agree += int(np.argmin(eq12) == np.argmin(estimate))
            discordant += sum(
                (eq12[x] - eq12[y]) * (estimate[x] - estimate[y]) < 0
                for x, y in itertools.combinations(range(len(ops)), 2)
            )
        assert fastest_agree == space.num_blocks
        assert discordant <= max_discordant
