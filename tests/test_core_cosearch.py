"""Unit tests for the bilevel co-search loop (Sec. 5)."""

import numpy as np
import pytest

from repro.core.config import EDDConfig
from repro.core.cosearch import EDDSearcher, build_supernet


class TestBuilders:
    def test_supernet_matches_target(self, tiny_space):
        net = build_supernet(tiny_space, EDDConfig(target="fpga_recursive"))
        assert net.quant.sharing == "per_op"


@pytest.fixture
def searcher(tiny_space, tiny_splits):
    config = EDDConfig(
        target="gpu", epochs=2, batch_size=8, seed=0, arch_start_epoch=0,
    )
    return EDDSearcher(tiny_space, tiny_splits, config)


class TestSteps:
    def test_weight_step_returns_loss(self, searcher, tiny_splits):
        x, y = tiny_splits.train.images[:8], tiny_splits.train.labels[:8]
        loss = searcher.weight_step(x, y)
        assert np.isfinite(loss) and loss > 0

    def test_weight_step_does_not_move_arch(self, searcher, tiny_splits):
        theta_before = searcher.supernet.theta.data.copy()
        x, y = tiny_splits.train.images[:8], tiny_splits.train.labels[:8]
        searcher.weight_step(x, y)
        np.testing.assert_allclose(searcher.supernet.theta.data, theta_before)

    def test_arch_step_moves_arch_not_weights(self, searcher, tiny_splits):
        searcher.calibrate_alpha()
        weight = searcher.supernet.candidate(0, 0).expand.conv.weight
        weight_before = weight.data.copy()
        theta_before = searcher.supernet.theta.data.copy()
        x, y = tiny_splits.val.images[:8], tiny_splits.val.labels[:8]
        stats = searcher.arch_step(x, y)
        np.testing.assert_allclose(weight.data, weight_before)
        assert not np.allclose(searcher.supernet.theta.data, theta_before)
        assert set(stats) == {"acc_loss", "perf_loss", "resource", "total_loss"}

    def test_alpha_calibration_normalises_perf(self, searcher):
        searcher.calibrate_alpha()
        ev = searcher.hw_model.evaluate(searcher._expected_sample())
        np.testing.assert_allclose(float(ev.perf_loss.data), 1.0, rtol=1e-6)


class TestSearchLoop:
    def test_history_and_result(self, searcher):
        result = searcher.search(name="t")
        assert len(result.history) == 2
        assert result.spec.name == "t"
        assert result.theta.shape == searcher.supernet.theta.shape
        assert result.search_seconds > 0
        assert all(np.isfinite(r.train_loss) for r in result.history)

    def test_arch_warmup_skips_arch_stats(self, tiny_space, tiny_splits):
        config = EDDConfig(target="gpu", epochs=2, batch_size=8,
                           arch_start_epoch=1, seed=0)
        result = EDDSearcher(tiny_space, tiny_splits, config).search()
        assert np.isnan(result.history[0].val_acc_loss)
        assert np.isfinite(result.history[1].val_acc_loss)

    def test_temperature_anneals(self, searcher):
        result = searcher.search()
        temps = [r.temperature for r in result.history]
        assert temps[0] > temps[-1]

    def test_fpga_search_attaches_parallel_factors(self, tiny_space, tiny_splits):
        config = EDDConfig(target="fpga_recursive", epochs=2, batch_size=8,
                           arch_start_epoch=0, seed=0)
        result = EDDSearcher(tiny_space, tiny_splits, config).search()
        assert result.parallel_factors is not None
        assert len(result.parallel_factors) == tiny_space.num_blocks
        assert result.spec.metadata["block_bits"]

    def test_gpu_search_single_precision(self, tiny_space, tiny_splits):
        config = EDDConfig(target="gpu", epochs=2, batch_size=8,
                           arch_start_epoch=0, seed=0)
        result = EDDSearcher(tiny_space, tiny_splits, config).search()
        bits = result.spec.metadata["block_bits"]
        assert len(set(bits)) == 1  # global precision (Sec. 4.2)

    def test_result_serialisable(self, searcher, tmp_path):
        from repro.utils.serialization import to_json_file

        result = searcher.search()
        path = to_json_file(result.to_dict(), tmp_path / "result.json")
        assert path.exists()

    def test_deterministic_given_seed(self, tiny_space, tiny_splits):
        config = EDDConfig(target="gpu", epochs=1, batch_size=8,
                           arch_start_epoch=0, seed=9)
        a = EDDSearcher(tiny_space, tiny_splits, config).search()
        b = EDDSearcher(tiny_space, tiny_splits, config).search()
        np.testing.assert_allclose(a.theta, b.theta)
