"""Divergence detection, checkpoint rollback and the rollback budget."""

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointCallback, find_latest_checkpoint
from repro.core.config import EDDConfig
from repro.core.cosearch import EDDSearcher
from repro.core.results import EpochRecord
from repro.resilience import DivergenceError, DivergenceGuard


def _config(epochs=4):
    return EDDConfig(target="fpga_pipelined", epochs=epochs, batch_size=8,
                     arch_start_epoch=0, seed=0, resource_fraction=0.5)


def _record(train_loss=1.0, total_loss=2.0, epoch=0):
    return EpochRecord(epoch=epoch, train_loss=train_loss, val_acc_loss=1.0,
                       perf_loss=0.5, resource=10.0, total_loss=total_loss,
                       temperature=5.0, theta_perplexity=2.0)


class _Param:
    def __init__(self, data):
        self.data = np.asarray(data)


class _StubSearcher:
    """Just enough searcher for check(): a supernet with named parameters."""

    def __init__(self, values=(1.0, 2.0)):
        self._params = [("block0.w", _Param(values))]
        self.supernet = self

    def named_parameters(self):
        return list(self._params)


class TestCheck:
    def test_healthy_record_passes(self, tmp_path):
        guard = DivergenceGuard(_StubSearcher(), tmp_path)
        assert guard.check(_record()) is None

    def test_nan_train_loss_detected(self, tmp_path):
        guard = DivergenceGuard(_StubSearcher(), tmp_path)
        assert "train loss" in guard.check(_record(train_loss=float("nan")))

    def test_warmup_nan_total_loss_is_benign(self, tmp_path):
        # Warm-up epochs skip the arch phase and record a NaN placeholder
        # total loss — only arch_ran=True treats it as divergence.
        guard = DivergenceGuard(_StubSearcher(), tmp_path)
        record = _record(total_loss=float("nan"))
        assert guard.check(record, arch_ran=False) is None
        assert "total loss" in guard.check(record, arch_ran=True)

    def test_nonfinite_parameter_detected(self, tmp_path):
        guard = DivergenceGuard(_StubSearcher(values=(1.0, float("inf"))),
                                tmp_path)
        assert "block0.w" in guard.check(_record())

    def test_param_scan_can_be_disabled(self, tmp_path):
        guard = DivergenceGuard(_StubSearcher(values=(float("nan"),)),
                                tmp_path, check_params=False)
        assert guard.check(_record()) is None


class TestValidation:
    def test_rejects_negative_budget(self, tmp_path):
        with pytest.raises(ValueError, match="max_rollbacks"):
            DivergenceGuard(_StubSearcher(), tmp_path, max_rollbacks=-1)

    @pytest.mark.parametrize("scale", [0.0, 1.0, 1.5])
    def test_rejects_bad_lr_scale(self, tmp_path, scale):
        with pytest.raises(ValueError, match="lr_scale"):
            DivergenceGuard(_StubSearcher(), tmp_path, lr_scale=scale)

    def test_recover_without_checkpoint_is_typed(self, tiny_space, tiny_splits,
                                                 tmp_path):
        searcher = EDDSearcher(tiny_space, tiny_splits, _config())
        guard = DivergenceGuard(searcher, tmp_path / "empty", max_rollbacks=3)
        with pytest.raises(DivergenceError, match="no verified checkpoint"):
            guard.recover(2, "non-finite train loss (nan)")


class TestEngineRollback:
    """End-to-end: NaN injection mid-search rolls back and completes."""

    def _run_with_poison(self, tiny_space, tiny_splits, tmp_path, *,
                         max_rollbacks, poison_every_epoch=False, epochs=4,
                         guard_class=DivergenceGuard):
        searcher = EDDSearcher(tiny_space, tiny_splits, _config(epochs=epochs))
        ckdir = tmp_path / "ck"
        callback = CheckpointCallback(searcher, ckdir, every=1)
        guard = guard_class(searcher, ckdir, callback=callback,
                            max_rollbacks=max_rollbacks)
        guard.prepare()
        fired = []

        def poison(record):
            # Runs *after* this epoch's checkpoint save, so the saved state
            # is healthy and the NaNs surface in the next epoch's losses.
            if poison_every_epoch or (record.epoch == 1 and not fired):
                fired.append(record.epoch)
                searcher.supernet.theta.data[:] = np.nan

        result = searcher.search(name="dg", callbacks=[callback, poison],
                                 divergence_guard=guard)
        return searcher, guard, result

    def test_single_divergence_recovers_and_completes(self, tiny_space,
                                                      tiny_splits, tmp_path):
        searcher, guard, result = self._run_with_poison(
            tiny_space, tiny_splits, tmp_path, max_rollbacks=2
        )
        assert guard.rollbacks == 1
        assert [r.epoch for r in result.history] == [0, 1, 2, 3]
        assert all(np.isfinite(r.train_loss) for r in result.history)
        assert np.all(np.isfinite(result.theta))
        (intervention,) = guard.interventions
        assert intervention["action"] == "lr_scale"
        assert intervention["epoch"] == 2
        assert intervention["rollback_to"] == 2
        assert intervention["factor"] == 0.5
        assert "train loss" in intervention["reason"]

    def test_rollback_scales_both_learning_rates(self, tiny_space, tiny_splits,
                                                 tmp_path):
        probe = EDDSearcher(tiny_space, tiny_splits, _config(epochs=4))
        lr_w, lr_a = probe.weight_optimizer.lr, probe.arch_optimizer.lr
        searcher, guard, _ = self._run_with_poison(
            tiny_space, tiny_splits, tmp_path, max_rollbacks=2
        )
        assert searcher.weight_optimizer.lr == pytest.approx(lr_w * 0.5)
        assert searcher.arch_optimizer.lr == pytest.approx(lr_a * 0.5)
        assert guard.interventions[0]["lr_weights"] == pytest.approx(lr_w * 0.5)

    def test_persistent_divergence_exhausts_budget(self, tiny_space,
                                                   tiny_splits, tmp_path):
        with pytest.raises(DivergenceError) as err:
            self._run_with_poison(tiny_space, tiny_splits, tmp_path,
                                  max_rollbacks=1, poison_every_epoch=True)
        assert err.value.rollbacks == 1
        assert len(err.value.interventions) == 1
        assert "train loss" in err.value.reason

    def test_zero_budget_fails_on_first_divergence(self, tiny_space,
                                                   tiny_splits, tmp_path):
        with pytest.raises(DivergenceError) as err:
            self._run_with_poison(tiny_space, tiny_splits, tmp_path,
                                  max_rollbacks=0)
        assert err.value.rollbacks == 0
        assert err.value.interventions == []

    def test_resume_after_rollback_matches_the_uninterrupted_run(
        self, tiny_space, tiny_splits, tmp_path
    ):
        # Rolled back at epoch 2 to ckpt-epoch-0002, so epochs 2-4 ran at
        # half the configured rates; a resume from ckpt-epoch-0003 must
        # continue at those rates, not the configured ones.
        searcher, guard, full = self._run_with_poison(
            tiny_space, tiny_splits, tmp_path, max_rollbacks=1, epochs=5
        )
        assert guard.interventions[0]["rollback_to"] == 2
        resumed = EDDSearcher(tiny_space, tiny_splits, _config(epochs=5))
        result = resumed.resume(tmp_path / "ck" / "ckpt-epoch-0003.npz",
                                name="dg")
        assert resumed.weight_optimizer.lr == searcher.weight_optimizer.lr
        assert resumed.arch_optimizer.lr == searcher.arch_optimizer.lr
        np.testing.assert_array_equal(result.theta, full.theta)
        np.testing.assert_array_equal(result.phi, full.phi)
        np.testing.assert_equal(  # NaN-aware exact equality
            [r.to_dict() for r in result.history],
            [r.to_dict() for r in full.history],
        )

    def test_rollbacks_to_one_checkpoint_compound(self, tiny_space,
                                                  tiny_splits, tmp_path):
        class Repoison(DivergenceGuard):
            # Diverge again while replaying the epoch the first rollback
            # restarted, so no newer checkpoint exists before the second.
            def recover(self, epoch, reason):
                resume_at = super().recover(epoch, reason)
                if self.rollbacks == 1:
                    self.searcher.supernet.theta.data[:] = np.nan
                return resume_at

        config = _config()
        searcher, guard, result = self._run_with_poison(
            tiny_space, tiny_splits, tmp_path, max_rollbacks=2,
            guard_class=Repoison,
        )
        assert [i["rollback_to"] for i in guard.interventions] == [2, 2]
        assert searcher.weight_optimizer.lr == pytest.approx(
            config.lr_weights * 0.25
        )
        assert searcher.arch_optimizer.lr == pytest.approx(
            config.lr_arch * 0.25
        )
        assert guard.interventions[-1]["lr_weights"] == pytest.approx(
            config.lr_weights * 0.25
        )
        assert np.all(np.isfinite(result.theta))

    def test_post_rollback_checkpoints_stay_consistent(self, tiny_space,
                                                       tiny_splits, tmp_path):
        searcher, guard, result = self._run_with_poison(
            tiny_space, tiny_splits, tmp_path, max_rollbacks=2
        )
        latest = find_latest_checkpoint(tmp_path / "ck")
        assert latest.name == "ckpt-epoch-0004.npz"
        fresh = EDDSearcher(tiny_space, tiny_splits, _config(epochs=4))
        from repro.core.checkpoint import restore_search_state

        state = restore_search_state(fresh, latest)
        assert state.epoch == 4
        assert [r.epoch for r in state.history] == [0, 1, 2, 3]


class TestPrepare:
    def test_prepare_writes_baseline_once(self, tiny_space, tiny_splits,
                                          tmp_path):
        searcher = EDDSearcher(tiny_space, tiny_splits, _config())
        guard = DivergenceGuard(searcher, tmp_path)
        guard.prepare()
        baseline = find_latest_checkpoint(tmp_path)
        assert baseline.name == "ckpt-epoch-0000.npz"
        guard.prepare()  # idempotent: the existing file is kept
        assert find_latest_checkpoint(tmp_path) == baseline


class TestApiSurface:
    def test_healthy_run_reports_no_interventions(self):
        from repro import api

        report = api.search(epochs=2, blocks=2, batch_size=8, seed=3,
                            max_rollbacks=1)
        assert report.interventions == []
        assert report.to_dict()["interventions"] == []

    def test_request_validates_knobs(self):
        from repro import api

        with pytest.raises(ValueError):
            api.search(epochs=1, blocks=2, batch_size=8, max_rollbacks=-1)
