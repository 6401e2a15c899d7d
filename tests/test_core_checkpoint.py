"""Unit tests for search checkpoint/resume."""

import numpy as np
import pytest

from repro.core.checkpoint import (
    CheckpointCallback,
    checkpoint_path,
    find_latest_checkpoint,
    load_checkpoint,
    restore_search_state,
    save_checkpoint,
)
from repro.core.config import EDDConfig
from repro.core.cosearch import EDDSearcher


@pytest.fixture
def searcher(tiny_space, tiny_splits):
    config = EDDConfig(target="fpga_pipelined", epochs=2, batch_size=8,
                       arch_start_epoch=0, seed=0, resource_fraction=0.5)
    return EDDSearcher(tiny_space, tiny_splits, config)


def fresh_like(searcher, tiny_space, tiny_splits):
    return EDDSearcher(tiny_space, tiny_splits, searcher.config)


class TestRoundTrip:
    def test_state_restores_exactly(self, searcher, tiny_space, tiny_splits, tmp_path):
        searcher.calibrate_alpha()
        x, y = tiny_splits.train.images[:8], tiny_splits.train.labels[:8]
        searcher.weight_step(x, y)
        searcher.arch_step(tiny_splits.val.images[:8], tiny_splits.val.labels[:8])
        path = save_checkpoint(searcher, tmp_path / "ck.npz", epoch=3)

        other = fresh_like(searcher, tiny_space, tiny_splits)
        # Perturb so the restore provably does something.
        other.supernet.theta.data += 1.0
        epoch = load_checkpoint(other, path)

        assert epoch == 3
        np.testing.assert_allclose(other.supernet.theta.data, searcher.supernet.theta.data)
        np.testing.assert_allclose(other.supernet.phi.data, searcher.supernet.phi.data)
        np.testing.assert_allclose(other.hw_model.pf.data, searcher.hw_model.pf.data)
        for a, b in zip(searcher.supernet.weight_parameters(),
                        other.supernet.weight_parameters()):
            np.testing.assert_allclose(a.data, b.data)

    def test_optimizer_moments_restore(self, searcher, tiny_space, tiny_splits, tmp_path):
        searcher.calibrate_alpha()
        searcher.arch_step(tiny_splits.val.images[:8], tiny_splits.val.labels[:8])
        path = save_checkpoint(searcher, tmp_path / "ck.npz")
        other = fresh_like(searcher, tiny_space, tiny_splits)
        load_checkpoint(other, path)
        assert other.arch_optimizer._t == searcher.arch_optimizer._t
        for a, b in zip(searcher.arch_optimizer._m, other.arch_optimizer._m):
            np.testing.assert_allclose(a, b)
        for a, b in zip(searcher.weight_optimizer._velocity,
                        other.weight_optimizer._velocity):
            np.testing.assert_allclose(a, b)

    def test_alpha_restored(self, searcher, tiny_space, tiny_splits, tmp_path):
        searcher.calibrate_alpha()
        path = save_checkpoint(searcher, tmp_path / "ck.npz")
        other = fresh_like(searcher, tiny_space, tiny_splits)
        load_checkpoint(other, path)
        assert other.hw_model.alpha == pytest.approx(searcher.hw_model.alpha)
        assert other._alpha_calibrated

    def test_resumed_step_matches_original(self, searcher, tiny_space, tiny_splits, tmp_path):
        """After restore, one identical deterministic step yields identical
        parameters (sampling noise aside: we drive both with equal samples)."""
        searcher.calibrate_alpha()
        path = save_checkpoint(searcher, tmp_path / "ck.npz")
        other = fresh_like(searcher, tiny_space, tiny_splits)
        load_checkpoint(other, path)
        x, y = tiny_splits.train.images[:8], tiny_splits.train.labels[:8]
        # Same seed-derived samplers -> identical Gumbel draws.
        loss_a = searcher.weight_step(x, y)
        loss_b = other.weight_step(x, y)
        assert loss_a == pytest.approx(loss_b)


class _KillAfter(Exception):
    pass


def _kill_after(epoch):
    def callback(record):
        if record.epoch == epoch:
            raise _KillAfter
    return callback


def _search_config(epochs=4):
    return EDDConfig(target="fpga_pipelined", epochs=epochs, batch_size=8,
                     arch_start_epoch=0, seed=0, resource_fraction=0.5)


class TestResumeEquivalence:
    """A search killed after epoch k and resumed must equal the straight run."""

    @pytest.fixture(scope="class")
    def full_result(self):
        # Built from scratch (not the function-scoped fixtures) so the
        # uninterrupted reference run is computed once per class; the task
        # construction is deterministic, so fixture-built splits are equal.
        from repro.data.synthetic import SyntheticTaskConfig, make_synthetic_task
        from repro.nas.space import SearchSpaceConfig

        space = SearchSpaceConfig.tiny()
        splits = make_synthetic_task(SyntheticTaskConfig(
            num_classes=4, image_size=8, train_per_class=8,
            val_per_class=4, test_per_class=4, seed=11,
        ))
        return EDDSearcher(space, splits, _search_config()).search(name="ref")

    def _killed_checkpoint(self, tiny_space, tiny_splits, tmp_path, kill_epoch):
        searcher = EDDSearcher(tiny_space, tiny_splits, _search_config())
        callback = CheckpointCallback(searcher, tmp_path / "ck", every=1)
        with pytest.raises(_KillAfter):
            searcher.search(name="ref",
                            callbacks=[callback, _kill_after(kill_epoch)])
        return find_latest_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("kill_epoch", [0, 2])
    def test_resume_bit_identical(self, tiny_space, tiny_splits, tmp_path,
                                  full_result, kill_epoch):
        latest = self._killed_checkpoint(
            tiny_space, tiny_splits, tmp_path, kill_epoch
        )
        assert latest is not None
        resumed = EDDSearcher(tiny_space, tiny_splits, _search_config()).resume(
            latest, name="ref"
        )
        np.testing.assert_array_equal(resumed.theta, full_result.theta)
        np.testing.assert_array_equal(resumed.phi, full_result.phi)
        np.testing.assert_equal(  # NaN-aware exact equality
            [r.to_dict() for r in resumed.history],
            [r.to_dict() for r in full_result.history],
        )
        assert resumed.spec.summary() == full_result.spec.summary()
        assert resumed.parallel_factors == full_result.parallel_factors

    def test_resume_history_covers_whole_search(self, tiny_space, tiny_splits,
                                                tmp_path, full_result):
        latest = self._killed_checkpoint(tiny_space, tiny_splits, tmp_path, 1)
        resumed = EDDSearcher(tiny_space, tiny_splits, _search_config()).resume(
            latest, name="ref"
        )
        assert [r.epoch for r in resumed.history] == [
            r.epoch for r in full_result.history
        ]

    def test_api_level_resume(self, tmp_path):
        from repro import api

        ck = str(tmp_path / "api-ck")
        full = api.search(epochs=3, blocks=2, batch_size=8, seed=1)
        # Emulate an interruption by running only the first epoch.
        api.search(api.SearchRequest(epochs=1, blocks=2, batch_size=8, seed=1,
                                     checkpoint_dir=ck))
        resumed = api.search(
            api.SearchRequest(epochs=3, blocks=2, batch_size=8, seed=1,
                              checkpoint_dir=ck, resume=True)
        )
        assert resumed.resumed_from is not None
        np.testing.assert_array_equal(resumed.result.theta, full.result.theta)
        np.testing.assert_equal(
            [r.to_dict() for r in resumed.result.history],
            [r.to_dict() for r in full.result.history],
        )


class TestCheckpointCallback:
    def test_every_controls_cadence(self, searcher, tmp_path):
        config = _search_config(epochs=4)
        searcher = EDDSearcher(searcher.space, searcher.splits, config)
        callback = CheckpointCallback(searcher, tmp_path, every=2)
        searcher.search(name="cb", callbacks=[callback])
        names = sorted(p.name for p in callback.saved)
        assert names == ["ckpt-epoch-0002.npz", "ckpt-epoch-0004.npz"]

    def test_rejects_bad_every(self, searcher, tmp_path):
        with pytest.raises(ValueError):
            CheckpointCallback(searcher, tmp_path, every=0)

    def test_find_latest(self, tmp_path):
        assert find_latest_checkpoint(tmp_path / "missing") is None
        (tmp_path / "ckpt-epoch-0002.npz").touch()
        (tmp_path / "ckpt-epoch-0010.npz").touch()
        (tmp_path / "unrelated.npz").touch()
        # Unverified listing ranks purely by epoch number...
        latest = find_latest_checkpoint(tmp_path, verify=False)
        assert latest.name == "ckpt-epoch-0010.npz"
        # ...but the default verifying path refuses truncated corpses.
        assert find_latest_checkpoint(tmp_path) is None

    def test_checkpoint_path_format(self, tmp_path):
        assert checkpoint_path(tmp_path, 7).name == "ckpt-epoch-0007.npz"


class TestRestoreSearchState:
    def test_round_trips_epoch_and_history(self, searcher, tiny_space,
                                           tiny_splits, tmp_path):
        searcher.calibrate_alpha()
        x, y = tiny_splits.train.images[:8], tiny_splits.train.labels[:8]
        searcher.weight_step(x, y)
        from repro.core.results import EpochRecord

        record = EpochRecord(epoch=0, train_loss=1.0, val_acc_loss=2.0,
                             perf_loss=0.5, resource=10.0, total_loss=2.5,
                             temperature=5.0, theta_perplexity=2.0)
        path = save_checkpoint(searcher, tmp_path / "ck.npz", epoch=1,
                               history=[record])
        other = fresh_like(searcher, tiny_space, tiny_splits)
        state = restore_search_state(other, path)
        assert state.epoch == 1
        assert len(state.history) == 1
        assert state.history[0].to_dict() == record.to_dict()


class TestDurability:
    """Atomic writes, checksums, corruption fallback and pruning."""

    def test_truncated_file_is_typed_corrupt(self, searcher, tmp_path):
        from repro.core.checkpoint import verify_checkpoint
        from repro.resilience import CorruptCheckpoint

        path = save_checkpoint(searcher, tmp_path / "ck.npz")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptCheckpoint) as err:
            verify_checkpoint(path)
        assert err.value.path == str(path)
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(searcher, path)

    def test_checksum_detects_bitrot(self, searcher, tmp_path):
        from repro.core.checkpoint import verify_checkpoint
        from repro.resilience import CorruptCheckpoint

        path = save_checkpoint(searcher, tmp_path / "ck.npz")
        with np.load(path) as data:
            payload = {key: data[key].copy() for key in data.files}
        # Flip stored state without refreshing the embedded checksum — the
        # on-disk signature of silent corruption.
        payload["meta::epoch"] = np.asarray(999)
        np.savez(path, **payload)
        with pytest.raises(CorruptCheckpoint, match="checksum mismatch"):
            verify_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_version1_files_are_rejected_but_never_pruned(self, searcher,
                                                          tmp_path, version):
        from repro.core.checkpoint import (
            _content_checksum,
            prune_corrupt_checkpoints,
            verify_checkpoint,
        )

        path = save_checkpoint(searcher, checkpoint_path(tmp_path, 1), epoch=1)
        # Format 2 added buffers, temperature, RNG streams and history;
        # format 3 the checksum; format 4 renamed the supernet weights.
        dropped = {
            1: ("meta::checksum", "meta::temperature", "rng::", "hist::", "buf::"),
            2: ("meta::checksum",),
            3: ("meta::checksum",),
        }[version]
        with np.load(path) as data:
            payload = {
                key: data[key].copy()
                for key in data.files
                if not key.startswith(dropped)
            }
        payload["meta::format"] = np.asarray(version)
        if version == 3:
            payload["meta::checksum"] = _content_checksum(payload)
        np.savez(path, **payload)
        assert verify_checkpoint(path) == version
        with pytest.raises(ValueError, match=f"checkpoint format {version}"):
            load_checkpoint(searcher, path)
        # An old format is not corruption: the file stays for the user.
        assert prune_corrupt_checkpoints(tmp_path) == []
        assert path.exists()

    def test_v3_without_checksum_is_corrupt(self, searcher, tmp_path):
        from repro.core.checkpoint import verify_checkpoint
        from repro.resilience import CorruptCheckpoint

        path = save_checkpoint(searcher, tmp_path / "ck.npz")
        with np.load(path) as data:
            payload = {
                key: data[key].copy()
                for key in data.files
                if key != "meta::checksum"
            }
        np.savez(path, **payload)
        with pytest.raises(CorruptCheckpoint, match="missing its checksum"):
            verify_checkpoint(path)

    def test_find_latest_falls_back_past_corrupt_newest(self, searcher,
                                                        tmp_path):
        save_checkpoint(searcher, checkpoint_path(tmp_path, 1), epoch=1)
        good = save_checkpoint(searcher, checkpoint_path(tmp_path, 2), epoch=2)
        corpse = checkpoint_path(tmp_path, 3)
        corpse.write_bytes(good.read_bytes()[:100])  # kill -9 mid-write corpse
        assert find_latest_checkpoint(tmp_path) == good
        assert find_latest_checkpoint(tmp_path, verify=False) == corpse

    def test_save_leaves_no_temp_files(self, searcher, tmp_path):
        save_checkpoint(searcher, checkpoint_path(tmp_path, 1), epoch=1)
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name != "ckpt-epoch-0001.npz"]
        assert leftovers == []

    def test_prune_removes_corpses_and_stale_temps(self, searcher, tmp_path):
        from repro.core.checkpoint import prune_corrupt_checkpoints

        good = save_checkpoint(searcher, checkpoint_path(tmp_path, 1), epoch=1)
        corpse = checkpoint_path(tmp_path, 2)
        corpse.write_bytes(b"not a zip")
        stale = tmp_path / ".ckpt-epoch-0003.npz.tmp-12345"
        stale.write_bytes(b"partial")
        removed = prune_corrupt_checkpoints(tmp_path)
        assert sorted(removed) == sorted([corpse, stale])
        assert good.exists()
        assert not corpse.exists() and not stale.exists()

    def test_callback_prunes_corpses_on_first_save(self, tiny_space,
                                                   tiny_splits, tmp_path):
        searcher = EDDSearcher(tiny_space, tiny_splits, _search_config(epochs=1))
        ckdir = tmp_path / "ck"
        ckdir.mkdir()
        corpse = ckdir / "ckpt-epoch-0009.npz"
        corpse.write_bytes(b"crashed run corpse")
        searcher.search(name="prune",
                        callbacks=[CheckpointCallback(searcher, ckdir)])
        assert not corpse.exists()
        latest = find_latest_checkpoint(ckdir)
        assert latest is not None and latest.name == "ckpt-epoch-0001.npz"

    def test_save_now_reuses_cadence_save(self, tiny_space, tiny_splits,
                                          tmp_path):
        searcher = EDDSearcher(tiny_space, tiny_splits, _search_config(epochs=2))
        callback = CheckpointCallback(searcher, tmp_path, every=1)
        searcher.search(name="now", callbacks=[callback])
        before = list(callback.saved)
        path = callback.save_now()  # epoch-2 save just happened: no new file
        assert path == before[-1]
        assert callback.saved == before

    def test_save_now_forces_between_cadence(self, tiny_space, tiny_splits,
                                             tmp_path):
        searcher = EDDSearcher(tiny_space, tiny_splits, _search_config(epochs=3))
        callback = CheckpointCallback(searcher, tmp_path, every=2)
        searcher.search(name="now", callbacks=[callback])
        # 3 epochs, every=2: only epoch-2 saved on cadence; epoch 3 pending.
        assert [p.name for p in callback.saved] == ["ckpt-epoch-0002.npz"]
        path = callback.save_now()
        assert path.name == "ckpt-epoch-0003.npz"
        state = restore_search_state(
            EDDSearcher(tiny_space, tiny_splits, _search_config(epochs=3)), path
        )
        assert state.epoch == 3
        assert [r.epoch for r in state.history] == [0, 1, 2]


class TestValidation:
    def test_wrong_space_rejected(self, searcher, tmp_path, tiny_splits):
        from repro.nas.space import SearchSpaceConfig

        path = save_checkpoint(searcher, tmp_path / "ck.npz")
        other_space = SearchSpaceConfig.reduced(num_blocks=3, num_classes=4,
                                                input_size=8)
        other = EDDSearcher(other_space, tiny_splits, searcher.config)
        with pytest.raises((ValueError, KeyError)):
            load_checkpoint(other, path)

    def test_creates_parent_dirs(self, searcher, tmp_path):
        path = save_checkpoint(searcher, tmp_path / "deep" / "dir" / "ck.npz")
        assert path.exists()
