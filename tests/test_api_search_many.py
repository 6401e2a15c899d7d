"""Unit tests for batched multi-seed search (api.search_many + CLI --seeds)."""

import json

import numpy as np
import pytest

from repro import api
from repro.core.results import MULTI_SEARCH_OBJECTIVES, MultiSearchResult


def _tiny_batch(seeds, **kwargs):
    return api.search_many(seeds, epochs=2, blocks=2, batch_size=8, **kwargs)


@pytest.fixture(scope="module")
def serial_batch():
    """Shared workers=1 batch over seeds [0, 1] (read-only in tests)."""
    return _tiny_batch([0, 1])


class TestSearchMany:
    def test_runs_align_with_seeds(self, serial_batch):
        assert serial_batch.seeds == [0, 1]
        assert [run.seed for run in serial_batch.runs] == [0, 1]

    def test_aggregate_picks_min_objective(self, serial_batch):
        values = serial_batch.objective_values()
        assert serial_batch.best_index == int(np.argmin(values))
        assert serial_batch.best_seed == serial_batch.seeds[serial_batch.best_index]
        assert serial_batch.best is serial_batch.runs[serial_batch.best_index]

    def test_workers_do_not_change_ranking(self, serial_batch):
        parallel = _tiny_batch([0, 1], workers=2)
        assert serial_batch.objective_values() == parallel.objective_values()
        assert serial_batch.best_index == parallel.best_index
        np.testing.assert_array_equal(
            serial_batch.best.result.theta, parallel.best.result.theta
        )

    def test_to_dict_one_record_per_seed_plus_aggregate(self, serial_batch):
        payload = serial_batch.to_dict()
        assert len(payload["runs"]) == 2
        assert payload["seeds"] == [0, 1]
        aggregate = payload["aggregate"]
        assert aggregate["objective"] == "total_loss"
        assert aggregate["best_seed"] in payload["seeds"]
        assert len(aggregate["objective_values"]) == 2
        assert aggregate["best_spec_name"]

    def test_alternate_objective(self):
        multi = _tiny_batch([0, 1], objective="val_acc_loss")
        values = [
            run.result.history[-1].val_acc_loss for run in multi.runs
        ]
        assert multi.best_index == int(np.argmin(values))

    def test_checkpoint_dirs_are_per_seed(self, tmp_path):
        api.search_many([0, 1], epochs=1, blocks=2, batch_size=8,
                        checkpoint_dir=str(tmp_path))
        assert (tmp_path / "seed-0").is_dir()
        assert (tmp_path / "seed-1").is_dir()
        assert list((tmp_path / "seed-0").glob("ckpt-epoch-*.npz"))

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one seed"):
            api.search_many([])
        with pytest.raises(ValueError, match="duplicate"):
            _tiny_batch([1, 1])
        with pytest.raises(ValueError, match="objective"):
            _tiny_batch([0], objective="vibes")
        with pytest.raises(ValueError, match="managed per run"):
            api.search_many([0, 1], seed=3)

    def test_objective_menu_matches_results_module(self):
        assert set(MULTI_SEARCH_OBJECTIVES) == {
            "total_loss", "val_acc_loss", "perf_loss", "resource",
        }


def _nan_aware_equal(a: float, b: float) -> bool:
    return (a != a and b != b) or a == b


class TestResumeReRun:
    """Re-running a checkpointed batch with resume=True skips finished seeds."""

    @pytest.fixture(scope="class")
    def checkpoint_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("rerun")

    @pytest.fixture(scope="class")
    def first_batch(self, checkpoint_dir):
        """Cold checkpointed batch over seeds [0, 1] (read-only in tests)."""
        return _tiny_batch([0, 1], checkpoint_dir=str(checkpoint_dir))

    def test_cold_run_resumes_nothing(self, first_batch, checkpoint_dir):
        assert [run.resumed_from for run in first_batch.runs] == [None, None]
        for seed in (0, 1):
            seed_dir = checkpoint_dir / f"seed-{seed}"
            assert (seed_dir / "ckpt-epoch-0002.npz").is_file()

    def test_rerun_resumes_every_finished_seed(self, first_batch,
                                               checkpoint_dir):
        rerun = _tiny_batch([0, 1], checkpoint_dir=str(checkpoint_dir),
                            resume=True)
        assert [run.resumed_from for run in rerun.runs] == [
            str(checkpoint_dir / f"seed-{seed}" / "ckpt-epoch-0002.npz")
            for seed in (0, 1)
        ]
        assert rerun.objective_values() == first_batch.objective_values()
        assert rerun.best_seed == first_batch.best_seed
        for again, first in zip(rerun.runs, first_batch.runs):
            assert again.spec_name == first.spec_name
            np.testing.assert_array_equal(again.result.theta,
                                          first.result.theta)
            np.testing.assert_array_equal(again.result.phi, first.result.phi)
            np.testing.assert_equal(  # NaN-aware exact equality
                [r.to_dict() for r in again.result.history],
                [r.to_dict() for r in first.result.history],
            )

    def test_new_seed_runs_fresh_beside_resumed_ones(self, first_batch,
                                                     checkpoint_dir):
        extended = _tiny_batch([0, 1, 2], checkpoint_dir=str(checkpoint_dir),
                               resume=True)
        assert extended.seeds == [0, 1, 2]
        resumed = [run.resumed_from is not None for run in extended.runs]
        assert resumed == [True, True, False]
        assert extended.objective_values()[:2] == first_batch.objective_values()
        fresh = _tiny_batch([2])
        np.testing.assert_array_equal(extended.runs[2].result.theta,
                                      fresh.runs[0].result.theta)
        payload = extended.to_dict()
        assert [run["resumed_from"] is not None
                for run in payload["runs"]] == resumed


class TestEarlyStopping:
    def test_survivor_is_bit_identical_to_full_run(self):
        """Probe-then-resume must reproduce the un-probed full run exactly.

        The survivor is compared against the *same seed's* run in the plain
        batch: which seed survives the 2-epoch probe is an objective-ranking
        question (with ``early_stop_keep=1`` the probe may legitimately drop
        the eventual 3-epoch winner), but the kept seed's resumed history
        must match its un-probed run bit for bit.
        """
        kwargs = dict(epochs=3, blocks=2, batch_size=8)
        plain = api.search_many([0, 1, 2], **kwargs)
        stopped = api.search_many(
            [0, 1, 2], early_stop_after=2, early_stop_keep=1, **kwargs
        )
        # keep=1: the survivor is the best (dominated probes rank +inf).
        assert stopped.best_seed not in stopped.early_stopped_seeds
        full = plain.runs[plain.seeds.index(stopped.best_seed)]
        resumed = stopped.best
        assert len(full.result.history) == len(resumed.result.history) == 3
        for rec_full, rec_resumed in zip(
            full.result.history, resumed.result.history
        ):
            for field in MULTI_SEARCH_OBJECTIVES:
                assert _nan_aware_equal(
                    float(getattr(rec_full, field)),
                    float(getattr(rec_resumed, field)),
                )
        np.testing.assert_array_equal(
            full.result.theta, resumed.result.theta
        )

    def test_dominated_seeds_are_flagged_and_truncated(self):
        stopped = api.search_many(
            [0, 1, 2], epochs=3, blocks=2, batch_size=8,
            early_stop_after=2, early_stop_keep=1,
        )
        assert len(stopped.early_stopped_seeds) == 2
        for seed, run in zip(stopped.seeds, stopped.runs):
            if seed in stopped.early_stopped_seeds:
                assert run.early_stopped
                assert len(run.result.history) == 2  # probe epochs only
                assert run.retrain is None
            else:
                assert not run.early_stopped
                assert len(run.result.history) == 3
        # Dominated probes rank as +inf and can never win.
        assert stopped.best_seed not in stopped.early_stopped_seeds
        payload = stopped.to_dict()
        assert payload["early_stopped_seeds"] == stopped.early_stopped_seeds
        json.dumps(payload)

    def test_probe_covering_all_epochs_disables_early_stop(self):
        multi = api.search_many(
            [0, 1], epochs=2, blocks=2, batch_size=8,
            early_stop_after=2, early_stop_keep=1,
        )
        assert multi.early_stopped_seeds == []
        assert all(len(run.result.history) == 2 for run in multi.runs)

    def test_early_stop_validation(self):
        kwargs = dict(epochs=3, blocks=2, batch_size=8)
        with pytest.raises(ValueError, match="early_stop_after"):
            api.search_many([0, 1], early_stop_after=0, **kwargs)
        with pytest.raises(ValueError, match="early_stop_keep"):
            api.search_many([0, 1], early_stop_after=1, early_stop_keep=0,
                            **kwargs)
        with pytest.raises(ValueError, match="resume"):
            api.search_many([0, 1], early_stop_after=1, resume=True, **kwargs)


class TestMultiSearchResultValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            MultiSearchResult(seeds=[0, 1], runs=[object()], objective="total_loss",
                              best_index=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MultiSearchResult(seeds=[], runs=[], objective="total_loss",
                              best_index=0)

    def test_best_index_bounds(self):
        with pytest.raises(ValueError):
            MultiSearchResult(seeds=[0], runs=[object()], objective="total_loss",
                              best_index=5)


class TestCliSeeds:
    def test_seeds_count_expands_from_base_seed(self, capsys):
        from repro.cli import main

        code = main(["search", "--seeds", "2", "--seed", "5", "--epochs", "1",
                     "--blocks", "2", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seeds"] == [5, 6]
        assert len(payload["runs"]) == 2
        assert payload["aggregate"]["best_seed"] in (5, 6)

    def test_seeds_list_used_verbatim(self, capsys):
        from repro.cli import main

        code = main(["search", "--seeds", "3", "7", "--epochs", "1",
                     "--blocks", "2", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seeds"] == [3, 7]

    def test_seeds_text_output_marks_best(self, capsys):
        from repro.cli import main

        assert main(["search", "--seeds", "2", "--epochs", "1",
                     "--blocks", "2"]) == 0
        out = capsys.readouterr().out
        assert "<- best" in out
        assert "best seed" in out

    def test_seeds_rerun_with_resume_marks_resumed_runs(self, capsys,
                                                        tmp_path):
        from repro.cli import main

        args = ["search", "--seeds", "2", "--epochs", "1", "--blocks", "2",
                "--checkpoint-dir", str(tmp_path)]
        assert main([*args, "--format", "json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert [run["resumed_from"] for run in cold["runs"]] == [None, None]
        assert main([*args, "--resume", "--format", "json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert all(run["resumed_from"] for run in warm["runs"])
        assert warm["aggregate"] == cold["aggregate"]
        assert main([*args, "--resume"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.strip().startswith(("0 ", "1 "))]
        assert len(rows) == 2
        assert all("(resumed)" in row for row in rows)

    def test_bad_seed_count_is_user_error(self, capsys):
        from repro.cli import main

        assert main(["search", "--seeds", "0", "--epochs", "1"]) == 2
        assert "error:" in capsys.readouterr().err
