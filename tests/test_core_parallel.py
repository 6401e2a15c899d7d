"""Unit tests for the deterministic parallel evaluator."""

import numpy as np
import pytest

from repro.core.parallel import (
    ParallelEvaluator,
    get_shared,
    train_spec_worker,
)


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


class TestParallelEvaluator:
    def test_serial_matches_plain_loop(self):
        evaluator = ParallelEvaluator(workers=1)
        assert evaluator.map(_square, [1, 2, 3]) == [1, 4, 9]

    @pytest.mark.parametrize("kind", ["process", "thread"])
    def test_parallel_preserves_submission_order(self, kind):
        evaluator = ParallelEvaluator(workers=4, kind=kind)
        payloads = list(range(16))
        assert evaluator.map(_square, payloads) == [p * p for p in payloads]

    def test_worker_counts_agree(self):
        payloads = list(range(8))
        serial = ParallelEvaluator(workers=1).map(_square, payloads)
        parallel = ParallelEvaluator(workers=3).map(_square, payloads)
        assert serial == parallel

    def test_single_payload_short_circuits(self):
        # len(payloads) <= 1 must not spin up an executor.
        assert ParallelEvaluator(workers=8).map(_square, [5]) == [25]

    def test_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            ParallelEvaluator(workers=2, kind="thread").map(_boom, [1, 2])

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            ParallelEvaluator(workers=0)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            ParallelEvaluator(workers=2, kind="fiber")


def _read_shared(_payload):
    return get_shared()


class TestSharedSlot:
    def test_serial_path_installs_and_clears(self):
        token = object()
        results = ParallelEvaluator(workers=1).map(
            _read_shared, [0, 1], shared=token
        )
        assert results == [token, token]
        assert get_shared() is None

    @pytest.mark.parametrize("kind", ["process", "thread"])
    def test_workers_see_shared_object(self, kind):
        results = ParallelEvaluator(workers=2, kind=kind).map(
            _read_shared, [0, 1, 2], shared={"tag": 42}
        )
        assert all(r == {"tag": 42} for r in results)

    def test_train_worker_requires_shared_splits(self):
        with pytest.raises(RuntimeError, match="shared=splits"):
            train_spec_worker((None, 1, 8, 0))


class TestBaselineDeterminism:
    """workers=1 and workers=N must give identical candidates and rankings."""

    @pytest.fixture
    def setup(self, tiny_space, tiny_splits):
        from repro.core.config import EDDConfig

        config = EDDConfig(target="fpga_pipelined", batch_size=8,
                           resource_fraction=0.5)
        return tiny_space, tiny_splits, config

    def test_random_search_matches_serial(self, setup):
        from repro.baselines.random_search import random_search

        space, splits, config = setup
        best1, all1 = random_search(space, splits, config, num_candidates=4,
                                    train_epochs=1, seed=3, workers=1)
        best4, all4 = random_search(space, splits, config, num_candidates=4,
                                    train_epochs=1, seed=3, workers=4)
        assert [c.objective for c in all1] == [c.objective for c in all4]
        assert [c.top1_error for c in all1] == [c.top1_error for c in all4]
        assert best1.spec.name == best4.spec.name

    def test_evolution_matches_serial(self, setup):
        from repro.baselines.evolutionary import RegularizedEvolution

        space, splits, config = setup
        serial = RegularizedEvolution(space, splits, config, population_size=3,
                                      tournament_size=2, train_epochs=1,
                                      seed=5, workers=1).run(cycles=2)
        parallel = RegularizedEvolution(space, splits, config, population_size=3,
                                        tournament_size=2, train_epochs=1,
                                        seed=5, workers=3).run(cycles=2)
        assert serial.history == parallel.history
        assert serial.best.fitness == parallel.best.fitness
        assert serial.best.spec.name == parallel.best.spec.name
        assert serial.evaluations == parallel.evaluations


def _shared_images_sum(_payload):
    splits = get_shared()
    return (
        type(splits).__name__,
        type(splits.train.images).__name__,
        float(splits.train.images.sum()),
        int(splits.val.labels.sum()),
    )


class TestMemmapSharing:
    def test_pack_restore_round_trip(self, tiny_splits):
        from repro.core.parallel import pack_splits_memmap
        import os

        pack = pack_splits_memmap(tiny_splits)
        try:
            restored = pack.restore()
            for split in ("train", "val", "test"):
                original = getattr(tiny_splits, split)
                copy = getattr(restored, split)
                assert isinstance(copy.images, np.memmap)
                np.testing.assert_array_equal(copy.images, original.images)
                np.testing.assert_array_equal(copy.labels, original.labels)
            assert restored.config == tiny_splits.config
        finally:
            os.unlink(pack.path)

    def test_process_workers_see_memmap_backed_splits(self, tiny_splits):
        results = ParallelEvaluator(workers=2, kind="process").map(
            _shared_images_sum, [0, 1, 2], shared=tiny_splits
        )
        expected = (
            "DatasetSplits",
            "memmap",
            float(tiny_splits.train.images.sum()),
            int(tiny_splits.val.labels.sum()),
        )
        assert results == [expected] * 3

    def test_tempfile_removed_after_map(self, tiny_splits, monkeypatch):
        import repro.core.parallel as parallel_mod

        paths = []
        original = parallel_mod.pack_splits_memmap

        def recording(splits):
            pack = original(splits)
            paths.append(pack.path)
            return pack

        monkeypatch.setattr(parallel_mod, "pack_splits_memmap", recording)
        ParallelEvaluator(workers=2, kind="process").map(
            _shared_images_sum, [0, 1], shared=tiny_splits
        )
        import os

        assert paths and not os.path.exists(paths[0])

    def test_thread_kind_skips_memmap(self, tiny_splits):
        # Threads share memory already: the caller's object goes straight in.
        results = ParallelEvaluator(workers=2, kind="thread").map(
            _shared_images_sum, [0, 1], shared=tiny_splits
        )
        assert all(r[0] == "DatasetSplits" and r[1] == "ndarray" for r in results)
