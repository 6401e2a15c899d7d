"""Unit tests for the reusable SearchEngine (repro.core.engine)."""

import numpy as np
import pytest

from repro.core.engine import PHASES, EngineRun, SearchEngine


def loader(batches):
    """A re-iterable loader yielding fixed (x, y) batches."""
    return [
        (np.full((2, 2), float(i)), np.zeros(2, dtype=int)) for i in range(batches)
    ]


class TestEngineLoop:
    def test_runs_all_phases_and_records_history(self):
        calls = {"weight": 0, "arch": 0, "anneal": [], "derive": 0}

        def weight_step(x, y):
            calls["weight"] += 1
            return 1.5

        def arch_step(x, y):
            calls["arch"] += 1
            return {"acc_loss": 1.0, "perf_loss": 2.0, "resource": 3.0,
                    "total_loss": 4.0}

        def anneal(epoch):
            calls["anneal"].append(epoch)
            return 5.0 * 0.5 ** epoch

        def derive():
            calls["derive"] += 1
            return "spec"

        engine = SearchEngine(
            epochs=3, weight_step=weight_step, arch_step=arch_step,
            anneal=anneal, derive=derive,
        )
        run = engine.run(loader(4), loader(2))
        assert isinstance(run, EngineRun)
        assert calls == {"weight": 12, "arch": 6, "anneal": [0, 1, 2], "derive": 1}
        assert run.derived == "spec"
        assert len(run.history) == 3
        assert run.history[0].train_loss == pytest.approx(1.5)
        assert run.history[0].val_acc_loss == pytest.approx(1.0)
        assert run.history[0].temperature == pytest.approx(5.0)
        assert run.history[2].temperature == pytest.approx(1.25)

    def test_arch_start_epoch_defers_arch_phase(self):
        arch_calls = []
        engine = SearchEngine(
            epochs=3,
            weight_step=lambda x, y: 0.0,
            arch_step=lambda x, y: arch_calls.append(1) or {
                "acc_loss": 0.0, "perf_loss": 0.0, "resource": 0.0,
                "total_loss": 0.0,
            },
            arch_start_epoch=2,
        )
        run = engine.run(loader(1), loader(1))
        assert len(arch_calls) == 1  # epoch 2 only
        assert np.isnan(run.history[0].val_acc_loss)
        assert np.isnan(run.history[1].val_acc_loss)
        assert np.isfinite(run.history[2].val_acc_loss)

    def test_weight_phase_streams_the_training_loader(self):
        """Each batch is drawn just before its step: the engine never holds
        an epoch of training batches."""
        events = []

        class GeneratorLoader:
            def __iter__(self):
                for i in range(3):
                    events.append(f"draw{i}")
                    yield np.full((2, 2), float(i)), np.zeros(2, dtype=int)

        def weight_step(x, y):
            events.append(f"step{int(x[0, 0])}")
            return 0.0

        def arch_step(x, y):
            return {"acc_loss": 0.0, "perf_loss": 0.0, "resource": 0.0,
                    "total_loss": 0.0}

        SearchEngine(
            epochs=1, weight_step=weight_step, arch_step=arch_step,
        ).run(GeneratorLoader(), loader(1))
        assert events == ["draw0", "step0", "draw1", "step1", "draw2", "step2"]

    def test_anneal_at_end_fires_after_steps(self):
        order = []
        engine = SearchEngine(
            epochs=1,
            weight_step=lambda x, y: order.append("weight") or 0.0,
            anneal=lambda epoch: order.append("anneal") or 0.1,
            anneal_at="end",
        )
        run = engine.run(loader(2))
        assert order == ["weight", "weight", "anneal"]
        assert run.history[0].temperature == pytest.approx(0.1)

    def test_zero_epochs_goes_straight_to_derive(self):
        run = SearchEngine(
            epochs=0, weight_step=lambda x, y: 0.0, derive=lambda: 42,
        ).run(loader(1))
        assert run.history == []
        assert run.derived == 42

    def test_callbacks_receive_records(self):
        records = []
        SearchEngine(
            epochs=2, weight_step=lambda x, y: 0.0, callbacks=[records.append],
        ).run(loader(1))
        assert [r.epoch for r in records] == [0, 1]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="epochs"):
            SearchEngine(epochs=-1, weight_step=lambda x, y: 0.0)
        with pytest.raises(ValueError, match="anneal_at"):
            SearchEngine(epochs=1, weight_step=lambda x, y: 0.0,
                         anneal_at="middle")


class TestTapeLifetime:
    def test_kept_activation_survives_later_backward_passes(self):
        """A step may keep a non-leaf tensor of its graph: later steps'
        ``backward()`` calls must not reuse or overwrite its memory."""
        from repro.autograd import ops_nn
        from repro.autograd.tensor import tensor

        rng = np.random.default_rng(0)
        weight = tensor(rng.normal(size=(8, 4, 3, 3)), requires_grad=True)
        kept = []

        def weight_step(x, y):
            act = ops_nn.relu6(ops_nn.conv2d(tensor(x), weight, padding=1))
            kept.append((act, act.data.copy()))
            loss = act.sum()
            loss.backward()
            weight.zero_grad()
            return loss.item()

        batches = [
            (rng.normal(size=(2, 4, 8, 8)) * 3.0, np.zeros(2, dtype=int))
            for _ in range(3)
        ]
        SearchEngine(epochs=1, weight_step=weight_step).run(batches)
        assert len(kept) == 3
        for act, before in kept:
            np.testing.assert_array_equal(act.data, before)


class TestTiming:
    def test_phase_accounting_covers_all_phases(self):
        engine = SearchEngine(
            epochs=2,
            weight_step=lambda x, y: 0.0,
            arch_step=lambda x, y: {
                "acc_loss": 0.0, "perf_loss": 0.0, "resource": 0.0,
                "total_loss": 0.0,
            },
            anneal=lambda epoch: 1.0,
            derive=lambda: None,
        )
        run = engine.run(loader(2), loader(1))
        assert set(run.phase_seconds) == set(PHASES)
        assert all(v >= 0.0 for v in run.phase_seconds.values())
        assert run.phase_calls["anneal"] == 2
        assert run.phase_calls["weight"] == 2   # one timed call per epoch
        assert run.phase_calls["arch"] == 2
        assert run.phase_calls["derive"] == 1
        assert run.wall_seconds > 0


class TestDrivers:
    """The searcher and the trainer both drive the shared engine."""

    def test_searcher_result_carries_phase_seconds(self, tiny_space, tiny_splits):
        from repro.core.config import EDDConfig
        from repro.core.cosearch import EDDSearcher

        config = EDDConfig(target="gpu", epochs=2, batch_size=8, seed=0,
                           arch_start_epoch=0)
        result = EDDSearcher(tiny_space, tiny_splits, config).search(name="t")
        assert result.phase_seconds is not None
        assert set(result.phase_seconds) == set(PHASES)
        assert result.phase_seconds["weight"] > 0
        assert result.phase_seconds["arch"] > 0
        assert result.to_dict()["phase_seconds"]["weight"] > 0

    def test_searcher_history_matches_epochs(self, tiny_space, tiny_splits):
        from repro.core.config import EDDConfig
        from repro.core.cosearch import EDDSearcher

        config = EDDConfig(target="gpu", epochs=2, batch_size=8, seed=0,
                           arch_start_epoch=1)
        result = EDDSearcher(tiny_space, tiny_splits, config).search()
        assert len(result.history) == 2
        assert np.isnan(result.history[0].val_acc_loss)
        assert np.isfinite(result.history[1].val_acc_loss)

    def test_trainer_drives_engine(self, tiny_splits):
        from repro.core.trainer import train_from_spec
        from repro.nas.space import SearchSpaceConfig

        space = SearchSpaceConfig.tiny()
        ops = space.candidate_ops()
        spec = space.spec_for_choices([ops[0]] * space.num_blocks, name="t")
        result = train_from_spec(spec, tiny_splits, epochs=2, batch_size=8)
        assert len(result.train_losses) == 2
        assert all(np.isfinite(loss) for loss in result.train_losses)
