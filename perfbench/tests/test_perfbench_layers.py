import pytest

from perfbench.layers import Patches, SearchProbe


class Owner:
    def method(self):
        return "original"


def test_patches_restore_on_exit():
    original = Owner.__dict__["method"]
    with Patches() as patches:
        patches.wrap(Owner, "method", lambda fn: lambda self: "wrapped")
        assert Owner().method() == "wrapped"
    assert Owner.__dict__["method"] is original
    with pytest.raises(AttributeError):
        Patches().wrap(Owner, "missing", lambda fn: fn)


def test_layers_plus_other_add_up_to_the_step_wall(tmp_path):
    from repro import api
    from repro.core.cosearch import EDDSearcher

    original = EDDSearcher.__dict__["weight_step"]
    probe = SearchProbe(layers=True)
    with probe:
        api.search(target="fpga_pipelined", epochs=2, blocks=2, batch_size=12,
                   num_classes=4, input_size=8, checkpoint_dir=str(tmp_path))
    assert EDDSearcher.__dict__["weight_step"] is original
    assert len(probe.epochs) == 2
    assert probe.steps == sum(len(e.weight) + len(e.arch) for e in probe.epochs)
    assert probe.step_s["arch"]  # arch steps ran in epoch 1
    for key in ("nas.sample", "nas.forward_weight", "nas.forward_arch",
                "autograd.backward_weight", "autograd.backward_arch",
                "hw.evaluate", "nn.optim"):
        assert probe.layer_s[key] > 0, key
    wrapped = sum(probe.layer_s.values())
    assert 0 < wrapped < probe.step_wall_s
    for epoch in probe.epochs:
        assert epoch.checkpoint > 0
        assert epoch.wall >= epoch.steps + epoch.checkpoint
