"""Unit tests for the model zoo encodings (MAC/param fidelity)."""

import pytest

from repro.baselines.model_zoo import (
    MODEL_ZOO,
    PAPER_ACCURACY,
    buildable_models,
    get_model,
)

# Published MAC counts (multiply-adds, 224x224 input) used as encoding checks.
PUBLISHED_MACS = {
    "MobileNet-V2": (300e6, 0.15),     # Sandler et al.: 300M
    "ResNet18": (1.8e9, 0.10),         # torchvision: 1.82G
    "VGG16": (15.5e9, 0.05),           # 15.5G
    "MnasNet-A1": (312e6, 0.15),       # Tan et al.: 312M
    "ShuffleNet-V2": (146e6, 0.20),    # Ma et al.: 146M
    "GoogleNet": (1.5e9, 0.15),        # ~1.5G
    "FBNet-C": (375e6, 0.20),          # Wu et al.: 375M
}

PUBLISHED_PARAMS = {
    "MobileNet-V2": (3.4e6, 0.15),
    "ResNet18": (11.7e6, 0.10),
    "VGG16": (138e6, 0.05),
    "MnasNet-A1": (3.9e6, 0.20),
}


class TestRegistry:
    def test_all_thirteen_models_present(self):
        assert len(MODEL_ZOO) == 13

    def test_get_model_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown model"):
            get_model("AlexNet")

    def test_num_classes_plumbs_through(self):
        spec = get_model("ResNet18", num_classes=10)
        assert spec.blocks[-1].out_features == 10

    def test_paper_accuracy_covers_zoo(self):
        assert set(PAPER_ACCURACY) == set(MODEL_ZOO)
        for entry in PAPER_ACCURACY.values():
            assert 0 < entry["top5"] < entry["top1"] < 100

    def test_buildable_models_exclude_shuffle(self):
        names = buildable_models()
        assert "ShuffleNet-V2" not in names
        assert "MobileNet-V2" in names
        assert len(names) == 12


class TestMacFidelity:
    @pytest.mark.parametrize("name", sorted(PUBLISHED_MACS))
    def test_macs_match_published(self, name):
        target, tol = PUBLISHED_MACS[name]
        macs = get_model(name).total_macs()
        assert abs(macs - target) / target < tol, f"{name}: {macs / 1e6:.0f}M"

    @pytest.mark.parametrize("name", sorted(PUBLISHED_PARAMS))
    def test_params_match_published(self, name):
        target, tol = PUBLISHED_PARAMS[name]
        params = get_model(name).total_params()
        assert abs(params - target) / target < tol, f"{name}: {params / 1e6:.2f}M"


class TestEDDNets:
    def test_edd_nets_have_20_20_17_blocks(self):
        from repro.nas.arch_spec import MBConvBlock

        counts = {}
        for name in ("EDD-Net-1", "EDD-Net-2", "EDD-Net-3"):
            spec = get_model(name)
            counts[name] = sum(isinstance(b, MBConvBlock) for b in spec.blocks)
        assert counts["EDD-Net-1"] == 20  # N = 20 (Sec. 6)
        assert counts["EDD-Net-2"] == 20
        assert counts["EDD-Net-3"] == 17  # "shallower" (Sec. 6)

    def test_edd_nets_use_searched_precision(self):
        for name in ("EDD-Net-1", "EDD-Net-2", "EDD-Net-3"):
            assert get_model(name).weight_bits == 16

    def test_edd_net_2_favours_few_distinct_ops(self):
        """Resource sharing (Eqs. 9-10) pushes the recursive target toward
        reusing few op types; the Fig. 4 net is dominated by MB4 3x3."""
        from collections import Counter
        from repro.nas.arch_spec import MBConvBlock

        spec = get_model("EDD-Net-2")
        ops = Counter(
            (b.expansion, b.kernel) for b in spec.blocks if isinstance(b, MBConvBlock)
        )
        assert ops.most_common(1)[0][0] == (4, 3)
        assert ops.most_common(1)[0][1] >= 8

    def test_edd_net_3_wider_than_edd_net_1(self):
        """Pipelined target trades depth for width (Sec. 6 discussion)."""
        from repro.nas.arch_spec import MBConvBlock

        e1 = get_model("EDD-Net-1")
        e3 = get_model("EDD-Net-3")
        max_ch_1 = max(b.out_ch for b in e1.blocks if isinstance(b, MBConvBlock))
        mid_ch_3 = [b.out_ch for b in e3.blocks if isinstance(b, MBConvBlock)]
        assert len(mid_ch_3) < 20
        assert max(mid_ch_3) >= 256  # wider trunk

    def test_all_specs_resolve_geometry(self):
        for name in MODEL_ZOO:
            layers = get_model(name).layers()
            assert layers, name
            assert all(l.out_h >= 1 and l.out_w >= 1 for l in layers)

    def test_classifiers_end_at_1000(self):
        for name in MODEL_ZOO:
            assert get_model(name).layers()[-1].out_ch == 1000
