"""Unit tests for the stable ``repro.api`` facade."""

import json

import numpy as np
import pytest

from repro import api
from repro.utils.serialization import ReproJSONEncoder


def _round_trip(payload):
    return json.loads(json.dumps(payload, cls=ReproJSONEncoder))


class TestIntrospection:
    def test_targets_listing(self):
        listing = api.targets()
        names = {t["name"] for t in listing}
        assert {"gpu", "fpga_recursive", "fpga_pipelined", "accel"} <= names
        gpu = next(t for t in listing if t["name"] == "gpu")
        assert gpu["deploy_bits"] == [8, 16, 32]
        assert gpu["sharing"] == "global"
        assert _round_trip(listing) == listing

    def test_devices_listing(self):
        listing = api.devices()
        by_name = {d["name"]: d for d in listing}
        assert "gpu" in by_name["titan-rtx"]["targets"]
        assert "fpga_pipelined" in by_name["zc706"]["targets"]

    def test_zoo_listing(self):
        listing = api.zoo()
        assert all(m["macs"] > 0 and m["params"] > 0 for m in listing)
        assert _round_trip(listing) == listing


class TestEstimate:
    def test_batch_shape_models_x_targets_x_bits(self):
        report = api.estimate(
            models=["ResNet18", "EDD-Net-1"],
            targets=["gpu", "fpga_recursive", "fpga_pipelined"],
            bits=[8, 16],
        )
        assert len(report) == 2 * 3 * 2
        keys = {(r.model, r.target, r.requested_bits) for r in report}
        assert len(keys) == 12  # no duplicates, full cross product

    def test_defaults_cover_all_targets(self):
        report = api.estimate(models=["VGG16"])
        assert {r.target for r in report} == set(
            t["name"] for t in api.targets()
        )
        # Default bits follow each target's registered deploy default.
        gpu = next(r for r in report if r.target == "gpu")
        assert gpu.requested_bits == 32 and not gpu.clamped

    def test_clamp_is_flagged_not_silent(self):
        report = api.estimate(
            models=["ResNet18"], targets=["fpga_pipelined"], bits=[32]
        )
        record = report.records[0]
        assert record.bits == 16 and record.clamped
        assert "clamped to 16-bit" in record.note

    def test_unsupported_network_does_not_sink_batch(self):
        report = api.estimate(
            models=["ShuffleNet-V2", "ResNet18"], targets=["fpga_recursive"]
        )
        by_model = {r.model: r for r in report}
        assert not by_model["ShuffleNet-V2"].supported
        assert by_model["ShuffleNet-V2"].value is None
        assert "shuffle" in by_model["ShuffleNet-V2"].note.lower()
        assert by_model["ResNet18"].supported

    def test_device_override(self):
        report = api.estimate(
            models=["ResNet18"], targets=["gpu"],
            devices={"gpu": "gtx-1080ti"},
        )
        assert report.records[0].device == "GTX 1080 Ti"

    def test_unknown_model_raises(self):
        with pytest.raises(ValueError, match="unknown model 'LeNet'"):
            api.estimate(models=["LeNet"])

    def test_no_models_raises_value_error(self):
        with pytest.raises(ValueError, match="at least one model"):
            api.estimate()
        with pytest.raises(ValueError, match="at least one model"):
            api.estimate(models=[])

    def test_devices_override_key_must_be_estimated(self):
        with pytest.raises(ValueError, match="unknown target 'gpus'"):
            api.estimate(models=["ResNet18"], targets=["gpu"],
                         devices={"gpus": "p100"})
        with pytest.raises(ValueError, match="not being estimated"):
            api.estimate(models=["ResNet18"], targets=["fpga_pipelined"],
                         devices={"gpu": "p100"})

    def test_unknown_target_raises(self):
        with pytest.raises(ValueError, match="unknown target 'tpu'"):
            api.estimate(models=["ResNet18"], targets=["tpu"])

    def test_to_dict_json_round_trips(self):
        report = api.estimate(
            models=["ResNet18", "EDD-Net-1"],
            targets=["gpu", "fpga_recursive", "fpga_pipelined"],
        )
        payload = _round_trip(report.to_dict())
        assert payload["count"] == 6
        assert len(payload["records"]) == 6
        for record in payload["records"]:
            assert record["metric"] in ("latency_ms", "throughput_fps")

    def test_accepts_arch_spec_objects(self):
        from repro.baselines.model_zoo import get_model

        report = api.estimate(models=[get_model("VGG16")], targets=["accel"])
        assert report.records[0].model == "VGG16"
        assert report.records[0].value > 0


class TestSearch:
    def test_search_report_round_trips(self):
        report = api.search(target="gpu", epochs=1, blocks=2, seed=0)
        assert report.target == "gpu"
        assert report.device == "Titan RTX"
        payload = _round_trip(report.to_dict())
        assert len(payload["search"]["history"]) == 1
        assert payload["retrain"] is None

    def test_search_uses_target_default_resource_fraction(self):
        report = api.search(target="fpga_pipelined", epochs=1, blocks=2)
        assert report.result.config.resource_fraction == pytest.approx(0.05)

    def test_search_unknown_target(self):
        with pytest.raises(ValueError, match="unknown target"):
            api.search(target="tpu", epochs=1)

    def test_resume_without_checkpoint_dir_is_rejected(self):
        # Without a directory there is nothing to resume from; starting
        # over silently would report "resumed_from": null as if no
        # checkpoint had been written yet.
        with pytest.raises(ValueError, match="checkpoint_dir"):
            api.search(epochs=1, blocks=2, resume=True)
        # search_many refuses before fanning out, so a retry policy cannot
        # wrap a worker's error into a poisoned task.
        with pytest.raises(ValueError, match="checkpoint_dir"):
            api.search_many([0, 1], epochs=1, blocks=2, resume=True,
                            retry_policy=api.RetryPolicy(max_retries=1))


class TestResumeIdentity:
    """A resume continues only the search whose checkpoints it finds."""

    @pytest.fixture(scope="class")
    def checkpoint_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("resume-identity")
        api.search(target="fpga_pipelined", epochs=1, blocks=2,
                   checkpoint_dir=str(path))
        return str(path)

    @pytest.mark.parametrize("change, fields", [
        ({"seed": 5, "resource_fraction": 0.9, "epochs": 3},
         ["resource_fraction", "seed"]),
        ({"batch_size": 4}, ["batch_size"]),
        ({"device": "zcu102"}, ["device"]),
        ({"input_size": 16}, ["input_size"]),
    ])
    def test_another_search_is_rejected(self, checkpoint_dir, change, fields):
        request = dict(target="fpga_pipelined", epochs=1, blocks=2,
                       checkpoint_dir=checkpoint_dir, resume=True)
        with pytest.raises(ValueError, match="another search") as err:
            api.search(**{**request, **change})
        message = str(err.value)
        named = sorted(f for f in ("batch_size", "device", "input_size",
                                   "resource_fraction", "seed", "target")
                       if f"{f} (stored " in message)
        assert named == fields

    @pytest.mark.parametrize("change", [
        {"epochs": 2},
        {"retrain_epochs": 1},
        {"checkpoint_every": 2},
        {"name": "renamed"},
    ])
    def test_run_length_and_naming_may_change(self, tmp_path, change):
        request = dict(target="fpga_pipelined", epochs=1, blocks=2,
                       checkpoint_dir=str(tmp_path))
        api.search(**request)
        report = api.search(**{**request, **change, "resume": True})
        assert report.resumed_from is not None


class TestDeployPlan:
    def test_plan_text_and_metric(self):
        plan = api.deploy_plan("VGG16", "fpga_pipelined", bits=16)
        assert plan.metric == "throughput_fps" and plan.value > 0
        assert "bottleneck" in plan.text
        assert _round_trip(plan.to_dict())["model"] == "VGG16"

    def test_plan_clamps_with_note(self):
        plan = api.deploy_plan("ResNet18", "fpga_recursive", bits=32)
        assert plan.bits == 16 and plan.clamped
        assert "clamped" in plan.note

    def test_planless_target_raises_helpfully(self):
        with pytest.raises(ValueError, match="no deployment-plan renderer"):
            api.deploy_plan("ResNet18", "accel")


class TestRuntimeFacade:
    def test_compile_model_facade(self):
        engine = api.compile_model(
            "MobileNet-V2", width_mult=0.1, input_size=16, num_classes=4,
        )
        out = engine.run(np.zeros((2, 3, 16, 16)))
        assert out.shape == (2, 4)

    def test_predicted_vs_measured_record(self):
        from repro.baselines.model_zoo import get_model
        from repro.hw.report import predicted_vs_measured

        spec = get_model("MobileNet-V2")
        record = predicted_vs_measured(spec, "gpu", measured_ms=5.0)
        assert record["target"] == "gpu"
        assert record["measured_ms"] == 5.0
        assert record["predicted_ms"] is not None
        assert record["measured_over_predicted"] == pytest.approx(
            5.0 / record["predicted_ms"]
        )
