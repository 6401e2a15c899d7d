"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tables_defaults(self):
        args = build_parser().parse_args(["tables"])
        assert args.which == "all"
        assert args.format == "text"

    def test_explore_requires_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explore"])

    def test_search_options(self):
        args = build_parser().parse_args(
            ["search", "--target", "fpga_pipelined", "--epochs", "2"]
        )
        assert args.target == "fpga_pipelined"
        assert args.epochs == 2

    def test_target_choices_come_from_registry(self):
        from repro.hw.registry import target_names

        for target in target_names():
            args = build_parser().parse_args(["search", "--target", target])
            assert args.target == target
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--target", "tpu"])

    def test_rejects_unknown_format(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["zoo", "--format", "yaml"])


class TestCommands:
    def test_anchors_exit_zero(self, capsys):
        assert main(["anchors"]) == 0
        out = capsys.readouterr().out
        assert "ResNet18@Titan RTX" in out
        assert "FAIL" not in out

    def test_zoo_lists_models(self, capsys):
        assert main(["zoo"]) == 0
        out = capsys.readouterr().out
        assert "EDD-Net-3" in out and "VGG16" in out

    def test_tables_single(self, capsys):
        assert main(["tables", "--which", "table3"]) == 0
        out = capsys.readouterr().out
        assert "DNNBuilder" in out

    def test_explore_model(self, capsys):
        assert main(["explore", "--model", "ResNet18", "--bits", "16"]) == 0
        out = capsys.readouterr().out
        # One row per registered target, with metric + value.
        assert "gpu" in out and "fpga_pipelined" in out and "accel" in out
        assert "latency" in out and "throughput" in out

    def test_explore_unsupported_fpga(self, capsys):
        assert main(["explore", "--model", "ShuffleNet-V2"]) == 0
        assert "NA" in capsys.readouterr().out

    def test_explore_text_includes_gpu_energy(self, capsys):
        assert main(["explore", "--model", "ResNet18", "--bits", "16"]) == 0
        assert "energy_mj" in capsys.readouterr().out

    def test_incompatible_device_is_clean_error(self, capsys):
        code = main(["explore", "--model", "ResNet18",
                     "--targets", "fpga_recursive", "--device", "titan-rtx"])
        assert code == 2
        assert "not registered for target" in capsys.readouterr().err

    def test_explore_notes_bit_clamp(self, capsys):
        """Satellite: the old silent min(bits, 16) clamp is now explicit."""
        assert main(["explore", "--model", "ResNet18", "--bits", "32"]) == 0
        out = capsys.readouterr().out
        assert "clamped to 16-bit" in out
        assert "4/8/16" in out

    def test_explore_json_round_trips(self, capsys):
        assert main(["explore", "--model", "ResNet18", "--bits", "16",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == len(payload["records"])
        targets = {r["target"] for r in payload["records"]}
        assert {"gpu", "fpga_recursive", "fpga_pipelined", "accel"} <= targets
        gpu = next(r for r in payload["records"] if r["target"] == "gpu")
        assert gpu["metric"] == "latency_ms" and gpu["value"] > 0

    def test_explore_plan_json(self, capsys):
        assert main(["explore", "--model", "VGG16", "--plan", "fpga_pipelined",
                     "--bits", "16", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metric"] == "throughput_fps"
        assert "Pipelined deployment plan" in payload["text"]

    def test_zoo_json_round_trips(self, capsys):
        assert main(["zoo", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {m["name"] for m in payload["models"]}
        assert "EDD-Net-3" in names and "VGG16" in names
        assert all(m["macs"] > 0 for m in payload["models"])

    def test_tables_json_round_trips(self, capsys):
        assert main(["tables", "--which", "table3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["table3"]["columns"]
        assert any(r["name"] == "EDD-Net-3" for r in payload["table3"]["rows"])

    def test_search_runs(self, capsys):
        code = main([
            "search", "--target", "gpu", "--epochs", "2", "--blocks", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cli-gpu" in out
        assert "converged" in out

    def test_search_json_round_trips(self, capsys):
        code = main([
            "search", "--target", "gpu", "--epochs", "1", "--blocks", "2",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == "gpu"
        assert payload["spec_name"] == "cli-gpu"
        assert len(payload["search"]["history"]) == 1
