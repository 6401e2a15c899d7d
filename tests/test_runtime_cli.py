"""CLI coverage for the runtime commands (compile / infer / serve)."""

import json

import pytest

from repro.cli import build_parser, main

SCALE = ["--width", "0.1", "--input-size", "16", "--classes", "4"]


class TestParser:
    def test_infer_defaults(self):
        args = build_parser().parse_args(["infer", "--model", "MobileNet-V2"])
        assert args.batch == 1
        assert args.runs == 10
        assert args.format == "text"
        assert args.bits is None

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--model", "EDD-Net-1"])
        assert args.max_batch == 8
        assert args.workers == 2
        assert args.worker_kind == "thread"
        assert args.target == "gpu"
        assert not args.once

    def test_infer_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["infer", "--model", "NotANet"])

    def test_runtime_commands_exclude_unbuildable_models(self):
        # ShuffleNet has no builder unit, so it never reaches compile_spec.
        for command in ("infer", "serve"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--model", "ShuffleNet-V2"])

    def test_invalid_counts_exit_as_user_error(self, capsys):
        assert main(["infer", "--model", "MobileNet-V2", *SCALE,
                     "--runs", "0"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["serve", "--model", "MobileNet-V2", *SCALE,
                     "--requests", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_single_seed_cache_dir_is_rejected(self, capsys, tmp_path):
        # The cache is keyed per multi-seed batch; silently ignoring the
        # flag on the single-seed path would fake a working cache.
        assert main(["search", "--epochs", "1", "--blocks", "2",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "requires --seeds" in capsys.readouterr().err

    def test_resume_without_checkpoint_dir_is_rejected(self, capsys):
        # --resume reads the newest checkpoint in --checkpoint-dir; without
        # one the search must not start over as if nothing were saved.
        assert main(["search", "--epochs", "1", "--blocks", "2", "--resume",
                     "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "checkpoint_dir" in captured.err
        assert captured.out == ""


class TestInferCommand:
    def test_json_output(self, capsys):
        code = main(["infer", "--model", "MobileNet-V2", *SCALE,
                     "--runs", "2", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"]["name"] == "MobileNet-V2-w0.1"
        assert payload["batch"] == 1
        assert payload["latency_ms"]["p50"] > 0
        assert payload["output_shape"] == [1, 4]

    def test_compare_reports_speedup(self, capsys):
        code = main(["infer", "--model", "MobileNet-V2", *SCALE,
                     "--runs", "2", "--compare", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["compare"]["speedup"] > 0
        assert payload["compare"]["forward_latency_ms"]["p50"] > 0
        assert payload["compare"]["max_abs_diff"] <= 1e-4

    def test_text_output(self, capsys):
        code = main(["infer", "--model", "MobileNet-V2", *SCALE, "--runs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "arena" in out
        assert "p50" in out

    def test_quantised_plan(self, capsys):
        code = main(["infer", "--model", "MobileNet-V2", *SCALE,
                     "--bits", "8", "--runs", "1", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"]["bits"] == 8


class TestServeCommand:
    def test_once_round_trips_one_request(self, capsys):
        code = main(["serve", "--model", "MobileNet-V2", *SCALE,
                     "--once", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["models"] == ["MobileNet-V2"]
        assert payload["requests_per_model"] == 1
        fleet = payload["stats"]["fleet"]
        assert fleet["accepted"] == fleet["completed"] == 1
        assert fleet["failed"] == fleet["shed"] == fleet["rejected"] == 0
        model = payload["stats"]["models"]["MobileNet-V2"]
        assert model["completed"] == 1
        assert model["latency_ms"]["p50"] > 0
        pvm = payload["predicted_vs_measured"]["MobileNet-V2"]
        assert pvm["target"] == "gpu"
        assert pvm["measured_ms"] == model["latency_ms"]["p50"]

    def test_multiple_requests_text(self, capsys):
        code = main(["serve", "--model", "MobileNet-V2", *SCALE,
                     "--requests", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet served 3 request(s) across 1 model(s)" in out
        assert "MobileNet-V2: p50" in out

    def test_model_writes_metrics_out(self, capsys, tmp_path):
        metrics = tmp_path / "m.txt"
        assert main(["serve", "--model", "MobileNet-V2", *SCALE, "--once",
                     "--metrics-out", str(metrics), "--format", "json"]) == 0
        capsys.readouterr()
        text = metrics.read_text(encoding="utf-8")
        assert ('repro_fleet_requests_total{model="MobileNet-V2",'
                'outcome="completed"} 1.0') in text

    def test_model_and_models_are_exclusive(self, capsys):
        assert main(["serve", "--model", "MobileNet-V2",
                     "--models", "EDD-Net-1", *SCALE, "--once"]) == 2
        assert "not both" in capsys.readouterr().err


class TestCompileAndPlanCLI:
    def test_compile_then_infer_plan(self, tmp_path, capsys):
        plan_path = str(tmp_path / "plan.npz")
        assert main(["compile", "--model", "MobileNet-V2", *SCALE,
                     "--out", plan_path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["path"] == plan_path
        assert payload["plan"]["ops"] > 0
        assert main(["infer", "--plan", plan_path, "--runs", "2",
                     "--format", "json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["plan"]["name"] == payload["plan"]["name"]
        assert result["latency_ms"]["p50"] > 0

    def test_infer_needs_model_or_plan(self, capsys):
        assert main(["infer", "--runs", "1"]) == 2
        assert "either --model or --plan" in capsys.readouterr().err

    def test_infer_plan_rejects_compare(self, tmp_path, capsys):
        plan_path = str(tmp_path / "plan.npz")
        main(["compile", "--model", "MobileNet-V2", *SCALE, "--out", plan_path])
        capsys.readouterr()
        assert main(["infer", "--plan", plan_path, "--compare"]) == 2
