"""Unit tests for the benchmark harness (repro.bench).

The full suites are exercised by CI's bench-smoke job; here we test the
harness mechanics — report structure, rendering and serialisation — on one
small model without paying for a whole benchmark run.
"""

import json

import numpy as np
import pytest

from repro import bench


class TestReport:
    def test_write_report_round_trips(self, tmp_path):
        report = {
            "meta": {"quick": True, "suite": "runtime", "dtype_policy": "float32",
                     "numpy": np.__version__, "python": "3.x", "machine": "x"},
            "runtime": {"batch_sizes": [1], "models": [],
                        "geomean_batch1_speedup": 2.0},
        }
        path = bench.write_report(report, tmp_path / "BENCH_runtime.json")
        assert json.loads(path.read_text()) == report


class TestRuntimeSuite:
    @pytest.fixture(scope="class")
    def report(self):
        """One small model through the real runtime timing loop."""
        return bench.run_runtime_benchmarks(quick=True, models=["MobileNet-V2"])

    def test_report_structure(self, report):
        assert report["meta"]["suite"] == "runtime"
        section = report["runtime"]
        assert section["batch_sizes"] == [1, 8]
        (record,) = section["models"]
        assert record["name"] == "MobileNet-V2"
        assert record["arena_reuse"] > 1.0
        for row in record["batches"]:
            assert row["engine_ms"] > 0 and row["forward_ms"] > 0
            assert row["max_abs_diff"] <= 1e-4

    def test_geomean_is_batch1(self, report):
        section = report["runtime"]
        (record,) = section["models"]
        batch1 = next(r for r in record["batches"] if r["batch"] == 1)
        assert section["geomean_batch1_speedup"] == pytest.approx(
            batch1["speedup"]
        )

    def test_render_runtime_report(self, report):
        text = bench.render_runtime_report(report)
        assert "MobileNet-V2" in text
        assert "geomean batch-1 speedup" in text
        assert "arena" in text

    def test_round_trips_through_json(self, report, tmp_path):
        path = bench.write_report(report, tmp_path / "BENCH_runtime.json")
        assert json.loads(path.read_text())["meta"]["suite"] == "runtime"

    def test_runtime_zoo_names_excludes_shuffle(self):
        names = bench.runtime_zoo_names()
        assert "ShuffleNet-V2" not in names
        assert "MobileNet-V2" in names
        assert len(names) == 12
