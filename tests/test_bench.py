"""Unit tests for the serving benchmark harness (repro.bench).

The full traffic replay runs in CI's serving-smoke job; here only the
report serialisation is tested, without paying for a replay.
"""

import json

import numpy as np

from repro import bench


class TestReport:
    def test_write_report_round_trips(self, tmp_path):
        report = {
            "meta": {"quick": True, "suite": "serving", "dtype_policy": "float32",
                     "numpy": np.__version__, "python": "3.x", "machine": "x"},
            "serving": {"models": [], "kinds": ["thread"], "tiers": {},
                        "host_cpus": 1},
        }
        path = bench.write_report(report, tmp_path / "BENCH_serving.json")
        assert json.loads(path.read_text()) == report
