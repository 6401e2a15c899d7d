import json
from argparse import Namespace
from pathlib import Path

from perfbench import metrics, run

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def _declared(kind: str) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in BENCHMARK[kind]}


def test_every_printed_metric_is_declared_with_its_unit():
    outcome = metrics.Outcome(
        attempted=1,
        end_to_end={name: 1.0 for name in metrics.END_TO_END},
        per_layer={"nas.sample_ms": 2.0},
    )
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        line = run._result_line(outcome, trace)
        declared = _declared(kind)
        assert set(line["metrics"]) == set(declared)
        for name, metric in line["metrics"].items():
            assert metric["unit"] == declared[name], name
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
    traced = run._result_line(outcome, True)["metrics"]
    assert traced["nas.sample_ms"]["value"] == 2.0
    assert traced["fleet.mean_batch"]["value"] == 0.0  # not exercised


def test_workloads_and_slots_match_the_declaration():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(metrics.WORKLOADS)
    for slots in metrics.SLOTS.values():
        assert set(slots) == set(metrics.END_TO_END) - {"peak_rss_mib"}
    assert BENCHMARK["paths"] == ["perfbench"]
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_a_failed_check_makes_the_run_incorrect():
    outcome = metrics.Outcome(
        attempted=3, failed=1, problems=["mismatch"],
        end_to_end={name: 1.0 for name in metrics.END_TO_END},
    )
    line = run._result_line(outcome, False)
    assert line["correct"] is False and line["failed"] == 1


def test_parse_rejects_non_positive_seconds(capsys):
    args = run._parse(["--workload", "infer", "--seed", "1", "--seconds", "2"])
    assert args == Namespace(workload="infer", seed=1, seconds=2.0, trace=0)
    try:
        run._parse(["--workload", "infer", "--seed", "1", "--seconds", "0"])
    except SystemExit as exit_:
        assert exit_.code == 2
    else:
        raise AssertionError("expected a usage error")
