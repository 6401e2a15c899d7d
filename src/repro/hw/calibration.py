"""Calibration anchor registry.

The analytic device models contain constants that the paper obtained by
measuring real hardware.  We fitted them once against the paper's published
numbers and froze them in :mod:`repro.hw.device`; this module records which
paper numbers served as anchors so tests can verify the anchors still hold
(and so readers can audit exactly what was fitted versus predicted).

Everything *not* listed as an anchor is a genuine prediction of the models.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.baselines.model_zoo import get_model
from repro.hw.analytic import (
    fpga_pipelined_throughput_fps,
    fpga_recursive_latency_ms,
    gpu_latency_ms,
)
from repro.hw.device import GTX_1080TI, TITAN_RTX, ZC706, ZCU102


@dataclass(frozen=True)
class Anchor:
    """One paper measurement used to pin a calibration constant."""

    experiment: str
    model: str
    device: str
    metric: str
    paper_value: float
    weight_bits: int
    tolerance: float  # relative tolerance the tests enforce

    def measured(self) -> float:
        spec = get_model(self.model)
        if self.metric == "gpu_latency_ms":
            device = TITAN_RTX if self.device == "Titan RTX" else GTX_1080TI
            return gpu_latency_ms(spec, device, weight_bits=self.weight_bits)
        if self.metric == "fpga_recursive_latency_ms":
            return fpga_recursive_latency_ms(spec, ZCU102, weight_bits=self.weight_bits)
        if self.metric == "fpga_pipelined_fps":
            return fpga_pipelined_throughput_fps(spec, ZC706, weight_bits=self.weight_bits)
        raise ValueError(f"unknown metric {self.metric!r}")

    def holds(self) -> bool:
        measured = self.measured()
        return abs(measured - self.paper_value) <= self.tolerance * self.paper_value


#: The four calibration anchors (one per device/flow).
ANCHORS: tuple[Anchor, ...] = (
    Anchor(
        experiment="Table 1",
        model="ResNet18",
        device="Titan RTX",
        metric="gpu_latency_ms",
        paper_value=9.71,
        weight_bits=32,
        tolerance=0.05,
    ),
    Anchor(
        experiment="Table 2",
        model="EDD-Net-1",
        device="GTX 1080 Ti",
        metric="gpu_latency_ms",
        paper_value=2.29,
        weight_bits=16,
        tolerance=0.05,
    ),
    Anchor(
        experiment="Table 1",
        model="ResNet18",
        device="ZCU102",
        metric="fpga_recursive_latency_ms",
        paper_value=10.15,
        weight_bits=16,
        tolerance=0.10,
    ),
    Anchor(
        experiment="Table 3",
        model="VGG16",
        device="ZC706",
        metric="fpga_pipelined_fps",
        paper_value=27.7,
        weight_bits=16,
        tolerance=0.10,
    ),
)


def verify_anchors() -> dict[str, tuple[float, float, bool]]:
    """Measured-vs-paper for every anchor: {key: (measured, paper, holds)}."""
    return {
        f"{a.model}@{a.device}": (a.measured(), a.paper_value, a.holds())
        for a in ANCHORS
    }


# ---------------------------------------------------------------- live refit
#
# The anchors above pin the device constants to the *paper's* hardware.  The
# compiled runtime produces a second source of truth: real latencies measured
# by the serving fleet on whatever machine is serving
# (``repro serve --calibration-log`` appends one ``predicted_vs_measured``
# record per served model).  ``fit_calibration_scale`` closes the loop — it refits each
# device's ``calibration_scale`` so the analytic model predicts the serving
# log instead of the paper, which is exactly how the paper's constants were
# obtained in the first place.


@dataclass(frozen=True)
class CalibrationFit:
    """Refitted ``calibration_scale`` for one (target, device) pair.

    ``ratio_geomean`` is the geometric-mean measured/predicted latency ratio
    over the log's records; ``fitted_scale`` is the device constant that
    would bring the analytic prediction onto the measurements (latency flows
    scale linearly with ``calibration_scale``; the pipelined-throughput flow
    scales inversely, which :func:`fit_calibration_scale` accounts for).
    """

    target: str
    device: str
    metric: str
    records: int
    ratio_geomean: float
    current_scale: float
    fitted_scale: float

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (one row of ``repro``'s calibration report)."""
        return dataclasses.asdict(self)


def append_serving_record(path: str | Path, record: dict[str, Any]) -> Path:
    """Append one ``predicted_vs_measured`` record to a JSONL serving log."""
    path = Path(path)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    return path


def load_serving_log(path: str | Path) -> list[dict[str, Any]]:
    """Read a JSONL serving log written by :func:`append_serving_record`."""
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def fit_calibration_scale(
    records: Iterable[dict[str, Any]],
) -> dict[tuple[str, str], CalibrationFit]:
    """Fit per-device calibration scales from serving measurements.

    Args:
        records: ``predicted_vs_measured`` dicts (as produced by
            :func:`repro.hw.report.predicted_vs_measured` and logged by
            ``repro serve --calibration-log``).  Records without a usable
            prediction (unsupported target/bits combination) are skipped.

    Returns:
        ``{(target, device): CalibrationFit}``.  An empty dict if no record
        carried both a prediction and a measurement.
    """
    from repro.hw.registry import get_device

    grouped: dict[tuple[str, str], list[dict[str, Any]]] = {}
    for record in records:
        if not record.get("predicted_ms") or not record.get("measured_ms"):
            continue
        key = (record["target"], record["device"])
        grouped.setdefault(key, []).append(record)
    fits: dict[tuple[str, str], CalibrationFit] = {}
    for (target, device_name), group in grouped.items():
        log_ratio = sum(
            math.log(r["measured_ms"] / r["predicted_ms"]) for r in group
        ) / len(group)
        ratio = math.exp(log_ratio)
        device = get_device(device_name)
        current = float(device.calibration_scale)
        metric = group[0].get("metric", "latency_ms")
        # latency flows: predicted_ms ∝ scale.  pipelined throughput:
        # fps ∝ scale, so predicted_ms ∝ 1/scale.
        fitted = current / ratio if metric == "throughput_fps" else current * ratio
        fits[(target, device_name)] = CalibrationFit(
            target=target,
            device=device_name,
            metric=metric,
            records=len(group),
            ratio_geomean=ratio,
            current_scale=current,
            fitted_scale=fitted,
        )
    return fits


def fit_from_serving_log(path: str | Path) -> dict[tuple[str, str], CalibrationFit]:
    """Convenience wrapper: :func:`load_serving_log` + :func:`fit_calibration_scale`."""
    return fit_calibration_scale(load_serving_log(path))


def records_from_profile(profile: dict[str, Any]) -> list[dict[str, Any]]:
    """Per-op profile payload -> ``predicted_vs_measured``-shaped records.

    ``profile`` is the JSON written by ``repro infer --profile
    --profile-out`` (see :func:`repro.obs.profile_report`): it must carry
    ``target``/``device`` and per-op rows joining ``predicted_ms`` against
    the measured ``mean_ms``.  Each joined row becomes one calibration
    record (the ``model`` field names the op, e.g. ``net#op3:conv3x3dw``),
    so :func:`fit_calibration_scale` refits at op granularity — every op is
    an independent predicted/measured pair instead of one whole-model p50.

    Raises:
        ValueError: When the payload names no target/device (profile was
            taken without ``--target``) or joins no rows.
    """
    target = profile.get("target")
    device = profile.get("device")
    if not target or not device:
        raise ValueError(
            "profile payload has no target/device — run "
            "`repro infer --profile --target <t>` so rows carry predictions"
        )
    records: list[dict[str, Any]] = []
    for row in profile.get("rows", []):
        predicted = row.get("predicted_ms")
        measured = row.get("mean_ms")
        if not predicted or not measured:
            continue
        records.append({
            "model": (
                f"{profile.get('model', '?')}#op{row.get('index')}:"
                f"{row.get('label', row.get('kind', '?'))}"
            ),
            "target": target,
            "device": device,
            "bits": profile.get("bits"),
            "metric": "latency_ms",
            "predicted_ms": float(predicted),
            "measured_ms": float(measured),
        })
    if not records:
        raise ValueError(
            "profile payload joins no per-op rows (no op has both a "
            "prediction and a measured mean)"
        )
    return records


def fit_from_profile(path: str | Path) -> dict[tuple[str, str], CalibrationFit]:
    """Fit calibration scales from a per-op profile JSON file.

    The op-granular counterpart of :func:`fit_from_serving_log`, backing
    ``repro calibrate --per-op``.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return fit_calibration_scale(records_from_profile(payload))


def apply_fit(device, fit: CalibrationFit):
    """A copy of ``device`` with the refitted ``calibration_scale``.

    Devices are frozen dataclasses; the analytic estimators take the device
    as an argument, so predictions through the returned copy reproduce the
    serving log's latencies (up to the per-record spread around the geomean).
    """
    return dataclasses.replace(device, calibration_scale=fit.fitted_scale)
