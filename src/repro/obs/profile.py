"""Per-op profile reports: measured engine timings joined with analytic estimates.

``Engine.run(x, profile=True)`` accumulates wall-clock milliseconds per plan
op; :func:`profile_report` turns that table into a JSON-serialisable payload
and — when a hardware target is named — joins each row against the analytic
per-op estimate (:func:`repro.hw.report.per_op_predicted_ms`).  The joined
rows are the paper's predicted-vs-implemented gap at *op* granularity.
"""

from __future__ import annotations

from typing import Mapping

__all__ = ["profile_report", "render_profile_table"]


def profile_report(engine, target: str | None = None,
                   device: str | None = None,
                   bits: int | None = None) -> dict:
    """Build the per-op profile payload for a profiled engine.

    ``engine`` is a :class:`repro.runtime.engine.Engine` that has executed at
    least one ``run(..., profile=True)`` call.  With ``target`` set, every
    row gains ``predicted_ms`` (analytic estimate for that op, batch-1) and
    ``measured_over_predicted``; ``bits`` defaults to the plan's deployed
    bit-width.  Measured means are per profiled call, so profile at batch 1
    when comparing against the batch-1 analytic estimates.
    """
    plan = engine.plan
    payload: dict = {
        "model": plan.name,
        "bits": plan.bits,
        "target": None,
        "device": None,
        "rows": [],
    }
    predicted = None
    if target is not None:
        from repro.hw.report import per_op_predicted_ms

        effective_bits = bits if bits is not None else plan.bits
        predicted = per_op_predicted_ms(
            plan, target, device=device, bits=effective_bits
        )
        payload.update(
            target=predicted["target"],
            device=predicted["device"],
            bits=predicted["bits"],
            clamped=predicted["clamped"],
            supported=predicted["supported"],
            note=predicted["note"],
        )
    rows = []
    total_measured = 0.0
    total_predicted = 0.0
    for row in engine.op_profile():
        joined = dict(row)
        mean = row["mean_ms"]
        if mean:
            total_measured += mean
        if predicted is not None:
            per_op = predicted["per_op"][row["index"]]
            joined["predicted_ms"] = per_op
            joined["measured_over_predicted"] = (
                mean / per_op if (per_op and mean) else None
            )
            if per_op:
                total_predicted += per_op
        rows.append(joined)
    payload["rows"] = rows
    payload["total_measured_ms"] = total_measured
    if predicted is not None:
        payload["total_predicted_ms"] = total_predicted
    return payload


def render_profile_table(payload: Mapping) -> str:
    """Human-readable table for a :func:`profile_report` payload."""
    has_predicted = any("predicted_ms" in row for row in payload["rows"])
    header = f"{'#':>3s} {'op':22s} {'kind':8s} {'calls':>6s} {'mean ms':>9s}"
    if has_predicted:
        header += f" {'pred ms':>9s} {'meas/pred':>10s}"
    title = f"Per-op profile: {payload.get('model', '?')}"
    if payload.get("target"):
        title += (
            f" vs {payload['target']}/{payload['device']}"
            f" @ {payload.get('bits')}-bit"
        )
    lines = [title, header]
    for row in payload["rows"]:
        mean = row.get("mean_ms")
        line = (
            f"{row['index']:3d} {row['label'][:22]:22s} {row['kind']:8s} "
            f"{row['calls']:6d} "
            f"{mean:9.4f}" if mean is not None else
            f"{row['index']:3d} {row['label'][:22]:22s} {row['kind']:8s} "
            f"{row['calls']:6d} {'-':>9s}"
        )
        if has_predicted:
            predicted = row.get("predicted_ms")
            ratio = row.get("measured_over_predicted")
            line += (
                f" {predicted:9.4f}" if predicted is not None else f" {'-':>9s}"
            )
            line += f" {ratio:10.2f}" if ratio is not None else f" {'-':>10s}"
        lines.append(line)
    total = f"total measured: {payload.get('total_measured_ms', 0.0):.4f} ms"
    if payload.get("total_predicted_ms") is not None:
        total += f"; total predicted: {payload['total_predicted_ms']:.4f} ms"
    lines.append(total)
    if payload.get("note"):
        lines.append(f"note: {payload['note']}")
    return "\n".join(lines)
