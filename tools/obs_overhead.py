#!/usr/bin/env python
"""CI guard: a *disabled* tracer must not slow down ``Engine.run``.

``Engine.run`` is instrumented (one ``get_tracer()`` fetch and an
``enabled`` check per call; a span only when enabled).  This script times
the instrumented path with tracing disabled against an inlined replica of
the same hot loop with the tracer lines deleted — everything else
(validation, arena views, the ``last_ms`` stamp) identical — and fails
when the instrumented path drops below ``--threshold`` of the untraced
throughput (default 0.95, i.e. more than 5% overhead).

The two variants are timed interleaved, one call each per round, so clock
drift and cache effects hit both equally; the verdict compares medians.

Run directly::

    PYTHONPATH=src python tools/obs_overhead.py --runs 300
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np


def _untraced_run(engine, x: np.ndarray) -> np.ndarray:
    """``Engine.run`` body with the tracer lines removed (baseline)."""
    from repro.runtime.engine import _OP_TABLE

    x = np.asarray(x, dtype=engine.plan.dtype)
    single = x.ndim == len(engine.plan.input_shape)
    if single:
        x = x[None]
    if x.shape[1:] != engine.plan.input_shape:
        raise ValueError("input shape mismatch")
    start = time.perf_counter()
    views = engine._views_for(x.shape[0])
    np.copyto(views[engine.plan.input_buffer], x)
    for op in engine.plan.ops:
        _OP_TABLE[op.kind](op, views)
    out = views[engine.plan.output_buffer].copy()
    engine.last_ms = (time.perf_counter() - start) * 1e3
    return out[0] if single else out


def main(argv: list[str] | None = None) -> int:
    """Time both variants; exit non-zero when the guard fails."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="EDD-Net-1")
    parser.add_argument("--width", type=float, default=0.1)
    parser.add_argument("--input-size", type=int, default=16)
    parser.add_argument("--batch", type=int, default=4)
    parser.add_argument("--runs", type=int, default=300,
                        help="interleaved timing rounds per variant")
    parser.add_argument("--threshold", type=float, default=0.95,
                        help="minimum untraced/instrumented median ratio")
    args = parser.parse_args(argv)

    from repro import api
    from repro.obs.tracer import get_tracer

    tracer = get_tracer()
    if tracer.enabled:
        print("global tracer is enabled; this guard measures the disabled "
              "path", file=sys.stderr)
        return 2

    engine = api.compile_model(args.model, width_mult=args.width,
                               input_size=args.input_size)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(args.batch,) + engine.plan.input_shape)
    ref = engine.run(x)  # warm the arena and the kernels
    np.testing.assert_allclose(_untraced_run(engine, x), ref)

    instrumented: list[float] = []
    untraced: list[float] = []
    for _ in range(args.runs):
        start = time.perf_counter()
        engine.run(x)
        instrumented.append(time.perf_counter() - start)
        start = time.perf_counter()
        _untraced_run(engine, x)
        untraced.append(time.perf_counter() - start)

    med_instr = statistics.median(instrumented)
    med_plain = statistics.median(untraced)
    ratio = med_plain / med_instr if med_instr > 0 else 1.0
    print(f"instrumented (tracer disabled): {med_instr * 1e3:.4f} ms median")
    print(f"untraced baseline:              {med_plain * 1e3:.4f} ms median")
    print(f"untraced/instrumented ratio:    {ratio:.3f} "
          f"(threshold {args.threshold})")
    if ratio < args.threshold:
        print(f"overhead guard FAILED: disabled tracer costs more than "
              f"{(1 - args.threshold) * 100:.0f}%", file=sys.stderr)
        return 1
    print("overhead guard OK: disabled tracer is free")
    return 0


if __name__ == "__main__":
    sys.exit(main())
