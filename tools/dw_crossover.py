#!/usr/bin/env python
"""Time the direct depthwise kernel against the im2col path, forward plus
backward, on shapes either side of ``_DW_DIRECT_MIN_ELEMS``.

Both kernels run on the same padded float32 input with one BLAS thread, as
the repository benchmark runs them.  They are timed interleaved, one call
each per round, and each cell is the minimum over ``ROUNDS`` rounds.  The
output is the markdown table in ``docs/performance.md``; ``direct/im2col``
below 1 means the direct kernel is faster.

Run directly::

    PYTHONPATH=src python tools/dw_crossover.py
"""

from __future__ import annotations

import os
import sys
import time

#: Interleaved timing rounds per shape; each cell is the minimum over them.
ROUNDS = 40

#: ``(N, C, oH, oW, k, where it runs)``: output shapes of stride-1 depthwise
#: convolutions, from a few below the threshold to the largest ones of a
#: paper-width arch step at 32 px.
SHAPES = [
    (4, 8, 8, 8, 5, ""),
    (12, 16, 4, 4, 5, ""),
    (12, 8, 6, 6, 5, ""),
    (4, 8, 12, 12, 5, ""),
    (12, 64, 3, 3, 5, "search-reduced"),
    (12, 128, 3, 3, 5, "search-reduced"),
    (12, 32, 6, 6, 5, "search-reduced"),
    (12, 64, 6, 6, 5, "search-reduced"),
    (4, 960, 2, 2, 5, "paper width"),
    (4, 480, 4, 4, 7, "paper width"),
    (4, 240, 8, 8, 7, "paper width"),
    (4, 128, 16, 16, 5, "paper width"),
    (4, 192, 16, 16, 7, "paper width"),
]


def _fwd_bwd(kernel, x, w, g) -> None:
    from repro.autograd.tensor import tensor

    out = kernel(tensor(x, requires_grad=True), tensor(w, requires_grad=True))
    out.backward(g)


def main() -> int:
    """Print the crossover table."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were set")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    import numpy as np

    from repro.autograd import ops_nn

    kernels = {
        "direct": lambda xp, w: ops_nn._depthwise_direct(xp, w, "dwconv2d"),
        "im2col": lambda xp, w: ops_nn._im2col_conv(
            xp, w, 1, xp.shape[1], "dwconv2d"),
    }
    print(f"threshold: {ops_nn._DW_DIRECT_MIN_ELEMS:,} taps")
    print("| N, C, oH×oW, k | taps | dispatched to | direct ms | im2col ms "
          "| direct/im2col | runs in |")
    print("| --- | ---: | --- | ---: | ---: | ---: | --- |")
    rng = np.random.default_rng(0)
    for n, c, out_h, out_w, k, where in SHAPES:
        x = rng.normal(size=(n, c, out_h + k - 1, out_w + k - 1)).astype(np.float32)
        w = rng.normal(size=(c, 1, k, k)).astype(np.float32)
        g = rng.normal(size=(n, c, out_h, out_w)).astype(np.float32)
        best = {name: float("inf") for name in kernels}
        for _ in range(ROUNDS):
            for name, kernel in kernels.items():
                start = time.perf_counter()
                _fwd_bwd(kernel, x, w, g)
                best[name] = min(best[name], time.perf_counter() - start)
        taps = n * c * out_h * out_w * k * k
        path = "direct" if taps >= ops_nn._DW_DIRECT_MIN_ELEMS else "im2col"
        print(f"| {n}, {c}, {out_h}×{out_w}, {k} | {taps:,} | {path} "
              f"| {best['direct'] * 1e3:.2f} | {best['im2col'] * 1e3:.2f} "
              f"| {best['direct'] / best['im2col']:.2f} | {where} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
