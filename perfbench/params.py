"""Fixed workload parameters of the repo benchmark.

Everything a run depends on besides ``--seed`` and ``--seconds`` lives here,
so two commits measured with the same benchmark code receive the same work.
Every value is echoed into each run's metadata.
"""

from __future__ import annotations

#: Set-up repetitions per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: BLAS threads of the benchmark process.  On two vCPUs shared with other
#: tenants, a second OpenBLAS thread made every closed loop about 1.5x
#: slower and tied each GEMM to the busier core: with one competing busy
#: process, a 256x256 GEMM took 2.7x longer on two threads and no longer on one.
BLAS_THREADS = 1

#: Reference kernel of :mod:`perfbench.speed`: each part's size, the
#: repetitions per sample, and each part's nominal time (ms, median of a
#: sample) on a calm 2-vCPU Intel Xeon virtual machine with one BLAS thread.
SPEED = {
    "repeats": 3,
    "gemm_size": 192,
    "gemm_reps": 2,
    "gemm_ms": 0.28,
    "loop_iters": 7_000,
    "loop_ms": 0.45,
    "stream_floats": 1 << 20,
    "stream_ms": 0.5,
}

# -- search-reduced: api.search on the reduced space ------------------------
SEARCH_REDUCED = {
    "target": "fpga_pipelined",
    # api.search / `repro search` defaults: 3 blocks, 6 classes, 12 px,
    # batch 12, 6 epochs, arch steps from epoch 1.
    "epochs": 6,
    "blocks": 3,
    "batch_size": 12,
    "num_classes": 6,
    "input_size": 12,
    "checkpoint_every": 1,
}

#: The first-epoch train loss of ``search-reduced`` at ``REFERENCE_SEED``,
#: and the float32 tolerance it must match to.  Refresh both values only
#: when a change is meant to alter search numerics.
REFERENCE_SEED = 0
REFERENCE_LOSS = 1.8193469792604446
REFERENCE_RTOL = 1e-4

# -- infer: closed loop over Engine.run -------------------------------------
INFER = {
    "models": [
        "EDD-Net-1", "EDD-Net-2", "EDD-Net-3",
        "MobileNet-V2", "Proxyless-gpu", "ResNet18",
    ],
    "width_mult": 0.25,
    "input_size": 32,
    "num_classes": 10,
    "weight_seed": 0,
    "batches": [1, 8, 32],
    # Distinct inputs per batch size, cycled through the loop.
    "inputs_per_batch": 4,
    # Batch-1 profiled calls per model for the measured-vs-predicted table.
    "predicted_calls": 20,
    "predicted_target": "gpu",
}

#: Engine.run against BuiltNetwork.forward (eval mode), and fleet responses
#: against Engine.run: max |a - b| <= ATOL + RTOL * |b|.
OUTPUT_ATOL = 1e-4
OUTPUT_RTOL = 1e-4

# -- serve: open loop against api.serve_fleet -------------------------------
SERVE = {
    "models": ["EDD-Net-1", "EDD-Net-2"],
    "width_mult": 0.25,
    "input_size": 16,
    "num_classes": 10,
    "weight_seed": 0,
    # Product defaults of api.serve_fleet.
    "workers": 2,
    "worker_kind": "thread",
    "max_batch": 8,
    "max_queue": 64,
    # Offered load: Poisson arrivals at a fixed absolute rate plus a burst of
    # 2 x max_batch requests every burst_period_s, from one generator.
    "rate_rps": 250.0,
    "burst_size": 16,
    "burst_period_s": 1.0,
    # Distinct inputs per model; each has an Engine.run reference.
    "inputs_per_model": 8,
    # Goodput counts requests answered within this due-time latency.
    "latency_limit_ms": 50.0,
    # How long to wait for the last answers after the schedule ends.
    "drain_timeout_s": 30.0,
}
