"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tables``   regenerate Table 1/2/3 or Figure 4 (``--which all`` for every
             registered experiment).
``anchors``  verify the calibration anchors against the paper's numbers.
``zoo``      list every model in the zoo with MACs/params.
``explore``  latency/throughput estimates for one zoo model across every
             registered hardware target.
``search``   run a reduced-scale co-search and print the derived network
             plus its convergence trajectory.  ``--seeds``/``--workers``
             batch several seeds in parallel (one record per seed plus an
             aggregate); ``--checkpoint-dir``/``--resume`` snapshot the
             search every N epochs and restart it bit-identically.
``compile``  lower a model into a static execution plan and save it to disk
             (``.npz``) for cold-start-free deployment.
``infer``    compile a model into the inference runtime and time
             ``Engine.run`` (``--compare`` adds the module-forward baseline
             and the largest output difference from it; ``--plan`` runs a
             previously saved plan instead;
             ``--profile`` prints a per-op table joining measured times
             against the analytic per-op prediction).
``serve``    round-trip requests through a multi-worker
             :class:`~repro.runtime.fleet.ServingFleet` (shared baked
             weights, admission control, fleet stats) and report each
             model's latency next to the analytic device-model prediction
             (``--once`` for CI smoke).  ``--model NAME`` serves one model,
             ``--models a,b`` several from the same fleet;
             ``--trace-out`` records the request lifecycle as a Chrome
             trace, ``--metrics-out`` dumps Prometheus-style counters.
``trace``    inspect a trace file: ``trace summary`` prints the top ops by
             self-time and per-model queue-wait percentiles.

``tables``, ``zoo``, ``explore``, ``search``, ``infer``, ``serve`` and
``trace`` accept ``--format json`` for machine-readable output (the
``to_dict()`` forms from :mod:`repro.api`).  Target and device names come
from :mod:`repro.hw.registry`; the CLI holds no hardware dispatch of its
own.  The global ``--log-level`` flag (or the ``REPRO_LOG_LEVEL``
environment variable) sets the ``repro`` logger level.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from repro.baselines.model_zoo import MODEL_ZOO
from repro.core.results import MULTI_SEARCH_OBJECTIVES
from repro.eval.experiments import EXPERIMENTS, experiment_dict, run_experiment
from repro.hw.registry import TARGETS, device_names, target_names
from repro.utils.log import LOG_LEVELS
from repro.utils.serialization import ReproJSONEncoder


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, cls=ReproJSONEncoder))


def _cmd_tables(args: argparse.Namespace) -> int:
    names = sorted(EXPERIMENTS) if args.which == "all" else [args.which]
    if args.format == "json":
        _emit_json({name: experiment_dict(name) for name in names})
        return 0
    for name in names:
        print(run_experiment(name))
        print()
    return 0


def _cmd_anchors(args: argparse.Namespace) -> int:
    from repro.hw.calibration import verify_anchors

    failures = 0
    for key, (measured, paper, ok) in verify_anchors().items():
        status = "OK " if ok else "FAIL"
        print(f"[{status}] {key:30s} measured={measured:8.2f} paper={paper:8.2f}")
        failures += not ok
    return 1 if failures else 0


def _cmd_zoo(args: argparse.Namespace) -> int:
    from repro import api

    summaries = api.zoo()
    if args.format == "json":
        _emit_json({"count": len(summaries), "models": summaries})
        return 0
    print(f"{'model':18s} {'blocks':>7s} {'layers':>7s} {'MACs':>9s} {'params':>9s}")
    for s in summaries:
        print(f"{s['name']:18s} {s['blocks']:7d} {s['layers']:7d} "
              f"{s['macs'] / 1e9:8.2f}G {s['params'] / 1e6:8.2f}M")
    return 0


_UNITS = {"latency_ms": "ms", "throughput_fps": "fps"}


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro import api

    if args.plan:
        plan = api.deploy_plan(
            args.model, args.plan, device=args.device, bits=args.bits
        )
        if args.format == "json":
            _emit_json(plan.to_dict())
            return 0
        if plan.note:
            print(f"note: {plan.note}")
        print(plan.text)
        return 0

    targets = list(args.targets) if args.targets else target_names()
    devices = {}
    if args.device:
        # Explicitly requested targets must accept the device (resolve_device
        # raises otherwise); with the default "all targets" sweep the override
        # applies only where the device is registered.
        from repro.hw.registry import get_target

        devices = {
            t: args.device for t in targets
            if args.targets or args.device in get_target(t).devices
        }
    report = api.estimate(
        models=[args.model],
        targets=targets,
        bits=[args.bits],
        devices=devices,
    )
    if args.format == "json":
        _emit_json(report.to_dict())
        return 0

    record0 = report.records[0]
    print(f"{args.model}: {record0.macs / 1e9:.2f} GMACs, "
          f"{record0.params / 1e6:.2f}M params\n")
    print(f"{'target':16s} {'device':16s} {'bits':>4s} {'metric':>10s} "
          f"{'value':>10s}")
    notes = []
    details = []
    for r in report:
        metric = r.metric.split("_")[0]
        unit = _UNITS.get(r.metric, "")
        value = "NA" if not r.supported else f"{r.value:.2f} {unit}"
        print(f"{r.target:16s} {r.device:16s} {r.bits:4d} {metric:>10s} "
              f"{value:>10s}")
        if r.note:
            notes.append(f"  {r.target}: {r.note}")
        if r.extras:
            pairs = ", ".join(f"{k}={v:.1f}" for k, v in r.extras.items())
            details.append(f"  {r.target}: {pairs}")
    if details:
        print("\ndetails:")
        print("\n".join(details))
    if notes:
        print("\nnotes:")
        print("\n".join(notes))
    return 0


def _resolve_seeds(args: argparse.Namespace) -> list[int]:
    """``--seeds N`` -> N seeds starting at ``--seed``; ``--seeds a b c`` -> exact list."""
    if len(args.seeds) == 1:
        count = args.seeds[0]
        if count < 1:
            raise ValueError(f"--seeds count must be >= 1, got {count}")
        return [args.seed + i for i in range(count)]
    return list(args.seeds)


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.resilience import PREEMPTION_EXIT_CODE, Preempted, PreemptionGuard

    # "defer" mode: the first SIGINT/SIGTERM only sets a flag; the engine
    # finishes the epoch in flight, checkpoints (when --checkpoint-dir is
    # set) and raises Preempted — a second signal interrupts hard.
    try:
        with PreemptionGuard(mode="defer"):
            return _run_search(args)
    except Preempted as err:
        print(f"\n{err}", file=sys.stderr)
        if err.checkpoint is not None:
            print("resume with the same command plus --resume",
                  file=sys.stderr)
        return PREEMPTION_EXIT_CODE


def _run_search(args: argparse.Namespace) -> int:
    from repro import api
    from repro.eval.figures import render_architecture
    from repro.eval.trajectory import render_trajectory

    shared = dict(
        target=args.target,
        device=args.device,
        epochs=args.epochs,
        blocks=args.blocks,
        batch_size=12,
        resource_fraction=args.resource_fraction,
        retrain_epochs=10 if args.retrain else 0,
        name=f"cli-{args.target}",
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        max_rollbacks=args.max_rollbacks,
    )
    retry_policy = (
        api.RetryPolicy(max_retries=args.max_retries)
        if args.max_retries > 0 else None
    )

    if args.seeds:
        multi = api.search_many(
            _resolve_seeds(args),
            workers=args.workers,
            objective=args.objective,
            checkpoint_dir=args.checkpoint_dir,
            cache_dir=args.cache_dir,
            early_stop_after=args.early_stop_after,
            early_stop_keep=args.early_stop_keep,
            task_timeout=args.task_timeout,
            retry_policy=retry_policy,
            **shared,
        )
        if args.format == "json":
            _emit_json(multi.to_dict())
            return 0
        values = multi.objective_values()
        print(f"{'seed':>6s} {'spec':24s} {'converged':>9s} "
              f"{multi.objective:>14s}")
        for seed, run, value in zip(multi.seeds, multi.runs, values):
            marker = " <- best" if run is multi.best else ""
            cached = " (cached)" if seed in multi.cached_seeds else ""
            stopped = (" (early-stopped)"
                       if seed in multi.early_stopped_seeds else "")
            print(f"{seed:6d} {run.spec_name:24s} {str(run.converged):>9s} "
                  f"{value:14.4f}{marker}{cached}{stopped}")
        print(f"\nbest seed {multi.best_seed} "
              f"({multi.workers} worker(s), {multi.wall_seconds:.1f}s)\n")
        print(render_architecture(multi.best.result.spec))
        return 0

    if args.cache_dir:
        # Cached reports are keyed per batch configuration; a silent no-op
        # here would look like caching works when it does not.
        raise ValueError("--cache-dir requires --seeds (multi-seed search)")
    request = api.SearchRequest(
        seed=args.seed, checkpoint_dir=args.checkpoint_dir, **shared,
    )
    report = api.search(request)
    if args.format == "json":
        _emit_json(report.to_dict())
        return 0
    if report.resumed_from:
        print(f"resumed from: {report.resumed_from}\n")
    print(render_architecture(report.result.spec))
    print()
    print(render_trajectory(report.result.history))
    print(f"\nconverged: {report.converged}  "
          f"(train-loss drop {report.train_loss_drop:.3f}, "
          f"theta perplexity {report.final_theta_perplexity:.2f})")
    if report.retrain is not None:
        print(f"retrained top-1 error: {report.retrain.top1_error:.1f}%")
    return 0


def _runtime_engine(args: argparse.Namespace):
    """Shared ``infer``/``serve`` path: compile the requested (scaled) model."""
    from repro import api

    return api.compile_model(
        args.model,
        bits=args.bits,
        seed=args.seed,
        width_mult=args.width,
        input_size=args.input_size,
        num_classes=args.classes,
    )


def _cmd_compile(args: argparse.Namespace) -> int:
    engine = _runtime_engine(args)
    path = engine.plan.save(args.out)
    layout = engine.layout  # planned (and validated) by Engine.__init__
    payload = {
        "plan": engine.plan.to_dict(),
        "path": str(path),
        "arena_elems": layout.arena_elems,
        "arena_reuse": layout.reuse_factor,
    }
    if args.format == "json":
        _emit_json(payload)
        return 0
    print(f"compiled {engine.plan.name}: {engine.plan.num_ops()} ops, "
          f"{len(engine.plan.buffers)} buffers "
          f"(arena reuse {layout.reuse_factor:.1f}x)")
    print(f"wrote {path}")
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.runtime.fleet.metrics import latency_percentiles

    if args.runs < 1 or args.batch < 1:
        raise ValueError(
            f"--runs and --batch must be >= 1, got {args.runs}/{args.batch}"
        )
    if args.plan:
        from repro.runtime import Engine, ExecutionPlan

        if args.compare:
            raise ValueError(
                "--compare rebuilds the module forward and needs --model, "
                "not --plan"
            )
        engine = Engine(ExecutionPlan.load(args.plan))
    elif args.model:
        engine = _runtime_engine(args)
    else:
        raise ValueError("infer needs either --model or --plan")
    plan = engine.plan
    rng = np.random.default_rng(args.seed or 0)
    x = rng.normal(size=(args.batch,) + plan.input_shape)
    engine.run(x)  # warm the arena for this batch size
    samples = []
    for _ in range(args.runs):
        out = engine.run(x, profile=args.profile)
        samples.append(engine.last_ms)
    payload = {
        "plan": plan.to_dict(),
        "arena_kib": engine.arena_bytes(args.batch) / 1024.0,
        "arena_reuse": engine.layout.reuse_factor,
        "batch": args.batch,
        "runs": args.runs,
        "latency_ms": latency_percentiles(samples),
        "output_shape": list(out.shape),
    }
    if args.compare:
        from repro.autograd.tensor import Tensor
        from repro.nas.network import build_network

        from repro import api

        spec = api._runtime_spec(args.model, args.width, args.input_size,
                                 args.classes)
        net = build_network(spec, seed=args.seed)
        net.eval()
        xt = Tensor(x)
        # Same effective precision as the compiled plan (None falls back to
        # the spec annotation in both paths), so the comparison is
        # apples-to-apples.
        expected = net(xt, bits=args.bits).data
        import time as _time

        fwd = []
        for _ in range(args.runs):
            start = _time.perf_counter()
            net(xt, bits=args.bits)
            fwd.append((_time.perf_counter() - start) * 1e3)
        forward_summary = latency_percentiles(fwd)
        payload["compare"] = {
            "forward_latency_ms": forward_summary,
            "speedup": forward_summary["p50"] / payload["latency_ms"]["p50"],
            "max_abs_diff": float(np.max(np.abs(out - expected))),
        }
    if args.profile:
        from repro.obs import profile_report

        payload["profile"] = profile_report(
            engine, target=args.target, device=args.device, bits=args.bits
        )
        if args.profile_out:
            Path(args.profile_out).write_text(
                json.dumps(payload["profile"], indent=2), encoding="utf-8"
            )
    if args.format == "json":
        _emit_json(payload)
        return 0
    print(f"{plan.name}: {plan.num_ops()} ops, {len(plan.buffers)} buffers, "
          f"arena {payload['arena_kib']:.0f} KiB "
          f"(reuse {payload['arena_reuse']:.1f}x)")
    lat = payload["latency_ms"]
    print(f"batch {args.batch}: p50 {lat['p50']:.2f} ms, "
          f"mean {lat['mean']:.2f} ms over {args.runs} runs")
    if args.compare:
        cmp = payload["compare"]
        print(f"BuiltNetwork.forward p50 "
              f"{cmp['forward_latency_ms']['p50']:.2f} ms "
              f"-> {cmp['speedup']:.1f}x speedup, "
              f"max |diff| {cmp['max_abs_diff']:.1e}")
    if args.profile:
        from repro.obs import render_profile_table

        print(render_profile_table(payload["profile"]))
        if args.profile_out:
            print(f"wrote profile to {args.profile_out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.models and args.model:
        raise ValueError("pass either --model or --models, not both")
    if not args.models and not args.model:
        raise ValueError("pass --model NAME or --models a,b,c")
    # --model NAME is the one-name form of --models.
    names = [args.model] if args.model else [
        name.strip() for name in args.models.split(",") if name.strip()
    ]
    if not names:
        raise ValueError("--models needs at least one model name")
    requests = 1 if args.once else args.requests
    if requests < 1:
        raise ValueError(f"--requests must be >= 1, got {requests}")
    from repro.resilience import PREEMPTION_EXIT_CODE, Preempted, PreemptionGuard

    # "raise" mode: SIGINT/SIGTERM raises Preempted at the signal point so
    # the with-blocks below unwind — the fleet drains in-flight requests via
    # close() and the trace session flushes its sinks — before we exit.
    try:
        with PreemptionGuard(mode="raise"):
            # The trace session wraps the whole serving run so
            # request-lifecycle spans from every tier land in one file,
            # written when the stack exits.
            with contextlib.ExitStack() as stack:
                if args.trace_out:
                    from repro import api

                    suffix = Path(args.trace_out).suffix.lower()
                    if suffix in (".jsonl", ".ndjson"):
                        stack.enter_context(
                            api.trace_session(jsonl=args.trace_out))
                    else:
                        stack.enter_context(
                            api.trace_session(chrome=args.trace_out))
                code = _serve_fleet(args, names, requests)
    except Preempted as err:
        print(f"\ninterrupted ({err.signame}); fleet drained, sinks flushed",
              file=sys.stderr)
        return PREEMPTION_EXIT_CODE
    if args.trace_out and code == 0 and args.format != "json":
        print(f"wrote trace to {args.trace_out}")
    return code


def _serve_fleet(args: argparse.Namespace, names: list[str],
                 requests: int) -> int:
    """Serve ``requests`` random samples per model from one fleet; report."""
    import numpy as np

    from repro import api
    from repro.hw.report import predicted_vs_measured

    rng = np.random.default_rng(args.seed or 0)
    with api.serve_fleet(
        names,
        workers=args.workers,
        worker_kind=args.worker_kind,
        bits=args.bits,
        seed=args.seed,
        width_mult=args.width,
        input_size=args.input_size,
        num_classes=args.classes,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
    ) as fleet:
        handles = []
        for name in names:
            spec = api._runtime_spec(name, args.width, args.input_size,
                                     args.classes)
            shape = (spec.input_channels, spec.input_size, spec.input_size)
            # submit_with_retry: an open-loop submit burst can outrun the
            # bounded per-model queues; backpressure is transient, so back
            # off and retry instead of dying on QueueFull.
            handles += [
                fleet.submit_with_retry(name, rng.normal(size=shape))
                for _ in range(requests)
            ]
        for handle in handles:
            handle.result(timeout=60.0)
        stats = fleet.stats()
    if args.metrics_out:
        from repro.obs import prometheus_text

        Path(args.metrics_out).write_text(prometheus_text(stats),
                                          encoding="utf-8")
    comparisons = {}
    for name in names:
        spec = api._runtime_spec(name, args.width, args.input_size,
                                 args.classes)
        comparisons[name] = predicted_vs_measured(
            spec, args.target, stats["models"][name]["latency_ms"]["p50"],
            device=args.device, bits=args.bits,
        )
    payload = {
        "models": names,
        "workers": args.workers,
        "worker_kind": args.worker_kind,
        "requests_per_model": requests,
        "stats": stats,
        "predicted_vs_measured": comparisons,
    }
    if args.format == "json":
        _emit_json(payload)
        return 0
    fleet_block = stats["fleet"]
    print(f"fleet served {fleet_block['completed']} request(s) across "
          f"{len(names)} model(s) on {args.workers} {args.worker_kind} "
          f"worker(s)")
    for name in names:
        block = stats["models"][name]
        lat = block["latency_ms"]
        line = (f"  {name}: p50 {lat['p50']:.2f} ms, p95 {lat['p95']:.2f} ms, "
                f"p99 {lat['p99']:.2f} ms (mean batch {block['mean_batch']:.1f})")
        predicted = comparisons[name]["predicted_ms"]
        if predicted:
            line += (f"; predicted {predicted:.2f} ms -> "
                     f"{comparisons[name]['measured_over_predicted']:.1f}x")
        print(line)
    shared = stats["weights"]["shared_bytes"]
    print(f"weights: {shared / 1024:.0f} KiB mapped once "
          f"(vs {stats['weights']['unshared_bytes'] / 1024:.0f} KiB unshared)")
    if args.metrics_out:
        print(f"wrote metrics to {args.metrics_out}")
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    from repro.obs import load_trace, render_trace_summary, summarize_trace

    summary = summarize_trace(load_trace(args.file))
    if args.format == "json":
        _emit_json(summary)
        return 0
    print(render_trace_summary(summary, top=args.top))
    return 0


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (json is machine-readable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--log-level", choices=LOG_LEVELS, default=None,
                        help="set the repro logger level (overrides the "
                             "REPRO_LOG_LEVEL environment variable)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="regenerate paper tables/figures")
    p_tables.add_argument("--which", default="all",
                          choices=["all", *sorted(EXPERIMENTS)])
    _add_format(p_tables)
    p_tables.set_defaults(fn=_cmd_tables)

    p_anchors = sub.add_parser("anchors", help="verify calibration anchors")
    p_anchors.set_defaults(fn=_cmd_anchors)

    p_zoo = sub.add_parser("zoo", help="list model-zoo networks")
    _add_format(p_zoo)
    p_zoo.set_defaults(fn=_cmd_zoo)

    plannable = [name for name, spec in TARGETS.items()
                 if spec.plan_flow is not None]
    p_explore = sub.add_parser(
        "explore", help="device estimates for one model across targets"
    )
    p_explore.add_argument("--model", required=True, choices=sorted(MODEL_ZOO))
    p_explore.add_argument("--bits", type=int, default=32,
                           help="requested weight precision; clamped to each "
                                "target's supported menu with a note")
    p_explore.add_argument("--targets", nargs="+", choices=target_names(),
                           help="restrict to these targets (default: all)")
    p_explore.add_argument("--device", choices=device_names(),
                           help="override the target's default device")
    p_explore.add_argument("--plan", choices=plannable,
                           help="print the per-layer deployment plan for "
                                "this target instead")
    _add_format(p_explore)
    p_explore.set_defaults(fn=_cmd_explore)

    p_search = sub.add_parser("search", help="run a reduced-scale co-search")
    p_search.add_argument("--target", default="gpu", choices=target_names())
    p_search.add_argument("--device", choices=device_names(),
                          help="override the target's default device")
    p_search.add_argument("--epochs", type=int, default=6)
    p_search.add_argument("--blocks", type=int, default=3)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--resource-fraction", type=float, default=None,
                          help="fraction of device resources as RES_ub "
                               "(default: the target's registered default)")
    p_search.add_argument("--retrain", action="store_true")
    p_search.add_argument("--seeds", type=int, nargs="+", default=None,
                          metavar="N|SEED",
                          help="batched multi-seed search: one value N runs "
                               "N seeds starting at --seed; several values "
                               "are used as the exact seed list")
    p_search.add_argument("--workers", type=int, default=1,
                          help="worker processes for --seeds (rankings are "
                               "identical for any worker count)")
    p_search.add_argument("--objective", default="total_loss",
                          choices=MULTI_SEARCH_OBJECTIVES,
                          help="final-epoch metric that picks the best seed")
    p_search.add_argument("--checkpoint-dir", default=None,
                          help="snapshot searcher state here every "
                               "--checkpoint-every epochs (per-seed subdirs "
                               "with --seeds)")
    p_search.add_argument("--checkpoint-every", type=int, default=1,
                          help="checkpoint period in epochs")
    p_search.add_argument("--cache-dir", default=None,
                          help="cross-run result cache for --seeds: finished "
                               "seeds are skipped when the shared "
                               "configuration is unchanged")
    p_search.add_argument("--resume", action="store_true",
                          help="restart from the newest checkpoint in "
                               "--checkpoint-dir, which it requires "
                               "(bit-identical to an uninterrupted run)")
    p_search.add_argument("--early-stop-after", type=int, default=None,
                          metavar="E",
                          help="with --seeds: probe every seed for E epochs, "
                               "then resume only the --early-stop-keep best "
                               "to the full --epochs (dominated seeds are "
                               "killed early)")
    p_search.add_argument("--early-stop-keep", type=int, default=1,
                          metavar="K",
                          help="probe-stage survivors (default 1)")
    p_search.add_argument("--max-rollbacks", type=int, default=0,
                          help="on a diverged epoch (non-finite loss or "
                               "parameters) roll back to the last good "
                               "checkpoint and retry with a scaled-down "
                               "learning rate, at most this many times "
                               "(default 0: fail fast)")
    p_search.add_argument("--max-retries", type=int, default=0,
                          help="with --seeds: retry a crashed or timed-out "
                               "seed evaluation this many times before "
                               "giving up on it (default 0)")
    p_search.add_argument("--task-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="with --seeds: kill and retry a seed "
                               "evaluation that exceeds this wall-clock "
                               "budget")
    _add_format(p_search)
    p_search.set_defaults(fn=_cmd_search)

    from repro.baselines.model_zoo import buildable_models

    # Only specs the network builder can instantiate are compilable — the
    # shuffle-containing zoo entries stay analytic-model-only.
    runtime_models = buildable_models()

    def add_runtime_model_args(
        p: argparse.ArgumentParser, required: bool = True
    ) -> None:
        p.add_argument("--model", required=required, choices=runtime_models)
        p.add_argument("--bits", type=int, default=None,
                       help="bake this weight precision into the plan "
                            "(default: the spec's annotation, if any)")
        p.add_argument("--seed", type=int, default=0,
                       help="weight-initialisation seed")
        p.add_argument("--width", type=float, default=None,
                       help="channel width multiplier (scale the model down "
                            "for CPU-scale runs)")
        p.add_argument("--input-size", type=int, default=None,
                       help="override the input resolution")
        p.add_argument("--classes", type=int, default=None,
                       help="override the classifier width")

    p_compile = sub.add_parser(
        "compile", help="compile a model and save the execution plan to disk"
    )
    add_runtime_model_args(p_compile)
    p_compile.add_argument("--out", default="plan.npz",
                           help="destination .npz file (ExecutionPlan.save)")
    _add_format(p_compile)
    p_compile.set_defaults(fn=_cmd_compile)

    p_infer = sub.add_parser(
        "infer", help="compile a model and time Engine.run on random input"
    )
    add_runtime_model_args(p_infer, required=False)
    p_infer.add_argument("--plan", default=None,
                         help="run a saved plan (repro compile --out) instead "
                              "of compiling --model")
    p_infer.add_argument("--batch", type=int, default=1)
    p_infer.add_argument("--runs", type=int, default=10,
                         help="timed repetitions after one warm-up run")
    p_infer.add_argument("--compare", action="store_true",
                         help="also time BuiltNetwork.forward and report the "
                              "speedup and the largest output difference")
    p_infer.add_argument("--profile", action="store_true",
                         help="time every plan op and print a per-op table "
                              "(joined against the analytic per-op "
                              "prediction when --target is given)")
    p_infer.add_argument("--profile-out", default=None,
                         help="also write the per-op profile payload as JSON")
    p_infer.add_argument("--target", default=None, choices=target_names(),
                         help="hardware target for the per-op analytic "
                              "prediction column (with --profile)")
    p_infer.add_argument("--device", default=None, choices=device_names(),
                         help="override the target's default device "
                              "(with --profile --target)")
    _add_format(p_infer)
    p_infer.set_defaults(fn=_cmd_infer)

    p_serve = sub.add_parser(
        "serve", help="serve compiled models from a multi-worker fleet"
    )
    add_runtime_model_args(p_serve, required=False)
    p_serve.add_argument("--models", default=None,
                         help="comma-separated model names: serve them all "
                              "from one fleet (--model NAME serves one)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="fleet worker count")
    p_serve.add_argument("--worker-kind", choices=("thread", "process"),
                         default="thread",
                         help="fleet worker tier: 'thread' shares the GIL, "
                              "'process' cold-starts one child per worker "
                              "from the shared weight memmaps for true core "
                              "scaling")
    p_serve.add_argument("--max-queue", type=int, default=64,
                         help="per-model admission bound before QueueFull")
    p_serve.add_argument("--requests", type=int, default=8,
                         help="number of random requests to round-trip per "
                              "model")
    p_serve.add_argument("--once", action="store_true",
                         help="round-trip a single request and exit "
                              "(CI smoke mode)")
    p_serve.add_argument("--max-batch", type=int, default=8,
                         help="largest batch a worker coalesces from queued "
                              "requests")
    p_serve.add_argument("--target", default="gpu", choices=target_names(),
                         help="hardware target for the predicted-vs-measured "
                              "comparison")
    p_serve.add_argument("--device", choices=device_names(),
                         help="override the target's default device")
    p_serve.add_argument("--trace-out", default=None,
                         help="record request-lifecycle spans and write them "
                              "here on exit (.json: Chrome trace-event "
                              "format, loadable in chrome://tracing or "
                              "Perfetto; .jsonl: one event per line)")
    p_serve.add_argument("--metrics-out", default=None,
                         help="write a Prometheus-style text dump of the "
                              "fleet counters here")
    _add_format(p_serve)
    p_serve.set_defaults(fn=_cmd_serve)

    p_trace = sub.add_parser(
        "trace", help="inspect a trace file written by serve --trace-out"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tsum = trace_sub.add_parser(
        "summary",
        help="top ops by self-time plus per-model queue-wait percentiles",
    )
    p_tsum.add_argument("file",
                        help="Chrome-trace .json or .jsonl events file")
    p_tsum.add_argument("--top", type=int, default=15,
                        help="rows in the by-self-time op table")
    _add_format(p_tsum)
    p_tsum.set_defaults(fn=_cmd_trace_summary)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level:
        from repro.utils.log import set_level

        set_level(args.log_level)
    try:
        return args.fn(args)
    except (ValueError, OSError) as err:
        # Registry/facade lookup errors (unknown target/device/model or an
        # incompatible combination) and bad file paths (--plan) are
        # user input errors, not crashes.
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        from repro.resilience import DivergenceError

        if isinstance(err, DivergenceError):
            # The rollback budget is spent (or there was nothing to roll
            # back to) — report it as a run failure, not a traceback.
            print(f"error: {err}", file=sys.stderr)
            return 3
        raise


if __name__ == "__main__":
    sys.exit(main())
