"""Repo benchmark: one command, three workloads, every metric with its unit.

Run from the repository root::

    python3 perfbench/run.py --workload infer --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric (untraced run); ``--trace 1``
prints every per-layer metric (a traced pass after an untraced one).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a readable
summary.  Host metadata, sample counts and per-layer tables are written
under ``perfbench/out/``.  The exit code is 0 only when every correctness
check passed.  The process runs BLAS on ``params.BLAS_THREADS`` threads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _pin_blas_threads() -> None:
    """Fix the BLAS thread count before numpy loads its BLAS library."""
    sys.path.insert(0, str(ROOT))
    from perfbench.params import BLAS_THREADS

    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were set")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = str(BLAS_THREADS)


def _import_program() -> None:
    """Put the repository's sources first on the path and import them.

    Raises:
        SystemExit: With code 2 when the sources are not there.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro  # noqa: F401


def _result_line(outcome, trace: bool) -> dict:
    from perfbench.metrics import END_TO_END, PER_LAYER

    units = PER_LAYER if trace else END_TO_END
    values = outcome.per_layer if trace else outcome.end_to_end
    metrics = {}
    for name, unit in units.items():
        # A layer the workload does not exercise did no work: it reads 0.
        value = values.get(name, 0.0) if trace else values[name]
        metrics[name] = {"value": float(value), "unit": unit}
    return {
        "correct": not outcome.problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def _write_artifacts(out_dir: Path, args, outcome, line: dict,
                     meta: dict) -> Path:
    """Run record (and, when traced, the Chrome trace) under ``out_dir``."""
    from repro.obs import write_chrome_trace

    stem = f"{args.workload}-trace{args.trace}"
    events = outcome.details.pop("trace_events", None)
    if events is not None:
        write_chrome_trace(events, out_dir / f"{stem}.chrome.json")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": meta,
        "result": line,
        "problems": outcome.problems,
        "details": outcome.details,
    }
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(record, indent=2, default=str) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _pin_blas_threads()
    _import_program()
    from perfbench import infer, params, search, serve
    from perfbench.host import host_metadata
    from perfbench.metrics import SLOTS

    runners = {
        "search-reduced": search.run,
        "infer": infer.run,
        "serve": serve.run,
    }
    if args.workload not in runners:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(runners)}", file=sys.stderr)
        return 2
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    outcome = runners[args.workload](args.seed, args.seconds, bool(args.trace),
                                     out_dir)
    meta = host_metadata(ROOT)
    meta["params"] = {
        name: getattr(params, name)
        for name in dir(params) if name.isupper()
    }
    meta["slots"] = SLOTS[args.workload]
    meta["run_wall_s"] = time.perf_counter() - started
    line = _result_line(outcome, bool(args.trace))
    path = _write_artifacts(out_dir, args, outcome, line, meta)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"record {path.relative_to(ROOT)}")
    for name, metric in line["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.4f} {metric['unit']}")
    for problem in outcome.problems:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps(line))
    sys.stdout.flush()
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
