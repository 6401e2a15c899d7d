"""Stable public facade of the EDD reproduction.

This module is the supported programmatic entry point: typed request /
response dataclasses plus the entry functions —

* :func:`search` / :func:`search_many` — run reduced-scale co-searches for
  any registered target and get machine-readable reports (``search_many``
  batches seeds, optionally with a cross-run result cache);
* :func:`estimate` — batch-evaluate many models x targets x bit-widths with
  the analytic device models in a single call;
* :func:`deploy_plan` — render the per-layer implementation plan a hardware
  engineer would take from a network;
* :func:`compile_model` / :func:`serve_fleet` — lower a model into the
  compiled inference runtime (:mod:`repro.runtime`) and optionally serve
  one or many compiled models from a multi-worker fleet.

Every response object has a ``to_dict()`` returning plain JSON-serialisable
types (see :mod:`repro.utils.serialization`), which is what the CLI's
``--format json`` prints.  Target and device strings are resolved through
:mod:`repro.hw.registry` — the single dispatch point — so unknown names fail
fast with the list of registered alternatives, and requested bit-widths are
clamped to each target's supported menu *with an explicit note*, never
silently.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.baselines.model_zoo import MODEL_ZOO, get_model
from repro.core.checkpoint import (
    CheckpointCallback,
    find_latest_checkpoint,
    restore_search_state,
)
from repro.core.config import EDDConfig
from repro.core.cosearch import EDDSearcher
from repro.core.parallel import ParallelEvaluator
from repro.core.results import (
    MULTI_SEARCH_OBJECTIVES,
    MultiSearchResult,
    SearchResult,
    TrainResult,
)
from repro.core.trainer import train_from_spec
from repro.data.synthetic import SyntheticTaskConfig, make_synthetic_task
from repro.eval.trajectory import summarize
from repro.hw import registry
from repro.hw.report import deployment_plan as _render_plan
from repro.nas.arch_spec import ArchSpec, scale_spec
from repro.nas.space import SearchSpaceConfig
from repro.resilience import DivergenceGuard, PreemptionCallback, RetryPolicy

__all__ = [
    "DeployPlan",
    "EstimateRecord",
    "EstimateReport",
    "EstimateRequest",
    "MultiSearchResult",
    "RetryPolicy",
    "SearchReport",
    "SearchRequest",
    "compile_model",
    "deploy_plan",
    "devices",
    "estimate",
    "search",
    "search_many",
    "serve_fleet",
    "targets",
    "trace_session",
    "zoo",
]


def _resolve_spec(model: str | ArchSpec) -> ArchSpec:
    """Zoo name or already-built spec -> :class:`ArchSpec`."""
    if isinstance(model, ArchSpec):
        return model
    if model not in MODEL_ZOO:
        raise ValueError(f"unknown model {model!r}, known: {sorted(MODEL_ZOO)}")
    return get_model(model)


# --------------------------------------------------------------- introspection
def targets() -> list[dict[str, Any]]:
    """Machine-readable description of every registered hardware target."""
    out = []
    for name, spec in registry.TARGETS.items():
        out.append({
            "name": name,
            "description": spec.description,
            "default_device": spec.default_device,
            "devices": list(spec.devices),
            "deploy_bits": list(spec.deploy_bits),
            "default_deploy_bits": spec.default_deploy_bits,
            "search_bits": list(spec.quant().bitwidths),
            "sharing": spec.quant().sharing,
            "has_plan": spec.plan_flow is not None,
        })
    return out


def devices() -> list[dict[str, Any]]:
    """Machine-readable description of every registered device."""
    out = []
    for name, dev in registry.DEVICES.items():
        out.append({
            "name": name,
            "display_name": dev.name,
            "kind": type(dev).__name__,
            "targets": [
                t for t, spec in registry.TARGETS.items() if name in spec.devices
            ],
        })
    return out


def zoo() -> list[dict[str, Any]]:
    """Summaries (blocks/layers/MACs/params) of every model-zoo network."""
    return [get_model(name).summary() for name in sorted(MODEL_ZOO)]


# -------------------------------------------------------------- batch estimate
@dataclass
class EstimateRequest:
    """Batch estimate: the cross product of models x targets x bit-widths.

    ``models`` are zoo names or :class:`ArchSpec` objects; empty ``targets``
    means every registered target; empty ``bits`` means each target's default
    deploy precision; ``devices`` optionally overrides the device per target
    (``{"gpu": "gtx-1080ti"}``).
    """

    models: tuple[str | ArchSpec, ...]
    targets: tuple[str, ...] = ()
    bits: tuple[int, ...] = ()
    devices: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.models is None or isinstance(self.models, (str, ArchSpec)):
            self.models = (self.models,) if self.models is not None else ()
        self.models = tuple(self.models)
        if isinstance(self.targets, str):
            self.targets = (self.targets,)
        self.targets = tuple(self.targets)
        if isinstance(self.bits, int):
            self.bits = (self.bits,)
        self.bits = tuple(self.bits)
        if not self.models:
            raise ValueError("EstimateRequest needs at least one model")

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form of the request."""
        return {
            "models": [
                m.name if isinstance(m, ArchSpec) else m for m in self.models
            ],
            "targets": list(self.targets),
            "bits": list(self.bits),
            "devices": dict(self.devices),
        }


@dataclass
class EstimateRecord:
    """One (model, target, device, bits) analytic evaluation."""

    model: str
    target: str
    device: str
    requested_bits: int
    bits: int
    clamped: bool
    supported: bool
    metric: str
    value: float | None
    note: str = ""
    macs: int = 0
    params: int = 0
    extras: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form of this record."""
        return {
            "model": self.model,
            "target": self.target,
            "device": self.device,
            "requested_bits": self.requested_bits,
            "bits": self.bits,
            "clamped": self.clamped,
            "supported": self.supported,
            "metric": self.metric,
            "value": self.value,
            "note": self.note,
            "macs": self.macs,
            "params": self.params,
            "extras": dict(self.extras),
        }


@dataclass
class EstimateReport:
    """All records of one batch estimate call."""

    records: list[EstimateRecord]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form: record count plus every record."""
        return {
            "count": len(self.records),
            "records": [r.to_dict() for r in self.records],
        }


def estimate(
    request: EstimateRequest | None = None,
    *,
    models: Any = None,
    targets: Any = (),
    bits: Any = (),
    devices: dict[str, str] | None = None,
) -> EstimateReport:
    """Evaluate many models on many targets at many precisions in one call.

    Either pass an :class:`EstimateRequest` or use the keyword shorthand::

        report = estimate(models=["ResNet18", "EDD-Net-1"],
                          targets=["gpu", "fpga_recursive", "fpga_pipelined"])

    Bit-widths outside a target's menu are clamped to the nearest supported
    width and flagged with ``clamped=True`` plus a human-readable ``note``;
    networks a flow cannot map (e.g. ShuffleNet on the recursive FPGA) come
    back with ``supported=False`` instead of raising, so one bad combination
    does not sink a batch.
    """
    if request is None:
        request = EstimateRequest(
            models=models, targets=targets, bits=bits, devices=devices or {}
        )
    target_names = list(request.targets) or registry.target_names()
    estimated = {registry.get_target(t).name for t in target_names}
    for key in request.devices:
        # get_target fails fast on unknown names; a known-but-absent target
        # would otherwise make the override a silent no-op.
        if registry.get_target(key).name not in estimated:
            raise ValueError(
                f"devices override names target {key!r} which is not being "
                f"estimated; estimating: {sorted(estimated)}"
            )
    records: list[EstimateRecord] = []
    for model in request.models:
        arch = _resolve_spec(model)
        macs, params = arch.total_macs(), arch.total_params()
        for target_name in target_names:
            tspec = registry.get_target(target_name)
            device = tspec.resolve_device(request.devices.get(target_name))
            for requested in request.bits or (tspec.default_deploy_bits,):
                effective, clamped = tspec.clamp_bits(requested)
                outcome = tspec.estimate(arch, device, effective)
                notes = []
                if clamped:
                    notes.append(tspec.clamp_note(requested, effective))
                if outcome.note:
                    notes.append(outcome.note)
                records.append(
                    EstimateRecord(
                        model=arch.name,
                        target=tspec.name,
                        device=device.name,
                        requested_bits=requested,
                        bits=effective,
                        clamped=clamped,
                        supported=outcome.supported,
                        metric=outcome.metric,
                        value=outcome.value,
                        note="; ".join(notes),
                        macs=macs,
                        params=params,
                        extras=dict(outcome.extras),
                    )
                )
    return EstimateReport(records=records)


# ---------------------------------------------------------------------- search
@dataclass
class SearchRequest:
    """One reduced-scale co-search on the synthetic proxy task.

    ``resource_fraction=None`` uses the target's registered default (tight
    DSP budgets for the FPGA flows, unbounded for GPU).  ``retrain_epochs>0``
    additionally retrains the derived network from scratch.

    ``checkpoint_dir`` enables engine-level checkpointing: searcher state is
    snapshotted every ``checkpoint_every`` epochs.  With ``resume=True`` the
    search restarts from the newest checkpoint in that directory (if any) and
    finishes bit-identically to an uninterrupted run with the same seed;
    ``resume=True`` without a ``checkpoint_dir`` is rejected.

    ``max_rollbacks > 0`` arms the divergence guard
    (:class:`repro.resilience.DivergenceGuard`): an epoch with non-finite
    losses or parameters is rolled back to the last good checkpoint and
    replayed with both learning rates scaled by ``rollback_lr_scale``;
    interventions land in :attr:`SearchReport.interventions`, and exceeding
    the budget raises :class:`repro.resilience.DivergenceError`.  Without a
    ``checkpoint_dir`` the guard keeps its checkpoints in a private
    temporary directory.
    """

    target: str = "gpu"
    device: str | None = None
    epochs: int = 6
    blocks: int = 3
    seed: int = 0
    batch_size: int = 12
    num_classes: int = 6
    input_size: int = 12
    resource_fraction: float | None = None
    arch_start_epoch: int = 1
    retrain_epochs: int = 0
    name: str | None = None
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    resume: bool = False
    max_rollbacks: int = 0
    rollback_lr_scale: float = 0.5

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form of the request (subset echoed into reports)."""
        return {
            "target": self.target,
            "device": self.device,
            "epochs": self.epochs,
            "blocks": self.blocks,
            "seed": self.seed,
            "batch_size": self.batch_size,
            "resource_fraction": self.resource_fraction,
            "retrain_epochs": self.retrain_epochs,
            "checkpoint_dir": self.checkpoint_dir,
            "checkpoint_every": self.checkpoint_every,
            "resume": self.resume,
            "max_rollbacks": self.max_rollbacks,
            "rollback_lr_scale": self.rollback_lr_scale,
        }


@dataclass
class SearchReport:
    """Machine-readable outcome of one :func:`search` call."""

    target: str
    device: str
    spec_name: str
    result: SearchResult
    converged: bool
    train_loss_drop: float
    final_theta_perplexity: float
    retrain: TrainResult | None = None
    seed: int = 0
    #: Path of the checkpoint the run restarted from, or ``None``.
    resumed_from: str | None = None
    #: True when :func:`search_many` killed this run at the probe stage as
    #: dominated — the report then covers only the probe epochs.
    early_stopped: bool = False
    #: Divergence-guard interventions (rollback epoch, LR scaling) applied
    #: during the run; empty for a run that never diverged.
    interventions: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (what ``repro search --format json`` prints)."""
        return {
            "target": self.target,
            "device": self.device,
            "seed": self.seed,
            "spec_name": self.spec_name,
            "converged": self.converged,
            "train_loss_drop": self.train_loss_drop,
            "final_theta_perplexity": self.final_theta_perplexity,
            "resumed_from": self.resumed_from,
            "early_stopped": self.early_stopped,
            "interventions": list(self.interventions),
            "search": self.result.to_dict(),
            "retrain": self.retrain.to_dict() if self.retrain else None,
        }


def search(request: SearchRequest | None = None, **kwargs: Any) -> SearchReport:
    """Run one co-search for any registered target; returns a typed report.

    Accepts a :class:`SearchRequest` or its fields as keyword arguments::

        report = search(target="fpga_pipelined", epochs=4, blocks=3)
        json.dumps(report.to_dict())

    With ``checkpoint_dir`` set, searcher state is snapshotted every
    ``checkpoint_every`` epochs; with ``resume=True`` the run restarts from
    the newest checkpoint there (a resumed run reproduces the uninterrupted
    run's result arrays bit-identically).

    Args:
        request: A fully built :class:`SearchRequest`, or ``None`` to build
            one from ``kwargs``.
        **kwargs: :class:`SearchRequest` field overrides (ignored when
            ``request`` is given).

    Returns:
        A :class:`SearchReport`; ``report.to_dict()`` is JSON-serialisable.

    Raises:
        ValueError: For unknown targets/devices (from the registry) or
            invalid request field combinations.
    """
    if request is None:
        request = SearchRequest(**kwargs)
    if request.resume and request.checkpoint_dir is None:
        raise ValueError("resume=True needs a checkpoint_dir to resume from")
    if request.max_rollbacks < 0:
        raise ValueError(
            f"max_rollbacks must be >= 0, got {request.max_rollbacks}"
        )
    tspec = registry.get_target(request.target)
    device = tspec.resolve_device(request.device)
    space = SearchSpaceConfig.reduced(
        num_blocks=request.blocks,
        num_classes=request.num_classes,
        input_size=request.input_size,
    )
    splits = make_synthetic_task(
        SyntheticTaskConfig(
            num_classes=request.num_classes, image_size=request.input_size,
            train_per_class=16, val_per_class=8, test_per_class=8,
            seed=request.seed,
        )
    )
    fraction = (
        tspec.default_resource_fraction
        if request.resource_fraction is None
        else request.resource_fraction
    )
    config = EDDConfig(
        target=tspec.name, epochs=request.epochs, batch_size=request.batch_size,
        seed=request.seed, arch_start_epoch=request.arch_start_epoch,
        resource_fraction=fraction,
    )
    hw_model = tspec.build_model(space, config, device=device)
    searcher = EDDSearcher(space, splits, config, hw_model=hw_model)

    callbacks: list[Any] = []
    start_epoch = 0
    initial_history: list[Any] = []
    resumed_from = None
    guard: DivergenceGuard | None = None
    checkpoint_callback: CheckpointCallback | None = None
    with contextlib.ExitStack() as stack:
        checkpoint_dir: Path | None = None
        if request.checkpoint_dir is not None:
            checkpoint_dir = Path(request.checkpoint_dir)
            if request.resume:
                latest = find_latest_checkpoint(checkpoint_dir)
                if latest is not None:
                    state = restore_search_state(searcher, latest)
                    start_epoch = state.epoch
                    initial_history = state.history
                    resumed_from = str(latest)
        elif request.max_rollbacks > 0:
            # Rollback needs checkpoints to roll back *to*; without a
            # user-visible directory they live in a private tempdir.
            checkpoint_dir = Path(
                stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-rollback-")
                )
            )
        if checkpoint_dir is not None:
            checkpoint_callback = CheckpointCallback(
                searcher, checkpoint_dir,
                every=request.checkpoint_every,
                history=initial_history,
            )
            callbacks.append(checkpoint_callback)
        if request.max_rollbacks > 0:
            guard = DivergenceGuard(
                searcher, checkpoint_dir,
                callback=checkpoint_callback,
                max_rollbacks=request.max_rollbacks,
                lr_scale=request.rollback_lr_scale,
            )
            guard.prepare(start_epoch=start_epoch, history=initial_history)
        # Preemption (SIGTERM/SIGINT under an active PreemptionGuard):
        # checkpoint at the epoch boundary, then raise Preempted.  A no-op
        # when no guard is installed.
        callbacks.append(PreemptionCallback(checkpoint_callback))
        result = searcher.search(
            name=request.name or f"api-{tspec.name}",
            callbacks=callbacks,
            start_epoch=start_epoch,
            initial_history=initial_history,
            divergence_guard=guard,
        )
    summary = summarize(result.history)
    retrain = None
    if request.retrain_epochs > 0:
        retrain = train_from_spec(
            result.spec, splits, epochs=request.retrain_epochs,
            batch_size=request.batch_size, seed=request.seed,
        )
    return SearchReport(
        target=tspec.name,
        device=device.name,
        spec_name=result.spec.name,
        result=result,
        converged=summary.converged(),
        train_loss_drop=summary.train_loss_drop,
        final_theta_perplexity=summary.final_theta_perplexity,
        retrain=retrain,
        seed=request.seed,
        resumed_from=resumed_from,
        interventions=list(guard.interventions) if guard is not None else [],
    )


def _search_worker(request: SearchRequest) -> SearchReport:
    """Worker for :func:`search_many` (module-level so it pickles)."""
    return search(request)


def _request_digest(kwargs: dict[str, Any]) -> str:
    """Stable digest of the *shared* search configuration.

    Built from every :class:`SearchRequest` field except the per-run managed
    ones (``seed``, ``checkpoint_dir``) — two ``search_many`` calls whose
    shared configuration matches therefore hash identically, which is what
    keys the cross-run result cache.
    """
    template = dataclasses.asdict(SearchRequest(**kwargs))
    template.pop("seed")
    template.pop("checkpoint_dir")
    payload = json.dumps(template, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _cache_path(cache_dir: Path, digest: str, seed: int) -> Path:
    return cache_dir / f"search-{digest}-seed-{seed}.pkl"


def _load_cached_report(path: Path) -> SearchReport | None:
    """Read one cache entry; unreadable/truncated files are cache misses.

    A run killed mid-write (or an old incompatible pickle) must not poison
    every later ``search_many`` with the same configuration — the seed is
    simply searched again and the entry rewritten.
    """
    try:
        with path.open("rb") as fh:
            return pickle.load(fh)
    except (OSError, EOFError, pickle.UnpicklingError, AttributeError,
            ImportError, IndexError):
        return None


def _store_cached_report(path: Path, report: SearchReport) -> None:
    """Atomically persist one cache entry (write temp file, then rename)."""
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    with tmp.open("wb") as fh:
        pickle.dump(report, fh)
    os.replace(tmp, path)


def search_many(
    seeds: Any,
    *,
    workers: int = 1,
    objective: str = "total_loss",
    checkpoint_dir: str | None = None,
    cache_dir: str | None = None,
    early_stop_after: int | None = None,
    early_stop_keep: int = 1,
    task_timeout: float | None = None,
    retry_policy: RetryPolicy | None = None,
    **kwargs: Any,
) -> MultiSearchResult:
    """Batched multi-seed co-search sharing one configuration.

    Runs :func:`search` once per seed — fanned out over ``workers`` processes
    via :class:`repro.core.parallel.ParallelEvaluator` — and aggregates the
    per-seed reports into a :class:`MultiSearchResult` whose ``best`` run
    minimises the final-epoch ``objective``.  Because every run is fully
    determined by its seed, rankings are identical for any worker count.

    With ``checkpoint_dir`` set, each seed checkpoints into its own
    ``seed-<n>/`` subdirectory; pass ``resume=True`` (forwarded to each
    :class:`SearchRequest`) to restart every seed from its newest checkpoint.

    With ``cache_dir`` set, every finished per-seed report is persisted
    keyed on (shared-request digest, seed); a re-run with the same shared
    configuration loads those seeds from the cache instead of searching them
    again, so only new seeds cost compute.  Cached seeds are listed in the
    result's ``cached_seeds``.

    With ``early_stop_after`` set, the batch runs in two stages: every seed
    is first *probed* for that many epochs, then only the ``early_stop_keep``
    best probes (by ``objective``) are resumed from their probe checkpoints
    to the full epoch count — clearly dominated seeds are killed early.
    Because the Gumbel temperature anneal depends only on the epoch index
    and checkpoint resume is bit-identical, a survivor's final report is
    exactly what an un-probed full run of that seed would have produced.
    Dominated seeds keep their probe-stage reports, flagged
    ``early_stopped=True``, and are listed in ``early_stopped_seeds``; they
    are never selected as ``best``.

    Args:
        seeds: Iterable of integer seeds, one search per entry (duplicates
            are rejected — they would collide on checkpoint directories).
        workers: Process count for the batch (``1`` = serial in-process).
        objective: Aggregation key, one of
            :data:`repro.core.results.MULTI_SEARCH_OBJECTIVES`.
        checkpoint_dir: Parent directory for per-seed checkpoint subdirs.
        cache_dir: Cross-run result cache directory; completed seeds are
            skipped on re-run when the shared configuration is unchanged.
        early_stop_after: Probe-stage epoch count; ``None`` disables early
            stopping.  Incompatible with ``cache_dir`` and ``resume`` (a
            probe report must never be cached or resumed as if it were a
            full run).
        early_stop_keep: How many probe-stage leaders survive to the full
            epoch count (the rest are early-stopped).
        task_timeout: Optional per-seed wall-clock budget in seconds for
            the parallel fan-out; a wedged worker is killed, the pool
            rebuilt, and the seed retried within ``retry_policy``'s budget
            (see :class:`repro.core.parallel.ParallelEvaluator`).
        retry_policy: Optional :class:`RetryPolicy` granting crashed/
            failed seeds bounded retries with deterministic backoff.
            Because every seed is self-contained, retries never change
            results or rankings.
        **kwargs: Shared :class:`SearchRequest` fields (``target``,
            ``epochs``, ``blocks``, ``resume``, ...).  ``seed`` and
            ``checkpoint_dir`` are managed per run and cannot be passed here.

    Returns:
        A :class:`MultiSearchResult` (``.to_dict()`` gives one record per
        seed plus an ``aggregate`` block).

    Raises:
        ValueError: On empty/duplicate seeds, an unknown ``objective``,
            per-seed fields in ``kwargs``, or ``resume=True`` without a
            ``checkpoint_dir``.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("search_many needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"duplicate seeds in {seeds}")
    if objective not in MULTI_SEARCH_OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}, known: {MULTI_SEARCH_OBJECTIVES}"
        )
    for managed in ("seed", "checkpoint_dir"):
        if managed in kwargs:
            raise ValueError(
                f"{managed!r} is managed per run by search_many; "
                f"pass seeds=... / checkpoint_dir=... instead"
            )
    if early_stop_after is not None:
        if early_stop_after < 1:
            raise ValueError(
                f"early_stop_after must be >= 1, got {early_stop_after}"
            )
        if early_stop_keep < 1:
            raise ValueError(
                f"early_stop_keep must be >= 1, got {early_stop_keep}"
            )
        if cache_dir is not None:
            raise ValueError(
                "early_stop_after cannot be combined with cache_dir: a "
                "probe-stage report must never be cached as a full run"
            )
        if kwargs.get("resume"):
            raise ValueError(
                "early_stop_after cannot be combined with resume=True: the "
                "probe stage manages its own checkpoints"
            )
        full_epochs = int(kwargs.get("epochs", SearchRequest().epochs))
        if early_stop_after >= full_epochs:
            early_stop_after = None  # probing the whole run kills nothing
    if kwargs.get("resume") and checkpoint_dir is None:
        # Before the fan-out, where a retry policy would wrap the error.
        raise ValueError("resume=True needs a checkpoint_dir to resume from")
    start = time.perf_counter()
    evaluator = ParallelEvaluator(
        workers=workers, task_timeout=task_timeout, retry=retry_policy
    )
    if early_stop_after is not None:
        return _search_many_early_stop(
            seeds,
            workers=workers,
            objective=objective,
            checkpoint_dir=checkpoint_dir,
            probe_epochs=early_stop_after,
            keep=early_stop_keep,
            kwargs=kwargs,
            start=start,
            evaluator=evaluator,
        )
    cached: dict[int, SearchReport] = {}
    digest = ""
    if cache_dir is not None:
        digest = _request_digest(kwargs)
        cache_root = Path(cache_dir)
        for seed in seeds:
            path = _cache_path(cache_root, digest, seed)
            if path.exists():
                report = _load_cached_report(path)
                if report is not None:
                    cached[seed] = report
    pending = [seed for seed in seeds if seed not in cached]
    requests = []
    for seed in pending:
        per_seed_dir = (
            str(Path(checkpoint_dir) / f"seed-{seed}")
            if checkpoint_dir is not None else None
        )
        requests.append(
            SearchRequest(seed=seed, checkpoint_dir=per_seed_dir, **kwargs)
        )
    fresh = (
        list(evaluator.map(_search_worker, requests)) if requests else []
    )
    by_seed = dict(cached)
    by_seed.update(zip(pending, fresh))
    if cache_dir is not None:
        cache_root = Path(cache_dir)
        cache_root.mkdir(parents=True, exist_ok=True)
        for seed, report in zip(pending, fresh):
            _store_cached_report(_cache_path(cache_root, digest, seed), report)
    wall = time.perf_counter() - start
    return MultiSearchResult.from_runs(
        seeds=seeds,
        runs=[by_seed[seed] for seed in seeds],
        objective=objective,
        workers=workers,
        wall_seconds=wall,
        cached_seeds=sorted(cached),
    )


def _search_many_early_stop(
    seeds: list[int],
    *,
    workers: int,
    objective: str,
    checkpoint_dir: str | None,
    probe_epochs: int,
    keep: int,
    kwargs: dict[str, Any],
    start: float,
    evaluator: ParallelEvaluator | None = None,
) -> MultiSearchResult:
    """Two-stage :func:`search_many`: probe every seed, finish the leaders.

    Stage 1 runs every seed for ``probe_epochs`` epochs, checkpointing each
    epoch.  Stage 2 resumes the ``keep`` best probes (final-epoch
    ``objective``, NaN ranks last, ties broken by seed order) from their
    probe checkpoints to the full epoch count — bit-identical to un-probed
    full runs, since the anneal schedule depends only on the epoch index
    and resume is exact.  Dominated seeds keep their probe reports, flagged
    ``early_stopped=True``.
    """
    import contextlib
    import tempfile

    if evaluator is None:
        evaluator = ParallelEvaluator(workers=workers)
    context = (
        contextlib.nullcontext(checkpoint_dir)
        if checkpoint_dir is not None
        else tempfile.TemporaryDirectory(prefix="repro-earlystop-")
    )
    with context as root:
        def seed_dir(seed: int) -> str:
            return str(Path(root) / f"seed-{seed}")

        probe_kwargs = dict(kwargs)
        probe_kwargs["epochs"] = probe_epochs
        probe_kwargs["retrain_epochs"] = 0  # probes never retrain
        probe_kwargs["checkpoint_every"] = 1  # snapshot at the probe end
        probe_kwargs.pop("resume", None)
        probe_requests = [
            SearchRequest(seed=seed, checkpoint_dir=seed_dir(seed),
                          **probe_kwargs)
            for seed in seeds
        ]
        probes = list(evaluator.map(_search_worker, probe_requests))
        ranked = []
        for report in probes:
            history = report.result.history
            value = (
                float(getattr(history[-1], objective))
                if history else float("nan")
            )
            ranked.append(float("inf") if value != value else value)
        order = sorted(range(len(seeds)), key=lambda i: (ranked[i], i))
        survivor_indices = sorted(order[:keep])
        full_kwargs = {
            key: value for key, value in kwargs.items() if key != "resume"
        }
        full_requests = [
            SearchRequest(seed=seeds[index], checkpoint_dir=seed_dir(seeds[index]),
                          resume=True, **full_kwargs)
            for index in survivor_indices
        ]
        finished = list(evaluator.map(_search_worker, full_requests))
    by_index = dict(zip(survivor_indices, finished))
    runs = []
    early_stopped_seeds = []
    for index, probe in enumerate(probes):
        if index in by_index:
            runs.append(by_index[index])
        else:
            probe.early_stopped = True
            early_stopped_seeds.append(seeds[index])
            runs.append(probe)
    return MultiSearchResult.from_runs(
        seeds=seeds,
        runs=runs,
        objective=objective,
        workers=workers,
        wall_seconds=time.perf_counter() - start,
        early_stopped_seeds=early_stopped_seeds,
    )


# ----------------------------------------------------------------- deploy plan
@dataclass
class DeployPlan:
    """A rendered per-layer implementation plan plus its headline metric."""

    model: str
    target: str
    device: str
    requested_bits: int
    bits: int
    clamped: bool
    metric: str
    value: float | None
    text: str
    note: str = ""

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form of the plan (includes the rendered text)."""
        return {
            "model": self.model,
            "target": self.target,
            "device": self.device,
            "requested_bits": self.requested_bits,
            "bits": self.bits,
            "clamped": self.clamped,
            "metric": self.metric,
            "value": self.value,
            "note": self.note,
            "text": self.text,
        }


def deploy_plan(
    model: str | ArchSpec,
    target: str,
    device: str | None = None,
    bits: int | None = None,
) -> DeployPlan:
    """Per-layer deployment plan of ``model`` on ``target``.

    Raises ``ValueError`` for unknown models/targets/devices, and for
    targets without a plan renderer (currently ``accel``).
    """
    arch = _resolve_spec(model)
    tspec = registry.get_target(target)
    if tspec.plan_flow is None:
        plannable = [
            n for n, s in registry.TARGETS.items() if s.plan_flow is not None
        ]
        raise ValueError(
            f"target {tspec.name!r} has no deployment-plan renderer; "
            f"plans exist for: {plannable}"
        )
    dev = tspec.resolve_device(device)
    requested = tspec.default_deploy_bits if bits is None else bits
    effective, clamped = tspec.clamp_bits(requested)
    note = tspec.clamp_note(requested, effective) if clamped else ""
    outcome = tspec.estimate(arch, dev, effective)
    return DeployPlan(
        model=arch.name,
        target=tspec.name,
        device=dev.name,
        requested_bits=requested,
        bits=effective,
        clamped=clamped,
        metric=outcome.metric,
        value=outcome.value,
        text=_render_plan(arch, tspec.plan_flow, dev, effective),
        note=note,
    )


# -------------------------------------------------------------------- runtime
def _runtime_spec(
    model: str | ArchSpec,
    width_mult: float | None,
    input_size: int | None,
    num_classes: int | None,
) -> ArchSpec:
    """Resolve and optionally rescale a model for the compiled runtime."""
    arch = _resolve_spec(model)
    if width_mult is not None or input_size is not None or num_classes is not None:
        arch = scale_spec(
            arch,
            width_mult=width_mult if width_mult is not None else 1.0,
            input_size=input_size,
            num_classes=num_classes,
        )
    return arch


def compile_model(
    model: str | ArchSpec,
    *,
    bits: int | None = None,
    seed: int | None = 0,
    width_mult: float | None = None,
    input_size: int | None = None,
    num_classes: int | None = None,
):
    """Compile a model into a ready-to-run inference :class:`Engine`.

    ``model`` is a zoo name or :class:`ArchSpec`; ``width_mult`` /
    ``input_size`` / ``num_classes`` optionally rescale it first (the same
    reduced-scale knobs the proxy task uses).  The spec is instantiated with
    ``seed`` weights, lowered into a static plan (BatchNorm folded,
    ``bits``-bit fake-quantisation baked) and wrapped in an arena-backed
    executor — see :mod:`repro.runtime`.

    Returns:
        A :class:`repro.runtime.engine.Engine`; ``engine.run(batch)``
        numerically matches ``BuiltNetwork.forward`` in eval mode.
    """
    from repro.runtime import Engine, compile_spec

    arch = _runtime_spec(model, width_mult, input_size, num_classes)
    return Engine(compile_spec(arch, bits=bits, seed=seed))


def serve_fleet(
    models: dict[str, str | ArchSpec] | list[str],
    *,
    workers: int = 2,
    worker_kind: str = "thread",
    bits: int | None = None,
    seed: int | None = 0,
    width_mult: float | None = None,
    input_size: int | None = None,
    num_classes: int | None = None,
    max_batch: int = 8,
    max_queue: int = 64,
):
    """Compile ``models`` and stand up a multi-worker serving fleet.

    One :class:`repro.runtime.fleet.ServingFleet` hosts every compiled plan
    behind ``submit(model, x)`` — a one-model list is the single-model
    server.  ``workers`` workers share each plan's baked weights through a
    single memmap, coalesce concurrent requests into per-model batches,
    reject on a bounded queue (``max_queue``), and shed deadline-expired
    requests before spending compute on them.

    Args:
        models: Either a mapping of serving name to zoo name/:class:`ArchSpec`,
            or a list of zoo names (each served under its own name).
        workers: Worker count.
        worker_kind: ``"thread"`` (in-process workers; overlap bounded by
            the GIL) or ``"process"`` (child processes cold-started from
            the shared weight memmaps: true core scaling, crash detection
            with ``WorkerCrashed``, automatic respawn).
        bits, seed, width_mult, input_size, num_classes: Compilation knobs,
            applied to every model (as in :func:`compile_model`).
        max_batch: Largest coalesced batch per worker pull.
        max_queue: Per-model admission bound (then ``QueueFull``).

    Use as a context manager so the workers are torn down::

        with api.serve_fleet(["EDD-CNN", "MobileNet-V2"], workers=4,
                             worker_kind="process",
                             width_mult=0.1, input_size=16) as fleet:
            logits = fleet.infer("EDD-CNN", x)
            print(fleet.stats()["fleet"])
    """
    from repro.runtime import compile_spec
    from repro.runtime.fleet import ServingFleet

    named = models if isinstance(models, dict) else {name: name for name in models}
    if not named:
        raise ValueError("serve_fleet needs at least one model")
    plans = {
        name: compile_spec(
            _runtime_spec(model, width_mult, input_size, num_classes),
            bits=bits, seed=seed,
        )
        for name, model in named.items()
    }
    return ServingFleet(
        plans, workers=workers, max_batch=max_batch, max_queue=max_queue,
        kind=worker_kind,
    )


@contextlib.contextmanager
def trace_session(chrome: str | Path | None = None,
                  jsonl: str | Path | None = None):
    """Trace everything inside the ``with`` block; write the files on exit.

    Installs a fresh enabled :class:`repro.obs.Tracer` as the process-global
    tracer, so every instrumented layer — :meth:`Engine.run
    <repro.runtime.engine.Engine.run>`, the co-search epoch loop and the
    serving fleet's request lifecycle — records spans into it.  On exit the
    previous tracer is restored and the collected events are written to
    ``chrome`` (Chrome trace-event JSON, loadable in ``chrome://tracing`` /
    Perfetto) and/or ``jsonl`` (one event per line), whichever are given.

    Yields the live tracer, so callers can add their own spans or counters::

        with api.trace_session(chrome="trace.json") as tracer:
            with tracer.span("my.block"):
                engine.run(x)
    """
    from repro.obs import (
        Tracer,
        set_tracer,
        write_chrome_trace,
        write_jsonl_trace,
    )

    tracer = Tracer(enabled=True)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
        events = tracer.events()
        if chrome is not None:
            write_chrome_trace(events, chrome)
        if jsonl is not None:
            write_jsonl_trace(events, jsonl)
