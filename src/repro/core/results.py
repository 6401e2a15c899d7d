"""Result records produced by the co-search and the trainer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.nas.arch_spec import ArchSpec


@dataclass
class EpochRecord:
    """Per-epoch telemetry of the bilevel search."""

    epoch: int
    train_loss: float
    val_acc_loss: float
    perf_loss: float
    resource: float
    total_loss: float
    temperature: float
    theta_perplexity: float

    def to_dict(self) -> dict[str, float]:
        """Plain-JSON form of this epoch's telemetry."""
        return {
            "epoch": self.epoch,
            "train_loss": self.train_loss,
            "val_acc_loss": self.val_acc_loss,
            "perf_loss": self.perf_loss,
            "resource": self.resource,
            "total_loss": self.total_loss,
            "temperature": self.temperature,
            "theta_perplexity": self.theta_perplexity,
        }


@dataclass
class SearchResult:
    """Everything a co-search run produces."""

    spec: ArchSpec
    history: list[EpochRecord]
    theta: np.ndarray
    phi: np.ndarray
    parallel_factors: list[int] | None
    search_seconds: float
    config: Any = None
    #: Wall-clock seconds per engine phase (anneal/weight/arch/derive), from
    #: :class:`repro.core.engine.SearchEngine`.
    phase_seconds: dict[str, float] | None = None

    @property
    def op_labels(self) -> list[str]:
        """Human-readable label of the chosen op per block."""
        return list(self.spec.metadata.get("op_labels", []))

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form of the full search outcome."""
        return {
            "spec": self.spec.summary(),
            "op_labels": self.op_labels,
            "block_bits": self.spec.metadata.get("block_bits"),
            "parallel_factors": self.parallel_factors,
            "history": [r.to_dict() for r in self.history],
            "search_seconds": self.search_seconds,
            "phase_seconds": self.phase_seconds,
        }


#: Objective keys accepted by :meth:`MultiSearchResult` aggregation — each
#: names an :class:`EpochRecord` field whose *final-epoch* value is minimised.
MULTI_SEARCH_OBJECTIVES = ("total_loss", "val_acc_loss", "perf_loss", "resource")


@dataclass
class MultiSearchResult:
    """Outcome of a batched multi-seed search (:func:`repro.api.search_many`).

    Holds one per-seed run report plus the aggregate selection: the run whose
    final-epoch ``objective`` value is lowest.  ``runs[i]`` corresponds to
    ``seeds[i]``; each run is a :class:`repro.api.SearchReport` (anything with
    a ``result`` holding a :class:`SearchResult` and a ``to_dict()`` works).

    Attributes:
        seeds: The seed of each run, in execution order.
        runs: Per-seed reports, aligned with ``seeds``.
        objective: The :class:`EpochRecord` field used for selection.
        best_index: Index into ``runs``/``seeds`` of the winning run.
        workers: Worker-process count the batch ran with (1 = serial).
        wall_seconds: End-to-end wall clock for the whole batch.
        early_stopped_seeds: Seeds whose runs were killed at the probe stage
            as dominated (see :func:`repro.api.search_many`'s
            ``early_stop_after``); their reports cover only the probe epochs
            and are never selected as ``best``.
    """

    seeds: list[int]
    runs: list[Any]
    objective: str
    best_index: int
    workers: int = 1
    wall_seconds: float = 0.0
    early_stopped_seeds: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.seeds) != len(self.runs):
            raise ValueError(
                f"{len(self.seeds)} seeds but {len(self.runs)} runs"
            )
        if not self.runs:
            raise ValueError("MultiSearchResult needs at least one run")
        if not 0 <= self.best_index < len(self.runs):
            raise ValueError(f"best_index {self.best_index} out of range")

    @classmethod
    def from_runs(
        cls,
        seeds: list[int],
        runs: list[Any],
        objective: str,
        workers: int = 1,
        wall_seconds: float = 0.0,
        early_stopped_seeds: list[int] | tuple[int, ...] = (),
    ) -> "MultiSearchResult":
        """Build the result with the canonical NaN-aware best selection.

        The winning run minimises the final-epoch ``objective``; runs whose
        objective is NaN (e.g. ``total_loss`` before the arch phase starts)
        or whose history is empty can never beat a real value, and neither
        can runs whose seed is in ``early_stopped_seeds`` (their histories
        cover only the probe epochs — comparing them against full runs would
        be apples-to-oranges).  This is the single selection rule —
        :func:`repro.api.search_many` and any custom driver construct
        through here so ``best_index`` always agrees with
        :meth:`objective_values`.

        Raises:
            ValueError: If ``objective`` is not in
                :data:`MULTI_SEARCH_OBJECTIVES` or seeds/runs mismatch.
        """
        if objective not in MULTI_SEARCH_OBJECTIVES:
            raise ValueError(
                f"unknown objective {objective!r}, known: {MULTI_SEARCH_OBJECTIVES}"
            )
        dominated = set(early_stopped_seeds)
        ranked = []
        for seed, run in zip(seeds, runs):
            history = run.result.history
            value = float(getattr(history[-1], objective)) if history else float("nan")
            if seed in dominated or value != value:
                value = float("inf")
            ranked.append(value)
        best_index = min(range(len(runs)), key=ranked.__getitem__) if runs else 0
        return cls(
            seeds=seeds, runs=runs, objective=objective,
            best_index=best_index, workers=workers, wall_seconds=wall_seconds,
            early_stopped_seeds=sorted(dominated),
        )

    @property
    def best(self) -> Any:
        """The winning per-seed report."""
        return self.runs[self.best_index]

    @property
    def best_seed(self) -> int:
        """Seed of the winning run."""
        return self.seeds[self.best_index]

    def objective_values(self) -> list[float]:
        """Final-epoch objective value per run (``nan`` if no history)."""
        values = []
        for run in self.runs:
            history = run.result.history
            values.append(
                float(getattr(history[-1], self.objective))
                if history else float("nan")
            )
        return values

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form: one record per seed plus the aggregate."""
        values = self.objective_values()
        return {
            "seeds": list(self.seeds),
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "early_stopped_seeds": list(self.early_stopped_seeds),
            "runs": [run.to_dict() for run in self.runs],
            "aggregate": {
                "objective": self.objective,
                "objective_values": values,
                "best_index": self.best_index,
                "best_seed": self.best_seed,
                "best_objective_value": values[self.best_index],
                "best_spec_name": self.best.result.spec.name,
            },
        }


@dataclass
class TrainResult:
    """Metrics from training a derived/zoo network from scratch."""

    name: str
    top1_error: float
    top5_error: float
    train_losses: list[float] = field(default_factory=list)
    epochs: int = 0
    weight_bits: int | None = None

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form of the training metrics."""
        return {
            "name": self.name,
            "top1_error": self.top1_error,
            "top5_error": self.top5_error,
            "epochs": self.epochs,
            "weight_bits": self.weight_bits,
            "final_train_loss": self.train_losses[-1] if self.train_losses else None,
        }
