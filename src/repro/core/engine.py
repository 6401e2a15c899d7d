"""Reusable epoch-driven search/training engine.

Every training-style loop in the repo — the bilevel co-search, the
architecture-only baselines and plain from-scratch training — is the same
skeleton: *anneal* a schedule, run *weight* steps over the training loader,
optionally run *arch* steps over the validation loader, record an epoch
summary, and finally *derive* a result.  :class:`SearchEngine` owns that
skeleton exactly once; callers plug in phase callbacks and receive an
:class:`EngineRun` with the epoch history and wall-clock accounting per
phase.

Drivers
-------
* :meth:`repro.core.cosearch.EDDSearcher.search` — full co-search (all four
  phases, with the searcher's hard-sample weight step and soft-sample,
  first-order arch step).
* :class:`repro.baselines.fixed_impl_nas.FixedImplementationNAS` — inherits
  the searcher's engine wiring.
* :func:`repro.core.trainer.train_from_spec` — weight phase only, with the
  LR schedule as the (end-of-epoch) anneal hook; the random-search baseline
  drives the engine through it for every candidate it scores.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.results import EpochRecord
from repro.obs.tracer import get_tracer

PHASES = ("anneal", "weight", "arch", "derive")

Batch = tuple[np.ndarray, np.ndarray]


@dataclass
class EngineRun:
    """Outcome of :meth:`SearchEngine.run`."""

    history: list[EpochRecord]
    phase_seconds: dict[str, float]
    phase_calls: dict[str, int]
    wall_seconds: float
    derived: Any = None


WeightStep = Callable[[np.ndarray, np.ndarray], float]
ArchStep = Callable[[np.ndarray, np.ndarray], dict[str, float]]
EpochCallback = Callable[[EpochRecord], None]


class SearchEngine:
    """Drives epochs of ``anneal -> weight -> arch`` plus a final ``derive``.

    Parameters
    ----------
    epochs:
        Number of epochs to run (0 is allowed: no steps, straight to derive).
    weight_step:
        ``(images, labels) -> loss`` — the inner-level update.
    arch_step:
        Optional ``(images, labels) -> stats dict`` run over the
        validation loader from ``arch_start_epoch`` on; the stats dict must
        contain ``acc_loss``/``perf_loss``/``resource``/``total_loss``.
    anneal:
        Optional ``epoch -> scalar`` schedule hook (Gumbel temperature for
        the co-search, learning rate for plain training); its return value is
        recorded as the epoch's ``temperature``.  ``anneal_at`` selects
        whether it fires before the epoch's steps (``"start"``, the
        temperature-annealing convention) or after (``"end"``, the LR-decay
        convention).
    derive:
        Optional zero-argument finaliser whose return value lands in
        :attr:`EngineRun.derived`.
    perplexity_fn:
        Optional probe recorded as ``theta_perplexity`` per epoch.
    callbacks:
        Called with every completed :class:`EpochRecord` (logging, live
        trajectory plots, checkpoint triggers, ...).
    divergence_guard:
        Optional recovery policy (see :class:`repro.resilience.
        DivergenceGuard`, or any object with the same two methods).  After
        each epoch the engine calls ``check(record, arch_ran=...)``; a
        non-``None`` reason means the epoch went non-finite, and the
        engine then calls ``recover(epoch, reason)`` — which restores
        rolled-back state and returns the epoch index to resume from (or
        raises a typed error once its budget is spent).  The diverged
        record is discarded, history is truncated to the resume point and
        the loop replays from there; callbacks never see diverged epochs.
    """

    def __init__(
        self,
        *,
        epochs: int,
        weight_step: WeightStep,
        arch_step: ArchStep | None = None,
        arch_start_epoch: int = 0,
        anneal: Callable[[int], float] | None = None,
        anneal_at: str = "start",
        derive: Callable[[], Any] | None = None,
        perplexity_fn: Callable[[], float] | None = None,
        callbacks: Sequence[EpochCallback] = (),
        divergence_guard: Any = None,
    ) -> None:
        if epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {epochs}")
        if anneal_at not in ("start", "end"):
            raise ValueError(f"anneal_at must be 'start' or 'end', got {anneal_at!r}")
        self.epochs = epochs
        self.weight_step = weight_step
        self.arch_step = arch_step
        self.arch_start_epoch = arch_start_epoch
        self.anneal = anneal
        self.anneal_at = anneal_at
        self.derive = derive
        self.perplexity_fn = perplexity_fn
        self.callbacks = list(callbacks)
        self.divergence_guard = divergence_guard
        self.phase_seconds: dict[str, float] = dict.fromkeys(PHASES, 0.0)
        self.phase_calls: dict[str, int] = dict.fromkeys(PHASES, 0)

    # -- timing ----------------------------------------------------------------
    def _timed(self, phase: str, fn: Callable[[], Any]) -> Any:
        tracer = get_tracer()
        start = time.perf_counter()
        try:
            if tracer.enabled:
                with tracer.span(f"search.{phase}", cat="search"):
                    return fn()
            return fn()
        finally:
            self.phase_seconds[phase] += time.perf_counter() - start
            self.phase_calls[phase] += 1

    # -- main loop -------------------------------------------------------------
    def run(
        self,
        train_loader: Iterable[Batch],
        val_loader: Iterable[Batch] | None = None,
        *,
        start_epoch: int = 0,
        initial_history: Sequence[EpochRecord] = (),
    ) -> EngineRun:
        """Run epochs ``start_epoch .. epochs-1`` plus derive; returns the record.

        Args:
            train_loader: Batch iterable consumed once per epoch (weight phase).
            val_loader: Optional batch iterable for the arch phase.
            start_epoch: First epoch index to execute.  Non-zero values resume
                a checkpointed run: the caller must have restored all mutable
                state (weights, optimiser moments, RNG streams) to exactly what
                it was after epoch ``start_epoch - 1`` completed — see
                :class:`repro.core.checkpoint.CheckpointCallback`.
            initial_history: Epoch records of the already-completed epochs, so
                the returned :class:`EngineRun` covers the full search even
                after a resume.  Callbacks fire only for newly run epochs.

        Returns:
            :class:`EngineRun` with the (prefixed) history, per-phase timing
            for this call only, and the derive phase's return value.

        Raises:
            ValueError: If ``start_epoch`` is outside ``[0, epochs]`` or does
                not line up with ``len(initial_history)``.
        """
        if not 0 <= start_epoch <= self.epochs:
            raise ValueError(
                f"start_epoch must be in [0, {self.epochs}], got {start_epoch}"
            )
        if initial_history and len(initial_history) != start_epoch:
            raise ValueError(
                f"initial_history has {len(initial_history)} records but "
                f"start_epoch is {start_epoch}"
            )
        start = time.perf_counter()
        # Fresh accounting per run: an engine may be re-run (e.g. resumed),
        # and the returned telemetry must cover this run only.
        self.phase_seconds = dict.fromkeys(PHASES, 0.0)
        self.phase_calls = dict.fromkeys(PHASES, 0)
        history: list[EpochRecord] = list(initial_history)
        # A while-loop rather than range(): the divergence guard may
        # roll the epoch counter *backwards* to replay from the last
        # good checkpoint.
        epoch = start_epoch
        while epoch < self.epochs:
            tracer = get_tracer()
            epoch_start = tracer.clock() if tracer.enabled else 0.0
            temperature = float("nan")
            if self.anneal is not None and self.anneal_at == "start":
                temperature = float(
                    self._timed("anneal", lambda: self.anneal(epoch))
                )

            # Stream the loader: one batch at a time, never an epoch of data.
            train_losses = self._timed(
                "weight",
                lambda: [self.weight_step(x, y) for x, y in train_loader],
            )

            arch_stats: list[dict[str, float]] = []
            if (
                self.arch_step is not None
                and val_loader is not None
                and epoch >= self.arch_start_epoch
            ):
                arch_stats = self._timed(
                    "arch",
                    lambda: [self.arch_step(x, y) for x, y in val_loader],
                )

            if self.anneal is not None and self.anneal_at == "end":
                temperature = float(
                    self._timed("anneal", lambda: self.anneal(epoch))
                )

            def _mean(key: str) -> float:
                if not arch_stats:
                    return float("nan")
                return float(np.mean([s[key] for s in arch_stats]))

            record = EpochRecord(
                epoch=epoch,
                train_loss=float(np.mean(train_losses)) if train_losses else float("nan"),
                val_acc_loss=_mean("acc_loss"),
                perf_loss=_mean("perf_loss"),
                resource=_mean("resource"),
                total_loss=_mean("total_loss"),
                temperature=temperature,
                theta_perplexity=(
                    float(self.perplexity_fn())
                    if self.perplexity_fn is not None
                    else float("nan")
                ),
            )
            if self.divergence_guard is not None:
                reason = self.divergence_guard.check(
                    record, arch_ran=bool(arch_stats)
                )
                if reason is not None:
                    # Diverged: drop the poisoned record, restore from
                    # the last good checkpoint and replay.  recover()
                    # raises once its rollback budget is spent.
                    resume_epoch = int(
                        self.divergence_guard.recover(epoch, reason)
                    )
                    del history[resume_epoch:]
                    if tracer.enabled:
                        tracer.add_span(
                            "search.rollback", epoch_start,
                            tracer.clock() - epoch_start, cat="search",
                            args={"epoch": epoch, "reason": reason,
                                  "resume_epoch": resume_epoch},
                        )
                    epoch = resume_epoch
                    continue

            history.append(record)
            if tracer.enabled:
                tracer.add_span(
                    "search.epoch", epoch_start,
                    tracer.clock() - epoch_start, cat="search",
                    args={"epoch": epoch},
                )
                # Counters skip non-finite values (pre-arch epochs report
                # NaN losses) inside Tracer.counter.
                tracer.counter("search.train_loss", record.train_loss,
                               cat="search")
                tracer.counter("search.total_loss", record.total_loss,
                               cat="search")
                tracer.counter("search.temperature", record.temperature,
                               cat="search")
            for callback in self.callbacks:
                callback(record)
            epoch += 1

        derived = None
        if self.derive is not None:
            derived = self._timed("derive", self.derive)
        return EngineRun(
            history=history,
            phase_seconds=dict(self.phase_seconds),
            phase_calls=dict(self.phase_calls),
            wall_seconds=time.perf_counter() - start,
            derived=derived,
        )
