"""Divergence detection and checkpoint rollback for the search engine.

A bilevel search that goes non-finite at epoch 47 should not print an NaN
report after burning the whole budget — it should *roll back* to the last
good checkpoint and retry with a deterministic intervention.  The guard
implements the engine's recovery protocol:

* :meth:`DivergenceGuard.check` — called by ``SearchEngine`` after every
  epoch with the fresh :class:`~repro.core.results.EpochRecord`; returns a
  reason string when the train loss, total (bilevel) loss, or any
  supernet parameter has gone non-finite.
* :meth:`DivergenceGuard.recover` — restores the searcher from the latest
  *verified* checkpoint (corrupt files are skipped by
  ``find_latest_checkpoint``), scales the learning rates that were in
  effect before the restore down by ``lr_scale`` (the recorded
  intervention; repeated rollbacks compound), and returns the epoch to
  resume from.  The engine truncates its history and replays from there —
  deterministically, because the checkpoint restores the RNG streams and
  the only delta is the smaller LR.  Later checkpoints store the scaled
  rates, so a resume from one continues at them.
* A ``max_rollbacks`` budget: persistent divergence raises a typed
  :class:`~repro.resilience.errors.DivergenceError` carrying every
  intervention tried, instead of looping forever.

Interventions are plain dicts (epoch, reason, rollback target, LR factor
and resulting LRs) surfaced as ``SearchReport.interventions`` so a
recovered run *says so* in its artefact.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.obs import get_tracer
from repro.resilience.errors import DivergenceError
from repro.utils.log import get_logger

__all__ = ["DivergenceGuard"]

logger = get_logger("resilience")


class DivergenceGuard:
    """Rollback-and-retry recovery policy for ``SearchEngine``.

    ``searcher`` is the :class:`~repro.core.cosearch.EDDSearcher` whose
    state the checkpoints capture; ``directory`` holds the ``ckpt-epoch-*``
    files rolled back to.  Call :meth:`prepare` before the run so a
    baseline checkpoint exists even if divergence hits in epoch 0.
    ``callback`` is the run's :class:`~repro.core.checkpoint.
    CheckpointCallback` (if any): its internal history is rewound on
    rollback so post-recovery saves stay consistent.
    """

    def __init__(
        self,
        searcher,
        directory,
        *,
        callback=None,
        max_rollbacks: int = 2,
        lr_scale: float = 0.5,
        prefix: str = "ckpt",
        check_params: bool = True,
    ) -> None:
        if max_rollbacks < 0:
            raise ValueError(f"max_rollbacks must be >= 0, got {max_rollbacks}")
        if not 0.0 < lr_scale < 1.0:
            raise ValueError(f"lr_scale must be in (0, 1), got {lr_scale}")
        self.searcher = searcher
        self.directory = Path(directory)
        self.callback = callback
        self.max_rollbacks = max_rollbacks
        self.lr_scale = lr_scale
        self.prefix = prefix
        self.check_params = check_params
        #: Rollbacks performed so far.
        self.rollbacks = 0
        #: One dict per intervention, in order — mirrored into
        #: ``SearchReport.interventions``.
        self.interventions: list[dict] = []

    def prepare(self, *, start_epoch: int = 0, history: Sequence = ()) -> None:
        """Ensure a baseline checkpoint exists to roll back to.

        No-op when the directory already holds a verified checkpoint
        (e.g. a resumed run); otherwise saves the pristine pre-search
        state as epoch ``start_epoch``.
        """
        from repro.core import checkpoint as ckpt  # lazy: avoids import cycle

        self.directory.mkdir(parents=True, exist_ok=True)
        if ckpt.find_latest_checkpoint(self.directory, prefix=self.prefix) is not None:
            return
        path = ckpt.checkpoint_path(self.directory, start_epoch, prefix=self.prefix)
        ckpt.save_checkpoint(
            self.searcher, path, epoch=start_epoch, history=history
        )

    def check(self, record, arch_ran: bool = True) -> str | None:
        """Return a divergence reason for ``record``, or ``None`` if healthy.

        ``arch_ran`` distinguishes a genuinely non-finite bilevel loss
        from the benign NaN placeholder of warm-up epochs that skipped the
        arch phase.
        """
        if not math.isfinite(record.train_loss):
            return f"non-finite train loss ({record.train_loss})"
        if arch_ran and not math.isfinite(record.total_loss):
            return f"non-finite total loss ({record.total_loss})"
        if self.check_params:
            for name, param in self.searcher.supernet.named_parameters():
                if not np.all(np.isfinite(param.data)):
                    return f"non-finite values in parameter {name}"
        return None

    def recover(self, epoch: int, reason: str) -> int:
        """Roll back to the last good checkpoint; return the resume epoch.

        Raises :class:`DivergenceError` when the rollback budget is
        exhausted or no verified checkpoint survives to roll back to.
        """
        from repro.core import checkpoint as ckpt  # lazy: avoids import cycle

        self.rollbacks += 1
        if self.rollbacks > self.max_rollbacks:
            raise DivergenceError(
                reason,
                epoch=epoch,
                rollbacks=self.rollbacks - 1,
                interventions=self.interventions,
            )
        latest = ckpt.find_latest_checkpoint(self.directory, prefix=self.prefix)
        if latest is None:
            raise DivergenceError(
                f"{reason}; no verified checkpoint to roll back to",
                epoch=epoch,
                rollbacks=self.rollbacks - 1,
                interventions=self.interventions,
            )
        # The restore brings back the rates saved with the checkpoint; scale
        # the rates in effect, so rollbacks to one checkpoint compound.
        lr_weights = self.searcher.weight_optimizer.lr
        lr_arch = self.searcher.arch_optimizer.lr
        state = ckpt.restore_search_state(self.searcher, latest)
        self.searcher.weight_optimizer.lr = lr_weights * self.lr_scale
        self.searcher.arch_optimizer.lr = lr_arch * self.lr_scale
        intervention = {
            "epoch": epoch,
            "reason": reason,
            "rollback_to": state.epoch,
            "action": "lr_scale",
            "factor": self.lr_scale,
            "lr_weights": self.searcher.weight_optimizer.lr,
            "lr_arch": self.searcher.arch_optimizer.lr,
        }
        self.interventions.append(intervention)
        if self.callback is not None:
            self.callback.rollback(state)
        logger.warning(
            "divergence at epoch %d (%s): rolled back to epoch %d, "
            "LRs scaled by %g (rollback %d/%d)",
            epoch,
            reason,
            state.epoch,
            self.lr_scale,
            self.rollbacks,
            self.max_rollbacks,
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("search.rollbacks", float(self.rollbacks), cat="search")
        return state.epoch
