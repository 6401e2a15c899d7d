"""Checkpoint / resume for long co-search runs.

The paper's searches run 12 GPU-hours; a production release must survive
interruption.  A checkpoint captures *everything* the bilevel loop needs to
continue bit-exactly: supernet weights and buffers, Theta/Phi, the device
model's implementation parameters, both optimisers' moment buffers, the
Gumbel sampler's RNG stream, both data-loader shuffle streams, the epoch
counter and the per-epoch history so far.  A search resumed from epoch ``k``
therefore produces the same final :class:`~repro.core.results.SearchResult`
arrays as the uninterrupted run (``tests/test_core_checkpoint.py`` asserts
exact equality).

Format: a single ``.npz`` (version 4).  Saves are **durable**: the payload
is written to a temp file in the same directory, fsynced, and atomically
``os.replace``d into place, so a ``kill -9`` at any instant leaves either
the old checkpoint or the new one — never a half-written corpse shadowing
good state.  Each file embeds a SHA-256 content checksum
(``meta::checksum``); :func:`verify_checkpoint`/:func:`load_checkpoint`
raise a typed :class:`~repro.resilience.errors.CorruptCheckpoint` on
truncation or bit-rot, and :func:`find_latest_checkpoint` skips corrupt
files (with a warning) and falls back to the previous good epoch.
Version 4 names supernet weights after the network units the supernet is
built from (``block0_op0.expand.bn.gamma``, ``classifier.linear.weight``);
older files still verify, but :func:`load_checkpoint` rejects them, and
since an old format is not corruption they are never pruned.

Typical use goes through :func:`repro.api.search` (``checkpoint_dir=...`` /
``resume=True``) or the CLI's ``repro search --checkpoint-dir ... --resume``;
the pieces here are the building blocks:

* :class:`CheckpointCallback` — a :class:`~repro.core.engine.SearchEngine`
  epoch callback that snapshots the searcher every N epochs;
* :func:`restore_search_state` — rehydrate a searcher and get the epoch /
  history needed to call ``search(start_epoch=..., initial_history=...)``;
* :meth:`repro.core.cosearch.EDDSearcher.resume` — the one-call wrapper.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.results import EpochRecord
from repro.resilience.errors import CorruptCheckpoint
from repro.utils.log import get_logger
from repro.utils.rng import capture_rng_state, restore_rng_state

logger = get_logger("checkpoint")

if TYPE_CHECKING:  # import cycle: cosearch drives the engine that calls us
    from repro.core.cosearch import EDDSearcher

_PREFIX_WEIGHTS = "w::"
_PREFIX_BUFFERS = "buf::"
_PREFIX_IMPL = "impl::"
_PREFIX_VEL = "vel::"
_PREFIX_ADAM_M = "adam_m::"
_PREFIX_ADAM_V = "adam_v::"

#: Column order of the ``hist::records`` array (one row per epoch).
EPOCH_RECORD_FIELDS = (
    "epoch",
    "train_loss",
    "val_acc_loss",
    "perf_loss",
    "resource",
    "total_loss",
    "temperature",
    "theta_perplexity",
)

CHECKPOINT_FORMAT_VERSION = 4

_CHECKSUM_KEY = "meta::checksum"


def _content_checksum(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """SHA-256 over every array's name, dtype, shape and bytes (sorted by name)."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(arr.dtype.str.encode("ascii"))
        digest.update(repr(arr.shape).encode("ascii"))
        digest.update(np.ascontiguousarray(arr).tobytes())
    return np.frombuffer(digest.digest(), dtype=np.uint8).copy()


def _history_to_array(history: list[EpochRecord]) -> np.ndarray:
    rows = [
        [float(getattr(record, name)) for name in EPOCH_RECORD_FIELDS]
        for record in history
    ]
    return np.asarray(rows, dtype=np.float64).reshape(len(history), len(EPOCH_RECORD_FIELDS))


def _history_from_array(rows: np.ndarray) -> list[EpochRecord]:
    records = []
    for row in np.atleast_2d(rows):
        values = dict(zip(EPOCH_RECORD_FIELDS, (float(v) for v in row)))
        values["epoch"] = int(values["epoch"])
        records.append(EpochRecord(**values))
    return records


def save_checkpoint(
    searcher: EDDSearcher,
    path: str | Path,
    epoch: int = 0,
    history: list[EpochRecord] | tuple[EpochRecord, ...] = (),
) -> Path:
    """Serialise the searcher's complete mutable state to ``path`` (.npz).

    Args:
        searcher: The :class:`~repro.core.cosearch.EDDSearcher` to snapshot.
        epoch: Number of *completed* epochs — the epoch index a resumed run
            starts from.
        history: Epoch records of the completed epochs; stored so a resumed
            run's final history covers the whole search.

    Returns:
        The written path (parent directories are created as needed).

    The write is atomic: the payload goes to a same-directory temp file
    (fsynced), then ``os.replace`` publishes it — a crash at any instant
    leaves either the previous file or the complete new one.  The payload
    embeds a SHA-256 content checksum so later readers can detect
    corruption that atomicity cannot prevent (bit-rot, truncation by
    other tools).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload: dict[str, np.ndarray] = {}
    for name, param in searcher.supernet.named_parameters():
        payload[_PREFIX_WEIGHTS + name] = param.data
    for name, value in searcher.supernet.named_buffers():
        payload[_PREFIX_BUFFERS + name] = np.asarray(value)
    for i, param in enumerate(searcher.hw_model.implementation_parameters()):
        payload[f"{_PREFIX_IMPL}{i}"] = param.data
    for i, velocity in enumerate(searcher.weight_optimizer._velocity):
        payload[f"{_PREFIX_VEL}{i}"] = velocity
    for i, m in enumerate(searcher.arch_optimizer._m):
        payload[f"{_PREFIX_ADAM_M}{i}"] = m
    for i, v in enumerate(searcher.arch_optimizer._v):
        payload[f"{_PREFIX_ADAM_V}{i}"] = v
    payload["meta::epoch"] = np.asarray(epoch)
    payload["meta::adam_t"] = np.asarray(searcher.arch_optimizer._t)
    payload["meta::alpha"] = np.asarray(getattr(searcher.hw_model, "alpha", 1.0))
    payload["meta::format"] = np.asarray(CHECKPOINT_FORMAT_VERSION)
    payload["meta::temperature"] = np.asarray(searcher.sampler.temperature)
    payload["rng::sampler"] = capture_rng_state(searcher.sampler.rng)
    payload["rng::train_loader"] = searcher.train_loader.rng_state()
    payload["rng::val_loader"] = searcher.val_loader.rng_state()
    payload["hist::records"] = _history_to_array(list(history))
    payload[_CHECKSUM_KEY] = _content_checksum(payload)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def verify_checkpoint(path: str | Path) -> int:
    """Verify a checkpoint's structure and content checksum.

    Args:
        path: ``.npz`` file written by :func:`save_checkpoint`.

    Returns:
        The checkpoint's format version.

    Raises:
        CorruptCheckpoint: If the file is unreadable/truncated, lacks its
            metadata, or the embedded SHA-256 does not match the stored
            arrays.  Pre-checksum (version < 3) files pass on structural
            integrity alone.
    """
    path = Path(path)
    try:
        with np.load(path) as data:
            files = set(data.files)
            if "meta::format" not in files:
                raise CorruptCheckpoint(str(path), "missing meta::format")
            version = int(data["meta::format"])
            if _CHECKSUM_KEY in files:
                stored = np.asarray(data[_CHECKSUM_KEY]).tobytes()
                arrays = {key: data[key] for key in files if key != _CHECKSUM_KEY}
                if stored != _content_checksum(arrays).tobytes():
                    raise CorruptCheckpoint(str(path), "content checksum mismatch")
            elif version >= 3:
                raise CorruptCheckpoint(
                    str(path), f"version {version} file missing its checksum"
                )
            return version
    except CorruptCheckpoint:
        raise
    except Exception as err:  # BadZipFile / OSError / EOFError / pickle noise
        raise CorruptCheckpoint(str(path), f"{type(err).__name__}: {err}") from err


def load_checkpoint(searcher: EDDSearcher, path: str | Path) -> int:
    """Restore state saved by :func:`save_checkpoint`; returns the epoch.

    The searcher must have been constructed with the same space/config
    (shapes are validated parameter by parameter).  Besides parameters and
    optimiser moments, the supernet buffers, the Gumbel sampler's RNG
    stream and both loader shuffle streams are restored, which is what makes
    a resumed search bit-identical.

    Args:
        searcher: Freshly constructed searcher matching the checkpointed one.
        path: ``.npz`` file written by :func:`save_checkpoint`.

    Returns:
        The number of completed epochs stored in the checkpoint.

    Raises:
        CorruptCheckpoint: If the file fails :func:`verify_checkpoint`
            (truncated, unreadable, or checksum mismatch).
        KeyError: If the checkpoint names a parameter the searcher lacks.
        ValueError: If a stored array's shape does not match its parameter,
            or the file predates format 4 (the unit-named supernet weights).
    """
    version = verify_checkpoint(path)
    if version < CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"{path}: checkpoint format {version} predates the unit-named "
            f"supernet weights of format {CHECKPOINT_FORMAT_VERSION} and can "
            f"no longer be loaded"
        )
    with np.load(Path(path)) as data:
        named = dict(searcher.supernet.named_parameters())
        for key in data.files:
            if not key.startswith(_PREFIX_WEIGHTS):
                continue
            name = key[len(_PREFIX_WEIGHTS):]
            if name not in named:
                raise KeyError(f"checkpoint has unknown parameter {name!r}")
            if named[name].shape != data[key].shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"{named[name].shape} vs {data[key].shape}"
                )
            named[name].data = data[key].copy()
        searcher.supernet.load_buffers_dict({
            key[len(_PREFIX_BUFFERS):]: data[key]
            for key in data.files
            if key.startswith(_PREFIX_BUFFERS)
        })
        impl = searcher.hw_model.implementation_parameters()
        for i, param in enumerate(impl):
            param.data = data[f"{_PREFIX_IMPL}{i}"].copy()
        for i in range(len(searcher.weight_optimizer._velocity)):
            searcher.weight_optimizer._velocity[i] = data[f"{_PREFIX_VEL}{i}"].copy()
        for i in range(len(searcher.arch_optimizer._m)):
            searcher.arch_optimizer._m[i] = data[f"{_PREFIX_ADAM_M}{i}"].copy()
            searcher.arch_optimizer._v[i] = data[f"{_PREFIX_ADAM_V}{i}"].copy()
        searcher.arch_optimizer._t = int(data["meta::adam_t"])
        if hasattr(searcher.hw_model, "alpha"):
            searcher.hw_model.alpha = float(data["meta::alpha"])
            searcher._alpha_calibrated = True
        searcher.sampler.temperature = float(data["meta::temperature"])
        restore_rng_state(searcher.sampler.rng, data["rng::sampler"])
        searcher.train_loader.set_rng_state(data["rng::train_loader"])
        searcher.val_loader.set_rng_state(data["rng::val_loader"])
        return int(data["meta::epoch"])


@dataclass
class SearchCheckpoint:
    """What :func:`restore_search_state` hands back for a resume.

    Attributes:
        path: The checkpoint file that was loaded.
        epoch: Completed-epoch count — pass as ``start_epoch``.
        history: The completed epochs' records — pass as ``initial_history``.
    """

    path: Path
    epoch: int
    history: list[EpochRecord] = field(default_factory=list)


def restore_search_state(searcher: EDDSearcher, path: str | Path) -> SearchCheckpoint:
    """Rehydrate ``searcher`` from ``path`` and return the resume position.

    Args:
        searcher: Freshly constructed searcher with the same space/config as
            the checkpointed run.
        path: Checkpoint written by :func:`save_checkpoint` (directly or via
            :class:`CheckpointCallback`).

    Returns:
        A :class:`SearchCheckpoint`; feed its ``epoch``/``history`` into
        :meth:`EDDSearcher.search <repro.core.cosearch.EDDSearcher.search>` —
        or use :meth:`EDDSearcher.resume
        <repro.core.cosearch.EDDSearcher.resume>`, which does both steps.
    """
    path = Path(path)
    epoch = load_checkpoint(searcher, path)
    with np.load(path) as data:
        rows = data["hist::records"]
    history = _history_from_array(rows) if rows.size else []
    return SearchCheckpoint(path=path, epoch=epoch, history=history)


def checkpoint_path(directory: str | Path, epoch: int, prefix: str = "ckpt") -> Path:
    """Canonical file name for the checkpoint written after ``epoch`` epochs."""
    return Path(directory) / f"{prefix}-epoch-{epoch:04d}.npz"


def _checkpoint_epoch(path: Path) -> int | None:
    """Epoch number embedded in a ``<prefix>-epoch-NNNN.npz`` name, or ``None``."""
    try:
        return int(path.stem.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        return None


def find_latest_checkpoint(
    directory: str | Path, prefix: str = "ckpt", verify: bool = True
) -> Path | None:
    """Newest *verified* checkpoint in ``directory`` by completed-epoch count.

    Args:
        directory: Directory that :class:`CheckpointCallback` wrote into.
        prefix: File-name prefix used when saving.
        verify: Run :func:`verify_checkpoint` on each candidate, newest
            first, skipping corrupt/truncated files with a warning and
            falling back to the previous good epoch.  This is what makes
            ``kill -9`` mid-write survivable: a half-written newest file
            never shadows the older good state.

    Returns:
        The verified path with the highest epoch number, or ``None`` if no
        matching (valid) file exists.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates: list[tuple[int, Path]] = []
    for candidate in directory.glob(f"{prefix}-epoch-*.npz"):
        epoch = _checkpoint_epoch(candidate)
        if epoch is not None:
            candidates.append((epoch, candidate))
    for epoch, candidate in sorted(candidates, reverse=True):
        if not verify:
            return candidate
        try:
            verify_checkpoint(candidate)
            return candidate
        except CorruptCheckpoint as err:
            logger.warning(
                "skipping corrupt checkpoint %s (%s); falling back to an "
                "earlier epoch",
                candidate,
                err.reason,
            )
    return None


def prune_corrupt_checkpoints(
    directory: str | Path, prefix: str = "ckpt"
) -> list[Path]:
    """Delete corrupt checkpoints and stale temp files from ``directory``.

    Every ``<prefix>-epoch-*.npz`` failing :func:`verify_checkpoint` is
    removed with a logged warning (it would otherwise shadow older good
    checkpoints for naive listers), along with leftover
    ``.<name>.tmp-<pid>`` files from interrupted atomic writes.

    Returns:
        The removed paths, sorted.
    """
    directory = Path(directory)
    removed: list[Path] = []
    if not directory.is_dir():
        return removed
    for candidate in sorted(directory.glob(f"{prefix}-epoch-*.npz")):
        try:
            verify_checkpoint(candidate)
        except CorruptCheckpoint as err:
            logger.warning(
                "pruning corrupt checkpoint %s (%s)", candidate, err.reason
            )
            candidate.unlink(missing_ok=True)
            removed.append(candidate)
    for stale in sorted(directory.glob(f".{prefix}-epoch-*.npz.tmp-*")):
        logger.warning("pruning stale checkpoint temp file %s", stale)
        stale.unlink(missing_ok=True)
        removed.append(stale)
    return removed


class CheckpointCallback:
    """Engine callback that snapshots a searcher every ``every`` epochs.

    Attach to :meth:`EDDSearcher.search
    <repro.core.cosearch.EDDSearcher.search>` (``callbacks=[cb]``); after each
    completed epoch it appends the epoch record to its running history and —
    every ``every`` epochs — writes ``<prefix>-epoch-NNNN.npz`` into
    ``directory`` via :func:`save_checkpoint`.  Because the snapshot is taken
    *after* the epoch's weight/arch steps and RNG draws, resuming from it
    reproduces the remaining epochs bit-identically.

    Args:
        searcher: The searcher whose state is snapshotted.
        directory: Where checkpoint files are written (created on first save).
        every: Snapshot period in epochs (``1`` = every epoch).
        prefix: File-name prefix (see :func:`checkpoint_path`).
        history: Pre-existing epoch records when the run itself is a resume,
            so follow-up checkpoints carry the full history.

    Raises:
        ValueError: If ``every < 1``.
    """

    def __init__(
        self,
        searcher: EDDSearcher,
        directory: str | Path,
        every: int = 1,
        prefix: str = "ckpt",
        history: list[EpochRecord] | tuple[EpochRecord, ...] = (),
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.searcher = searcher
        self.directory = Path(directory)
        self.every = every
        self.prefix = prefix
        self.history: list[EpochRecord] = list(history)
        #: Paths written so far, oldest first.
        self.saved: list[Path] = []
        self._pruned = False

    def _save(self, completed: int) -> Path:
        if not self._pruned:
            # One-time sweep: corpses from an earlier crashed run must not
            # shadow the files this run is about to write.
            prune_corrupt_checkpoints(self.directory, self.prefix)
            self._pruned = True
        path = checkpoint_path(self.directory, completed, self.prefix)
        save_checkpoint(self.searcher, path, epoch=completed, history=self.history)
        self.saved.append(path)
        return path

    def __call__(self, record: EpochRecord) -> None:
        """Record ``record`` and checkpoint if its epoch completes a period."""
        self.history.append(record)
        completed = record.epoch + 1
        if completed % self.every == 0:
            self._save(completed)

    def save_now(self) -> Path:
        """Checkpoint the current state regardless of the ``every`` cadence.

        Used by the preemption path (checkpoint-then-exit): returns the
        existing file when this epoch's cadence save already happened,
        otherwise force-writes one for ``len(self.history)`` completed
        epochs.
        """
        completed = len(self.history)
        path = checkpoint_path(self.directory, completed, self.prefix)
        if self.saved and self.saved[-1] == path:
            return path
        return self._save(completed)

    def rollback(self, state: SearchCheckpoint) -> None:
        """Rewind internal history to a restored checkpoint's position.

        Called by :class:`repro.resilience.DivergenceGuard` after it
        restores the searcher from ``state``: records past the restored
        epoch are dropped so post-recovery saves carry a consistent
        history, and bookkeeping for newer files is discarded.
        """
        self.history = list(state.history)
        self.saved = [
            p
            for p in self.saved
            if (_checkpoint_epoch(p) or 0) <= state.epoch
        ]
