"""Timers wrapped around the calls into each search layer, from outside ``src/``.

:class:`Patches` swaps class attributes for timed wrappers for the life of a
``with`` block and restores the originals on exit.  :class:`SearchProbe`
uses it to time, without any instrumentation inside ``src/``:

* every weight and arch step (``EDDSearcher.weight_step`` /
  ``EDDSearcher.arch_step``), its start, wall and CPU time and its loss;
* every epoch, from the temperature anneal that opens it
  (``GumbelSoftmax.set_epoch``) to the end of its checkpoint save
  (``CheckpointCallback.__call__``);
* with a :class:`~perfbench.speed.HostSpeed`, a host speed sample before a
  step, outside the step's time and subtracted from the epoch's wall;
* with ``layers=True``, the layer calls inside a step: ``SuperNet.sample``,
  the supernet forward, ``Tensor.backward``, the hardware model's
  ``evaluate`` and ``project_parameters``, and the optimiser ``step``.

Only the outermost wrapped call inside a step is timed, so nested layer
calls are never counted twice, and calls outside any step (alpha
calibration, derivation) are not counted at all.  Whatever a step spends
outside the wrapped calls is its "other" time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

#: Layer timers inside a step: (metric stem, split by step kind).
STEP_LAYERS = (
    ("nas.sample", False),
    ("nas.forward", True),
    ("autograd.backward", True),
    ("hw.evaluate", False),
    ("nn.optim", False),
)


def step_layer_names() -> list[str]:
    """Every per-step layer key :class:`SearchProbe` can fill."""
    names = []
    for stem, per_kind in STEP_LAYERS:
        if per_kind:
            names += [f"{stem}_weight", f"{stem}_arch"]
        else:
            names.append(stem)
    return names


class Patches:
    """Replace class attributes with wrappers until the ``with`` block ends."""

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, Any]] = []

    def wrap(self, owner: type, name: str,
             make: Callable[[Callable], Callable]) -> None:
        """Install ``make(original)`` as ``owner.name``.

        Raises:
            AttributeError: If ``owner`` does not itself define ``name``.
        """
        try:
            original = owner.__dict__[name]
        except KeyError:
            raise AttributeError(f"{owner.__name__} defines no {name!r}") from None
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        """Put every original back, most recent first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()


def _subclasses_defining(base: type, name: str) -> list[type]:
    """``base`` and its transitive subclasses that define ``name`` themselves."""
    found, stack = [], [base]
    while stack:
        cls = stack.pop()
        if name in cls.__dict__ and cls not in found:
            found.append(cls)
        stack.extend(cls.__subclasses__())
    return found


@dataclass
class EpochSample:
    """Wall-clock accounting of one completed epoch, in seconds.

    ``start`` and ``end`` are ``perf_counter()`` stamps; ``wall`` is the time
    between them less ``paused``, the host speed samples taken inside.
    """

    wall: float
    steps: float
    checkpoint: float
    weight: list[float] = field(default_factory=list)  # step walls
    arch: list[float] = field(default_factory=list)
    images: int = 0
    start: float = 0.0
    end: float = 0.0
    paused: float = 0.0

    @property
    def other(self) -> float:
        """Loader, anneal, epoch record and callbacks: wall minus the rest."""
        return self.wall - self.steps - self.checkpoint


class SearchProbe:
    """Step, epoch and (optionally) layer timers for a co-search.

    Use as a context manager around the search calls; read the fields after.
    ``tracer``, when given and enabled, also receives one ``perfbench.*``
    span per timed call, beside the spans ``repro.obs`` emits itself.
    ``speed``, when given, is offered a sample (``maybe_sample``) before
    every step.
    """

    def __init__(self, layers: bool = False, tracer: Any = None,
                 speed: Any = None) -> None:
        self.layers = layers
        self.tracer = tracer if tracer is not None and tracer.enabled else None
        self.speed = speed
        self.step_s: dict[str, list[float]] = {"weight": [], "arch": []}
        #: perf_counter() at the start of each step, beside ``step_s``.
        self.step_at: dict[str, list[float]] = {"weight": [], "arch": []}
        self.step_cpu_s = 0.0
        #: Training images the timed steps consumed.
        self.images = 0
        self.losses: list[float] = []
        self.epochs: list[EpochSample] = []
        self.layer_s: dict[str, float] = defaultdict(float)
        #: perf_counter() at the start of the first step since the last
        #: reset; the workloads measure set-up time up to it.
        self.first_step_at: float | None = None
        self._kind: str | None = None
        self._in_layer = False
        self._epoch_start: float | None = None
        self._epoch = EpochSample(0.0, 0.0, 0.0)
        self._patches = Patches()

    # -- installation ---------------------------------------------------------
    def __enter__(self) -> "SearchProbe":
        from repro.autograd.tensor import Tensor
        from repro.core.checkpoint import CheckpointCallback
        from repro.core.cosearch import EDDSearcher
        from repro.hw.base import HardwareModel
        from repro.nas.gumbel import GumbelSoftmax
        from repro.nas.supernet import SuperNet
        from repro.nn.optim import Optimizer

        patch = self._patches
        try:
            patch.wrap(EDDSearcher, "weight_step", self._step("weight"))
            patch.wrap(EDDSearcher, "arch_step", self._step("arch"))
            patch.wrap(GumbelSoftmax, "set_epoch", self._epoch_open)
            patch.wrap(CheckpointCallback, "__call__", self._epoch_close)
            if self.layers:
                patch.wrap(SuperNet, "sample", self._layer("nas.sample", False))
                patch.wrap(SuperNet, "forward", self._layer("nas.forward", True))
                patch.wrap(Tensor, "backward",
                           self._layer("autograd.backward", True))
                for name in ("evaluate", "project_parameters"):
                    for cls in _subclasses_defining(HardwareModel, name):
                        patch.wrap(cls, name, self._layer("hw.evaluate", False))
                for cls in _subclasses_defining(Optimizer, "step"):
                    patch.wrap(cls, "step", self._layer("nn.optim", False))
        except BaseException:
            patch.restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._patches.restore()

    # -- wrappers -------------------------------------------------------------
    def _span(self, name: str, start: float, duration: float) -> None:
        if self.tracer is not None:
            self.tracer.add_span(name, start, duration, cat="perfbench")

    def _step(self, kind: str) -> Callable[[Callable], Callable]:
        probe = self

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def timed(searcher, *args, **kwargs):
                if probe.first_step_at is None:
                    probe.first_step_at = time.perf_counter()
                if probe.speed is not None:
                    probe._epoch.paused += probe.speed.maybe_sample()
                start = time.perf_counter()
                cpu = time.process_time()
                probe._kind = kind
                try:
                    out = original(searcher, *args, **kwargs)
                finally:
                    probe._kind = None
                    wall = time.perf_counter() - start
                    probe.step_cpu_s += time.process_time() - cpu
                    probe.step_s[kind].append(wall)
                    probe.step_at[kind].append(start)
                    getattr(probe._epoch, kind).append(wall)
                    probe._epoch.steps += wall
                    probe._span(f"perfbench.step.{kind}", start, wall)
                probe.images += len(args[0])
                probe._epoch.images += len(args[0])
                probe.losses.append(
                    float(out) if kind == "weight" else float(out["total_loss"])
                )
                return out

            return timed

        return make

    def _layer(self, stem: str, per_kind: bool) -> Callable[[Callable], Callable]:
        probe = self

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def timed(*args, **kwargs):
                if probe._kind is None or probe._in_layer:
                    return original(*args, **kwargs)
                key = f"{stem}_{probe._kind}" if per_kind else stem
                probe._in_layer = True
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    duration = time.perf_counter() - start
                    probe._in_layer = False
                    probe.layer_s[key] += duration
                    probe._span(f"perfbench.{key}", start, duration)

            return timed

        return make

    def _epoch_open(self, original: Callable) -> Callable:
        probe = self

        @functools.wraps(original)
        def timed(sampler, *args, **kwargs):
            probe._epoch_start = time.perf_counter()
            probe._epoch = EpochSample(0.0, 0.0, 0.0)
            return original(sampler, *args, **kwargs)

        return timed

    def _epoch_close(self, original: Callable) -> Callable:
        probe = self

        @functools.wraps(original)
        def timed(callback, *args, **kwargs):
            start = time.perf_counter()
            try:
                return original(callback, *args, **kwargs)
            finally:
                end = time.perf_counter()
                probe._span("perfbench.checkpoint", start, end - start)
                if probe._epoch_start is not None:
                    probe._epoch.start = probe._epoch_start
                    probe._epoch.end = end
                    probe._epoch.wall = (end - probe._epoch_start
                                         - probe._epoch.paused)
                    probe._epoch.checkpoint = end - start
                    probe.epochs.append(probe._epoch)
                    probe._span("perfbench.epoch", probe._epoch_start,
                                end - probe._epoch_start)
                    probe._epoch_start = None

        return timed

    # -- summaries ------------------------------------------------------------
    @property
    def steps(self) -> int:
        """Weight plus arch steps timed so far."""
        return len(self.step_s["weight"]) + len(self.step_s["arch"])

    @property
    def step_wall_s(self) -> float:
        """Total wall seconds inside steps."""
        return sum(self.step_s["weight"]) + sum(self.step_s["arch"])
