"""Configuration of one EDD co-search run.

Valid ``target`` names come from :data:`repro.hw.registry.TARGETS` — the
single dispatch point for hardware targets — so plugging in a new device via
``@register_target`` makes it immediately usable here, in the CLI and in
``repro.api`` without touching this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _known_targets() -> tuple[str, ...]:
    # Late import: repro.hw.registry is independent of repro.core, but the
    # lazy lookup keeps this config module importable on its own and picks up
    # targets registered after import time.
    from repro.hw.registry import target_names

    return tuple(target_names())


def __getattr__(name: str):  # pragma: no cover - back-compat module attr
    if name == "TARGETS":
        return _known_targets()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class EDDConfig:
    """All knobs of the co-search (paper Secs. 5-6 defaults where given).

    Attributes
    ----------
    target:
        Which device formulation drives ``Perf_loss``/``RES``:
        ``gpu`` (latency, Sec. 4.2), ``fpga_recursive`` (latency + shared
        resource), ``fpga_pipelined`` (throughput + summed resource), or
        ``accel`` (bit-serial dedicated accelerator, Sec. 4.3).
    epochs:
        Search epochs (the paper runs a fixed 50; reduced-scale experiments
        use fewer).
    alpha_target:
        ``alpha`` in Eqs. 6-7 scales Perf_loss "to the same magnitude as
        Acc_loss"; we implement that literally by auto-scaling alpha so the
        initial Perf_loss equals ``alpha_target``.
    beta, penalty_base:
        The Eq. 1 resource barrier ``beta * C^((RES - RES_ub)/RES_ub)``.
    resource_fraction:
        Fraction of the device's DSPs available as RES_ub.
    arch_start_epoch:
        Warm-up epochs where only DNN weights are updated before the
        architecture variables join (standard DNAS practice to avoid
        collapsing onto under-trained candidates).

    Not configurable: weight steps draw hard Gumbel samples and (first-order)
    arch steps soft ones; see :class:`repro.core.cosearch.EDDSearcher`.
    """

    target: str = "gpu"
    epochs: int = 8
    batch_size: int = 16
    lr_weights: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_arch: float = 0.05
    alpha_target: float = 1.0
    beta: float = 1.0
    penalty_base: float = math.e
    resource_fraction: float = 1.0
    lse_sharpness: float = 1.0
    temperature_initial: float = 5.0
    temperature_min: float = 0.3
    temperature_decay: float = 0.9
    arch_start_epoch: int = 1
    grad_clip: float | None = 5.0
    seed: int = 0
    log_every: int = 0  # epochs between log lines; 0 = silent

    def __post_init__(self) -> None:
        if self.target not in _known_targets():
            raise ValueError(
                f"target must be one of {_known_targets()}, got {self.target!r}"
            )
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.resource_fraction <= 1.0:
            raise ValueError(
                f"resource_fraction must be in (0, 1], got {self.resource_fraction}"
            )
        if self.arch_start_epoch < 0:
            raise ValueError("arch_start_epoch must be >= 0")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive or None")
