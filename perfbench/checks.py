"""Correctness checks; each returns a list of problems (empty means pass).

A workload collects the problems of every check it runs and the run is
reported ``correct`` only when there are none.  The checks take plain values
so a test can hand each one a perturbed output and see it fail.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

import numpy as np


def finite_losses(losses: Iterable[float], what: str) -> list[str]:
    """Every loss is a finite number, and there is at least one."""
    losses = list(losses)
    if not losses:
        return [f"{what}: no losses recorded"]
    bad = [value for value in losses if not math.isfinite(value)]
    if bad:
        return [f"{what}: {len(bad)} of {len(losses)} losses not finite"]
    return []


def buildable(spec: Any, what: str) -> list[str]:
    """The derived architecture can be instantiated."""
    if not spec.buildable():
        return [f"{what}: derived spec {spec.name!r} is not buildable"]
    return []


def reference_loss(value: float, reference: float, rtol: float,
                   what: str) -> list[str]:
    """``value`` equals the recorded reference within relative ``rtol``."""
    if not math.isfinite(value) or abs(value - reference) > rtol * abs(reference):
        return [
            f"{what}: first-epoch train loss {value!r} differs from the "
            f"reference {reference!r} by more than rtol={rtol}"
        ]
    return []


def outputs_close(actual: np.ndarray, expected: np.ndarray, atol: float,
                  rtol: float, what: str) -> list[str]:
    """Same shape, and ``|actual - expected| <= atol + rtol * |expected|``."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    if actual.shape != expected.shape:
        return [f"{what}: shape {actual.shape} != expected {expected.shape}"]
    if not np.all(np.isfinite(actual)):
        return [f"{what}: output not finite"]
    excess = np.abs(actual - expected) - (atol + rtol * np.abs(expected))
    if np.any(excess > 0):
        worst = float(np.max(np.abs(actual - expected)))
        return [f"{what}: max |diff| {worst:.3g} beyond atol={atol}, rtol={rtol}"]
    return []
