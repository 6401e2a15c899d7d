#!/usr/bin/env python
"""Docstring-coverage gate for the public surface (run in CI).

Imports ``repro`` and fails (exit 1) when any public name is missing a
docstring:

* every name in ``repro.api.__all__``, including public methods and
  properties of the classes among them;
* the :class:`~repro.core.engine.SearchEngine` / callback surface
  (``SearchEngine``, ``EngineRun``, ``EpochRecord``, ``CheckpointCallback``,
  ``SearchCheckpoint``, ``ParallelEvaluator``, ``MultiSearchResult``);
* the registry surface (``TargetSpec``, ``register_target``,
  ``register_device``, ``get_target``, ``get_device``, ``target_names``,
  ``device_names``, ``build_hardware_model``, ``quantization_for_target``);
* the compiled-runtime surface (everything in ``repro.runtime.__all__``:
  ``compile_spec``, ``ExecutionPlan``, ``plan_arena``, ``Engine``,
  ``ServingFleet``, ...);
* the serving-fleet surface (everything in ``repro.runtime.fleet.__all__``:
  ``ServingFleet``, ``FleetScheduler``, ``ServingMetrics``,
  ``pack_plan_memmap``, ...).

Run directly::

    PYTHONPATH=src python tools/check_docstrings.py
"""

from __future__ import annotations

import inspect
import sys


def _has_doc(obj: object) -> bool:
    return bool((getattr(obj, "__doc__", None) or "").strip())


def _missing_in_class(cls: type, label: str) -> list[str]:
    """Public methods/properties of ``cls`` without docstrings.

    Only names defined on the class itself are checked (inherited members
    are the parent's responsibility); dataclass-generated dunders are out of
    scope by the leading-underscore rule.
    """
    missing = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        fn = member.fget if isinstance(member, property) else member
        if not callable(fn) and not isinstance(member, property):
            continue
        if not _has_doc(fn):
            missing.append(f"{label}.{name}")
    return missing


def collect_missing() -> list[str]:
    """Return the sorted list of public names lacking docstrings."""
    import repro.api as api
    from repro.core.checkpoint import CheckpointCallback, SearchCheckpoint
    from repro.core.engine import EngineRun, SearchEngine
    from repro.core.parallel import ParallelEvaluator
    from repro.core.results import EpochRecord, MultiSearchResult
    from repro.hw import registry

    missing: list[str] = []

    for name in api.__all__:
        obj = getattr(api, name)
        label = f"repro.api.{name}"
        if not _has_doc(obj):
            missing.append(label)
        if inspect.isclass(obj):
            missing.extend(_missing_in_class(obj, label))

    extra_classes = (
        SearchEngine, EngineRun, EpochRecord, CheckpointCallback,
        SearchCheckpoint, ParallelEvaluator, MultiSearchResult,
    )
    for cls in extra_classes:
        label = f"{cls.__module__}.{cls.__name__}"
        if not _has_doc(cls):
            missing.append(label)
        missing.extend(_missing_in_class(cls, label))

    registry_names = (
        "TargetSpec", "register_target", "register_device", "get_target",
        "get_device", "target_names", "device_names", "build_hardware_model",
        "quantization_for_target",
    )
    for name in registry_names:
        obj = getattr(registry, name)
        label = f"repro.hw.registry.{name}"
        if not _has_doc(obj):
            missing.append(label)
        if inspect.isclass(obj):
            missing.extend(_missing_in_class(obj, label))

    import repro.runtime as runtime

    for name in runtime.__all__:
        obj = getattr(runtime, name)
        label = f"repro.runtime.{name}"
        if not _has_doc(obj):
            missing.append(label)
        if inspect.isclass(obj):
            missing.extend(_missing_in_class(obj, label))

    import repro.runtime.fleet as fleet

    for name in fleet.__all__:
        obj = getattr(fleet, name)
        label = f"repro.runtime.fleet.{name}"
        if not _has_doc(obj):
            missing.append(label)
        if inspect.isclass(obj):
            missing.extend(_missing_in_class(obj, label))

    import repro.obs as obs

    for name in obs.__all__:
        obj = getattr(obs, name)
        label = f"repro.obs.{name}"
        if not _has_doc(obj):
            missing.append(label)
        if inspect.isclass(obj):
            missing.extend(_missing_in_class(obj, label))

    import repro.resilience as resilience

    for name in resilience.__all__:
        obj = getattr(resilience, name)
        label = f"repro.resilience.{name}"
        if not _has_doc(obj):
            missing.append(label)
        if inspect.isclass(obj):
            missing.extend(_missing_in_class(obj, label))

    # Public names outside the __all__ lists: the fleet clock and the
    # fault-injection helpers.
    from repro.resilience import testing as resilience_testing
    from repro.runtime.fleet import clock as fleet_clock
    from repro.runtime.fleet import testing as fleet_testing

    extra_names = (
        (fleet_clock, ("now", "set_time_source", "time_source")),
        (fleet_testing, ("FakeClock", "ScriptedEngine")),
        (resilience_testing, (
            "FaultInjected", "FaultyPayload", "FaultyTask", "attempts_made",
            "slow", "slow_seconds",
        )),
    )
    for module, names in extra_names:
        for name in names:
            obj = getattr(module, name)
            label = f"{module.__name__}.{name}"
            if not _has_doc(obj):
                missing.append(label)
            if inspect.isclass(obj):
                missing.extend(_missing_in_class(obj, label))

    return sorted(set(missing))


def main() -> int:
    """Print a coverage verdict; exit non-zero when names are missing docs."""
    missing = collect_missing()
    if missing:
        print(f"docstring gate FAILED: {len(missing)} public name(s) lack a __doc__:")
        for name in missing:
            print(f"  - {name}")
        return 1
    print("docstring gate OK: public surface fully documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
