"""Weight inheritance from the supernet into the derived network.

After derivation the paper retrains the searched DNN from scratch; in
practice (and in most NAS releases) warm-starting the child with the
supernet's trained weights cuts the retraining budget substantially, because
the selected candidates were exactly the modules trained during the search.

The supernet and the derived network are built from the same
:func:`repro.nas.network.build_unit` units, so the child is the supernet's
argmax path unit for unit (identity skips vanish from both).
``inherit_weights`` walks the two unit lists side by side and copies each
unit's parameters and BatchNorm running statistics, so eval-mode behaviour
matches immediately.  Returns the number of parameter tensors copied.
"""

from __future__ import annotations

from repro.nas.network import BuiltNetwork
from repro.nas.supernet import SuperNet


def inherit_weights(supernet: SuperNet, built: BuiltNetwork) -> int:
    """Copy supernet weights into a network built from its derived spec.

    The spec must have been produced by :func:`repro.nas.derive.derive_arch_spec`
    on this supernet (the op choices are re-read from the Theta argmax).
    """
    path = supernet.path_units(supernet.theta.data.argmax(axis=-1).tolist())
    if len(path) != len(built.units):
        raise ValueError(
            f"unit count mismatch: child has {len(built.units)}, "
            f"supernet path {len(path)}"
        )
    copied = 0
    for src, dst in zip(path, built.units):
        if type(src) is not type(dst):
            raise ValueError(
                f"unit mismatch: child {type(dst).__name__} vs "
                f"supernet {type(src).__name__}"
            )
        state = src.state_dict()
        dst.load_state_dict(state)
        dst.load_buffers_dict(src.buffers_dict())
        copied += len(state)
    return copied
