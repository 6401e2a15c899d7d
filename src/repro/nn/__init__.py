"""Neural-network layer library built on :mod:`repro.autograd`.

Provides the Module/Parameter abstraction, the layers MBConv needs (pointwise
convolutions, depthwise ones as ``Conv2d(C, C, k, groups=C)``, batch-norm,
ReLU6), classification losses and SGD/Adam optimisers with learning-rate
schedules.  Network units are assembled from these layers in one place,
:func:`repro.nas.network.build_unit`, for the supernet and derived networks
alike.
"""

from repro.nn.module import Module, Parameter
from repro.nn.containers import ModuleList, Sequential
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    ReLU6,
)
from repro.nn.functional import accuracy, cross_entropy, nll_loss, topk_accuracy
from repro.nn.optim import SGD, Adam, CosineSchedule, StepSchedule

__all__ = [
    "Adam",
    "AvgPool2d",
    "BatchNorm2d",
    "Conv2d",
    "CosineSchedule",
    "GlobalAvgPool2d",
    "Identity",
    "Linear",
    "MaxPool2d",
    "Module",
    "ModuleList",
    "Parameter",
    "ReLU",
    "ReLU6",
    "SGD",
    "Sequential",
    "StepSchedule",
    "accuracy",
    "cross_entropy",
    "nll_loss",
    "topk_accuracy",
]
