"""Competitive pathway networks on a self-contained autodiff engine."""

from . import analysis, data, engine, models, settings, training, units
from .engine import Tensor, set_precision
from .models import NetworkConfig, build, count_parameters
from .training import TrainPlan, evaluate, he_init, lr_at, train
from .units import CoPaUnit, CoPaUnitSpec, PathwaySpec, compose_winners

__version__ = "0.1.0"

__all__ = [
    "Tensor", "set_precision",
    "NetworkConfig", "build", "count_parameters",
    "TrainPlan", "evaluate", "he_init", "lr_at", "train",
    "CoPaUnit", "CoPaUnitSpec", "PathwaySpec", "compose_winners",
    "analysis", "data", "engine", "models", "settings", "training", "units",
]
