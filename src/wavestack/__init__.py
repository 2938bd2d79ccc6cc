"""Wavelet-infused doubly-residual time-series forecasting."""

from . import autodiff, config, dataio, ensemble, model, training, wavelet
from .autodiff import Tape, Tensor
from .dataio import Dataset, Scaler, multi_frequency_benchmark
from .ensemble import EnsembleConfig
from .model import ForecastBundle, ModelConfig, model_forward
from .training import TrainConfig, TrainResult, WindowSet, make_windows, train
from .wavelet import (
    FilterKind,
    FilterPair,
    HaarProjection,
    WaveletPyramid,
    filter_bank,
    mdwd,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "EnsembleConfig", "FilterKind", "FilterPair",
    "ForecastBundle", "HaarProjection", "ModelConfig", "Scaler",
    "Tape", "Tensor", "TrainConfig", "TrainResult",
    "WaveletPyramid", "WindowSet",
    "autodiff", "config", "dataio", "ensemble", "filter_bank",
    "make_windows", "mdwd", "model", "model_forward",
    "multi_frequency_benchmark",
    "train", "training", "wavelet", "__version__",
]
