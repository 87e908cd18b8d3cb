"""Core time-series containers shared across the pipeline."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def as_float_array(values, name: str, ndim: int) -> np.ndarray:
    """``values`` as a float array; ``ValidationError`` unless it has
    ``ndim`` dimensions and only finite entries."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def check_rate(rate: float) -> None:
    """Raise ``ValidationError`` unless ``rate`` is finite and positive."""
    if not 0 < rate < np.inf:
        raise ValidationError(f"rate must be finite and positive, got {rate!r}")


def check_simplex(probs: np.ndarray, message: str) -> None:
    """Raise ``ValidationError(message)`` unless ``probs`` holds probabilities.

    Entries must be finite and >= 0, and each row (the whole vector when
    one-dimensional) must sum to 1 within 1e-9.
    """
    if (not np.all(np.isfinite(probs)) or np.any(probs < 0)
            or np.any(np.abs(probs.sum(axis=-1) - 1.0) > 1e-9)):
        raise ValidationError(message)


@dataclass
class TimestampedTriaxial:
    """Raw 3-axis accelerometer output on a possibly non-uniform time grid."""

    timestamps: np.ndarray  # seconds, strictly increasing
    samples: np.ndarray     # (T, 3) in m/s^2

    def __post_init__(self):
        self.timestamps = as_float_array(self.timestamps, "timestamps", 1)
        self.samples = as_float_array(self.samples, "samples", 2)
        if self.samples.shape[1] != 3:
            raise ValidationError("samples must have 3 columns")
        if len(self.timestamps) != len(self.samples):
            raise ValidationError("timestamps and samples must have equal length")
        if np.any(np.diff(self.timestamps) <= 0):
            raise ValidationError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass
class ScalarSeries:
    """Uniformly sampled one-dimensional feature series."""

    rate: float             # Hz
    values: np.ndarray

    def __post_init__(self):
        check_rate(self.rate)
        self.values = as_float_array(self.values, "values", 1)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) / self.rate


#: Adherence / violation label codes. Labels, like the segmenters' state
#: paths, are plain 1-D int arrays, one entry per time point.
ADHERENCE = 1
VIOLATION = 2


@dataclass
class StateSequence:
    """Discrete per-time state indicators: ``synth.gen_switching_ar``'s truth."""

    indicators: np.ndarray                  # (T,) integers >= 0

    def __post_init__(self):
        self.indicators = np.asarray(self.indicators, dtype=int)
        if self.indicators.ndim != 1:
            raise ValidationError("indicators must be one-dimensional")
        if np.any(self.indicators < 0):
            raise ValidationError("indicators must be non-negative")
