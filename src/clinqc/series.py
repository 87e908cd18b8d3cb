"""Core time-series containers shared across the pipeline."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def _as_float_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def _check_rate(rate: float) -> None:
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
        self.timestamps = _as_float_array(self.timestamps, "timestamps", 1)
        self.samples = _as_float_array(self.samples, "samples", 2)
        if self.samples.shape[1] != 3:
            raise ValidationError("samples must have 3 columns")
        if len(self.timestamps) != len(self.samples):
            raise ValidationError("timestamps and samples must have equal length")
        if np.any(np.diff(self.timestamps) <= 0):
            raise ValidationError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass
class TriaxialSeries:
    """Uniformly sampled 3-axis acceleration."""

    rate: float             # Hz
    samples: np.ndarray     # (T, 3) in m/s^2

    def __post_init__(self):
        _check_rate(self.rate)
        self.samples = _as_float_array(self.samples, "samples", 2)
        if self.samples.shape[1] != 3:
            raise ValidationError("samples must have 3 columns")

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class ScalarSeries:
    """Uniformly sampled one-dimensional feature series."""

    rate: float             # Hz
    values: np.ndarray

    def __post_init__(self):
        _check_rate(self.rate)
        self.values = _as_float_array(self.values, "values", 1)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) / self.rate

    def with_values(self, values: np.ndarray) -> "ScalarSeries":
        return ScalarSeries(rate=self.rate, values=values)


@dataclass
class SpectrumEstimate:
    """Power spectrum on a non-negative frequency grid."""

    frequencies: np.ndarray  # Hz, increasing
    power: np.ndarray        # >= 0

    def __post_init__(self):
        self.frequencies = _as_float_array(self.frequencies, "frequencies", 1)
        self.power = _as_float_array(self.power, "power", 1)
        if len(self.frequencies) != len(self.power):
            raise ValidationError("frequencies and power must have equal length")
        if np.any(self.frequencies < 0) or np.any(np.diff(self.frequencies) <= 0):
            raise ValidationError("frequencies must be non-negative and increasing")
        if np.any(self.power < -1e-15):
            raise ValidationError("power must be non-negative")

    def peak_frequency(self) -> float:
        return float(self.frequencies[int(np.argmax(self.power))])


#: Adherence / violation label codes used throughout.
ADHERENCE = 1
VIOLATION = 2


@dataclass
class AdherenceLabels:
    """Per-time binary protocol labels: 1 = adherence, 2 = violation."""

    rate: float
    labels: np.ndarray  # integers in {1, 2}

    def __post_init__(self):
        _check_rate(self.rate)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.labels.ndim != 1:
            raise ValidationError("labels must be one-dimensional")
        bad = ~np.isin(self.labels, (ADHERENCE, VIOLATION))
        if np.any(bad):
            raise ValidationError("labels must be 1 (adherence) or 2 (violation)")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class StateSequence:
    """Discrete per-time state indicators with optional posterior probabilities."""

    indicators: np.ndarray                  # (T,) integers >= 0
    posteriors: np.ndarray | None = None    # (T, L) rows >= 0 summing to 1 within 1e-6

    def __post_init__(self):
        self.indicators = np.asarray(self.indicators, dtype=int)
        if self.indicators.ndim != 1:
            raise ValidationError("indicators must be one-dimensional")
        if np.any(self.indicators < 0):
            raise ValidationError("indicators must be non-negative")
        if self.posteriors is not None:
            self.posteriors = _as_float_array(self.posteriors, "posteriors", 2)
            if len(self.posteriors) != len(self.indicators):
                raise ValidationError("posteriors and indicators must have equal length")
            sums = self.posteriors.sum(axis=1)
            if np.any(self.posteriors < 0) or np.any(np.abs(sums - 1.0) > 1e-6):
                raise ValidationError("posterior rows must be non-negative and sum to 1")

    def __len__(self) -> int:
        return len(self.indicators)

    @property
    def occupied(self) -> int:
        """Number of distinct states the sequence visits (K+)."""
        return len(np.unique(self.indicators))
