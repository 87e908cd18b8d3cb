"""Sensor-agnostic preprocessing: resampling, filtering, feature extraction,
spectral estimation.

scipy is imported on first use, so importing this module (and the CLI)
stays cheap for commands that never resample or filter.
"""
from __future__ import annotations

import numpy as np

from .errors import (
    CutoffAboveNyquist,
    EmptyInput,
    NonPositiveFloor,
    SegmentTooLong,
    TooFewSamples,
    WindowLargerThanInput,
    ZeroFactor,
)
from .series import ScalarSeries, SpectrumEstimate, TimestampedTriaxial, TriaxialSeries


def interpolate_uniform(raw: TimestampedTriaxial, target_rate: float) -> TriaxialSeries:
    """Resample a non-uniform 3-axis recording to a uniform grid.

    Each axis is interpolated independently with a cubic spline. The output
    grid starts at the first observed timestamp and never extends past the
    last one (no extrapolation).
    """
    from scipy.interpolate import CubicSpline

    if len(raw) < 4:
        raise TooFewSamples("cubic spline interpolation needs at least 4 samples")
    t = raw.timestamps
    n_out = int(np.floor((t[-1] - t[0]) * target_rate)) + 1
    grid = t[0] + np.arange(n_out) / target_rate
    out = np.empty((n_out, 3))
    for axis in range(3):
        out[:, axis] = CubicSpline(t, raw.samples[:, axis])(grid)
    return TriaxialSeries(rate=target_rate, samples=out)


def magnitude(series: TriaxialSeries) -> ScalarSeries:
    """Euclidean norm of each 3-vector."""
    return ScalarSeries(rate=series.rate,
                        values=np.linalg.norm(series.samples, axis=1))


def log_magnitude(series: TriaxialSeries, floor: float = 1e-6) -> ScalarSeries:
    """log10 of the vector magnitude, floored to guard idle sensors."""
    if floor <= 0:
        raise NonPositiveFloor("floor must be positive")
    mag = np.linalg.norm(series.samples, axis=1)
    return ScalarSeries(rate=series.rate,
                        values=np.log10(np.maximum(mag, floor)))


def windowed_energy(series: ScalarSeries, window: int, squared: bool = False) -> ScalarSeries:
    """Energy of consecutive non-overlapping windows.

    The default is the root-sum-square of each window; ``squared=True`` drops
    the root. A trailing partial window is discarded.
    """
    if window < 1:
        raise WindowLargerThanInput("window must be >= 1")
    if len(series) == 0:
        raise EmptyInput("input series is empty")
    if len(series) < window:
        raise WindowLargerThanInput(
            f"window {window} larger than input length {len(series)}")
    n_win = len(series) // window
    chunks = series.values[: n_win * window].reshape(n_win, window)
    energy = np.sum(chunks ** 2, axis=1)
    if not squared:
        energy = np.sqrt(energy)
    return ScalarSeries(rate=series.rate / window, values=energy)


def lowpass_filter(series: ScalarSeries, cutoff: float, order: int = 4) -> ScalarSeries:
    """Zero-phase Butterworth low-pass filter.

    Applied forward-backward so segment boundaries are not displaced in time.
    """
    from scipy import signal as sps

    nyquist = series.rate / 2.0
    if not 0 < cutoff < nyquist:
        raise CutoffAboveNyquist(
            f"cutoff {cutoff} Hz must lie in (0, {nyquist}) Hz")
    sos = sps.butter(order, cutoff / nyquist, btype="low", output="sos")
    filtered = sps.sosfiltfilt(sos, series.values)
    return series.with_values(filtered)


def downsample(series: ScalarSeries, factor: int) -> ScalarSeries:
    """Keep every ``factor``-th sample starting at index 0.

    The caller is responsible for having low-pass filtered the series below
    (rate / factor) / 2 first; no anti-aliasing is applied here.
    """
    if factor < 1:
        raise ZeroFactor("factor must be a positive integer")
    return ScalarSeries(rate=series.rate / factor,
                        values=series.values[::factor])


def power_spectrum(series: ScalarSeries, segment_length: int | None = None,
                   overlap: float = 0.5, detrend: str | bool = "constant") -> SpectrumEstimate:
    """Welch-averaged periodogram.

    Default segment length is 4 seconds of samples (capped at the series
    length). Power is normalized so that the integral over frequency matches
    the series variance (one-sided density).
    """
    from scipy import signal as sps

    if segment_length is None:
        segment_length = min(int(round(4 * series.rate)), len(series))
    if segment_length > len(series):
        raise SegmentTooLong(
            f"segment length {segment_length} exceeds series length {len(series)}")
    if not 0 <= overlap < 1:
        raise SegmentTooLong("overlap must lie in [0, 1)")
    freqs, power = sps.welch(series.values, fs=series.rate,
                             nperseg=segment_length,
                             noverlap=int(segment_length * overlap),
                             detrend=detrend)
    power = np.maximum(power, 0.0)
    return SpectrumEstimate(frequencies=freqs, power=power)
