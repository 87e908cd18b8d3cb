"""Sensor-agnostic preprocessing: resampling, filtering, feature extraction,
spectral estimation.

scipy is imported on first use, so importing this module (and the CLI)
stays cheap for commands that never resample or filter.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .series import ScalarSeries, SpectrumEstimate, TimestampedTriaxial, TriaxialSeries


def interpolate_uniform(raw: TimestampedTriaxial, target_rate: float) -> TriaxialSeries:
    """Resample a non-uniform 3-axis recording to a uniform grid.

    Each axis is interpolated independently with a cubic spline. The output
    grid starts at the first observed timestamp and never extends past the
    last one (no extrapolation).
    """
    from scipy.interpolate import CubicSpline

    if len(raw) < 4:
        raise ValidationError("cubic spline interpolation needs at least 4 samples")
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


def log_magnitude(series: TriaxialSeries) -> ScalarSeries:
    """log10 of the vector magnitude, floored at 1e-6 to guard idle sensors."""
    mag = np.linalg.norm(series.samples, axis=1)
    return ScalarSeries(rate=series.rate,
                        values=np.log10(np.maximum(mag, 1e-6)))


def windowed_energy(series: ScalarSeries, window: int) -> ScalarSeries:
    """Root-sum-square energy of consecutive non-overlapping windows.

    A trailing partial window is discarded.
    """
    if window < 1:
        raise ValidationError("window must be >= 1")
    if len(series) == 0:
        raise ValidationError("input series is empty")
    if len(series) < window:
        raise ValidationError(
            f"window {window} larger than input length {len(series)}")
    n_win = len(series) // window
    chunks = series.values[: n_win * window].reshape(n_win, window)
    energy = np.sqrt(np.sum(chunks ** 2, axis=1))
    return ScalarSeries(rate=series.rate / window, values=energy)


def lowpass_filter(series: ScalarSeries, cutoff: float) -> ScalarSeries:
    """Zero-phase fourth-order Butterworth low-pass filter.

    Applied forward-backward so segment boundaries are not displaced in time.
    """
    from scipy import signal as sps

    nyquist = series.rate / 2.0
    if not 0 < cutoff < nyquist:
        raise ValidationError(
            f"cutoff {cutoff} Hz must lie in (0, {nyquist}) Hz")
    sos = sps.butter(4, cutoff / nyquist, btype="low", output="sos")
    filtered = sps.sosfiltfilt(sos, series.values)
    return series.with_values(filtered)


def downsample(series: ScalarSeries, factor: int) -> ScalarSeries:
    """Keep every ``factor``-th sample starting at index 0.

    The caller is responsible for having low-pass filtered the series below
    (rate / factor) / 2 first; no anti-aliasing is applied here.
    """
    if factor < 1:
        raise ValidationError("factor must be a positive integer")
    return ScalarSeries(rate=series.rate / factor,
                        values=series.values[::factor])


def power_spectrum(series: ScalarSeries, segment_length: int | None = None) -> SpectrumEstimate:
    """Welch-averaged periodogram with half-overlapping, mean-removed segments.

    Default segment length is 4 seconds of samples (capped at the series
    length). Power is normalized so that the integral over frequency matches
    the series variance (one-sided density).
    """
    from scipy import signal as sps

    if segment_length is None:
        segment_length = min(int(round(4 * series.rate)), len(series))
    if segment_length > len(series):
        raise ValidationError(
            f"segment length {segment_length} exceeds series length {len(series)}")
    freqs, power = sps.welch(series.values, fs=series.rate,
                             nperseg=segment_length,
                             noverlap=segment_length // 2, detrend="constant")
    power = np.maximum(power, 0.0)
    return SpectrumEstimate(frequencies=freqs, power=power)
