"""Sensor-agnostic preprocessing: resampling, filtering, feature extraction,
spectral estimation.

The walking and balance recipes load only ``scipy.linalg``, whose LAPACK and
BLAS routines the trend filter needs as well: the cubic spline solves its
knot slopes with ``dgtsv`` and the Butterworth filter runs each
second-order section as a banded triangular solve (``dtbsv``). Only
``power_spectrum`` (the ``spectrum`` subcommand) loads ``scipy.signal``.
scipy is imported on first use, so importing this module (and the CLI)
stays cheap for commands that never resample or filter.

Triaxial data passes between the steps as a plain ``(n, 3)`` array, one
column per axis; only the scalar feature reduced from it is a
``ScalarSeries`` with a rate. ``interpolate_uniform`` holds one column's
working set at a time: it solves a column's knot slopes with one
``dgtsv`` call and evaluates that column's Hermite cubics into the output
before it starts the next column.
"""
from __future__ import annotations

import numpy as np

from .errors import ClinQcError, ValidationError
from .series import ScalarSeries, TimestampedTriaxial, as_float_array, check_rate

# Odd-extension length at each end of a filtered series: sosfiltfilt's
# default 3 * (2 * sections + 1) for the two sections of a 4th-order filter.
_PADLEN = 15
# Windows whose squares ``windowed_energy`` holds at a time.
_ENERGY_BLOCK = 256


def _not_a_knot_slopes(t: np.ndarray, dx: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Knot slopes of the not-a-knot cubic spline through knots ``t`` with
    spacings ``dx`` and secant slopes ``slope`` (one column).

    The tridiagonal system and its right-hand side are the ones scipy's
    ``CubicSpline`` builds, and LAPACK's ``dgtsv`` (its ``solve_banded``)
    solves them, so the slopes are bit-identical to ``CubicSpline``'s.
    The right-hand side is built before the three diagonals, so at most
    four knot-length arrays are alive at once.
    """
    from scipy.linalg.lapack import dgtsv

    d0, d1 = t[2] - t[0], t[-1] - t[-3]
    rhs = np.empty(len(t))
    inner = np.multiply(dx[1:], slope[:-1], out=rhs[1:-1])
    inner += dx[:-1] * slope[1:]
    inner *= 3
    rhs[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    diagonal = np.empty(len(t))
    np.add(dx[:-1], dx[1:], out=diagonal[1:-1])
    diagonal[1:-1] *= 2
    diagonal[0], diagonal[-1] = dx[1], dx[-2]
    upper = np.concatenate(([d0], dx[:-1]))
    lower = np.concatenate((dx[1:], [d1]))
    *_, slopes, info = dgtsv(lower, diagonal, upper, rhs, overwrite_dl=1,
                             overwrite_d=1, overwrite_du=1, overwrite_b=1)
    if info != 0:
        raise ClinQcError(f"spline slope system is singular (LAPACK info {info})")
    return slopes


def interpolate_uniform(raw: TimestampedTriaxial, target_rate: float) -> np.ndarray:
    """Resample a non-uniform 3-axis recording to a uniform grid.

    Returns the ``(n, 3)`` samples at ``t[0] + k / target_rate``, each
    column contiguous. Each axis is interpolated independently with a
    not-a-knot cubic spline, bit-identical to scipy's ``CubicSpline``. The
    output grid starts at the first observed timestamp and never extends
    past the last one (no extrapolation).

    The grid's intervals and offset powers are shared; everything else is
    one column's working set (secant and knot slopes, Hermite
    coefficients), formed and evaluated into the output before the next
    column starts. That holds the peak at about 14 float64 a sample, the
    output's 3 included.
    """
    check_rate(target_rate)
    if len(raw) < 4:
        raise ValidationError("cubic spline interpolation needs at least 4 samples")
    t = raw.timestamps
    n_out = int(np.floor((t[-1] - t[0]) * target_rate)) + 1
    grid = t[0] + np.arange(n_out) / target_rate
    # each grid point's interval, and its offset's powers
    k = np.clip(np.searchsorted(t, grid, "right") - 1, 0, len(t) - 2)
    h = grid - t[k]
    del grid
    h2 = h * h
    h3 = h2 * h
    dx = np.diff(t)
    out = np.empty((3, n_out))
    gathered = np.empty(n_out)
    for y, row in zip(raw.samples.T, out):
        slope = np.diff(y) / dx
        s = _not_a_knot_slopes(t, dx, slope)
        # Hermite coefficients of each interval, formed as CubicHermiteSpline
        # does: excess = (s[:-1] + s[1:] - 2 slope) / dx, c0 = excess / dx,
        # c1 = (slope - s[:-1]) / dx - excess, the last in slope's place
        c0 = np.multiply(2, slope)
        excess = np.add(s[:-1], s[1:])
        excess -= c0
        excess /= dx
        np.divide(excess, dx, out=c0)
        c1 = slope
        c1 -= s[:-1]
        c1 /= dx
        c1 -= excess
        del excess, slope
        # the cubic summed in PPoly's order: ((y + s h) + c1 h^2) + c0 h^3;
        # k is in range, and take's default mode would buffer its output
        np.take(s, k, out=row, mode="clip")
        row *= h
        row += np.take(y, k, out=gathered, mode="clip")
        row += np.multiply(np.take(c1, k, out=gathered, mode="clip"), h2, out=gathered)
        row += np.multiply(np.take(c0, k, out=gathered, mode="clip"), h3, out=gathered)
        del s, c0, c1    # before the next column's arrays are made
    return out.T


def magnitude(samples: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an ``(n, k)`` array."""
    return np.linalg.norm(as_float_array(samples, "samples", 2), axis=1)


def log_magnitude(samples: np.ndarray) -> np.ndarray:
    """log10 of each row's norm, floored at 1e-6 to guard idle sensors."""
    return np.log10(np.maximum(magnitude(samples), 1e-6))


def windowed_energy(series: ScalarSeries, window: int) -> ScalarSeries:
    """Root-sum-square energy of consecutive non-overlapping windows.

    A trailing partial window is discarded. The squares are summed a fixed
    block of windows at a time, so no squared copy of the whole series is
    made; each window's sum is bit-identical to one over all squares at once.
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
    energy = np.empty(n_win)
    squares = np.empty((min(n_win, _ENERGY_BLOCK), window))
    for start in range(0, n_win, _ENERGY_BLOCK):
        stop = min(start + _ENERGY_BLOCK, n_win)
        block = np.square(chunks[start:stop], out=squares[:stop - start])
        np.sum(block, axis=1, out=energy[start:stop])
    return ScalarSeries(rate=series.rate / window, values=np.sqrt(energy, out=energy))


def _butter_sos(wn: float) -> np.ndarray:
    """Second-order sections (2, 6) of the 4th-order Butterworth low-pass
    with cutoff ``wn`` (1 = Nyquist), bit-identical to scipy's
    ``butter(4, wn, output="sos")``.

    The analog prototype's poles are prewarped and mapped by the bilinear
    transform; each conjugate pair becomes one section with a double zero
    at -1, the pair farthest from the unit circle first, and the overall
    gain goes into section 0.
    """
    prototype = -np.exp(1j * np.pi * np.arange(-3.0, 4.0, 2.0) / (2 * 4))
    wo = float(4.0 * np.tan(np.pi * wn / 2.0))
    analog = wo * prototype
    gain = wo ** 4 * np.real(1.0 / np.prod(4.0 - analog))
    poles = (4.0 + analog) / (4.0 - analog)
    pairs = (poles[:2] + poles[:1:-1].conj()) / 2
    pairs = pairs[np.argsort(-np.abs(1 - np.abs(pairs)))]
    sos = np.zeros((2, 6))
    for section, pole in zip(sos, pairs):
        section[:3] = [1.0, 2.0, 1.0]
        section[3:] = np.convolve([1.0, -pole], [1.0, -pole.conj()]).real
    sos[0, :3] *= gain
    return sos


def _sos_zi(sos: np.ndarray) -> np.ndarray:
    """Initial states (sections, 2) of the cascade's steady-state response to
    a unit step, computed as scipy's ``sosfilt_zi`` does."""
    zi = np.empty((len(sos), 2))
    scale = 1.0
    for b, a, z in zip(sos[:, :3], sos[:, 3:], zi):
        i_minus_a = np.array([[1.0 + a[1], -1.0], [a[2], 1.0]])
        z[:] = scale * np.linalg.solve(i_minus_a, b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    return zi


def _sosfilt(sos: np.ndarray, zi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Run ``x`` through the cascade, each section starting from ``zi * x[0]``.

    A section's difference equation ``y[n] + a1 y[n-1] + a2 y[n-2] =
    b0 x[n] + b1 x[n-1] + b2 x[n-2]`` over the whole signal is a unit lower
    triangular banded system: the numerator forms its right-hand side, the
    initial state enters through the first two entries, and BLAS ``dtbsv``
    solves it.
    """
    from scipy.linalg.blas import dtbsv

    x0 = x[0]
    band = np.empty((3, len(x)), order="F")    # row 0, the unit diagonal, unread
    for (b0, b1, b2, _, a1, a2), z in zip(sos, zi):
        band[1], band[2] = a1, a2
        rhs = b0 * x
        rhs[1:] += b1 * x[:-1]
        rhs[2:] += b2 * x[:-2]
        rhs[:2] += z * x0
        x = dtbsv(2, band, rhs, lower=1, diag=1, overwrite_x=1)
    return x


def lowpass_filter(series: ScalarSeries, cutoff: float) -> ScalarSeries:
    """Zero-phase fourth-order Butterworth low-pass filter.

    Applied forward-backward so segment boundaries are not displaced in time,
    as scipy's ``sosfiltfilt`` does it: the series is extended at each end by
    15 samples of odd reflection, and each pass starts from the steady state
    of its first sample. Needs more than 15 samples.
    """
    nyquist = series.rate / 2.0
    if not 0 < cutoff < nyquist:
        raise ValidationError(
            f"cutoff {cutoff} Hz must lie in (0, {nyquist}) Hz")
    x = series.values
    if len(x) <= _PADLEN:
        raise ValidationError(
            f"low-pass filtering needs more than {_PADLEN} samples, got {len(x)}")
    sos = _butter_sos(cutoff / nyquist)
    zi = _sos_zi(sos)
    ext = np.concatenate((2 * x[0] - x[_PADLEN:0:-1], x,
                          2 * x[-1] - x[-2:-_PADLEN - 2:-1]))
    forward = _sosfilt(sos, zi, ext)
    backward = _sosfilt(sos, zi, forward[::-1])
    return ScalarSeries(rate=series.rate, values=backward[::-1][_PADLEN:-_PADLEN])


def downsample(series: ScalarSeries, factor: int) -> ScalarSeries:
    """Keep every ``factor``-th sample starting at index 0.

    The caller is responsible for having low-pass filtered the series below
    (rate / factor) / 2 first; no anti-aliasing is applied here.
    """
    if factor < 1:
        raise ValidationError("factor must be a positive integer")
    return ScalarSeries(rate=series.rate / factor,
                        values=series.values[::factor])


def power_spectrum(series: ScalarSeries,
                   segment_length: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Welch-averaged periodogram with half-overlapping, mean-removed segments.

    Returns scipy's ``(frequencies, power)``: frequencies in Hz, increasing
    from 0, and a one-sided density normalized so that its integral over
    frequency matches the series variance. Default segment length is 4
    seconds of samples (capped at the series length).
    """
    from scipy import signal as sps

    if segment_length is None:
        segment_length = min(int(round(4 * series.rate)), len(series))
    if segment_length > len(series):
        raise ValidationError(
            f"segment length {segment_length} exceeds series length {len(series)}")
    return sps.welch(series.values, fs=series.rate, nperseg=segment_length,
                     noverlap=segment_length // 2, detrend="constant")
