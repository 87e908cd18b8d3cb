"""Two-component Gaussian mixture segmentation with median smoothing.

The simpler quality-control path: fit a two-component GMM to the scalar
feature by E-M, assign each time point to its more probable component,
smooth the indicator sequence with a repeated moving median, and orient the
components to adherence or violation by comparing their means.

E-M and MAP assignment hold per-point arrays component-major, shape (2, T).
A reduction over the components then runs along the leading axis, one
elementwise pass over T per component, instead of along a length-2
trailing axis, which numpy walks one short row at a time (at T = 18,000,
on a 2-vCPU Xeon virtual machine, a ``max`` or ``sum`` takes 0.4-0.9 ms
that way against 0.01-0.02 ms). Sums over T keep the order numpy uses for
a C-ordered (T, 2) array, and the means product keeps that operand layout,
so the fit is bit-identical to the time-major E-M the tests hold it to.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ClinQcError, ValidationError
from .series import (ADHERENCE, VIOLATION, AdherenceLabels, ScalarSeries, StateSequence,
                     check_simplex)

_LOG_2PI = float(np.log(2.0 * np.pi))


class TestKind(enum.Enum):
    WALKING = "walking"
    BALANCE = "balance"
    VOICE = "voice"


@dataclass
class GmmParams:
    """One-dimensional two-component Gaussian mixture parameters."""

    means: np.ndarray
    variances: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        self.variances = np.asarray(self.variances, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if not len(self.means) == len(self.variances) == len(self.weights) == 2:
            raise ValidationError("need 2 means, variances and weights")
        if not (np.all(np.isfinite(self.means)) and np.all(np.isfinite(self.variances))):
            raise ValidationError("means and variances must be finite")
        if np.any(self.variances <= 0):
            raise ValidationError("variances must be positive")
        check_simplex(self.weights, "weights must form a simplex")


def _log_responsibilities(params: GmmParams, x: np.ndarray) -> np.ndarray:
    """Unnormalized per-component log posteriors, shape (2, T)."""
    log_w = np.log(params.weights)
    diff = x[None, :] - params.means[:, None]
    return ((log_w - 0.5 * (_LOG_2PI + np.log(params.variances)))[:, None]
            - 0.5 * diff ** 2 / params.variances[:, None])


def _normalize(lr: np.ndarray, out: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Per-point log normalizer (T,) and responsibilities (2, T) of ``lr``.

    The responsibilities are written to ``out`` when it is given.
    """
    m = lr.max(axis=0)
    e = np.exp(lr - m)
    total = e.sum(axis=0)
    return m + np.log(total), np.divide(e, total, out=out)


def _sum_over_points(a: np.ndarray) -> np.ndarray:
    """Sum a (2, T) array over T, in the order numpy sums a C-ordered (T, 2):
    sequentially, row after row."""
    return np.add.accumulate(a, axis=1)[:, -1]


def _quantile_init(x: np.ndarray, jitter: np.ndarray) -> GmmParams:
    # Split the sorted data into two equal halves and use their statistics.
    halves = np.array_split(np.sort(x), 2)
    means = np.array([h.mean() for h in halves]) + jitter
    var = max(float(np.var(x)), 1e-12)
    return GmmParams(means=means, variances=np.full(2, var), weights=np.full(2, 0.5))


def fit_gmm_em(data: ScalarSeries, *, seed: int = 0) -> tuple[GmmParams, np.ndarray]:
    """Fit a two-component 1-D GMM by expectation-maximization.

    Runs five restarts of at most 500 iterations each, stopping a restart
    when the log-likelihood gains less than 1e-8 of its magnitude; ``seed``
    draws the jitter of restarts 1-4. Returns the parameters and the (T, 2)
    responsibility matrix of the best restart. The log-likelihood is
    checked to be non-decreasing on every iteration.

    Each iteration writes the responsibilities into a C-ordered (T, 2)
    array and works on its (2, T) transpose: the E-step takes the max, the
    ``exp`` and the sum over components once and uses them for both the
    log-likelihood and the responsibilities; the M-step sums over T
    sequentially (``_sum_over_points``) and hands the (T, 2) array,
    transposed, to BLAS for the means.
    """
    x = data.values
    if len(x) < 20:
        raise ValidationError("need at least 20 points for K=2")
    data_var = float(np.var(x))
    if data_var == 0:
        raise ClinQcError("all data points identical")
    var_floor = max(1e-8 * data_var, 1e-300)
    rng = np.random.default_rng(seed)

    best: tuple[float, GmmParams, np.ndarray] | None = None
    for restart in range(5):
        scale = float(np.std(x)) if restart > 0 else 0.0
        jitter = rng.normal(0.0, 0.1 * scale, size=2) if restart > 0 else np.zeros(2)
        params = _quantile_init(x, jitter)
        prev_ll = -np.inf
        for _ in range(500):
            # BLAS picks its summation order from the operand layout, so the
            # responsibilities live in a C-ordered (T, 2) array and the E-M
            # works on its (2, T) transpose.
            resp_tk = np.empty((len(x), 2))
            log_norm, resp = _normalize(_log_responsibilities(params, x), out=resp_tk.T)
            ll = float(np.sum(log_norm))
            if ll < prev_ll - 1e-9 * max(abs(prev_ll), 1.0):
                raise ClinQcError("E-M log-likelihood decreased")

            nk = _sum_over_points(resp)
            if np.any((nk / len(x)) < 1e-6):
                raise ClinQcError("component weight collapsed")
            means = resp_tk.T @ x / nk
            variances = _sum_over_points(resp * (x - means[:, None]) ** 2) / nk
            variances = np.maximum(variances, var_floor)
            params = GmmParams(means=means, variances=variances, weights=nk / len(x))
            if ll - prev_ll < 1e-8 * max(abs(ll), 1.0):
                prev_ll = ll
                break
            prev_ll = ll
        if best is None or prev_ll > best[0]:
            best = (prev_ll, params, resp_tk)
    return best[1], best[2]


def map_assign(params: GmmParams, data: ScalarSeries) -> StateSequence:
    """Assign each point to its most probable component.

    Ties break toward the lower component index (argmax on exact equality).
    """
    lr = _log_responsibilities(params, data.values)
    _, post = _normalize(lr)
    return StateSequence(indicators=np.argmax(lr, axis=0), posteriors=post.T)


def _median_pass(values: np.ndarray, window: int) -> np.ndarray:
    half = window // 2
    padded = np.concatenate([np.repeat(values[0], half), values,
                             np.repeat(values[-1], half)])
    stacked = np.lib.stride_tricks.sliding_window_view(padded, window)
    return np.median(stacked, axis=1).astype(values.dtype)


def median_smooth_to_convergence(states: StateSequence, window: int) -> StateSequence:
    """Repeat a moving median over the indicators until a pass changes nothing.

    At most 100 passes are made. Edges are handled by replicating the
    boundary value.
    """
    if window < 3 or window % 2 == 0:
        raise ValidationError("window must be odd and >= 3")
    values = states.indicators.copy()
    for _ in range(100):
        smoothed = _median_pass(values, window)
        if np.array_equal(smoothed, values):
            break
        values = smoothed
    return StateSequence(indicators=values)


def mean_rule_adherence(params: GmmParams, smoothed: StateSequence,
                        kind: TestKind, rate: float) -> AdherenceLabels:
    """Orient the two components to adherence/violation by their means.

    Walking and voice tests: the larger-mean component is adherence. Balance
    tests: the larger-mean component is violation.
    """
    mu = params.means
    if abs(mu[0] - mu[1]) < 1e-9:
        raise ClinQcError("component means coincide; cannot orient labels")
    larger = int(np.argmax(mu))
    if kind in (TestKind.WALKING, TestKind.VOICE):
        label_of_larger = ADHERENCE
    else:
        label_of_larger = VIOLATION
    other = VIOLATION if label_of_larger == ADHERENCE else ADHERENCE
    labels = np.where(smoothed.indicators == larger, label_of_larger, other)
    return AdherenceLabels(rate=rate, labels=labels)
