"""Piecewise-linear trend estimation and gravity removal.

The device-orientation component of raw acceleration is modelled as a
piecewise-linear trend per axis and estimated by L1 trend filtering (Kim,
Koh, Boyd & Gorinevsky, SIAM Review 2009): half the squared distance to the
data plus an L1 penalty on second differences of the trend. Each axis is
solved on its own from a cold start, so an axis's trend does not depend on
the other axes.

The solver works on the dual, a box-constrained QP in ``nu``: minimise
``0.5 nu^T D D^T nu - (D x)^T nu`` subject to ``|nu_i| <= lam``; the trend is
``g = x - D^T nu``. A primal-dual interior-point method with Mehrotra
predictor-corrector steps (Nocedal & Wright, "Numerical Optimization",
section 16.6) solves it. Each Newton step factors the pentadiagonal
``D D^T`` (bands 6, -4, 1) plus a barrier diagonal once with LAPACK's banded
Cholesky (``dpbtrf``) and solves with that factor twice (``dpbtrs``). The
solver stops on the primal-dual gap, so the trend it returns comes with a
certificate of how far its objective is from the optimum. scipy is imported
on first use.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ClinQcError, NoConvergenceWarning, TooShort, ValidationError
from .series import ScalarSeries, TriaxialSeries


@dataclass
class TrendFilterConfig:
    """Configuration for the L1 trend filter.

    ``lam=None`` selects the default 50 * (T / 1000) * std(x), which was
    tuned on synthetic drift fixtures. The solver stops once the primal-dual
    gap is at most ``tolerance`` times the objective or below the rounding
    error of its own evaluation, or after ``max_iterations`` Newton steps.
    """

    lam: float | None = None
    max_iterations: int = 100
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.lam is not None and not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValidationError(
                f"lambda must be finite and non-negative, got {self.lam}")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if not (np.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValidationError(
                f"tolerance must be finite and positive, got {self.tolerance}")


@dataclass
class GravityDecomposition:
    """Split of raw acceleration into gravitational trend and dynamic part."""

    trend: TriaxialSeries
    dynamic: TriaxialSeries

    def __post_init__(self):
        if len(self.trend) != len(self.dynamic) or self.trend.rate != self.dynamic.rate:
            raise ValidationError("trend and dynamic must share length and rate")


def _second_difference(g: np.ndarray) -> np.ndarray:
    return g[:-2] - 2 * g[1:-1] + g[2:]


def _second_difference_transpose(w: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n)
    out[:-2] += w
    out[1:-1] -= 2 * w
    out[2:] += w
    return out


def _ddt_banded(diag: np.ndarray) -> np.ndarray:
    """Lower banded form of ``D D^T + diag(diag)`` (bandwidth 2).

    ``D D^T`` is Toeplitz: rows ``[1, -2, 1]`` of D one place apart have
    inner product -4, two places apart 1, and each has squared norm 6.
    Row ``k`` holds the ``k``-th subdiagonal; LAPACK factors this form
    about twice as fast as the upper one.
    """
    m = len(diag)
    ab = np.zeros((m, 3)).T  # Fortran order, so LAPACK works on it in place
    ab[0] = 6.0 + diag
    ab[1, :m - 1] = -4.0
    ab[2, :m - 2] = 1.0
    return ab


def _banded_cholesky(ab: np.ndarray) -> np.ndarray:
    """Lower banded Cholesky factor of ``ab``, which it overwrites."""
    from scipy.linalg.lapack import dpbtrf

    chol, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info != 0:
        raise ClinQcError(f"banded Cholesky factorisation failed (LAPACK info {info})")
    return chol


def _banded_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with the factor from ``_banded_cholesky``, overwriting ``rhs``."""
    from scipy.linalg.lapack import dpbtrs

    g, info = dpbtrs(chol, rhs, lower=1, overwrite_b=1)
    if info != 0:
        raise ClinQcError(f"banded Cholesky solve failed (LAPACK info {info})")
    return g


def _max_step(*pairs: tuple[np.ndarray, np.ndarray]) -> float:
    """Largest ``a`` with ``v + a * dv >= 0`` for every pair, each ``v > 0``."""
    worst = min(float(np.min(dv / v)) for v, dv in pairs)
    return -1.0 / worst if worst < 0 else np.inf


def _objective(x: np.ndarray, g: np.ndarray, lam: float,
               dg: np.ndarray | None = None) -> float:
    """0.5 * |x - g|^2 + lam * |D g|_1; ``dg`` is ``D g`` when already at hand."""
    if dg is None:
        dg = _second_difference(g)
    return 0.5 * float(np.sum((x - g) ** 2)) + lam * float(np.sum(np.abs(dg)))


def default_lambda(values: np.ndarray) -> float:
    return 50.0 * (len(values) / 1000.0) * float(np.std(values))


def l1_trend_filter(series: ScalarSeries, config: TrendFilterConfig | None = None,
                    trace_out: list | None = None) -> ScalarSeries:
    """Estimate the piecewise-linear trend of a scalar series.

    Minimizes 0.5 * sum (x_t - g_t)^2 + lam * sum |g_{t-1} - 2 g_t + g_{t+1}|
    over interior points. The objective of the returned trend exceeds the
    optimum by at most the primal-dual gap at which the solver stopped.
    Returns the best iterate found; emits ``NoConvergenceWarning`` if the
    iteration cap is reached first. When
    ``trace_out`` is given, the objective of the best iterate so far is
    appended each iteration (a non-increasing sequence).
    """
    config = config or TrendFilterConfig()
    x = series.values
    n = len(x)
    if n < 3:
        raise TooShort("trend filtering needs at least 3 samples")
    lam = default_lambda(x) if config.lam is None else config.lam
    if lam == 0:
        return series.with_values(x.copy())

    # Solve on the residual of the least-squares affine fit. The affine part
    # is penalty-free and shifts the solution exactly, so this makes the
    # (input + affine) -> (trend + affine) invariance hold by construction
    # and improves conditioning.
    t_idx = np.arange(n, dtype=float)
    affine_basis = np.column_stack([t_idx, np.ones(n)])
    affine_coef, *_ = np.linalg.lstsq(affine_basis, x, rcond=None)
    affine = affine_basis @ affine_coef
    x_scale = 4.0 * float(np.max(np.abs(x)))
    x = x - affine

    # y = nu / lam lies in [-1, 1], with multipliers mu1 for y <= 1 and mu2
    # for y >= -1. The slacks s1 = 1 - y and s2 = 1 + y take the same steps
    # as y and are never recomputed from it, so they stay positive where y
    # is within rounding of a bound. The start is dual-feasible:
    # D D^T y - c + mu1 - mu2 = 0 at y = 0, with c = D x / lam.
    c = _second_difference(x) / lam
    y = np.zeros(n - 2)
    s1 = np.ones(n - 2)
    s2 = np.ones(n - 2)
    spread = float(np.mean(np.abs(c)))
    mu1 = np.maximum(c, 0.0) + spread
    mu2 = np.maximum(-c, 0.0) + spread
    # Each entry of D g carries a rounding error of about
    # eps * (4 max|x| + lam max|y|), the first part from subtracting the
    # affine fit, so a gap below (n - 2) * lam times that is not resolvable.
    rounding = np.finfo(float).eps * (n - 2) * lam
    best_obj = np.inf
    converged = False
    for _ in range(config.max_iterations):
        g = x - lam * _second_difference_transpose(y, n)
        dg = _second_difference(g)
        obj = _objective(x, g, lam, dg)
        if obj < best_obj:
            best_obj, best_g = obj, g
        if trace_out is not None:
            trace_out.append(best_obj)
        # P(g) - dual(nu), written as a sum of non-negative terms
        gap = lam * float(np.sum(np.abs(dg) - y * dg))
        floor = rounding * (x_scale + lam * float(np.max(np.abs(y))))
        if gap <= max(config.tolerance * obj, floor):
            converged = True
            break

        # Newton steps towards D D^T y - c + mu1 - mu2 = 0 and
        # s1 * mu1 = s2 * mu2 = target, with ds1 = -dy and ds2 = dy.
        # Eliminating ds and dmu leaves
        # (D D^T + diag(mu1 / s1 + mu2 / s2)) dy = grad - e1 + e2,
        # where grad = c - D D^T y = D g / lam and each e is
        # (target + second-order term) / s, zero for the predictor.
        grad = dg / lam
        w1 = mu1 / s1
        w2 = mu2 / s2
        chol = _banded_cholesky(_ddt_banded(w1 + w2))
        # predictor: the affine-scaling direction, aiming at s * mu = 0
        dy = _banded_solve(chol, grad.copy())
        dmu1 = w1 * dy - mu1
        dmu2 = -w2 * dy - mu2
        step = min(1.0, _max_step((s1, -dy), (s2, dy), (mu1, dmu1), (mu2, dmu2)))
        tau = (s1 @ mu1 + s2 @ mu2) / (2 * len(y))  # mean of s * mu
        tau_aff = ((s1 - step * dy) @ (mu1 + step * dmu1)
                   + (s2 + step * dy) @ (mu2 + step * dmu2)) / (2 * len(y))
        target = (tau_aff / tau) ** 3 * tau
        # corrector: centre on the target and cancel the predictor's
        # second-order term in s * mu
        e1 = (target + dy * dmu1) / s1
        e2 = (target - dy * dmu2) / s2
        dy = _banded_solve(chol, grad - e1 + e2)
        dmu1 = e1 - mu1 + w1 * dy
        dmu2 = e2 - mu2 - w2 * dy
        step = min(1.0, 0.99 * _max_step((s1, -dy), (s2, dy), (mu1, dmu1), (mu2, dmu2)))
        y += step * dy
        s1 -= step * dy
        s2 += step * dy
        mu1 += step * dmu1
        mu2 += step * dmu2
    if not converged:
        warnings.warn("trend filter hit the iteration cap; returning best iterate",
                      NoConvergenceWarning)
    return series.with_values(best_g + affine)


def remove_gravity(series: TriaxialSeries,
                   config: TrendFilterConfig | None = None) -> GravityDecomposition:
    """Per-axis trend filtering; dynamic = input - trend elementwise.

    Each axis is solved independently: its trend equals
    ``l1_trend_filter`` run on that axis alone.
    """
    config = config or TrendFilterConfig()
    if len(series) < 3:
        raise TooShort("gravity removal needs at least 3 samples")
    trend = np.empty_like(series.samples)
    for axis in range(3):
        axis_series = ScalarSeries(rate=series.rate, values=series.samples[:, axis])
        trend[:, axis] = l1_trend_filter(axis_series, config).values
    trend_series = TriaxialSeries(rate=series.rate, samples=trend)
    dynamic = TriaxialSeries(rate=series.rate, samples=series.samples - trend)
    return GravityDecomposition(trend=trend_series, dynamic=dynamic)
