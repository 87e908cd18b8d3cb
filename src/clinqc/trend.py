"""Piecewise-linear trend estimation and gravity removal.

The device-orientation component of raw acceleration is modelled as a
piecewise-linear trend per axis and estimated by L1 trend filtering (Kim,
Koh, Boyd & Gorinevsky, SIAM Review 2009): a squared (or optionally
absolute) data-fidelity term plus an L1 penalty on second differences of
the trend. The convex problem is solved by ADMM, each axis on its own from
a cold start, so an axis's trend does not depend on the other axes. Its quadratic subproblem
``(diag_add * I + rho * D^T D) g = rhs`` is pentadiagonal: the three bands
are written down in closed form and factored with LAPACK's banded Cholesky
(``dpbtrf``/``dpbtrs``), so a change of ``rho`` by residual balancing
(Boyd et al., "Distributed optimization ... ADMM", FnT ML 2011, section
3.4.1) costs one O(n) refactorisation. The primal and dual residuals are
computed only on iterations that may stop or rebalance. scipy is imported
on first use.
"""
from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ClinQcError, NoConvergenceWarning, TooShort, ValidationError
from .series import ScalarSeries, TriaxialSeries


@dataclass
class TrendFilterConfig:
    """Configuration for the L1 trend filter.

    ``lam=None`` selects the default 50 * (T / 1000) * std(x), which was
    tuned on synthetic drift fixtures.
    """

    lam: float | None = None
    max_iterations: int = 5000
    tolerance: float = 1e-5
    fidelity: str = "squared"  # "squared" or "l1"

    def __post_init__(self):
        if self.lam is not None and not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValidationError(
                f"lambda must be finite and non-negative, got {self.lam}")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if not (np.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValidationError(
                f"tolerance must be finite and positive, got {self.tolerance}")
        if self.fidelity not in ("squared", "l1"):
            raise ValidationError("fidelity must be 'squared' or 'l1'")


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


def _dtd_banded(n: int, diag_add: float, rho: float) -> np.ndarray:
    """Upper banded form of diag_add * I + rho * D^T D (bandwidth 2).

    Row ``[1, -2, 1]`` of D adds ``[1, 4, 1]`` to three diagonal entries,
    -2 to two first off-diagonal entries and 1 to one second off-diagonal
    entry; summing the rows gives the bands for every n >= 3.
    """
    d0 = np.zeros(n)
    d0[:-2] += 1.0
    d0[1:-1] += 4.0
    d0[2:] += 1.0
    d1 = np.zeros(n - 1)
    d1[:-1] -= 2.0
    d1[1:] -= 2.0
    ab = np.zeros((3, n))
    ab[2, :] = diag_add + rho * d0
    ab[1, 1:] = rho * d1
    ab[0, 2:] = rho
    return ab


def _banded_cholesky(ab: np.ndarray) -> np.ndarray:
    """Upper banded Cholesky factor of ``ab``, which it overwrites."""
    from scipy.linalg.lapack import dpbtrf

    chol, info = dpbtrf(ab, lower=0, overwrite_ab=1)
    if info != 0:
        raise ClinQcError(f"banded Cholesky factorisation failed (LAPACK info {info})")
    return chol


def _banded_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with the factor from ``_banded_cholesky``, overwriting ``rhs``."""
    from scipy.linalg.lapack import dpbtrs

    g, info = dpbtrs(chol, rhs, lower=0, overwrite_b=1)
    if info != 0:
        raise ClinQcError(f"banded Cholesky solve failed (LAPACK info {info})")
    return g


def _soft_threshold(v: np.ndarray, thresh: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)


def _objective(x: np.ndarray, g: np.ndarray, lam: float, fidelity: str,
               dg: np.ndarray | None = None) -> float:
    """Fidelity plus lam * |D g|_1; ``dg`` is ``D g`` when already at hand."""
    if fidelity == "squared":
        fit = 0.5 * float(np.sum((x - g) ** 2))
    else:
        fit = float(np.sum(np.abs(x - g)))
    if dg is None:
        dg = _second_difference(g)
    return fit + lam * float(np.sum(np.abs(dg)))


def default_lambda(values: np.ndarray) -> float:
    return 50.0 * (len(values) / 1000.0) * float(np.std(values))


def l1_trend_filter(series: ScalarSeries, config: TrendFilterConfig | None = None,
                    trace_out: list | None = None) -> ScalarSeries:
    """Estimate the piecewise-linear trend of a scalar series.

    Minimizes the data-fidelity term plus lam * sum |g_{t-1} - 2 g_t +
    g_{t+1}| over interior points. Returns the best iterate found; emits
    ``NoConvergenceWarning`` if the iteration cap is reached first. When
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
    x = x - affine

    scale = max(float(np.std(x)), 1e-12)
    rho = max(lam, 1e-3)
    g = x.copy()
    w = _second_difference(g)
    u = np.zeros(n - 2)
    if config.fidelity == "l1":
        ab = _dtd_banded(n, diag_add=rho, rho=rho)
        z1 = np.zeros(n)
        u1 = np.zeros(n)
    else:
        ab = _dtd_banded(n, diag_add=1.0, rho=rho)
    chol = _banded_cholesky(ab)

    best_g = g.copy()
    best_obj = _objective(x, g, lam, config.fidelity)
    converged = False
    # The raw objective tolerance is unreachable for ADMM residuals; its
    # square root matches the achievable optimality gap in practice.
    eps = max(np.sqrt(config.tolerance), 1e-8)
    window = deque(maxlen=20)
    for iteration in range(config.max_iterations):
        if config.fidelity == "l1":
            rhs = rho * (x + z1 - u1) + rho * _second_difference_transpose(w - u, n)
            g = _banded_solve(chol, rhs)
            z1 = _soft_threshold(g - x + u1, 1.0 / rho)
            u1 += g - x - z1
        else:
            rhs = x + rho * _second_difference_transpose(w - u, n)
            g = _banded_solve(chol, rhs)
        dg = _second_difference(g)
        w_old = w
        w = _soft_threshold(dg + u, lam / rho)
        u += dg - w

        obj = _objective(x, g, lam, config.fidelity, dg)
        if obj < best_obj:
            best_obj = obj
            best_g = g.copy()
        if trace_out is not None:
            trace_out.append(best_obj)

        # small residuals alone can be an artifact of a large rho slowing the
        # iterates down; also require the objective to have flattened out
        window.append(best_obj)
        stalled = (len(window) == window.maxlen
                   and window[0] - best_obj
                   < config.tolerance * window.maxlen * max(abs(best_obj), 1e-15))
        # residual balancing keeps the two residuals within an order of
        # magnitude of each other; changing rho invalidates the factorization
        rebalance = config.fidelity == "squared" and iteration % 10 == 9
        if not (stalled or rebalance):
            continue  # the residuals are needed only to stop or to rebalance
        primal = float(np.linalg.norm(dg - w))
        dual = rho * float(np.linalg.norm(
            _second_difference_transpose(w - w_old, n)))
        primal_tol = eps * (np.sqrt(n) + max(float(np.linalg.norm(dg)),
                                             float(np.linalg.norm(w)))) * max(scale, 1.0)
        dual_tol = eps * (np.sqrt(n) + float(np.linalg.norm(u)) * rho) * max(scale, 1.0)
        if stalled and primal < primal_tol and dual < dual_tol:
            converged = True
            break
        if rebalance:
            if primal > 10 * dual:
                rho *= 2.0
                u /= 2.0
            elif dual > 10 * primal:
                rho /= 2.0
                u *= 2.0
            else:
                continue
            chol = _banded_cholesky(_dtd_banded(n, diag_add=1.0, rho=rho))
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
