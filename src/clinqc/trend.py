"""Piecewise-linear trend estimation and gravity removal.

The device-orientation component of raw acceleration is modelled as a
piecewise-linear trend per axis and estimated by L1 trend filtering (Kim,
Koh, Boyd & Gorinevsky, SIAM Review 2009): half the squared distance to the
data plus an L1 penalty on second differences of the trend. The filter
works on a plain 1-D sequence and never reads a sample rate.
``remove_gravity`` solves each column of an ``(n, k)`` array on its own
from a cold start, so a column's trend does not depend on the others. It
fits that trend on a knot grid: the filter runs on the means of
consecutive blocks of ``_KNOT_SPACING = 4`` samples (30 Hz at the walking
recipe's 120 Hz), with lambda kept in sample units, and the knot trend is
interpolated linearly back to every sample. That is a quarter of the
Newton system; on a 10-min walking input the trend differs from the
full-rate one by under 1e-4 of the dynamic RMS.

The solver works on the dual, a box-constrained QP in ``nu``: minimise
``0.5 nu^T D D^T nu - (D x)^T nu`` subject to ``|nu_i| <= lam``; the trend is
``g = x - D^T nu``. A primal-dual interior-point method with Mehrotra
predictor-corrector steps (Nocedal & Wright, "Numerical Optimization",
section 16.6) solves it. Each Newton step factors the pentadiagonal
``D D^T`` (bands 6, -4, 1) plus a barrier diagonal once with LAPACK's banded
Cholesky (``dpbtrf``) and solves with that factor twice (``dpbtrs``). The
solver stops on the primal-dual gap, so the trend it returns comes with a
certificate of how far its objective is from the optimum. Its settings
are arguments of ``l1_trend_filter``. scipy is imported on first use.

The trend does not depend on the BLAS thread count: the solver's long dot
products are summed by numpy (``_dot``), not by BLAS, so walking and
balance artifacts are the same bytes at any thread count.

Memory is one column's working set. ``l1_trend_filter`` allocates its
Newton-step vectors once per call and updates them in place, with the
same floating-point operations in the same order as the written
formulas, so it peaks at about 20 float64 a sample. ``remove_gravity``
runs it on a quarter of the samples and subtracts each column's
interpolated trend straight into its output, keeping no (n, k) trend: it
peaks at about 8 float64 a sample of a 3-column input, the output's 3
included.
"""
from __future__ import annotations

import warnings

import numpy as np

from .errors import ClinQcError, NoConvergenceWarning, ValidationError
from .series import as_float_array

# samples between gravity knots (see ``_gravity_trend``)
_KNOT_SPACING = 4


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a @ b`` summed by numpy in one thread: a BLAS ``ddot`` splits a
    long sum across its threads, so its rounding follows the thread count."""
    return np.einsum("i,i->", a, b)


def _second_difference(g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``D g = g[:-2] - 2 g[1:-1] + g[2:]``, into ``out`` when given."""
    out = np.multiply(2, g[1:-1], out=out)
    np.subtract(g[:-2], out, out=out)
    out += g[2:]
    return out


def _second_difference_transpose(w: np.ndarray, out: np.ndarray,
                                 scratch: np.ndarray) -> np.ndarray:
    """``D^T w`` into ``out`` (two longer than ``w``); ``scratch`` takes ``2 w``."""
    out.fill(0.0)
    out[:-2] += w
    out[1:-1] -= np.multiply(2, w, out=scratch)
    out[2:] += w
    return out


def _ddt_banded(diag: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Lower banded form of ``D D^T + diag(diag)`` (bandwidth 2).

    ``D D^T`` is Toeplitz: rows ``[1, -2, 1]`` of D one place apart have
    inner product -4, two places apart 1, and each has squared norm 6.
    Row ``k`` holds the ``k``-th subdiagonal; LAPACK factors this form
    about twice as fast as the upper one. ``out`` is a form from an
    earlier call, which the Cholesky factor has overwritten.
    """
    m = len(diag)
    # Fortran order, so LAPACK works on it in place
    ab = np.zeros((m, 3)).T if out is None else out
    np.add(6.0, diag, out=ab[0])
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


def _max_step(s1: np.ndarray, s2: np.ndarray, dy: np.ndarray,
              *pairs: tuple[np.ndarray, np.ndarray], scratch: np.ndarray) -> float:
    """Largest ``a`` that keeps ``s1 - a dy``, ``s2 + a dy`` and each
    ``v + a dv`` of ``pairs`` non-negative, all of ``s1``, ``s2`` and ``v``
    positive. Each ratio goes through ``scratch``; ``min(-dy / s1)`` is
    taken as ``-max(dy / s1)``, which is exact."""
    worst = min(-float(np.max(np.divide(dy, s1, out=scratch))),
                float(np.min(np.divide(dy, s2, out=scratch))),
                *(float(np.min(np.divide(dv, v, out=scratch))) for v, dv in pairs))
    return -1.0 / worst if worst < 0 else np.inf


def _objective(x: np.ndarray, g: np.ndarray, lam: float,
               abs_dg: np.ndarray | None = None,
               scratch: np.ndarray | None = None) -> float:
    """0.5 * |x - g|^2 + lam * |D g|_1; ``abs_dg`` is ``|D g|`` when already
    at hand, and ``scratch`` (the length of ``x``) takes ``x - g``."""
    if abs_dg is None:
        abs_dg = np.abs(_second_difference(g))
    resid = np.subtract(x, g, out=scratch)
    return 0.5 * float(np.sum(np.square(resid, out=resid))) + lam * float(np.sum(abs_dg))


def default_lambda(values: np.ndarray) -> float:
    return 50.0 * (len(values) / 1000.0) * float(np.std(values))


def check_lambda(lam: float | None) -> None:
    """Raise ``ValidationError`` unless ``lam`` is None or finite and >= 0."""
    if lam is not None and not (np.isfinite(lam) and lam >= 0):
        raise ValidationError(f"lambda must be finite and non-negative, got {lam}")


def l1_trend_filter(values: np.ndarray, lam: float | None = None, *,
                    tolerance: float = 1e-6, max_iterations: int = 100,
                    trace_out: list | None = None) -> np.ndarray:
    """The piecewise-linear trend of ``values``, a finite 1-D sequence.

    Minimizes 0.5 * sum (x_t - g_t)^2 + lam * sum |g_{t-1} - 2 g_t + g_{t+1}|
    over interior points; ``lam=None`` selects ``default_lambda``, tuned on
    synthetic drift fixtures. The solver stops once the primal-dual gap is
    at most ``tolerance`` times the objective or below the rounding error
    of its own evaluation, so the objective of the returned trend exceeds
    the optimum by at most that gap. Returns the best iterate found; emits
    ``NoConvergenceWarning`` if ``max_iterations`` Newton steps come first.
    When ``trace_out`` is given, the objective of the best iterate so far
    is appended each iteration (a non-increasing sequence).
    """
    check_lambda(lam)
    if max_iterations < 1:
        raise ValidationError("max_iterations must be >= 1")
    if not (np.isfinite(tolerance) and tolerance > 0):
        raise ValidationError(f"tolerance must be finite and positive, got {tolerance}")
    x = as_float_array(values, "values", 1)
    n = len(x)
    if n < 3:
        raise ValidationError("trend filtering needs at least 3 samples")
    lam = default_lambda(x) if lam is None else lam
    if lam == 0:
        return x.copy()

    # Solve on the residual of the least-squares affine fit. The affine part
    # is penalty-free and shifts the solution exactly, so this makes the
    # (input + affine) -> (trend + affine) invariance hold by construction
    # and improves conditioning.
    affine_basis = np.column_stack([np.arange(n, dtype=float), np.ones(n)])
    affine_coef, *_ = np.linalg.lstsq(affine_basis, x, rcond=None)
    affine = affine_basis @ affine_coef
    del affine_basis
    x_scale = 4.0 * float(np.max(np.abs(x)))
    x = x - affine

    # y = nu / lam lies in [-1, 1], with multipliers mu1 for y <= 1 and mu2
    # for y >= -1. The slacks s1 = 1 - y and s2 = 1 + y take the same steps
    # as y and are never recomputed from it, so they stay positive where y
    # is within rounding of a bound. The start is dual-feasible:
    # D D^T y - c + mu1 - mu2 = 0 at y = 0, with c = D x / lam.
    m = n - 2
    c = _second_difference(x) / lam
    y = np.zeros(m)
    s1 = np.ones(m)
    s2 = np.ones(m)
    spread = float(np.mean(np.abs(c)))
    mu1 = np.maximum(c, 0.0) + spread
    mu2 = np.maximum(-c, 0.0) + spread
    del c
    # Each entry of D g carries a rounding error of about
    # eps * (4 max|x| + lam max|y|), the first part from subtracting the
    # affine fit, so a gap below (n - 2) * lam times that is not resolvable.
    rounding = np.finfo(float).eps * (n - 2) * lam
    # The Newton-step vectors, allocated once and updated in place: every
    # expression below is evaluated in the same operations and order as
    # its written form, into these buffers instead of fresh temporaries.
    # g and best_g swap when g improves; after that test, g is scratch.
    g, best_g, resid = np.empty(n), None, np.empty(n)
    grad, w1, w2, dy, dmu1, dmu2, tmp = (np.empty(m) for _ in range(7))
    ab = None
    best_obj = np.inf
    converged = False
    for _ in range(max_iterations):
        # g = x - lam * D^T y, and D g
        _second_difference_transpose(y, out=g, scratch=tmp)
        g *= lam
        np.subtract(x, g, out=g)
        dg = _second_difference(g, out=grad)
        abs_dg = np.abs(dg, out=tmp)
        obj = _objective(x, g, lam, abs_dg, scratch=resid)
        if obj < best_obj:
            best_obj = obj
            best_g, g = g, (np.empty(n) if best_g is None else best_g)
        if trace_out is not None:
            trace_out.append(best_obj)
        # P(g) - dual(nu), written as a sum of non-negative terms:
        # lam * sum(|D g| - y * D g)
        gap = lam * float(np.sum(np.subtract(abs_dg, np.multiply(y, dg, out=resid[:m]),
                                             out=abs_dg)))
        floor = rounding * (x_scale + lam * float(np.max(np.abs(y, out=tmp))))
        if gap <= max(tolerance * obj, floor):
            converged = True
            break

        # Newton steps towards D D^T y - c + mu1 - mu2 = 0 and
        # s1 * mu1 = s2 * mu2 = target, with ds1 = -dy and ds2 = dy.
        # Eliminating ds and dmu leaves
        # (D D^T + diag(mu1 / s1 + mu2 / s2)) dy = grad - e1 + e2,
        # where grad = c - D D^T y = D g / lam and each e is
        # (target + second-order term) / s, zero for the predictor.
        grad /= lam
        np.divide(mu1, s1, out=w1)
        np.divide(mu2, s2, out=w2)
        ab = _ddt_banded(np.add(w1, w2, out=tmp), out=ab)
        chol = _banded_cholesky(ab)
        # predictor: the affine-scaling direction, aiming at s * mu = 0;
        # dmu1 = w1 * dy - mu1 and dmu2 = -w2 * dy - mu2
        np.copyto(dy, grad)
        dy = _banded_solve(chol, dy)
        np.multiply(w1, dy, out=dmu1)
        dmu1 -= mu1
        np.negative(w2, out=dmu2)
        dmu2 *= dy
        dmu2 -= mu2
        step = min(1.0, _max_step(s1, s2, dy, (mu1, dmu1), (mu2, dmu2), scratch=tmp))
        tau = (_dot(s1, mu1) + _dot(s2, mu2)) / (2 * m)  # mean of s * mu
        # tau_aff: the mean of s * mu after the predictor's step,
        # ((s1 - step dy) @ (mu1 + step dmu1) + (s2 + step dy) @ (mu2 + step dmu2)) / 2m
        step_dy = np.multiply(step, dy, out=tmp)
        moved_s, moved_mu = g[:m], resid[:m]
        np.subtract(s1, step_dy, out=moved_s)
        np.add(mu1, np.multiply(step, dmu1, out=moved_mu), out=moved_mu)
        tau_aff = _dot(moved_s, moved_mu)
        np.add(s2, step_dy, out=moved_s)
        np.add(mu2, np.multiply(step, dmu2, out=moved_mu), out=moved_mu)
        tau_aff = (tau_aff + _dot(moved_s, moved_mu)) / (2 * m)
        target = (tau_aff / tau) ** 3 * tau
        # corrector: centre on the target and cancel the predictor's
        # second-order term in s * mu, with e1 = (target + dy * dmu1) / s1
        # and e2 = (target - dy * dmu2) / s2 in the predictor's dmu buffers
        e1 = dmu1
        e1 *= dy
        e1 += target
        e1 /= s1
        e2 = dmu2
        e2 *= dy
        np.subtract(target, e2, out=e2)
        e2 /= s2
        np.subtract(grad, e1, out=dy)
        dy += e2
        dy = _banded_solve(chol, dy)
        # dmu1 = e1 - mu1 + w1 * dy and dmu2 = e2 - mu2 - w2 * dy, in place
        e1 -= mu1
        e1 += np.multiply(w1, dy, out=w1)
        e2 -= mu2
        e2 -= np.multiply(w2, dy, out=w2)
        step = min(1.0, 0.99 * _max_step(s1, s2, dy, (mu1, dmu1), (mu2, dmu2), scratch=tmp))
        step_dy = np.multiply(step, dy, out=tmp)
        y += step_dy
        s1 -= step_dy
        s2 += step_dy
        mu1 += np.multiply(step, dmu1, out=dmu1)
        mu2 += np.multiply(step, dmu2, out=dmu2)
    if best_g is None:
        raise ClinQcError("trend filter objective is not finite: the values are too large "
                          f"to square, or lambda * sum |D g| overflows at lambda = {lam:g}")
    if not converged:
        warnings.warn("trend filter hit the iteration cap; returning best iterate",
                      NoConvergenceWarning)
    best_g += affine
    return best_g


def _gravity_trend(column: np.ndarray, lam: float | None) -> np.ndarray:
    """One column's trend, solved on the means of consecutive blocks of
    ``_KNOT_SPACING`` samples and interpolated linearly from the block
    centres back to every sample.

    The knots are evenly spaced, as the solver's second differences assume,
    so the up to ``m - 1`` samples after the last whole block join no block;
    they and the half blocks at either end lie on the end segments, which
    continue as lines. An affine column is then removed to the last sample.
    A column of fewer than three whole blocks is solved at full rate.

    ``lam`` is in sample units. For a trend g linear between knots c that
    lie m samples apart, ``lam |D g|_1 = (lam / m) |D c|_1`` and the fit term
    is about ``(m / 2) |x_bar - c|^2`` plus a constant, so the full-rate
    problem is about m * (0.5 |x_bar - c|^2 + lam / m^2 |D c|_1). The block
    solve runs at ``lam`` on ``m^2 x_bar``: that problem scaled by m^4,
    exactly, as m^2 is a power of two. So it is the ``lam / m^2`` solve
    on ``x_bar`` bit for bit, and the solver's messages name ``lam``.
    """
    m = _KNOT_SPACING
    n = len(column)
    blocks = n // m
    if blocks < 3:
        return l1_trend_filter(column, lam)
    lam = default_lambda(column) if lam is None else lam
    # m^2 times the block means: m times the block sums, which come from
    # strided slices, not from a reduction along a short axis
    scaled = column[:blocks * m:m].copy()
    for k in range(1, m):
        scaled += column[k:blocks * m:m]
    scaled *= m
    knots = l1_trend_filter(scaled, lam)
    knots /= m * m
    centres = np.arange(blocks) * float(m) + (m - 1) / 2
    # np.interp holds the end knots flat; one more knot on each end
    # segment's line, two spacings out, reaches past the first and last
    # sample, so those segments continue as lines instead
    xp = np.concatenate(([centres[0] - 2 * m], centres, [centres[-1] + 2 * m]))
    fp = np.concatenate(([3 * knots[0] - 2 * knots[1]], knots,
                         [3 * knots[-1] - 2 * knots[-2]]))
    return np.interp(np.arange(n, dtype=float), xp, fp)


def remove_gravity(samples: np.ndarray, lam: float | None = None) -> np.ndarray:
    """The gravity-free (dynamic) signal of an ``(n, k)`` array: input -
    trend, per column.

    Each column is solved independently, on its own knot grid (see
    ``_gravity_trend``): ``lam`` is in sample units, and ``None`` selects
    ``default_lambda`` of the full-rate column. Each trend is subtracted
    straight into its column of the output, so besides the output only one
    column's working set is alive at a time. At ``lam = 0`` the trend is
    the interpolated block means.
    """
    samples = as_float_array(samples, "samples", 2)
    dynamic = np.empty_like(samples)
    for column, out in zip(samples.T, dynamic.T):
        np.subtract(column, _gravity_trend(column, lam), out=out)
    return dynamic
