import warnings

import numpy as np
import pytest

from clinqc.errors import ClinQcError, NoConvergenceWarning, ValidationError
from clinqc.preprocess import interpolate_uniform
from clinqc.synth import RegimeInterval, SynthSpec, gen_gravity_drift
from clinqc.trend import (
    _ddt_banded,
    _objective,
    default_lambda,
    l1_trend_filter,
    remove_gravity,
)


def reference_l1_trend_filter(x, lam, tolerance=1e-6, max_iterations=100):
    """The interior-point loop written with a fresh array for every
    expression, as it stood before its buffers were allocated once per call.
    Returns the trend, the trace of best objectives, and whether it
    converged."""
    from scipy.linalg.lapack import dpbtrf, dpbtrs

    def second_difference(g):
        return g[:-2] - 2 * g[1:-1] + g[2:]

    def second_difference_transpose(w, n):
        out = np.zeros(n)
        out[:-2] += w
        out[1:-1] -= 2 * w
        out[2:] += w
        return out

    def dot(a, b):
        # summed in one thread, whatever the BLAS thread count
        return np.einsum("i,i->", a, b)

    def max_step(*pairs):
        worst = min(float(np.min(dv / v)) for v, dv in pairs)
        return -1.0 / worst if worst < 0 else np.inf

    n = len(x)
    affine_basis = np.column_stack([np.arange(n, dtype=float), np.ones(n)])
    affine_coef, *_ = np.linalg.lstsq(affine_basis, x, rcond=None)
    affine = affine_basis @ affine_coef
    x_scale = 4.0 * float(np.max(np.abs(x)))
    x = x - affine
    c = second_difference(x) / lam
    y = np.zeros(n - 2)
    s1 = np.ones(n - 2)
    s2 = np.ones(n - 2)
    spread = float(np.mean(np.abs(c)))
    mu1 = np.maximum(c, 0.0) + spread
    mu2 = np.maximum(-c, 0.0) + spread
    rounding = np.finfo(float).eps * (n - 2) * lam
    best_obj, trace, converged = np.inf, [], False
    for _ in range(max_iterations):
        g = x - lam * second_difference_transpose(y, n)
        dg = second_difference(g)
        obj = 0.5 * float(np.sum((x - g) ** 2)) + lam * float(np.sum(np.abs(dg)))
        if obj < best_obj:
            best_obj, best_g = obj, g
        trace.append(best_obj)
        gap = lam * float(np.sum(np.abs(dg) - y * dg))
        floor = rounding * (x_scale + lam * float(np.max(np.abs(y))))
        if gap <= max(tolerance * obj, floor):
            converged = True
            break
        grad = dg / lam
        w1 = mu1 / s1
        w2 = mu2 / s2
        ab = np.zeros((n - 2, 3)).T
        ab[0] = 6.0 + (w1 + w2)
        ab[1, :n - 3] = -4.0
        ab[2, :n - 4] = 1.0
        chol, info = dpbtrf(ab, lower=1)
        assert info == 0
        dy, info = dpbtrs(chol, grad.copy(), lower=1)
        dmu1 = w1 * dy - mu1
        dmu2 = -w2 * dy - mu2
        step = min(1.0, max_step((s1, -dy), (s2, dy), (mu1, dmu1), (mu2, dmu2)))
        tau = (dot(s1, mu1) + dot(s2, mu2)) / (2 * len(y))
        tau_aff = (dot(s1 - step * dy, mu1 + step * dmu1)
                   + dot(s2 + step * dy, mu2 + step * dmu2)) / (2 * len(y))
        target = (tau_aff / tau) ** 3 * tau
        e1 = (target + dy * dmu1) / s1
        e2 = (target - dy * dmu2) / s2
        dy, info = dpbtrs(chol, grad - e1 + e2, lower=1)
        dmu1 = e1 - mu1 + w1 * dy
        dmu2 = e2 - mu2 - w2 * dy
        step = min(1.0, 0.99 * max_step((s1, -dy), (s2, dy), (mu1, dmu1), (mu2, dmu2)))
        y += step * dy
        s1 -= step * dy
        s2 += step * dy
        mu1 += step * dmu1
        mu2 += step * dmu2
    return best_g + affine, trace, converged


@pytest.fixture(scope="module")
def walking_axis(walking_raw):
    """The first axis of the walking-size recording on its uniform grid."""
    return interpolate_uniform(walking_raw, 120.0)[:, 0].copy()


class TestDdtBanded:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 1000])
    def test_equals_dense_matrix_exactly(self, n):
        h = np.random.default_rng(n).exponential(size=n - 2)
        diff2 = np.diff(np.eye(n), 2, axis=0)
        dense = diff2 @ diff2.T + np.diag(h)
        ab = _ddt_banded(h)
        assert np.array_equal(ab[0], np.diag(dense))
        assert np.array_equal(ab[1, :-1], np.diag(dense, -1))
        assert np.array_equal(ab[2, :-2], np.diag(dense, -2))
        assert not ab[1, -1] and not ab[2, -2:].any()


class TestTrendFilterConfig:
    """The trend filter's settings, checked as its arguments."""

    @pytest.mark.parametrize("field, name", [("lam", "lambda"),
                                             ("tolerance", "tolerance")])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, name, value):
        with pytest.raises(ValidationError, match=name):
            l1_trend_filter(np.arange(10.0), **{field: value})

    def test_iteration_cap_below_one_rejected(self):
        with pytest.raises(ValidationError, match="max_iterations must be >= 1"):
            l1_trend_filter(np.arange(10.0), max_iterations=0)


class TestInputArrays:
    """The trend filter takes a finite 1-D array, gravity removal a finite
    2-D one."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_trend_filter_rejects_non_finite(self, value):
        x = np.arange(10.0)
        x[4] = value
        with pytest.raises(ValidationError, match="values contains non-finite"):
            l1_trend_filter(x)

    def test_trend_filter_rejects_2d(self):
        with pytest.raises(ValidationError, match="values must be 1-dimensional"):
            l1_trend_filter(np.zeros((10, 3)))

    def test_remove_gravity_rejects_1d(self):
        with pytest.raises(ValidationError, match="samples must be 2-dimensional"):
            remove_gravity(np.arange(10.0))

    def test_remove_gravity_rejects_non_finite(self):
        samples = np.zeros((10, 3))
        samples[2, 1] = np.nan
        with pytest.raises(ValidationError, match="samples contains non-finite"):
            remove_gravity(samples)


class TestL1TrendFilter:
    def test_linear_input_unchanged(self):
        t = np.arange(200.0)
        x = 2 * t + 1
        for lam in (0.0, 1.0, 100.0):
            out = l1_trend_filter(x, lam)
            assert np.max(np.abs(out - x)) < 1e-9

    def test_lambda_zero_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        out = l1_trend_filter(x, 0.0)
        assert np.array_equal(out, x)

    def test_kink_recovery_and_oracle(self, trend_filter_oracle):
        rng = np.random.default_rng(42)
        t = np.arange(500.0)
        truth = np.where(t < 250, 0.02 * t, 5.0 - 0.01 * (t - 250))
        x = truth + rng.normal(0, 0.05, size=500)
        out = l1_trend_filter(x, 50.0, tolerance=1e-8)
        assert np.max(np.abs(out - truth)) < 0.1

        # small-scale oracle comparison
        x50 = x[:50]
        _, oracle_obj = trend_filter_oracle(x50, 5.0)
        ours = l1_trend_filter(x50, 5.0, tolerance=1e-12, max_iterations=50_000)
        assert _objective(x50, ours, 5.0) <= oracle_obj + 1e-6

    def test_default_settings_reach_oracle(self, trend_filter_oracle):
        rng = np.random.default_rng(1)
        x = np.cumsum(rng.normal(size=200))
        _, oracle_obj = trend_filter_oracle(x, default_lambda(x))
        ours = l1_trend_filter(x)
        assert _objective(x, ours, default_lambda(x)) <= oracle_obj * (1 + 1e-6)

    def test_too_short(self):
        with pytest.raises(ValidationError, match="trend filtering needs at least 3 samples"):
            l1_trend_filter([1.0, 2.0])

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(4)
        x = np.cumsum(rng.normal(size=200))
        trace = []
        l1_trend_filter(x, 10.0, trace_out=trace)
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs <= 1e-12)

    def test_trace_ends_at_objective_of_result(self):
        rng = np.random.default_rng(5)
        x = np.cumsum(rng.normal(size=300))
        trace = []
        out = l1_trend_filter(x, 10.0, trace_out=trace)
        assert trace[-1] == pytest.approx(_objective(x, out, 10.0), rel=1e-9)

    def test_trace_out_is_keyword_only(self):
        with pytest.raises(TypeError, match="positional argument"):
            l1_trend_filter(np.arange(10.0), 1.0, 1e-6, 100, [])

    def test_iteration_cap_warns_and_returns_best_iterate(self):
        rng = np.random.default_rng(5)
        x = np.cumsum(rng.normal(size=300))
        trace = []
        with pytest.warns(NoConvergenceWarning):
            out = l1_trend_filter(x, 10.0, max_iterations=1, trace_out=trace)
        assert len(trace) == 1
        assert trace[-1] == pytest.approx(_objective(x, out, 10.0), rel=1e-9)

    @pytest.mark.parametrize("values", [0.3 * np.arange(100.0) - 2.0, np.full(100, 9.81)],
                             ids=["affine", "constant"])
    def test_affine_input_stops_at_first_iterate(self, values):
        trace = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = l1_trend_filter(values, 10.0, trace_out=trace)
        assert len(trace) == 1
        assert np.max(np.abs(out - values)) < 1e-9

    def test_affine_shift_moves_trend_only(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=300)
        t = np.arange(300.0)
        cfg = dict(lam=20.0, tolerance=1e-11, max_iterations=20_000)
        base = l1_trend_filter(x, **cfg)
        shifted = l1_trend_filter(x + 0.3 * t - 2.0, **cfg)
        assert np.max(np.abs(shifted - (base + 0.3 * t - 2.0))) < 1e-6

    def test_large_lambda_affine_limit(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=200) * 2.0
        lam = 1e6 * np.std(x)
        out = l1_trend_filter(x, lam, tolerance=1e-12, max_iterations=50_000)
        # affine within 1e-3: second differences vanish
        assert np.max(np.abs(np.diff(out, 2))) < 1e-3


class TestOverflow:
    def test_values_too_large_to_square_raise(self):
        # every objective overflows to inf, so no iterate is ever the best
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ClinQcError, match="objective is not finite"):
            l1_trend_filter([0.0, 1e200, 0.0, -1e200, 0.0])

    def test_lambda_too_large_is_named(self):
        # the values square to ordinary numbers; lambda * sum |D g| overflows
        x = np.sin(np.arange(50.0))
        with pytest.raises(ClinQcError, match=r"objective is not finite: .*lambda \* sum "
                                              r"\|D g\| overflows at lambda = 1e\+308"):
            l1_trend_filter(x, 1e308)


class TestRemoveGravity:
    def test_constant_input(self):
        samples = np.tile([0.0, 0.0, 9.81], (100, 1))
        dynamic = remove_gravity(samples, 5.0)
        # the trend, input - dynamic, is the input within 1e-6
        assert np.max(np.abs(dynamic)) < 1e-6

    def test_drift_plus_sinusoid(self):
        rate = 120.0
        t = np.arange(0, 30, 1 / rate)
        drift = np.column_stack([9.81 - 0.01 * t, 0.005 * t, 0.2 + 0.002 * t])
        sinusoid = 0.8 * np.sin(2 * np.pi * 4.0 * t)
        samples = drift + sinusoid[:, None]
        dynamic = remove_gravity(samples, 400.0)
        trend = samples - dynamic
        rms = lambda v: np.sqrt(np.mean(v**2))
        for axis in range(3):
            dyn = dynamic[:, axis]
            assert rms(dyn) >= 0.9 * rms(sinusoid)
            trend_err = trend[:, axis] - drift[:, axis]
            assert rms(trend_err) < 0.05 * rms(drift[:, axis] - drift[:, axis].mean() + 1e-9) + 0.05

    def test_axes_solved_independently(self):
        spec = SynthSpec(scenario="gravity-drift", duration=8.0, rate=120.0,
                         noise=0.05, seed=0,
                         schedule=[RegimeInterval(0, 0.0, 3.0),
                                   RegimeInterval(1, 3.0, 5.0),
                                   RegimeInterval(0, 5.0, 8.0)])
        raw, _, _ = gen_gravity_drift(spec)
        uniform = interpolate_uniform(raw, spec.rate)
        dynamic = remove_gravity(uniform)
        for axis in range(3):
            alone = remove_gravity(uniform[:, [axis]])
            assert np.array_equal(dynamic[:, [axis]], alone)

    def test_too_short(self):
        with pytest.raises(ValidationError, match="trend filtering needs at least 3 samples"):
            remove_gravity(np.zeros((2, 3)))

    @pytest.mark.parametrize("n", [3, 11, 12, 13, 14, 15, 1001], ids=lambda n: f"n={n}")
    @pytest.mark.parametrize("lam", [None, 0.0, 10.0])
    def test_affine_input_removed_to_the_ends(self, n, lam):
        # below 12 samples the trend is solved at full rate; from 12 on the
        # 0-3 samples after the last whole block lie on the end segment
        t = np.arange(float(n))
        samples = np.column_stack([0.3 * t - 2.0, np.full(n, 9.81), 5.0 - 0.01 * t])
        assert np.max(np.abs(remove_gravity(samples, lam))) < 1e-9

    @pytest.mark.parametrize("lam", [0.0, 3.0, None])
    def test_trend_is_the_block_solve_at_lambda_over_16(self, lam):
        # the trend at sample units' lam is the lam / 16 solve on the means
        # of blocks of 4, linear between the block centres 1.5, 5.5, ...
        rng = np.random.default_rng(3)
        x = np.cumsum(rng.normal(size=403))
        means = (x[0:400:4] + x[1:400:4] + x[2:400:4] + x[3:400:4]) / 4
        knots = l1_trend_filter(means, (default_lambda(x) if lam is None else lam) / 16)
        inner = np.arange(2, 398)
        expected = np.interp(inner, 4 * np.arange(100) + 1.5, knots)
        dynamic = remove_gravity(x[:, None], lam)[:, 0]
        assert np.array_equal(dynamic[inner], x[inner] - expected)

    def test_knot_grid_close_to_full_rate(self, walking_raw):
        # 71,999 samples: the knot-grid trend against the full-rate l1 trend
        # of each axis, relative to that axis's full-rate dynamic RMS
        uniform = interpolate_uniform(walking_raw, 120.0)
        dynamic = remove_gravity(uniform)
        rms = lambda v: np.sqrt(np.mean(v**2))
        for axis in range(3):
            column = uniform[:, axis]
            full_rate = l1_trend_filter(column)
            trend = column - dynamic[:, axis]
            assert rms(trend - full_rate) <= 1e-3 * rms(column - full_rate)


class TestReferenceEquality:
    """The in-place Newton loop gives the fresh-array loop's trend and
    objective trace bit for bit."""

    @pytest.mark.parametrize("case", ["walking axis", "random walk", "kink",
                                      "tight tolerance", "iteration cap", "affine"])
    def test_trend_and_trace(self, walking_axis, case):
        rng = np.random.default_rng(7)
        t = np.arange(500.0)
        x, lam, settings = {
            "walking axis": (walking_axis, default_lambda(walking_axis), {}),
            "random walk": (np.cumsum(rng.normal(size=300)), 10.0, {}),
            "kink": (np.where(t < 250, 0.02 * t, 5.0 - 0.01 * (t - 250))
                     + rng.normal(0, 0.05, size=500), 50.0, {}),
            "tight tolerance": (rng.normal(size=400), 20.0,
                                dict(tolerance=1e-12, max_iterations=500)),
            "iteration cap": (np.cumsum(rng.normal(size=300)), 10.0,
                              dict(max_iterations=2)),
            "affine": (0.3 * np.arange(100.0) - 2.0, 10.0, {}),
        }[case]
        expected, expected_trace, converged = reference_l1_trend_filter(x, lam, **settings)
        trace = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = l1_trend_filter(x, lam, trace_out=trace, **settings)
        assert np.array_equal(out, expected)
        assert trace == expected_trace
        assert len(caught) == (0 if converged else 1)
        if case == "walking axis":
            # a walking axis takes 13-19 Newton steps
            assert converged and len(trace) > 10


class TestWorkingSet:
    """Peak allocations on the walking benchmark's size (71,999 samples),
    in float64 a sample."""

    def test_trend_filter_peaks_at_most_22_per_sample(self, walking_axis, traced_peak):
        l1_trend_filter(walking_axis[:100])  # loads scipy.linalg first
        out, peak = traced_peak(l1_trend_filter, walking_axis)
        assert peak <= 22 * 8 * len(out)

    def test_remove_gravity_peaks_at_most_12_per_sample(self, walking_raw, traced_peak):
        # the output's 3 float64 a sample, one axis's solver on a quarter of
        # the samples, and that axis's interpolated trend
        uniform = interpolate_uniform(walking_raw, 120.0)
        remove_gravity(uniform[:100])
        out, peak = traced_peak(remove_gravity, uniform)
        assert peak <= 12 * 8 * len(out)
