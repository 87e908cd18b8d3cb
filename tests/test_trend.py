import warnings

import numpy as np
import pytest

from clinqc.errors import NoConvergenceWarning, ValidationError
from clinqc.preprocess import interpolate_uniform
from clinqc.series import ScalarSeries, TriaxialSeries
from clinqc.synth import RegimeInterval, SynthSpec, gen_gravity_drift
from clinqc.trend import (
    _ddt_banded,
    _objective,
    default_lambda,
    l1_trend_filter,
    remove_gravity,
)


def series(values, rate=1.0):
    return ScalarSeries(rate=rate, values=np.asarray(values, dtype=float))


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
            l1_trend_filter(series(np.arange(10.0)), **{field: value})

    def test_iteration_cap_below_one_rejected(self):
        with pytest.raises(ValidationError, match="max_iterations must be >= 1"):
            l1_trend_filter(series(np.arange(10.0)), max_iterations=0)


class TestL1TrendFilter:
    def test_linear_input_unchanged(self):
        t = np.arange(200.0)
        x = 2 * t + 1
        for lam in (0.0, 1.0, 100.0):
            out = l1_trend_filter(series(x), lam)
            assert np.max(np.abs(out.values - x)) < 1e-9

    def test_lambda_zero_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        out = l1_trend_filter(series(x), 0.0)
        assert np.array_equal(out.values, x)

    def test_kink_recovery_and_oracle(self, trend_filter_oracle):
        rng = np.random.default_rng(42)
        t = np.arange(500.0)
        truth = np.where(t < 250, 0.02 * t, 5.0 - 0.01 * (t - 250))
        x = truth + rng.normal(0, 0.05, size=500)
        out = l1_trend_filter(series(x), 50.0, tolerance=1e-8)
        assert np.max(np.abs(out.values - truth)) < 0.1

        # small-scale oracle comparison
        x50 = x[:50]
        _, oracle_obj = trend_filter_oracle(x50, 5.0)
        ours = l1_trend_filter(series(x50), 5.0, tolerance=1e-12,
                               max_iterations=50_000)
        assert _objective(x50, ours.values, 5.0) <= oracle_obj + 1e-6

    def test_default_settings_reach_oracle(self, trend_filter_oracle):
        rng = np.random.default_rng(1)
        x = np.cumsum(rng.normal(size=200))
        _, oracle_obj = trend_filter_oracle(x, default_lambda(x))
        ours = l1_trend_filter(series(x))
        assert _objective(x, ours.values, default_lambda(x)) <= oracle_obj * (1 + 1e-6)

    def test_too_short(self):
        with pytest.raises(ValidationError, match="trend filtering needs at least 3 samples"):
            l1_trend_filter(series([1.0, 2.0]))

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(4)
        x = np.cumsum(rng.normal(size=200))
        trace = []
        l1_trend_filter(series(x), 10.0, trace_out=trace)
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs <= 1e-12)

    def test_trace_ends_at_objective_of_result(self):
        rng = np.random.default_rng(5)
        x = np.cumsum(rng.normal(size=300))
        trace = []
        out = l1_trend_filter(series(x), 10.0, trace_out=trace)
        assert trace[-1] == pytest.approx(_objective(x, out.values, 10.0), rel=1e-9)

    def test_trace_out_is_keyword_only(self):
        with pytest.raises(TypeError, match="positional argument"):
            l1_trend_filter(series(np.arange(10.0)), 1.0, 1e-6, 100, [])

    def test_iteration_cap_warns_and_returns_best_iterate(self):
        rng = np.random.default_rng(5)
        x = np.cumsum(rng.normal(size=300))
        trace = []
        with pytest.warns(NoConvergenceWarning):
            out = l1_trend_filter(series(x), 10.0, max_iterations=1, trace_out=trace)
        assert len(trace) == 1
        assert trace[-1] == pytest.approx(_objective(x, out.values, 10.0), rel=1e-9)

    @pytest.mark.parametrize("values", [0.3 * np.arange(100.0) - 2.0, np.full(100, 9.81)],
                             ids=["affine", "constant"])
    def test_affine_input_stops_at_first_iterate(self, values):
        trace = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = l1_trend_filter(series(values), 10.0, trace_out=trace)
        assert len(trace) == 1
        assert np.max(np.abs(out.values - values)) < 1e-9

    def test_affine_shift_moves_trend_only(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=300)
        t = np.arange(300.0)
        cfg = dict(lam=20.0, tolerance=1e-11, max_iterations=20_000)
        base = l1_trend_filter(series(x), **cfg).values
        shifted = l1_trend_filter(series(x + 0.3 * t - 2.0), **cfg).values
        assert np.max(np.abs(shifted - (base + 0.3 * t - 2.0))) < 1e-6

    def test_large_lambda_affine_limit(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=200) * 2.0
        lam = 1e6 * np.std(x)
        out = l1_trend_filter(series(x), lam, tolerance=1e-12,
                              max_iterations=50_000).values
        # affine within 1e-3: second differences vanish
        assert np.max(np.abs(np.diff(out, 2))) < 1e-3


class TestRemoveGravity:
    def test_constant_input(self):
        samples = np.tile([0.0, 0.0, 9.81], (100, 1))
        dynamic = remove_gravity(TriaxialSeries(rate=120.0, samples=samples), 5.0)
        # the trend, input - dynamic, is the input within 1e-6
        assert np.max(np.abs(dynamic.samples)) < 1e-6

    def test_drift_plus_sinusoid(self):
        rate = 120.0
        t = np.arange(0, 30, 1 / rate)
        drift = np.column_stack([9.81 - 0.01 * t, 0.005 * t, 0.2 + 0.002 * t])
        sinusoid = 0.8 * np.sin(2 * np.pi * 4.0 * t)
        samples = drift + sinusoid[:, None]
        dynamic = remove_gravity(TriaxialSeries(rate=rate, samples=samples), 400.0)
        trend = samples - dynamic.samples
        rms = lambda v: np.sqrt(np.mean(v**2))
        for axis in range(3):
            dyn = dynamic.samples[:, axis]
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
        assert dynamic.rate == uniform.rate
        for axis in range(3):
            axis_values = uniform.samples[:, axis]
            alone = l1_trend_filter(series(axis_values, uniform.rate))
            assert np.array_equal(dynamic.samples[:, axis], axis_values - alone.values)

    def test_too_short(self):
        with pytest.raises(ValidationError, match="gravity removal needs at least 3 samples"):
            remove_gravity(TriaxialSeries(rate=10.0, samples=np.zeros((2, 3))))
