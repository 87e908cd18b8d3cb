import numpy as np
import pytest

from clinqc import gmm
from clinqc.errors import ClinQcError, ValidationError
from clinqc.series import ADHERENCE, VIOLATION, ScalarSeries, StateSequence


def scalar(values, rate=1.0):
    return ScalarSeries(rate=rate, values=np.asarray(values, dtype=float))


def two_gaussians(seed=0, n=500, means=(0.0, 10.0)):
    rng = np.random.default_rng(seed)
    a = rng.normal(means[0], 1.0, n)
    b = rng.normal(means[1], 1.0, n)
    values = np.concatenate([a, b])
    truth = np.concatenate([np.zeros(n, int), np.ones(n, int)])
    order = rng.permutation(2 * n)
    return values[order], truth[order]


class TestFitGmmEm:
    def test_recovers_separated_components(self):
        values, truth = two_gaussians(seed=1)
        params, resp = gmm.fit_gmm_em(scalar(values), 2, seed=0)
        means = np.sort(params.means)
        assert abs(means[0] - 0.0) < 0.2
        assert abs(means[1] - 10.0) < 0.2
        assert np.all(np.abs(params.weights - 0.5) < 0.05)
        assert np.allclose(resp.sum(axis=1), 1.0)

    def test_single_component_closed_form(self):
        rng = np.random.default_rng(5)
        values = rng.normal(2.0, 3.0, 200)
        params, _ = gmm.fit_gmm_em(scalar(values), 1, seed=0)
        assert params.means[0] == pytest.approx(values.mean(), abs=1e-9)
        assert params.variances[0] == pytest.approx(values.var(), abs=1e-9)

    def test_identical_data_degenerate(self):
        with pytest.raises(ClinQcError, match="all data points identical") as info:
            gmm.fit_gmm_em(scalar(np.full(100, 3.0)), 2, seed=0)
        assert not isinstance(info.value, ValidationError)

    def test_too_few_points(self):
        with pytest.raises(ValidationError, match="need at least 20 points for K=2"):
            gmm.fit_gmm_em(scalar(np.arange(15.0)), 2, seed=0)

    def test_decreasing_likelihood_is_runtime_error(self, monkeypatch):
        exact = gmm._log_responsibilities
        calls = iter(range(1000))
        monkeypatch.setattr(gmm, "_log_responsibilities",
                            lambda params, x: exact(params, x) - 10.0 * next(calls))
        values, _ = two_gaussians(seed=1, n=50)
        with pytest.raises(ClinQcError, match="decreased") as info:
            gmm.fit_gmm_em(scalar(values), 2, seed=0)
        assert not isinstance(info.value, ValidationError)


class TestGmmParams:
    @pytest.mark.parametrize("weights", [[1.5, -0.5], [np.nan, np.nan]])
    def test_bad_weights(self, weights):
        with pytest.raises(ValidationError, match="weights must form a simplex"):
            gmm.GmmParams(means=[0.0, 1.0], variances=[1.0, 1.0], weights=weights)

    @pytest.mark.parametrize("field", ["means", "variances"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_means_and_variances(self, field, bad):
        values = {"means": [0.0, 1.0], "variances": [1.0, 1.0]}
        values[field][1] = bad
        with pytest.raises(ValidationError, match="means and variances must be finite"):
            gmm.GmmParams(**values, weights=[0.5, 0.5])


class TestMapAssign:
    def test_point_at_component_mean(self):
        params = gmm.GmmParams(means=[0.0, 10.0], variances=[1.0, 1.0],
                               weights=[0.5, 0.5])
        states = gmm.map_assign(params, scalar([0.0]))
        assert states.indicators[0] == 0

    def test_tie_breaks_to_lower_index(self):
        params = gmm.GmmParams(means=[0.0, 10.0], variances=[1.0, 1.0],
                               weights=[0.5, 0.5])
        states = gmm.map_assign(params, scalar([5.0]))
        assert states.indicators[0] == 0

    def test_agreement_with_generator(self):
        values, truth = two_gaussians(seed=2)
        params, _ = gmm.fit_gmm_em(scalar(values), 2, seed=0)
        states = gmm.map_assign(params, scalar(values))
        # align component order with the generator order
        z = states.indicators
        if params.means[0] > params.means[1]:
            z = 1 - z
        assert np.mean(z == truth) >= 0.99

    def test_relabelling_invariance(self):
        values, _ = two_gaussians(seed=3, n=100)
        params, _ = gmm.fit_gmm_em(scalar(values), 2, seed=0)
        swapped = gmm.GmmParams(means=params.means[::-1],
                                variances=params.variances[::-1],
                                weights=params.weights[::-1])
        a = gmm.map_assign(params, scalar(values)).indicators
        b = gmm.map_assign(swapped, scalar(values)).indicators
        assert np.array_equal(a, 1 - b)


class TestMedianSmooth:
    def test_isolated_spike_removed(self):
        states = StateSequence(indicators=[1, 1, 2, 1, 1])
        out = gmm.median_smooth_to_convergence(states, 3)
        assert np.array_equal(out.indicators, [1, 1, 1, 1, 1])

    def test_constant_unchanged(self):
        states = StateSequence(indicators=[1] * 7)
        out = gmm.median_smooth_to_convergence(states, 3)
        assert np.array_equal(out.indicators, [1] * 7)

    def test_alternating_converges(self):
        states = StateSequence(indicators=[1, 2, 1, 2, 1])
        out = gmm.median_smooth_to_convergence(states, 3)
        assert np.array_equal(out.indicators, [1, 1, 1, 1, 1])

    def test_output_is_fixed_point(self):
        rng = np.random.default_rng(9)
        states = StateSequence(indicators=rng.integers(1, 3, 200))
        out = gmm.median_smooth_to_convergence(states, 5)
        again = gmm.median_smooth_to_convergence(out, 5)
        assert np.array_equal(out.indicators, again.indicators)

    def test_even_window_rejected(self):
        with pytest.raises(ValidationError, match="window must be odd and >= 3"):
            gmm.median_smooth_to_convergence(StateSequence(indicators=[1, 2]), 4)


class TestMeanRuleAdherence:
    def params(self, means):
        return gmm.GmmParams(means=means, variances=[1.0, 1.0], weights=[0.5, 0.5])

    def test_walking_larger_mean_is_adherence(self):
        smoothed = StateSequence(indicators=[0, 1, 1])
        labels = gmm.mean_rule_adherence(self.params([0.1, 1.4]), smoothed,
                                         gmm.TestKind.WALKING, rate=1.0)
        assert np.array_equal(labels.labels, [VIOLATION, ADHERENCE, ADHERENCE])

    def test_balance_larger_mean_is_violation(self):
        smoothed = StateSequence(indicators=[0, 1, 1])
        labels = gmm.mean_rule_adherence(self.params([0.1, 1.4]), smoothed,
                                         gmm.TestKind.BALANCE, rate=1.0)
        assert np.array_equal(labels.labels, [ADHERENCE, VIOLATION, VIOLATION])

    def test_equal_means_rejected(self):
        smoothed = StateSequence(indicators=[0, 1])
        with pytest.raises(ClinQcError, match="component means coincide") as info:
            gmm.mean_rule_adherence(self.params([1.0, 1.0]), smoothed,
                                    gmm.TestKind.VOICE, rate=1.0)
        assert not isinstance(info.value, ValidationError)


class TestFullGmmPath:
    def test_separated_blocks_high_ba(self):
        # 6 sigma separation, contiguous blocks much longer than the window
        rng = np.random.default_rng(12)
        block = 120
        truth = np.repeat([ADHERENCE, VIOLATION, ADHERENCE, VIOLATION], block)
        values = np.where(truth == ADHERENCE, 6.0, 0.0) + rng.normal(size=len(truth))
        series = scalar(values, rate=10.0)
        params, _ = gmm.fit_gmm_em(series, 2, seed=0)
        states = gmm.map_assign(params, series)
        smoothed = gmm.median_smooth_to_convergence(states, 21)
        labels = gmm.mean_rule_adherence(params, smoothed, gmm.TestKind.VOICE,
                                         series.rate)
        tp = np.mean(labels.labels[truth == ADHERENCE] == ADHERENCE)
        tn = np.mean(labels.labels[truth == VIOLATION] == VIOLATION)
        assert 0.5 * (tp + tn) >= 0.95
