import numpy as np
import pytest

from clinqc import gmm, preprocess
from clinqc.errors import ClinQcError, ValidationError
from clinqc.series import (ADHERENCE, VIOLATION, ScalarSeries, StateSequence,
                           TriaxialSeries)


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


def gaussians(seed, n, sources=3):
    """n draws from a mixture of the first ``sources`` of three Gaussians."""
    rng = np.random.default_rng(seed)
    component = rng.choice(sources, size=n, p=rng.dirichlet(np.full(sources, 4.0)))
    return (np.array([0.0, 4.0, 9.0])[component]
            + np.array([1.0, 0.7, 1.5])[component] * rng.normal(size=n))


def alternating_blocks(rng, n, shortest, longest):
    """0/1 block indicator of length n, block lengths uniform in [shortest, longest)."""
    lengths = rng.integers(shortest, longest, size=n // shortest + 1)
    return np.repeat(np.arange(len(lengths)) % 2, lengths)[:n]


def walking_like(seed):
    """Walking recipe feature (log-magnitude, 15 Hz low-pass, 120 -> 30 Hz)
    of dynamic acceleration whose scale jumps between still and walking
    blocks: 18,000 points."""
    rng = np.random.default_rng(seed)
    moving = alternating_blocks(rng, 72_000, 1200, 3600)
    accel = rng.normal(size=(72_000, 3)) * np.where(moving, 2.0, 0.05)[:, None]
    feature = preprocess.log_magnitude(TriaxialSeries(rate=120.0, samples=accel))
    return preprocess.downsample(preprocess.lowpass_filter(feature, 15.0), 4).values


def voice_like(seed):
    """Voice recipe feature (energy of 441-sample windows) of 30 s of
    44.1 kHz audio, a harmonic tone in phonation blocks and noise between:
    3,000 points."""
    rng = np.random.default_rng(seed)
    n = 30 * 44_100
    t = np.arange(n) / 44_100.0
    audio = rng.normal(0.0, 0.005, size=n)
    tone = sum(w * np.sin(2 * np.pi * h * 180.0 * t) for h, w in ((1, 1.0), (2, 0.5)))
    audio += 0.3 * alternating_blocks(rng, n, 110_000, 220_000) * tone
    return preprocess.windowed_energy(ScalarSeries(rate=44_100.0, values=audio), 441).values


# -- (T, K) reference: E-M and MAP assignment with time-major arrays ----------

def reference_log_responsibilities(params, x):
    log_w = np.log(params.weights)
    diff = x[:, None] - params.means[None, :]
    return (log_w[None, :]
            - 0.5 * (np.log(2.0 * np.pi) + np.log(params.variances))[None, :]
            - 0.5 * diff ** 2 / params.variances[None, :])


def reference_fit_gmm_em(x, seed):
    """fit_gmm_em on (T, 2) arrays. Also returns the parameters entering each
    E-step, the iteration count of each restart and the winning restart."""
    k = 2
    var_floor = max(1e-8 * float(np.var(x)), 1e-300)
    rng = np.random.default_rng(seed)
    best, history, iterations = None, [], []
    for restart in range(5):
        scale = float(np.std(x)) if restart > 0 else 0.0
        jitter = rng.normal(0.0, 0.1 * scale, size=k) if restart > 0 else np.zeros(k)
        params = gmm._quantile_init(x, jitter)
        prev_ll = -np.inf
        for it in range(500):
            history.append(params)
            lr = reference_log_responsibilities(params, x)
            # max and sum over the two components, column by column: exactly
            # what a reduction along axis 1 gives, but without its slow
            # walk along a length-2 axis
            m = np.maximum(lr[:, 0], lr[:, 1])
            resp = np.exp(lr - m[:, None])
            total = resp[:, 0] + resp[:, 1]
            ll = float(np.sum(m + np.log(total)))
            if ll < prev_ll - 1e-9 * max(abs(prev_ll), 1.0):
                raise ClinQcError("E-M log-likelihood decreased")
            resp /= total[:, None]

            nk = resp.sum(axis=0)
            if np.any((nk / len(x)) < 1e-6):
                raise ClinQcError("component weight collapsed")
            means = resp.T @ x / nk
            variances = (resp * (x[:, None] - means[None, :]) ** 2).sum(axis=0) / nk
            variances = np.maximum(variances, var_floor)
            params = gmm.GmmParams(means=means, variances=variances, weights=nk / len(x))
            if ll - prev_ll < 1e-8 * max(abs(ll), 1.0):
                prev_ll = ll
                break
            prev_ll = ll
        iterations.append(it + 1)
        if best is None or prev_ll > best[0]:
            best = (prev_ll, params, resp, restart)
    return best[1], best[2], history, iterations, best[3]


def reference_map_assign(params, x):
    lr = reference_log_responsibilities(params, x)
    post = np.exp(lr - lr.max(axis=1)[:, None])
    post /= post.sum(axis=1)[:, None]
    return np.argmax(lr, axis=1), post


def assert_params_equal(a, b):
    for field in ("means", "variances", "weights"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


class TestFitGmmEm:
    def test_recovers_separated_components(self):
        values, truth = two_gaussians(seed=1)
        params, resp = gmm.fit_gmm_em(scalar(values), seed=0)
        means = np.sort(params.means)
        assert abs(means[0] - 0.0) < 0.2
        assert abs(means[1] - 10.0) < 0.2
        assert np.all(np.abs(params.weights - 0.5) < 0.05)
        assert np.allclose(resp.sum(axis=1), 1.0)

    def test_seed_is_keyword_only(self):
        # fit_gmm_em(x, 2) must not run silently with seed 2
        with pytest.raises(TypeError):
            gmm.fit_gmm_em(scalar(np.arange(40.0)), 2)

    def test_identical_data_degenerate(self):
        with pytest.raises(ClinQcError, match="all data points identical") as info:
            gmm.fit_gmm_em(scalar(np.full(100, 3.0)), seed=0)
        assert not isinstance(info.value, ValidationError)

    def test_too_few_points(self):
        with pytest.raises(ValidationError, match="need at least 20 points for K=2"):
            gmm.fit_gmm_em(scalar(np.arange(15.0)), seed=0)

    def test_decreasing_likelihood_is_runtime_error(self, monkeypatch):
        exact = gmm._log_responsibilities
        calls = iter(range(1000))
        monkeypatch.setattr(gmm, "_log_responsibilities",
                            lambda params, x: exact(params, x) - 10.0 * next(calls))
        values, _ = two_gaussians(seed=1, n=50)
        with pytest.raises(ClinQcError, match="decreased") as info:
            gmm.fit_gmm_em(scalar(values), seed=0)
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

    @pytest.mark.parametrize("k", [1, 3])
    def test_exactly_two_components(self, k):
        with pytest.raises(ValidationError, match="need 2 means, variances and weights"):
            gmm.GmmParams(means=np.arange(k), variances=np.ones(k),
                          weights=np.full(k, 1.0 / k))
        with pytest.raises(ValidationError, match="need 2 means, variances and weights"):
            gmm.GmmParams(means=[0.0, 1.0], variances=np.ones(k), weights=[0.5, 0.5])


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
        params, _ = gmm.fit_gmm_em(scalar(values), seed=0)
        states = gmm.map_assign(params, scalar(values))
        # align component order with the generator order
        z = states.indicators
        if params.means[0] > params.means[1]:
            z = 1 - z
        assert np.mean(z == truth) >= 0.99

    def test_relabelling_invariance(self):
        values, _ = two_gaussians(seed=3, n=100)
        params, _ = gmm.fit_gmm_em(scalar(values), seed=0)
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
        params, _ = gmm.fit_gmm_em(series, seed=0)
        states = gmm.map_assign(params, series)
        smoothed = gmm.median_smooth_to_convergence(states, 21)
        labels = gmm.mean_rule_adherence(params, smoothed, gmm.TestKind.VOICE,
                                         series.rate)
        tp = np.mean(labels.labels[truth == ADHERENCE] == ADHERENCE)
        tn = np.mean(labels.labels[truth == VIOLATION] == VIOLATION)
        assert 0.5 * (tp + tn) >= 0.95


class TestReferenceEquality:
    """The component-major E-M and MAP assignment give the (T, 2)
    reference's results bit for bit."""

    def check_fit(self, monkeypatch, x, seed):
        try:
            expected = reference_fit_gmm_em(x, seed)
        except ClinQcError as exc:
            with pytest.raises(type(exc), match=str(exc)):
                gmm.fit_gmm_em(scalar(x), seed=seed)
            return None
        entered, restarts = [], []
        exact_lr, exact_init = gmm._log_responsibilities, gmm._quantile_init

        def recorded_lr(params, values):
            entered.append(params)
            return exact_lr(params, values)

        def recorded_init(*args):
            restarts.append(len(entered))
            return exact_init(*args)

        monkeypatch.setattr(gmm, "_log_responsibilities", recorded_lr)
        monkeypatch.setattr(gmm, "_quantile_init", recorded_init)
        params, resp = gmm.fit_gmm_em(scalar(x), seed=seed)
        ref_params, ref_resp, history, iterations, winner = expected
        assert np.diff(restarts + [len(entered)]).tolist() == iterations
        assert len(entered) == len(history)
        for got, want in zip(entered, history):
            assert_params_equal(got, want)
        assert_params_equal(params, ref_params)
        assert resp.shape == (len(x), 2)
        assert np.array_equal(resp, ref_resp)
        return winner

    @pytest.mark.parametrize("T", [20, 1000, 18_000])
    @pytest.mark.parametrize("sources", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_fit_mixture(self, monkeypatch, seed, sources, T):
        self.check_fit(monkeypatch, gaussians(seed, T, sources), seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_fit_walking_like(self, monkeypatch, seed):
        self.check_fit(monkeypatch, walking_like(seed), seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_fit_voice_like(self, monkeypatch, seed):
        self.check_fit(monkeypatch, voice_like(seed), seed)

    def test_winner_is_not_always_the_first_restart(self, monkeypatch):
        winners = {self.check_fit(monkeypatch, gaussians(seed, 1000), seed)
                   for seed in range(5)}
        assert winners - {0, None}

    @pytest.mark.parametrize("source", ["mixture", "walking", "voice"])
    def test_map_assign_fitted(self, source):
        x = {"mixture": lambda: gaussians(0, 1000),
             "walking": lambda: walking_like(0),
             "voice": lambda: voice_like(0)}[source]()
        params, _ = gmm.fit_gmm_em(scalar(x), seed=0)
        self.check_map_assign(params, x)

    @pytest.mark.parametrize("means, variances, weights, x, expected", [
        # x = 5 ties the two components, whichever of them has the larger mean
        ((0.0, 10.0), (1.0, 1.0), (0.5, 0.5), [5.0, 0.0, 5.0, 10.0], [0, 0, 0, 1]),
        ((10.0, 0.0), (1.0, 1.0), (0.5, 0.5), [5.0, 0.0, 5.0, 10.0], [0, 1, 0, 0]),
        # identical components tie everywhere
        ((1.0, 1.0), (2.0, 2.0), (0.5, 0.5), [0.0, 1.0, 7.0], [0, 0, 0]),
    ], ids=["two-way", "neighbours", "three-way"])
    def test_map_assign_ties(self, means, variances, weights, x, expected):
        params = gmm.GmmParams(means=means, variances=variances, weights=weights)
        states = self.check_map_assign(params, np.array(x))
        assert states.indicators.tolist() == expected

    def check_map_assign(self, params, x):
        states = gmm.map_assign(params, scalar(x))
        indicators, posteriors = reference_map_assign(params, x)
        assert np.array_equal(states.indicators, indicators)
        assert np.array_equal(states.posteriors, posteriors)
        return states
