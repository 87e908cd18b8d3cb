import numpy as np
import pytest

from clinqc import preprocess, swar
from clinqc.errors import ValidationError, WrongWindowLength
from clinqc.series import ScalarSeries


def ar1_state(coef, mean=0.0, var=1.0):
    return swar.ArState(coefficients=[coef], mean=mean, variance=var)


def two_state_model(p_stay=0.99, states=None, order=1):
    states = states or [ar1_state(0.9, var=0.1), ar1_state(-0.5, mean=2.0, var=0.5)]
    pi = np.array([[p_stay, 1 - p_stay], [1 - p_stay, p_stay]])
    return swar.SwitchingArModel(order=order, truncation=2, states=states,
                                 transitions=pi, beta=np.array([0.5, 0.5]))


class TestArLoglik:
    def test_standard_normal(self):
        state = swar.ArState(coefficients=[], mean=0.0, variance=1.0)
        assert swar.ar_loglik(state, [], 0.0) == pytest.approx(-0.5 * np.log(2 * np.pi))

    def test_zero_residual(self):
        state = ar1_state(0.9)
        ll = swar.ar_loglik(state, [1.0], 0.9)
        assert ll == pytest.approx(-0.5 * np.log(2 * np.pi * state.variance))

    def test_matches_direct_gaussian(self):
        state = swar.ArState(coefficients=[0.3, -0.2, 0.1], mean=0.7, variance=2.5)
        window = np.array([1.1, -0.4, 0.9])
        x = 0.15
        mean = 0.7 + state.coefficients @ window
        expected = (-0.5 * np.log(2 * np.pi * 2.5)
                    - 0.5 * (x - mean) ** 2 / 2.5)
        assert swar.ar_loglik(state, window, x) == pytest.approx(expected, abs=1e-12)

    def test_wrong_window(self):
        with pytest.raises(WrongWindowLength):
            swar.ar_loglik(ar1_state(0.5), [1.0, 2.0], 0.0)


class TestArPsd:
    def test_white_noise_flat(self):
        state = swar.ArState(coefficients=[], mean=0.0, variance=1.0)
        spec = swar.ar_psd(state, np.linspace(0, 0.49, 50))
        assert np.allclose(spec.power, 1.0)

    def test_ar1_at_zero_frequency(self):
        spec = swar.ar_psd(ar1_state(0.9), np.array([0.0]))
        assert spec.power[0] == pytest.approx(100.0)

    def test_integrated_power_matches_ar1_variance(self):
        for coef in (0.3, 0.6, -0.8):
            state = ar1_state(coef, var=1.7)
            freqs = np.linspace(0, 0.5, 20001)[:-1]
            spec = swar.ar_psd(state, freqs)
            # two-sided density: double the [0, 1/2) integral
            total = 2 * np.trapezoid(spec.power, freqs)
            analytic = 1.7 / (1 - coef**2)
            assert abs(total - analytic) < 0.02 * analytic

    def test_matches_welch_of_simulation(self):
        radius, angle = 0.95, 0.4 * np.pi
        state = swar.ArState(
            coefficients=[2 * radius * np.cos(angle), -radius**2],
            mean=0.0, variance=1.0)
        model = swar.SwitchingArModel(
            order=2, truncation=2, states=[state, state],
            transitions=np.full((2, 2), 0.5), beta=np.array([0.5, 0.5]))
        series, _ = swar.simulate(model, 2**15, seed=0)
        welch = preprocess.power_spectrum(series, segment_length=512)
        # Welch is one-sided; the closed form is a two-sided density
        one_sided = 2 * swar.ar_psd(state, welch.frequencies).power
        peak = int(np.argmax(welch.power))
        assert abs(peak - int(np.argmax(one_sided))) <= 1
        assert abs(one_sided[peak] - welch.power[peak]) < 0.15 * one_sided[peak]


class TestSimulate:
    def test_degenerate_chain_iid(self):
        model = two_state_model(states=[ar1_state(0.0, mean=5.0, var=1.0),
                                        ar1_state(0.0, mean=5.0, var=1.0)])
        series, _ = swar.simulate(model, 40_000, seed=4)
        assert abs(series.values.mean() - 5.0) < 3.0 / np.sqrt(40_000)

    def test_dwell_time(self):
        model = two_state_model(p_stay=0.99)
        _, states = swar.simulate(model, 100_000, seed=1)
        z = states.indicators
        switches = np.flatnonzero(np.diff(z) != 0)
        dwells = np.diff(switches)
        assert abs(dwells.mean() - 100) < 20

    def test_determinism(self):
        model = two_state_model()
        a, za = swar.simulate(model, 500, seed=11)
        b, zb = swar.simulate(model, 500, seed=11)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(za.indicators, zb.indicators)

    def test_length_validation(self):
        with pytest.raises(ValidationError):
            swar.simulate(two_state_model(), 1, seed=0)


class TestGibbsSweep:
    def test_determinism_bit_identical(self):
        series, _ = swar.simulate(two_state_model(), 400, seed=2)
        data = ScalarSeries(rate=1.0, values=series.values)
        cfg = swar.SwArConfig(order=1, truncation=5, sweeps=10, burn_in=0, seed=7)
        fit_a = swar.fit(data, cfg)
        fit_b = swar.fit(data, cfg)
        assert np.array_equal(fit_a.states.indicators, fit_b.states.indicators)
        assert np.array_equal(fit_a.loglik_trace, fit_b.loglik_trace)
        assert np.array_equal(fit_a.model.beta, fit_b.model.beta)

    def test_simplex_invariants_after_sweeps(self):
        series, _ = swar.simulate(two_state_model(), 400, seed=3)
        data = ScalarSeries(rate=1.0, values=series.values)
        cfg = swar.SwArConfig(order=1, truncation=6, sweeps=0, burn_in=0, seed=0)
        model = swar.initial_model(data, cfg)
        rng = np.random.default_rng(0)
        for _ in range(5):
            model, z = swar.gibbs_sweep(model, data, rng)
            assert np.all(np.abs(model.transitions.sum(axis=1) - 1.0) < 1e-9)
            assert abs(model.beta.sum() - 1.0) < 1e-9
            assert all(s.variance > 0 for s in model.states)
            assert len(z) == len(data) - 1

    def test_white_noise_occupies_one_state(self):
        rng = np.random.default_rng(0)
        data = ScalarSeries(rate=1.0, values=rng.normal(size=1500))
        cfg = swar.SwArConfig(order=1, truncation=10, sweeps=200, burn_in=100,
                              seed=5, kappa=20.0)
        fit = swar.fit(data, cfg)
        assert fit.occupied_mode(100) == 1

    def test_zero_sweeps_noop(self):
        rng = np.random.default_rng(1)
        data = ScalarSeries(rate=1.0, values=rng.normal(size=200))
        cfg = swar.SwArConfig(order=1, truncation=4, sweeps=0, burn_in=0, seed=0)
        fit = swar.fit(data, cfg)
        assert len(fit.loglik_trace) == 0
        assert np.all(fit.states.indicators == 0)
        assert fit.occupied == fit.states.occupied == 1

    def test_truncation_saturation(self):
        # 3-state data with L = 2: both slots get used, no error
        states = [ar1_state(0.9, var=0.05), ar1_state(-0.8, var=1.0),
                  ar1_state(0.0, mean=4.0, var=0.3)]
        z = np.repeat([0, 1, 2], 400)
        model = swar.SwitchingArModel(
            order=1, truncation=3, states=states,
            transitions=np.full((3, 3), 1 / 3), beta=np.full(3, 1 / 3))
        series, _ = swar.simulate(model, 1200, seed=6, z_fixed=z)
        data = ScalarSeries(rate=1.0, values=series.values)
        cfg = swar.SwArConfig(order=1, truncation=2, sweeps=40, burn_in=20, seed=2)
        fit = swar.fit(data, cfg)
        assert fit.occupied == fit.states.occupied == 2


class TestCompleteDataLoglik:
    def test_single_state_reduces_to_emissions(self):
        state = ar1_state(0.5, var=0.8)
        model = swar.SwitchingArModel(
            order=1, truncation=2, states=[state, state],
            transitions=np.array([[1.0, 0.0], [0.5, 0.5]]),
            beta=np.array([1.0, 0.0]))
        values = np.array([0.3, -0.1, 0.8, 0.2])
        data = ScalarSeries(rate=1.0, values=values)
        z = np.zeros(3, dtype=int)
        expected = sum(swar.ar_loglik(state, [values[t - 1]], values[t])
                       for t in range(1, 4))
        assert swar.complete_data_loglik(model, data, z) == pytest.approx(expected, abs=1e-12)

    def test_three_point_fixture_by_hand(self):
        s0 = ar1_state(0.9, var=0.5)
        s1 = ar1_state(-0.2, mean=1.0, var=2.0)
        pi = np.array([[0.7, 0.3], [0.4, 0.6]])
        model = swar.SwitchingArModel(order=1, truncation=2, states=[s0, s1],
                                      transitions=pi, beta=np.array([0.5, 0.5]))
        values = np.array([1.0, 0.5, -0.3, 0.9])
        data = ScalarSeries(rate=1.0, values=values)
        z = np.array([0, 1, 1])
        by_hand = (swar.ar_loglik(s0, [1.0], 0.5)
                   + np.log(0.3) + swar.ar_loglik(s1, [0.5], -0.3)
                   + np.log(0.6) + swar.ar_loglik(s1, [-0.3], 0.9))
        assert swar.complete_data_loglik(model, data, z) == pytest.approx(by_hand, abs=1e-12)

    def test_inflated_variance_lowers_loglik(self):
        series, states = swar.simulate(two_state_model(), 300, seed=8)
        data = ScalarSeries(rate=1.0, values=series.values)
        model = two_state_model()
        z = states.indicators[1:]
        base = swar.complete_data_loglik(model, data, z)
        inflated_states = [swar.ArState(coefficients=s.coefficients,
                                        mean=s.mean, variance=s.variance * 1e6)
                           for s in model.states]
        inflated = swar.SwitchingArModel(
            order=1, truncation=2, states=inflated_states,
            transitions=model.transitions, beta=model.beta)
        assert swar.complete_data_loglik(inflated, data, z) < base

    def test_label_permutation_symmetry(self):
        s0 = ar1_state(0.9, var=0.5)
        s1 = ar1_state(-0.2, mean=1.0, var=2.0)
        pi = np.array([[0.7, 0.3], [0.4, 0.6]])
        model = swar.SwitchingArModel(order=1, truncation=2, states=[s0, s1],
                                      transitions=pi, beta=np.array([0.5, 0.5]))
        permuted = swar.SwitchingArModel(order=1, truncation=2, states=[s1, s0],
                                         transitions=pi[::-1, ::-1].copy(),
                                         beta=np.array([0.5, 0.5]))
        rng = np.random.default_rng(3)
        values = rng.normal(size=50)
        data = ScalarSeries(rate=1.0, values=values)
        z = rng.integers(0, 2, 49)
        assert swar.complete_data_loglik(model, data, z) == \
            swar.complete_data_loglik(permuted, data, 1 - z)


class TestConjugateEmissionUpdate:
    def test_posterior_mean_matches_closed_form(self):
        rng = np.random.default_rng(0)
        n = 2000
        x = np.empty(n)
        x[0] = 0.0
        for t in range(1, n):
            x[t] = 0.6 * x[t - 1] + rng.normal(0, 0.5)
        X, y = swar._design(x, 1)
        prior = swar.ArPrior(coef_scale=1.0, shape=2.0, scale=1.0)
        vn_inv = np.eye(2) + X.T @ X
        wn = np.linalg.solve(vn_inv, X.T @ y)
        draws = np.array([
            swar._sample_emission(X, y, prior, 1, np.random.default_rng(s)).coefficients[0]
            for s in range(400)])
        # Monte-Carlo error on the posterior mean of the lag-1 coefficient
        assert abs(draws.mean() - wn[0]) < 5 * draws.std() / np.sqrt(len(draws)) + 1e-3
