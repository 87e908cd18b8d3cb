from dataclasses import replace

import numpy as np
import pytest

from clinqc import preprocess, swar, synth
from clinqc.errors import ClinQcError, ValidationError
from clinqc.series import ScalarSeries
from clinqc.synth import RegimeInterval, SynthSpec


def ar1_state(coef, mean=0.0, var=1.0):
    return swar.ArState(coefficients=[coef], mean=mean, variance=var)


def ar_loglik(state, window, x):
    """Gaussian log-density of x given the lagged values ``window``, most
    recent first: the hand-written reference for ``complete_data_loglik``."""
    pred = state.mean + float(state.coefficients @ np.asarray(window, dtype=float))
    return (-0.5 * (np.log(2 * np.pi) + np.log(state.variance))
            - 0.5 * (x - pred) ** 2 / state.variance)


def two_state_model(p_stay=0.99, states=None, order=1):
    states = states or [ar1_state(0.9, var=0.1), ar1_state(-0.5, mean=2.0, var=0.5)]
    pi = np.array([[p_stay, 1 - p_stay], [1 - p_stay, p_stay]])
    return swar.SwitchingArModel(order=order, truncation=2, states=states,
                                 transitions=pi, beta=np.array([0.5, 0.5]))


class TestModelValidation:
    @pytest.mark.parametrize("row", [[1.5, -0.5], [np.nan, np.nan]])
    def test_bad_transition_row(self, row):
        with pytest.raises(ValidationError, match="transition rows must sum to 1"):
            swar.SwitchingArModel(order=1, truncation=2,
                                  states=[ar1_state(0.5), ar1_state(0.5)],
                                  transitions=[[0.5, 0.5], row], beta=[0.5, 0.5])

    @pytest.mark.parametrize("beta", [[1.5, -0.5], [np.nan, np.nan]])
    def test_bad_beta(self, beta):
        with pytest.raises(ValidationError, match="beta must be a length-L simplex"):
            swar.SwitchingArModel(order=1, truncation=2,
                                  states=[ar1_state(0.5), ar1_state(0.5)],
                                  transitions=np.eye(2), beta=beta)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["alpha", "gamma", "kappa"])
    def test_non_finite_concentration(self, name, value):
        with pytest.raises(ValidationError,
                           match="need finite alpha > 0, gamma > 0, kappa >= 0"):
            swar.SwitchingArModel(order=1, truncation=2,
                                  states=[ar1_state(0.5), ar1_state(0.5)],
                                  transitions=np.eye(2), beta=[0.5, 0.5],
                                  **{name: value})


class TestArLoglik:
    def test_standard_normal(self):
        state = swar.ArState(coefficients=[], mean=0.0, variance=1.0)
        assert ar_loglik(state, [], 0.0) == pytest.approx(-0.5 * np.log(2 * np.pi))

    def test_zero_residual(self):
        state = ar1_state(0.9)
        ll = ar_loglik(state, [1.0], 0.9)
        assert ll == pytest.approx(-0.5 * np.log(2 * np.pi * state.variance))

    def test_matches_direct_gaussian(self):
        state = swar.ArState(coefficients=[0.3, -0.2, 0.1], mean=0.7, variance=2.5)
        window = np.array([1.1, -0.4, 0.9])
        x = 0.15
        mean = 0.7 + state.coefficients @ window
        expected = (-0.5 * np.log(2 * np.pi * 2.5)
                    - 0.5 * (x - mean) ** 2 / 2.5)
        assert ar_loglik(state, window, x) == pytest.approx(expected, abs=1e-12)


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
        X, y = swar._design(data.values, cfg.order)
        rng = np.random.default_rng(0)
        for _ in range(5):
            loglik = swar._loglik_matrix(model, X, y)
            model, z = swar.gibbs_sweep(model, X, y, loglik, rng)
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
        expected = sum(ar_loglik(state, [values[t - 1]], values[t])
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
        by_hand = (ar_loglik(s0, [1.0], 0.5)
                   + np.log(0.3) + ar_loglik(s1, [0.5], -0.3)
                   + np.log(0.6) + ar_loglik(s1, [-0.3], 0.9))
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

    def test_fit_trace_scores_each_sweep_once(self, monkeypatch):
        series, _ = swar.simulate(two_state_model(), 300, seed=9)
        data = ScalarSeries(rate=1.0, values=series.values)
        cfg = swar.SwArConfig(order=1, truncation=4, sweeps=6, burn_in=2, seed=1)
        sweeps, matrices = [], []
        gibbs_sweep, loglik_matrix = swar.gibbs_sweep, swar._loglik_matrix

        def recording_sweep(*args, **kwargs):
            sweeps.append(gibbs_sweep(*args, **kwargs))
            return sweeps[-1]

        def counting_matrix(*args):
            matrices.append(None)
            return loglik_matrix(*args)

        monkeypatch.setattr(swar, "gibbs_sweep", recording_sweep)
        monkeypatch.setattr(swar, "_loglik_matrix", counting_matrix)
        fit = swar.fit(data, cfg)
        # one matrix per model: the initial one and each sweep's result
        assert len(matrices) == cfg.sweeps + 1
        monkeypatch.undo()
        expected = [swar.complete_data_loglik(m, data, z) for m, z in sweeps]
        assert np.array_equal(fit.loglik_trace, expected)

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


# Reference implementations: the straightforward loops that the vectorized
# sampler must reproduce draw for draw, bit for bit.

def reference_messages(pi, lik):
    n, L = lik.shape
    messages = np.ones((n, L))
    for t in range(n - 2, -1, -1):
        msg = pi @ (lik[t + 1] * messages[t + 1])
        total = msg.sum()
        if total <= 0 or not np.isfinite(total):
            raise ClinQcError("backward message underflowed")
        messages[t] = msg / total
    return messages


def reference_sample_categorical(weights, u):
    total = weights.sum()
    if total <= 0 or not np.isfinite(total):
        raise ClinQcError("all state probabilities underflowed")
    cum = np.cumsum(weights)
    return int(np.searchsorted(cum, u * total, side="right").clip(0, len(weights) - 1))


def reference_sample_states(model, loglik, rng):
    n, L = loglik.shape
    shift = loglik.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(shift)):
        raise ClinQcError("emission likelihoods are not finite")
    lik = np.exp(loglik - shift)
    pi = model.transitions
    messages = reference_messages(pi, lik)
    uniforms = rng.random(n)
    z = np.empty(n, dtype=int)
    z[0] = reference_sample_categorical(model.beta * lik[0] * messages[0], uniforms[0])
    cum = np.cumsum(lik[:, None, :] * messages[:, None, :] * pi[None, :, :], axis=2)
    for t in range(1, n):
        row = cum[t, z[t - 1]]
        total = row[L - 1]
        if total <= 0 or not np.isfinite(total):
            raise ClinQcError("all state probabilities underflowed")
        z[t] = min(np.searchsorted(row, uniforms[t] * total, side="right"), L - 1)
    return z


def reference_sample_tables(counts, model, rng):
    L = model.truncation
    tables = np.zeros((L, L))
    for j in range(L):
        for k in range(L):
            n = int(counts[j, k])
            if n == 0:
                continue
            conc = model.alpha * model.beta[k] + (model.kappa if j == k else 0.0)
            i = np.arange(n, dtype=float)
            tables[j, k] = np.sum(rng.random(n) < conc / (conc + i))
    if model.kappa > 0:
        rho = model.kappa / (model.alpha + model.kappa)
        for j in range(L):
            m_jj = int(tables[j, j])
            if m_jj == 0:
                continue
            p_override = rho / (rho + model.beta[j] * (1.0 - rho))
            tables[j, j] -= rng.binomial(m_jj, p_override)
    return tables


def reference_sample_dirichlet(alphas, rng):
    draws = rng.gamma(np.maximum(alphas, 1e-12))
    total = draws.sum()
    if total <= 0:
        out = np.zeros_like(alphas)
        out[int(np.argmax(alphas))] = 1.0
        return out
    return draws / total


def reference_sample_emission(X, y, prior, order, rng):
    d = order + 1
    if len(y) == 0:
        variance = 1.0 / rng.gamma(prior.shape, 1.0 / prior.scale)
        w = rng.multivariate_normal(np.zeros(d),
                                    variance * prior.coef_scale ** 2 * np.eye(d))
        return swar.ArState(coefficients=w[:order], mean=float(w[order]),
                            variance=float(variance))
    return swar._sample_emission(X, y, prior, order, rng)


def reference_gibbs_sweep(model, X, y, loglik, rng):
    # recomputes the matrix, so a stale one passed by fit shows up
    L = model.truncation
    z = reference_sample_states(model, swar._loglik_matrix(model, X, y), rng)
    counts = swar._transition_counts(z, L)
    transitions = np.empty((L, L))
    for j in range(L):
        conc = model.alpha * model.beta + counts[j]
        if model.kappa > 0:
            conc = conc.copy()
            conc[j] += model.kappa
        transitions[j] = reference_sample_dirichlet(conc, rng)
    tables = reference_sample_tables(counts, model, rng)
    beta = reference_sample_dirichlet(model.gamma / L + tables.sum(axis=0), rng)
    states = [reference_sample_emission(X[z == k], y[z == k], model.prior,
                                        model.order, rng) for k in range(L)]
    return replace(model, states=states, transitions=transitions, beta=beta), z


def random_model(L, kappa, seed):
    rng = np.random.default_rng(seed)
    transitions = rng.dirichlet(np.full(L, 0.5), size=L) + kappa * np.eye(L)
    transitions /= transitions.sum(axis=1, keepdims=True)
    return swar.SwitchingArModel(
        order=1, truncation=L, states=[ar1_state(0.0) for _ in range(L)],
        transitions=transitions, beta=rng.dirichlet(np.ones(L)), kappa=kappa)


class TestReferenceEquality:
    @pytest.mark.parametrize("kappa", [0.0, 20.0])
    @pytest.mark.parametrize("L", [2, 20])
    @pytest.mark.parametrize("n", [1, 2, 511, 512, 513, 1025])
    def test_sample_states(self, n, L, kappa):
        model = random_model(L, kappa, seed=n + L)
        loglik = np.random.default_rng(n).normal(scale=5.0, size=(n, L))
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        z = swar.sample_states(model, loglik, rng)
        assert np.array_equal(z, reference_sample_states(model, loglik, ref_rng))
        assert z.dtype == np.dtype(int)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_sample_states_ties(self):
        # u * total landing exactly on a cumulative weight picks the next
        # state (searchsorted side="right"), so u = 0 never picks a state
        # of zero weight
        class FixedUniforms:
            def random(self, n):
                return np.resize([0.0, 0.5], n)

        model = swar.SwitchingArModel(
            order=1, truncation=2, states=[ar1_state(0.0), ar1_state(0.0)],
            transitions=[[0.0, 1.0], [0.5, 0.5]], beta=[0.0, 1.0])
        loglik = np.zeros((9, 2))
        z = swar.sample_states(model, loglik, FixedUniforms())
        assert np.array_equal(z, reference_sample_states(model, loglik, FixedUniforms()))
        # u = 0 from state 1 picks 0; u = 0.5 from 1 ties with the first of
        # the equal weights and picks 1; from 0 only 1 has weight
        assert z.tolist() == [1, 1, 0, 1, 0, 1, 0, 1, 0]

    @pytest.mark.parametrize("kappa", [0.0, 20.0])
    @pytest.mark.parametrize("L", [2, 20])
    def test_sample_tables(self, L, kappa):
        model = random_model(L, kappa, seed=L)
        z = np.random.default_rng(L).integers(0, L, size=3000)
        z[1000:2000] = 1              # a long self-transition run
        counts = swar._transition_counts(z, L)
        counts[0] = 0.0               # and a row with no customers
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        tables = swar._sample_tables(counts, model, rng)
        assert np.array_equal(tables, reference_sample_tables(counts, model, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_transition_rows(self):
        # one gamma call for the whole matrix draws what row-by-row calls
        # draw; the middle row's draws all underflow to zero
        conc = np.random.default_rng(1).gamma(1.0, size=(3, 20))
        conc[1] = np.linspace(1e-300, 2e-300, 20)
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        rows = swar._sample_dirichlet(conc, rng)
        ref = [reference_sample_dirichlet(row, ref_rng) for row in conc]
        assert np.array_equal(rows, ref)
        assert np.array_equal(rows[1], np.eye(20)[19])
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("coef_scale", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("order", [0, 1, 4])
    def test_empty_state_draws_from_prior(self, order, coef_scale):
        prior = swar.ArPrior(coef_scale=coef_scale, shape=2.0, scale=0.7)
        X, y = np.empty((0, order + 1)), np.empty(0)
        for seed in range(20):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            state = swar._sample_emission(X, y, prior, order, rng)
            ref = reference_sample_emission(X, y, prior, order, ref_rng)
            assert np.array_equal(state.coefficients, ref.coefficients)
            assert (state.mean, state.variance) == (ref.mean, ref.variance)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("kappa", [0.0, 20.0])
    def test_whole_fit(self, monkeypatch, kappa):
        schedule = [RegimeInterval(s, 5.0 * i, 5.0 * (i + 1))
                    for i, s in enumerate([0, 1, 2, 1, 0, 2])]
        series, _ = synth.gen_switching_ar(SynthSpec(
            scenario="switching-ar", duration=30.0, rate=30.0,
            schedule=schedule, seed=11))
        cfg = swar.SwArConfig(order=2, truncation=8, kappa=kappa, sweeps=20,
                              burn_in=10, seed=5)
        fit = swar.fit(series, cfg)
        monkeypatch.setattr(swar, "gibbs_sweep", reference_gibbs_sweep)
        ref = swar.fit(series, cfg)
        assert np.array_equal(fit.states.indicators, ref.states.indicators)
        assert np.array_equal(fit.states.posteriors, ref.states.posteriors)
        assert np.array_equal(fit.loglik_trace, ref.loglik_trace)
        assert np.array_equal(fit.model.transitions, ref.model.transitions)
        assert np.array_equal(fit.model.beta, ref.model.beta)


def hard_transitions(L, seed):
    """Rows with exact zeros (dead columns 1 .. L//4 and scattered zeros)
    and subnormal entries; column 0 stays positive, so no message dies.
    For L = 2, a near-alternating chain with one of each."""
    if L == 2:
        return np.array([[0.0, 1.0], [1.0, 5e-316]])
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.full(L, 0.5), size=L)
    pi[:, 0] += 0.1
    pi /= pi.sum(axis=1, keepdims=True)
    live = pi[:, 1 + L // 4:]
    live[rng.random(live.shape) < 0.3] = 0.0
    live[rng.random(live.shape) < 0.1] = 5e-316
    live[0, -1], live[-1, -1] = 5e-316, 0.0
    pi[:, 1: 1 + L // 4] = 0.0
    pi[:, 0] = 1.0 - pi[:, 1:].sum(axis=1)
    return pi


class TestBackwardMessages:
    # n = 41**2 + 1 makes 41 full blocks of 41 steps; n = 41**2 makes the first one short
    @pytest.mark.parametrize("L", [2, 20])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 50, 1800, 1801, 41**2, 41**2 + 1])
    def test_matches_sequential_recursion(self, n, L):
        pi = hard_transitions(L, seed=L)
        assert (pi == 0).any() and ((pi > 0) & (pi < 1e-307)).any()
        rng = np.random.default_rng(n)
        lik = np.exp(rng.normal(scale=5.0, size=(n, L)))
        # zeros in every other row only: two rows in a row with lik[t, 1] = 0
        # kill every message of the L = 2 chain
        dropped = lik[::2, 1:]
        dropped[rng.random(dropped.shape) < 0.3] = 0.0
        lik /= lik.max(axis=1, keepdims=True)
        messages = swar._backward_messages(lik, pi)
        ref = reference_messages(pi, lik)
        assert messages.shape == ref.shape
        assert np.all(np.abs(messages - ref) <= 1e-12 * ref.max(axis=1, keepdims=True))

    @pytest.mark.parametrize("row", [3, 14, 15, 49],
                             ids=["first-block", "anchor-lik", "anchor-message",
                                  "last-block"])
    def test_structural_zero_raises(self, row):
        # n = 50: blocks of 7 steps with anchors at messages 7, 14, ..., 49;
        # lik[row] = (0, 1) against a dead column 1 zeroes message row - 1
        model = swar.SwitchingArModel(
            order=1, truncation=2, states=[ar1_state(0.0), ar1_state(0.0)],
            transitions=[[1.0, 0.0], [1.0, 0.0]], beta=[0.5, 0.5])
        loglik = np.zeros((50, 2))
        loglik[row, 0] = -1000.0
        with pytest.raises(ClinQcError, match="backward message") as info:
            swar.sample_states(model, loglik, np.random.default_rng(0))
        assert not isinstance(info.value, ValidationError)
        with pytest.raises(ClinQcError, match="backward message"):
            reference_messages(model.transitions, np.exp(loglik))


class TestNumericalFailures:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loglik(self, bad):
        loglik = np.zeros((6, 2))
        loglik[3, 1] = bad
        with pytest.raises(ClinQcError, match="not finite") as info:
            swar.sample_states(two_state_model(), loglik, np.random.default_rng(0))
        assert not isinstance(info.value, ValidationError)

    def test_backward_message_underflow(self):
        model = swar.SwitchingArModel(
            order=1, truncation=2, states=[ar1_state(0.0), ar1_state(0.0)],
            transitions=[[1.0, 0.0], [1.0, 0.0]], beta=[0.5, 0.5])
        loglik = np.array([[0.0, 0.0], [-1000.0, 0.0]])
        with pytest.raises(ClinQcError, match="backward message") as info:
            swar.sample_states(model, loglik, np.random.default_rng(0))
        assert not isinstance(info.value, ValidationError)
