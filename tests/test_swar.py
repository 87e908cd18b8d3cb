import math
from dataclasses import fields, replace

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


def two_state_model(p_stay=0.99, states=None):
    states = states or [ar1_state(0.9, var=0.1), ar1_state(-0.5, mean=2.0, var=0.5)]
    pi = np.array([[p_stay, 1 - p_stay], [1 - p_stay, p_stay]])
    return swar.SwitchingArModel(states=states, transitions=pi,
                                 beta=np.array([0.5, 0.5]))


def two_state_path(length, seed):
    """Values and states of ``two_state_model``'s regimes, switching every
    100 steps."""
    z = np.arange(length) // 100 % 2
    return swar.ar_path(two_state_model().states, z, np.random.default_rng(seed)), z


class TestModelValidation:
    @pytest.mark.parametrize("row", [[1.5, -0.5], [np.nan, np.nan]])
    def test_bad_transition_row(self, row):
        with pytest.raises(ValidationError, match="transition rows must sum to 1"):
            swar.SwitchingArModel(states=[ar1_state(0.5), ar1_state(0.5)],
                                  transitions=[[0.5, 0.5], row], beta=[0.5, 0.5])

    @pytest.mark.parametrize("beta", [[1.5, -0.5], [np.nan, np.nan]])
    def test_bad_beta(self, beta):
        with pytest.raises(ValidationError, match="beta must be a length-L simplex"):
            swar.SwitchingArModel(states=[ar1_state(0.5), ar1_state(0.5)],
                                  transitions=np.eye(2), beta=beta)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["kappa"])
    def test_non_finite_concentration(self, name, value):
        with pytest.raises(ValidationError,
                           match=f"^{name} must be finite and >= 0, got {value}$"):
            swar.SwitchingArModel(states=[ar1_state(0.5), ar1_state(0.5)],
                                  transitions=np.eye(2), beta=[0.5, 0.5],
                                  **{name: value})

    def test_fields_and_derived_sizes(self):
        model = two_state_model()
        assert [f.name for f in fields(swar.SwitchingArModel)] == [
            "states", "transitions", "beta", "kappa", "prior"]
        assert (model.order, model.truncation) == (1, 2)
        with pytest.raises(AttributeError):
            model.order = 2

    def test_one_state_or_mixed_orders_rejected(self):
        with pytest.raises(ValidationError, match="truncation must be >= 2"):
            swar.SwitchingArModel(states=[ar1_state(0.5)], transitions=[[1.0]],
                                  beta=[1.0])
        with pytest.raises(ValidationError, match="all states must share the model order"):
            swar.SwitchingArModel(states=[ar1_state(0.5), swar.ArState([0.1, 0.2])],
                                  transitions=np.eye(2), beta=[0.5, 0.5])

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_state_variance(self, value):
        with pytest.raises(ValidationError,
                           match="innovation variance must be positive and finite"):
            ar1_state(0.5, var=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["coef_scale", "shape", "scale"])
    def test_bad_prior(self, name, value):
        with pytest.raises(ValidationError,
                           match=f"^{name} must be finite and > 0, got {value}$"):
            swar.ArPrior(**{name: value})


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
        assert np.allclose(swar.ar_psd(state, np.linspace(0, 0.49, 50)), 1.0)

    def test_ar1_at_zero_frequency(self):
        assert swar.ar_psd(ar1_state(0.9), np.array([0.0]))[0] == pytest.approx(100.0)

    def test_integrated_power_matches_ar1_variance(self):
        for coef in (0.3, 0.6, -0.8):
            state = ar1_state(coef, var=1.7)
            freqs = np.linspace(0, 0.5, 20001)[:-1]
            # two-sided density: double the [0, 1/2) integral
            total = 2 * np.trapezoid(swar.ar_psd(state, freqs), freqs)
            analytic = 1.7 / (1 - coef**2)
            assert abs(total - analytic) < 0.02 * analytic

    def test_matches_welch_of_simulation(self):
        radius, angle = 0.95, 0.4 * np.pi
        state = swar.ArState(
            coefficients=[2 * radius * np.cos(angle), -radius**2],
            mean=0.0, variance=1.0)
        values = swar.ar_path([state], np.zeros(2**15, dtype=int),
                              np.random.default_rng(0))
        series = ScalarSeries(rate=1.0, values=values)
        freqs, welch = preprocess.power_spectrum(series, segment_length=512)
        # Welch is one-sided; the closed form is a two-sided density
        one_sided = 2 * swar.ar_psd(state, freqs)
        peak = int(np.argmax(welch))
        assert abs(peak - int(np.argmax(one_sided))) <= 1
        assert abs(one_sided[peak] - welch[peak]) < 0.15 * one_sided[peak]


class TestGibbsSweep:
    def test_determinism_bit_identical(self):
        data = ScalarSeries(rate=1.0, values=two_state_path(400, seed=2)[0])
        cfg = dict(order=1, truncation=5, sweeps=10, burn_in=0, seed=7)
        fit_a = swar.fit(data, **cfg)
        fit_b = swar.fit(data, **cfg)
        assert np.array_equal(fit_a.states, fit_b.states)
        assert np.array_equal(fit_a.loglik_trace, fit_b.loglik_trace)
        assert np.array_equal(fit_a.model.beta, fit_b.model.beta)

    def test_simplex_invariants_after_sweeps(self):
        data = ScalarSeries(rate=1.0, values=two_state_path(400, seed=3)[0])
        model = swar.initial_model(data, order=1, truncation=6, kappa=0.0)
        X, y = swar._design(data.values, 1)
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
        fit = swar.fit(data, order=1, truncation=10, sweeps=200, burn_in=100,
                       seed=5, kappa=20.0)
        assert np.bincount(fit.occupied_trace[100:]).argmax() == 1

    @pytest.mark.parametrize("sweeps, burn_in", [(0, 0), (10, 10), (10, 11), (10, -1)])
    def test_burn_in_must_leave_a_kept_sweep(self, sweeps, burn_in):
        data = ScalarSeries(rate=1.0, values=np.zeros(100))
        with pytest.raises(ValidationError, match=r"burn_in must lie in \[0, sweeps\)"):
            swar.fit(data, order=1, truncation=2, sweeps=sweeps, burn_in=burn_in)

    def test_one_kept_sweep_is_the_estimate(self):
        rng = np.random.default_rng(1)
        data = ScalarSeries(rate=1.0, values=rng.normal(size=200))
        fit = swar.fit(data, order=1, truncation=4, sweeps=3, burn_in=2, seed=0)
        assert fit.posteriors.shape == (200, 4)
        # one kept sweep: the posteriors are the estimate's one-hot rows
        assert np.array_equal(fit.posteriors, np.eye(4)[fit.states])

    def test_posteriors_are_kept_sweep_frequencies(self):
        rng = np.random.default_rng(1)
        data = ScalarSeries(rate=1.0, values=rng.normal(size=200))
        fit = swar.fit(data, order=2, truncation=4, sweeps=5, burn_in=2, seed=0)
        kept = 3 * fit.posteriors
        assert np.allclose(kept, np.rint(kept))
        assert np.allclose(fit.posteriors.sum(axis=1), 1.0)
        # the r = 2 conditioned-on points repeat the chain's first row
        assert np.array_equal(fit.posteriors[:2], fit.posteriors[[2, 2]])

    def test_truncation_saturation(self):
        # 3-state data with L = 2: both slots get used, no error
        states = [ar1_state(0.9, var=0.05), ar1_state(-0.8, var=1.0),
                  ar1_state(0.0, mean=4.0, var=0.3)]
        z = np.repeat([0, 1, 2], 400)
        values = swar.ar_path(states, z, np.random.default_rng(6))
        data = ScalarSeries(rate=1.0, values=values)
        fit = swar.fit(data, order=1, truncation=2, sweeps=40, burn_in=20, seed=2)
        assert fit.occupied == 2
        assert np.array_equal(np.unique(fit.states), [0, 1])


class TestCompleteDataLoglik:
    def test_single_state_reduces_to_emissions(self):
        state = ar1_state(0.5, var=0.8)
        model = swar.SwitchingArModel(
            states=[state, state],
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
        model = swar.SwitchingArModel(states=[s0, s1],
                                      transitions=pi, beta=np.array([0.5, 0.5]))
        values = np.array([1.0, 0.5, -0.3, 0.9])
        data = ScalarSeries(rate=1.0, values=values)
        z = np.array([0, 1, 1])
        by_hand = (ar_loglik(s0, [1.0], 0.5)
                   + np.log(0.3) + ar_loglik(s1, [0.5], -0.3)
                   + np.log(0.6) + ar_loglik(s1, [-0.3], 0.9))
        assert swar.complete_data_loglik(model, data, z) == pytest.approx(by_hand, abs=1e-12)

    def test_inflated_variance_lowers_loglik(self):
        values, z = two_state_path(300, seed=8)
        data = ScalarSeries(rate=1.0, values=values)
        model = two_state_model()
        z = z[1:]
        base = swar.complete_data_loglik(model, data, z)
        inflated_states = [swar.ArState(coefficients=s.coefficients,
                                        mean=s.mean, variance=s.variance * 1e6)
                           for s in model.states]
        inflated = swar.SwitchingArModel(
            states=inflated_states,
            transitions=model.transitions, beta=model.beta)
        assert swar.complete_data_loglik(inflated, data, z) < base

    def test_fit_trace_scores_each_sweep_once(self, monkeypatch):
        data = ScalarSeries(rate=1.0, values=two_state_path(300, seed=9)[0])
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
        fit = swar.fit(data, order=1, truncation=4, sweeps=6, burn_in=2, seed=1)
        # one matrix per model: the initial one and each sweep's result
        assert len(matrices) == 6 + 1
        monkeypatch.undo()
        expected = [swar.complete_data_loglik(m, data, z) for m, z in sweeps]
        assert np.array_equal(fit.loglik_trace, expected)

    def test_label_permutation_symmetry(self):
        s0 = ar1_state(0.9, var=0.5)
        s1 = ar1_state(-0.2, mean=1.0, var=2.0)
        pi = np.array([[0.7, 0.3], [0.4, 0.6]])
        model = swar.SwitchingArModel(states=[s0, s1],
                                      transitions=pi, beta=np.array([0.5, 0.5]))
        permuted = swar.SwitchingArModel(states=[s1, s0],
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
        one_state = np.array([0, len(y)])
        draws = np.array([
            swar._sample_emissions(X, y, one_state, prior,
                                   np.random.default_rng(s))[0].coefficients[0]
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


def all_column_messages(lik, pi):
    """The blocked filter over all L states, on time-major ``lik`` (n, L):
    the reference for the filter with closed states among its states, and,
    through ``m_0``, for the closed states' start weights."""
    n, L = lik.shape
    messages = np.empty((n, L))
    messages[n - 1] = 1.0
    steps = n - 1
    if steps == 0:
        return messages
    width = math.isqrt(steps - 1) + 1
    blocks = -(-steps // width)
    first = steps - (blocks - 1) * width
    pi = np.ldexp(pi, 64)
    ones = np.ones(L)
    with np.errstate(divide="ignore"):
        columns = np.repeat(np.eye(L)[:, :, None], blocks - 1, axis=2)
        flat = columns.reshape(L, -1)
        product = np.empty_like(flat)
        total = np.empty(flat.shape[1])
        logscale = np.zeros(flat.shape[1])
        tail = lik[first + 1:].reshape(blocks - 1, width, L)
        step_lik = tail[:, ::-1].transpose(1, 2, 0)[:, :, None, :].copy()
        for k in range(width):
            np.multiply(columns, step_lik[k], out=columns)
            np.matmul(pi, flat, out=product)
            np.matmul(ones, product, out=total)
            logscale += np.log(total)
            total[total == 0] = 1.0
            np.divide(product, total, out=flat)
        logscale = logscale.reshape(L, -1)
        for b in range(blocks - 1, 0, -1):
            log_weight = np.log(messages[first + b * width]) + logscale[:, b - 1]
            top = log_weight.max()
            if not np.isfinite(top):
                raise ClinQcError("backward message underflowed")
            msg = columns[:, :, b - 1] @ np.exp(log_weight - top)
            messages[first + (b - 1) * width] = msg / msg.sum()
    for k in range(width):
        lo = first - 1 - k
        if lo < 0:
            lo += width
        msg = np.multiply(lik[lo + 1: steps - k + 1: width],
                          messages[lo + 1: steps - k + 1: width]) @ pi.T
        total = msg @ ones
        if not (total.min() > 0 and total.max() < np.inf):
            raise ClinQcError("backward message underflowed")
        np.divide(msg, total[:, None], out=messages[lo: steps - k: width])
    return messages


def reference_sample_categorical(weights, u):
    cum = np.cumsum(weights)
    total = cum[-1]
    if total <= 0 or not np.isfinite(total):
        raise ClinQcError("all state probabilities underflowed")
    return int(min(np.searchsorted(cum, u * total, side="right"),
                   np.searchsorted(cum, total)))


def reference_sample_states(model, loglik, rng):
    loglik = loglik.T                      # (n, L), from the (L, n) input
    n = len(loglik)
    shift = loglik.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(shift)):
        raise ClinQcError("emission likelihoods are not finite")
    lik = np.exp(loglik - shift)
    pi = model.transitions
    messages = reference_messages(pi, lik)
    uniforms = rng.random(n)
    z = np.empty(n, dtype=int)
    z[0] = reference_sample_categorical(model.beta * lik[0] * messages[0], uniforms[0])
    for t in range(1, n):
        z[t] = reference_sample_categorical(lik[t] * messages[t] * pi[z[t - 1]],
                                            uniforms[t])
    return z


def reference_sample_tables(counts, model, rng):
    L = model.truncation
    tables = np.zeros((L, L))
    for j in range(L):
        for k in range(L):
            n = int(counts[j, k])
            if n == 0:
                continue
            conc = swar.CONCENTRATION * model.beta[k] + (model.kappa if j == k else 0.0)
            i = np.arange(n, dtype=float)
            tables[j, k] = np.sum(rng.random(n) < conc / (conc + i))
    if model.kappa > 0:
        rho = model.kappa / (swar.CONCENTRATION + model.kappa)
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
    else:
        vn_inv = np.eye(d) / prior.coef_scale ** 2 + X.T @ X
        vn = np.linalg.inv(vn_inv)
        wn = vn @ (X.T @ y)
        an = prior.shape + 0.5 * len(y)
        bn = prior.scale + 0.5 * float(y @ y - wn @ vn_inv @ wn)
        bn = max(bn, 1e-12)
        variance = 1.0 / rng.gamma(an, 1.0 / bn)
        chol = np.linalg.cholesky(vn)
        w = wn + np.sqrt(variance) * (chol @ rng.standard_normal(d))
    return swar.ArState(coefficients=w[:order], mean=float(w[order]),
                        variance=float(variance))


def reference_gibbs_sweep(model, X, y, loglik, rng):
    # recomputes the matrix, so a stale one passed by fit shows up
    L = model.truncation
    z = reference_sample_states(model, swar._loglik_matrix(model, X, y), rng)
    counts = swar._transition_counts(z, L)
    transitions = np.empty((L, L))
    for j in range(L):
        conc = swar.CONCENTRATION * model.beta + counts[j]
        if model.kappa > 0:
            conc = conc.copy()
            conc[j] += model.kappa
        transitions[j] = reference_sample_dirichlet(conc, rng)
    tables = reference_sample_tables(counts, model, rng)
    beta = reference_sample_dirichlet(swar.CONCENTRATION / L + tables.sum(axis=0), rng)
    states = [reference_sample_emission(X[z == k], y[z == k], model.prior,
                                        model.order, rng) for k in range(L)]
    return replace(model, states=states, transitions=transitions, beta=beta), z


def random_model(L, kappa, seed, closed=()):
    """Dirichlet rows plus kappa on the diagonal; no other state moves into
    the states ``closed``."""
    rng = np.random.default_rng(seed)
    transitions = rng.dirichlet(np.full(L, 0.5), size=L) + kappa * np.eye(L)
    transitions[:, closed] *= np.eye(L)[:, closed]
    transitions /= transitions.sum(axis=1, keepdims=True)
    return swar.SwitchingArModel(
        states=[ar1_state(0.0) for _ in range(L)],
        transitions=transitions, beta=rng.dirichlet(np.ones(L)), kappa=kappa)


def sample_states_cases():
    """(n, L, kappa, closed, start_closed) for ``test_sample_states``: every
    state open, with ids n-L-kappa (n = 1025 fills the forward table's
    first block of 1024 steps and n = 1026 starts a second); then sets of
    closed states, which the backward filter leaves out and which get their
    start weights in closed form, with beta on the last closed state when
    start_closed, so the filter runs again on the open states and it."""
    cases = [pytest.param(n, L, kappa, (), False, id=f"{n}-{L}-{kappa}")
             for kappa in [0.0, 20.0] for L in [2, 20]
             for n in [1, 2, 511, 512, 513, 1025, 1026, 2050]]
    closed_sets = {"L2-one": (2, [1]), "L20-some": (20, [0, 3, 4, 11, 19]),
                   "L20-all-but-one": (20, list(range(1, 20))),
                   "L20-all": (20, list(range(20)))}
    cases += [pytest.param(n, L, kappa, closed, start_closed,
                           id=f"{n}-{name}-{kappa}" + "-start" * start_closed)
              for start_closed in [False, True] for kappa in [0.0, 20.0]
              for name, (L, closed) in closed_sets.items() for n in [2, 513, 1801]]
    return cases


class TestReferenceEquality:
    @pytest.mark.parametrize("n, L, kappa, closed, start_closed", sample_states_cases())
    def test_sample_states(self, n, L, kappa, closed, start_closed):
        model = random_model(L, kappa, seed=n + L, closed=closed)
        if start_closed:
            model = replace(model, beta=np.eye(L)[closed[-1]])
        loglik = np.random.default_rng(n).normal(scale=5.0, size=(n, L)).T.copy()
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        z = swar.sample_states(model, loglik, rng)
        assert np.array_equal(z, reference_sample_states(model, loglik, ref_rng))
        assert z.dtype == np.dtype(int)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if start_closed:
            assert z[0] == closed[-1]

    @pytest.mark.parametrize("L", [2, 20])
    @pytest.mark.parametrize("n", [511, 512, 513, 1025, 1026, 2050])
    def test_sample_states_reachable_rows(self, n, L):
        # rows with exact zeros and subnormals between positive entries: a
        # zero entry adds an exact zero to the cumulative weights, and the
        # start draws from a beta with zeros of its own
        pi = hard_transitions(L, seed=n)
        model = swar.SwitchingArModel(states=[ar1_state(0.0) for _ in range(L)],
                                      transitions=pi, beta=pi[-1])
        assert (pi == 0).any() and ((pi > 0) & (pi < 1e-307)).any()
        loglik = np.random.default_rng(n).normal(scale=5.0, size=(L, n))
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        z = swar.sample_states(model, loglik, rng)
        assert np.array_equal(z, reference_sample_states(model, loglik, ref_rng))
        assert z.dtype == np.dtype(int)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # every step moves along a nonzero transition
        assert (pi[z[:-1], z[1:]] > 0).all() and model.beta[z[0]] > 0

    def test_start_in_closed_state_past_first_block(self):
        # state 19 is closed and stays with probability 1 - 1e-9, and its
        # likelihood leads the others' by 2 to 12 for the first 1100 steps:
        # the chain starts there and leaves it only in the second block of
        # the forward table, so the filter runs again on it
        L, n, c = 20, 2050, 19
        model = random_model(L, 0.0, seed=7, closed=[0, 3, 4, 11, c])
        pi = model.transitions
        pi[c] *= 1e-9 / (1.0 - pi[c, c])
        pi[c, c] = 1.0 - 1e-9
        model = replace(model, transitions=pi)
        rng = np.random.default_rng(5)
        loglik = rng.normal(scale=5.0, size=(L, n))
        loglik[c, :1100] = loglik[:c, :1100].max(axis=0) + rng.uniform(2.0, 12.0, 1100)
        loglik[c, 1100:] -= 50.0
        rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
        z = swar.sample_states(model, loglik, rng)
        assert np.array_equal(z, reference_sample_states(model, loglik, ref_rng))
        assert z.dtype == np.dtype(int)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert (z[:1025] == c).all() and (z[1100:] != c).all()

    def test_sample_states_total_rounding_up(self):
        # u * total rounds up to the total only when the total is subnormal:
        # every draw is then capped at the last state of positive weight,
        # not state L - 1 (here closed, of zero weight)
        class LastUniforms:
            def random(self, n):
                return np.full(n, 1.0 - 2.0 ** -53)

        pi = np.array([[0.5, 0.5, 0.0]] * 3)
        model = swar.SwitchingArModel(states=[ar1_state(0.0) for _ in range(3)],
                                      transitions=pi, beta=[0.5, 0.5, 0.0])
        loglik = np.zeros((3, 6))
        loglik[:2] = -711.0                   # the open states' totals are subnormal
        for _ in range(2):
            z = swar.sample_states(model, loglik, LastUniforms())
            assert np.array_equal(z, reference_sample_states(model, loglik, LastUniforms()))
            assert z.tolist() == [1] * 6
            loglik[:2, 0] = 0.0               # then a normal total at t = 0 only

    def test_sample_states_peak(self, traced_peak):
        # live (L, T) float64 arrays at the peak: the open states'
        # likelihoods (later their forward weights, in place), their
        # backward messages and pass 1's work, its columns and their
        # product, at most about one more array; then the closed states'
        # terms and their cumulative sums, two arrays at most; the
        # uniforms, the path and the forward table take under half of one.
        # One closed state, and one open state, were the worst sets seen;
        # with beta on a closed state the filter runs twice
        L, T = 20, 1800
        loglik = np.random.default_rng(0).normal(scale=5.0, size=(L, T))
        array = 8 * L * T
        for closed in [(), [7], list(range(10)), list(range(19)), list(range(20))]:
            model = random_model(L, 20.0, seed=1, closed=closed)
            for beta in [model.beta] + [np.eye(L)[c] for c in closed[-1:]]:
                _, peak = traced_peak(swar.sample_states, replace(model, beta=beta),
                                      loglik, np.random.default_rng(0))
                assert peak <= 3.5 * array, (closed, beta.argmax(), peak / array)

    def test_sample_states_ties(self):
        # u * total landing exactly on a cumulative weight picks the next
        # state (searchsorted side="right"), so u = 0 never picks a state
        # of zero weight
        class FixedUniforms:
            def random(self, n):
                return np.resize([0.0, 0.5], n)

        model = swar.SwitchingArModel(
            states=[ar1_state(0.0), ar1_state(0.0)],
            transitions=[[0.0, 1.0], [0.5, 0.5]], beta=[0.0, 1.0])
        loglik = np.zeros((2, 9))
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
            state = swar._sample_emissions(X, y, np.array([0, 0]), prior, rng)[0]
            ref = reference_sample_emission(X, y, prior, order, ref_rng)
            assert np.array_equal(state.coefficients, ref.coefficients)
            assert (state.mean, state.variance) == (ref.mean, ref.variance)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("order", [0, 2, 4])
    def test_sample_emissions(self, order):
        # one batched call draws what per-state calls draw, in the same
        # generator order: states 1 and 4 hold no data, state 3 one step
        values = two_state_path(400, seed=order)[0]
        X, y = swar._design(values, order)
        z = np.random.default_rng(order).choice([0, 2, 5], size=len(y))
        z[17] = 3
        prior = swar.ArPrior(coef_scale=1.5, shape=2.0, scale=0.4)
        by_state = np.argsort(z, kind="stable")
        bounds = np.searchsorted(z[by_state], np.arange(7))
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        states = swar._sample_emissions(X[by_state], y[by_state], bounds, prior, rng)
        refs = [reference_sample_emission(X[z == k], y[z == k], prior, order, ref_rng)
                for k in range(6)]
        assert len(states) == 6
        for state, ref in zip(states, refs):
            assert state.coefficients.shape == (order,)
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
        cfg = dict(order=2, truncation=8, kappa=kappa, sweeps=20, burn_in=10, seed=5)
        fit = swar.fit(series, **cfg)
        monkeypatch.setattr(swar, "gibbs_sweep", reference_gibbs_sweep)
        ref = swar.fit(series, **cfg)
        assert np.array_equal(fit.states, ref.states)
        assert np.array_equal(fit.posteriors, ref.posteriors)
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


CLOSED_CASES = ["none-closed", "some-closed", "all-closed", "closed-never-stays",
                "closed-underflows"]


def closed_case(n, L, case):
    """Time-major likelihoods (n, L), each row's largest 1, and transitions
    with the closed states ``case`` names, each staying with probability
    0.8, 0 or 1e-300."""
    rng = np.random.default_rng(n + L)
    lik = np.exp(rng.normal(scale=5.0, size=(n, L)))
    lik /= lik.max(axis=1, keepdims=True)
    pi = rng.dirichlet(np.ones(L), size=L)
    closed = {"none-closed": [], "some-closed": [1] if L == 2 else [0, 3, 4, 19],
              "all-closed": list(range(L))}.get(case, [L - 1])
    stay = {"closed-never-stays": 0.0, "closed-underflows": 1e-300}.get(case, 0.8)
    if case == "all-closed":
        pi = np.eye(L)
    elif closed:
        pi[:, closed] = 0.0
        pi /= pi.sum(axis=1, keepdims=True)
        pi[closed] *= 1.0 - stay
        pi[closed, closed] = stay
    if case == "closed-underflows":
        # the closed state's factor underflows to 0 at steps a few apart
        # within their blocks (n = 50: blocks of 7 steps; n = 1801: of 43)
        assert np.ldexp(stay, 64) * 1e-60 == 0.0
        lik[n // 2:: 97, L - 1] = 1e-60
    return lik, pi


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
        messages = swar._backward_messages(lik.T.copy(), pi)
        ref = reference_messages(pi, lik)
        assert messages.shape == ref.shape
        assert np.all(np.abs(messages - ref) <= 1e-12 * ref.max(axis=1, keepdims=True))

    @pytest.mark.parametrize("case", CLOSED_CASES)
    @pytest.mark.parametrize("L", [2, 20])
    @pytest.mark.parametrize("n", [2, 50, 1801])
    def test_closed_states_match_all_columns(self, n, L, case):
        lik, pi = closed_case(n, L, case)
        messages = swar._backward_messages(lik.T.copy(), pi)
        ref = all_column_messages(lik, pi)
        assert np.all(np.abs(messages - ref) <= 1e-15 * ref.max(axis=1, keepdims=True))

    @pytest.mark.parametrize("case", CLOSED_CASES + ["hard-transitions"])
    @pytest.mark.parametrize("L", [2, 20])
    @pytest.mark.parametrize("n", [1, 2, 50, 1801])
    def test_closed_start_weights(self, n, L, case):
        # lik_0 * m_0 of every state, the closed ones in closed form from
        # the open states' forward weights, against the filter over all L
        # states; "all-closed" leaves no open state, a pure product
        if case == "hard-transitions":
            lik, pi = closed_case(n, L, "none-closed")
            pi = hard_transitions(L, seed=n)
        else:
            lik, pi = closed_case(n, L, case)
        loglik = np.log(lik.T)
        shift = loglik.max(axis=0)
        entered = pi != 0
        np.fill_diagonal(entered, False)
        keep = np.flatnonzero(entered.any(axis=0))
        weights = swar._forward_weights(loglik, shift, pi, keep)
        start = swar._start_weights(loglik, shift, pi, keep, weights)
        ref = lik[0] * all_column_messages(lik, pi)[0]
        assert start.max() <= 1.0
        assert np.all(np.abs(start / start.max() - ref / ref.max()) <= 1e-12)

    def test_closed_state_without_a_path(self):
        # state 3 is closed, never stays and moves only into state 0, which
        # is impossible at t = 1: its start weight is exactly 0, so a start
        # from beta on it raises as the sequential recursion does
        pi = np.full((4, 4), 1.0 / 3)
        pi[:, 3] = 0.0
        pi[3] = [1.0, 0.0, 0.0, 0.0]
        loglik = np.random.default_rng(4).normal(size=(4, 50))
        loglik[0, 1] = -np.inf
        shift = loglik.max(axis=0)
        keep = np.arange(3)
        weights = swar._forward_weights(loglik, shift, pi, keep)
        start = swar._start_weights(loglik, shift, pi, keep, weights)
        assert start[3] == 0.0 and (start[:3] > 0).all()
        model = swar.SwitchingArModel(states=[ar1_state(0.0) for _ in range(4)],
                                      transitions=pi, beta=[0.0, 0.0, 0.0, 1.0])
        for sample in [swar.sample_states, reference_sample_states]:
            with pytest.raises(ClinQcError, match="all state probabilities"):
                sample(model, loglik, np.random.default_rng(0))

    @pytest.mark.parametrize("row", [3, 14, 15, 49],
                             ids=["first-block", "anchor-lik", "anchor-message",
                                  "last-block"])
    def test_structural_zero_raises(self, row):
        # n = 50: blocks of 7 steps with anchors at messages 7, 14, ..., 49;
        # lik[row] = (0, 1) against a dead column 1 zeroes message row - 1
        model = swar.SwitchingArModel(
            states=[ar1_state(0.0), ar1_state(0.0)],
            transitions=[[1.0, 0.0], [1.0, 0.0]], beta=[0.5, 0.5])
        loglik = np.zeros((2, 50))
        loglik[0, row] = -1000.0
        with pytest.raises(ClinQcError, match="backward message") as info:
            swar.sample_states(model, loglik, np.random.default_rng(0))
        assert not isinstance(info.value, ValidationError)
        with pytest.raises(ClinQcError, match="backward message"):
            reference_messages(model.transitions, np.exp(loglik.T))


class TestNumericalFailures:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loglik(self, bad):
        loglik = np.zeros((2, 6))
        loglik[1, 3] = bad
        with pytest.raises(ClinQcError, match="not finite") as info:
            swar.sample_states(two_state_model(), loglik, np.random.default_rng(0))
        assert not isinstance(info.value, ValidationError)

    def test_backward_message_underflow(self):
        model = swar.SwitchingArModel(
            states=[ar1_state(0.0), ar1_state(0.0)],
            transitions=[[1.0, 0.0], [1.0, 0.0]], beta=[0.5, 0.5])
        loglik = np.array([[0.0, -1000.0], [0.0, 0.0]])
        with pytest.raises(ClinQcError, match="backward message") as info:
            swar.sample_states(model, loglik, np.random.default_rng(0))
        assert not isinstance(info.value, ValidationError)
