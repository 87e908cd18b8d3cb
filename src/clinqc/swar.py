"""Nonparametric switching autoregressive segmentation.

A truncated (weak-limit) hierarchical-Dirichlet-process prior couples the
rows of an HMM transition matrix whose states are AR(r) processes with
Gaussian innovations. Inference is a blocked Gibbs sampler: the full state
sequence is drawn jointly by backward filtering / forward sampling, then
transition rows, global weights and per-state AR parameters are resampled
from their conditional posteriors.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericalUnderflow, ValidationError, WrongWindowLength
from .series import ScalarSeries, SpectrumEstimate, StateSequence

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class ArState:
    """One autoregressive regime: coefficients plus Gaussian innovation."""

    coefficients: np.ndarray
    mean: float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        self.coefficients = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        if self.variance <= 0:
            raise ValidationError("innovation variance must be positive")
        if not np.all(np.isfinite(self.coefficients)) or not np.isfinite(self.mean):
            raise ValidationError("AR parameters must be finite")

    @property
    def order(self) -> int:
        return len(self.coefficients)


@dataclass
class ArPrior:
    """Conjugate normal-inverse-gamma prior on the AR regression form.

    Coefficients and mean share a zero-mean Gaussian prior with covariance
    ``coef_scale**2 * variance * I``; the innovation variance has an
    inverse-gamma prior with shape ``shape`` and scale ``scale``.
    """

    coef_scale: float = 1.0
    shape: float = 2.0
    scale: float = 1.0


@dataclass
class SwitchingArModel:
    """Weak-limit truncated HDP switching AR model."""

    order: int
    truncation: int
    states: list[ArState]
    transitions: np.ndarray        # (L, L), rows on the simplex
    beta: np.ndarray               # (L,), global weights
    alpha: float = 1.0             # local concentration
    gamma: float = 1.0             # global concentration
    kappa: float = 0.0             # sticky self-transition bias
    seed: int = 0
    prior: ArPrior = field(default_factory=ArPrior)

    def __post_init__(self):
        if self.truncation < 2:
            raise ValidationError("truncation must be >= 2")
        if self.alpha <= 0 or self.gamma <= 0 or self.kappa < 0:
            raise ValidationError("need alpha > 0, gamma > 0, kappa >= 0")
        if len(self.states) != self.truncation:
            raise ValidationError("need one ArState per truncation slot")
        for s in self.states:
            if s.order != self.order:
                raise ValidationError("all states must share the model order")
        self.transitions = np.asarray(self.transitions, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        L = self.truncation
        if self.transitions.shape != (L, L):
            raise ValidationError("transition matrix must be L x L")
        if np.any(np.abs(self.transitions.sum(axis=1) - 1.0) > 1e-9):
            raise ValidationError("transition rows must sum to 1")
        if len(self.beta) != L or abs(self.beta.sum() - 1.0) > 1e-9:
            raise ValidationError("beta must be a length-L simplex")


@dataclass
class SwArConfig:
    """Fit configuration; defaults follow the preprocessing recipe scale."""

    order: int = 4
    truncation: int = 20
    alpha: float = 1.0
    gamma: float = 1.0
    kappa: float = 0.0
    sweeps: int = 500
    burn_in: int = 250
    seed: int = 0

    def __post_init__(self):
        if self.order < 0:
            raise ValidationError("order must be >= 0")
        if not 0 <= self.burn_in <= self.sweeps:
            raise ValidationError("burn_in must lie in [0, sweeps]")


@dataclass
class SwArFit:
    """Result of a switching-AR fit."""

    model: SwitchingArModel
    states: StateSequence          # point estimate, full length T
    loglik_trace: np.ndarray       # complete-data log-likelihood per sweep
    occupied_trace: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    @property
    def occupied(self) -> int:
        """K+ of the point estimate."""
        return self.states.occupied

    def occupied_mode(self, burn_in: int = 0) -> int:
        """Most frequent K+ over post-burn-in sweeps."""
        trace = self.occupied_trace[burn_in:]
        if len(trace) == 0:
            return self.occupied
        values, counts = np.unique(trace, return_counts=True)
        return int(values[np.argmax(counts)])


def ar_loglik(state: ArState, window: np.ndarray, x: float) -> float:
    """Gaussian log-density of x given the previous r values.

    ``window`` holds the lagged values most recent first: window[0] is
    x_{t-1}, window[1] is x_{t-2}, and so on.
    """
    window = np.atleast_1d(np.asarray(window, dtype=float))
    if state.order == 0 and window.size == 0:
        pred = state.mean
    elif len(window) != state.order:
        raise WrongWindowLength(
            f"window length {len(window)} != AR order {state.order}")
    else:
        pred = state.mean + float(state.coefficients @ window)
    resid = x - pred
    return -0.5 * (_LOG_2PI + np.log(state.variance)) - 0.5 * resid ** 2 / state.variance


def ar_psd(state: ArState, freqs: np.ndarray, rate: float = 1.0) -> SpectrumEstimate:
    """Closed-form AR power spectral density on a frequency grid.

    ``freqs`` are in Hz with respect to ``rate``; the density is two-sided,
    S(f) = variance / |1 - sum_j A_j exp(-i 2 pi f j / rate)|^2, expressed
    per unit of normalized frequency.
    """
    freqs = np.asarray(freqs, dtype=float)
    f_norm = freqs / rate
    if state.order:
        lags = np.arange(1, state.order + 1)
        phase = np.exp(-1j * 2.0 * np.pi * np.outer(f_norm, lags))
        transfer = 1.0 - phase @ state.coefficients.astype(complex)
    else:
        transfer = np.ones(len(f_norm), dtype=complex)
    power = state.variance / np.abs(transfer) ** 2
    return SpectrumEstimate(frequencies=freqs, power=power)


def simulate(model: SwitchingArModel, length: int, seed: int = 0,
             z_fixed: np.ndarray | None = None) -> tuple[ScalarSeries, StateSequence]:
    """Draw a path from the generative model.

    The state sequence follows the Markov chain started from ``beta`` (or is
    fixed to ``z_fixed``); observations follow the per-state AR recursion
    with missing lags before t = r treated as zeros.
    """
    if length <= model.order:
        raise ValidationError("length must exceed the AR order")
    rng = np.random.default_rng(seed)
    L = model.truncation
    if z_fixed is not None:
        z = np.asarray(z_fixed, dtype=int)
        if len(z) != length:
            raise ValidationError("z_fixed must have the requested length")
    else:
        z = np.empty(length, dtype=int)
        z[0] = rng.choice(L, p=model.beta)
        for t in range(1, length):
            z[t] = rng.choice(L, p=model.transitions[z[t - 1]])
    x = np.zeros(length)
    noise = rng.standard_normal(length)
    for t in range(length):
        st = model.states[z[t]]
        pred = st.mean
        for j in range(1, st.order + 1):
            if t - j >= 0:
                pred += st.coefficients[j - 1] * x[t - j]
        x[t] = pred + np.sqrt(st.variance) * noise[t]
    return ScalarSeries(rate=1.0, values=x), StateSequence(indicators=z)


def _design(values: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Regression form of the AR likelihood for t = r .. T-1.

    Returns (X, y) with X rows [x_{t-1}, ..., x_{t-r}, 1].
    """
    T = len(values)
    y = values[order:]
    X = np.empty((T - order, order + 1))
    for j in range(1, order + 1):
        X[:, j - 1] = values[order - j: T - j]
    X[:, order] = 1.0
    return X, y


def _loglik_matrix(model: SwitchingArModel, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-time, per-state emission log-likelihoods, shape (T - r, L)."""
    n = len(y)
    out = np.empty((n, model.truncation))
    for k, st in enumerate(model.states):
        w = np.concatenate([st.coefficients, [st.mean]])
        resid = y - X @ w
        out[:, k] = (-0.5 * (_LOG_2PI + np.log(st.variance))
                     - 0.5 * resid ** 2 / st.variance)
    return out


def sample_states(model: SwitchingArModel, loglik: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Jointly sample the chain by backward filtering / forward sampling.

    The chain starts from the global weights ``beta``. Per-time likelihoods
    are max-shifted before exponentiation and the backward messages are
    renormalized every step, which keeps the recursion stable without
    log-space arithmetic in the inner loop.
    """
    n, L = loglik.shape
    shift = loglik.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(shift)):
        raise NumericalUnderflow("emission likelihoods are not finite")
    lik = np.exp(loglik - shift)
    pi = model.transitions
    messages = np.ones((n, L))
    for t in range(n - 2, -1, -1):
        msg = pi @ (lik[t + 1] * messages[t + 1])
        total = msg.sum()
        if total <= 0 or not np.isfinite(total):
            raise NumericalUnderflow("backward message underflowed")
        messages[t] = msg / total
    uniforms = rng.random(n)
    z = np.empty(n, dtype=int)
    p = model.beta * lik[0] * messages[0]
    z[0] = _sample_categorical(p, uniforms[0])
    # precomputed cumulative weights make the sequential pass a cheap
    # searchsorted per step: cum[t, j] = cumsum_k pi[j, k] lik[t, k] msg[t, k]
    cum = np.cumsum(lik[:, None, :] * messages[:, None, :] * pi[None, :, :],
                    axis=2)
    last = L - 1
    searchsorted = np.searchsorted
    for t in range(1, n):
        row = cum[t, z[t - 1]]
        total = row[last]
        if total <= 0 or not np.isfinite(total):
            raise NumericalUnderflow("all state probabilities underflowed")
        idx = searchsorted(row, uniforms[t] * total, side="right")
        z[t] = idx if idx <= last else last
    return z


def _sample_categorical(weights: np.ndarray, u: float) -> int:
    total = weights.sum()
    if total <= 0 or not np.isfinite(total):
        raise NumericalUnderflow("all state probabilities underflowed")
    cum = np.cumsum(weights)
    return int(np.searchsorted(cum, u * total, side="right").clip(0, len(weights) - 1))


def _transition_counts(z: np.ndarray, L: int) -> np.ndarray:
    counts = np.zeros((L, L))
    np.add.at(counts, (z[:-1], z[1:]), 1.0)
    return counts


def _sample_dirichlet(alphas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    draws = rng.gamma(np.maximum(alphas, 1e-12))
    total = draws.sum()
    if total <= 0:
        out = np.zeros_like(alphas)
        out[int(np.argmax(alphas))] = 1.0
        return out
    return draws / total


def _sample_tables(counts: np.ndarray, model: SwitchingArModel,
                   rng: np.random.Generator) -> np.ndarray:
    """Chinese-restaurant-franchise table counts for the beta update.

    Includes the sticky override correction so self-transition tables caused
    by the kappa bias do not inflate the global weights.
    """
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


def _sample_emission(X: np.ndarray, y: np.ndarray, prior: ArPrior, order: int,
                     rng: np.random.Generator) -> ArState:
    """Draw (A, mu, sigma^2) from the conjugate posterior given assigned data.

    With no data this is a draw from the prior.
    """
    d = order + 1
    v0_inv = np.eye(d) / prior.coef_scale ** 2
    if len(y) == 0:
        variance = 1.0 / rng.gamma(prior.shape, 1.0 / prior.scale)
        w = rng.multivariate_normal(np.zeros(d), variance * prior.coef_scale ** 2 * np.eye(d))
    else:
        vn_inv = v0_inv + X.T @ X
        vn = np.linalg.inv(vn_inv)
        wn = vn @ (X.T @ y)
        an = prior.shape + 0.5 * len(y)
        bn = prior.scale + 0.5 * float(y @ y - wn @ vn_inv @ wn)
        bn = max(bn, 1e-12)
        variance = 1.0 / rng.gamma(an, 1.0 / bn)
        chol = np.linalg.cholesky(vn)
        w = wn + np.sqrt(variance) * (chol @ rng.standard_normal(d))
    return ArState(coefficients=w[:order], mean=float(w[order]),
                   variance=float(variance))


def gibbs_sweep(model: SwitchingArModel, data: ScalarSeries,
                rng: np.random.Generator,
                design: tuple[np.ndarray, np.ndarray] | None = None
                ) -> tuple[SwitchingArModel, np.ndarray]:
    """One full blocked sweep; returns the updated model and sampled chain.

    The chain covers t = r .. T-1; the first r observations are conditioned
    on and carry no likelihood.
    """
    if len(data) <= model.order:
        raise ValidationError("data must be longer than the AR order")
    X, y = design if design is not None else _design(data.values, model.order)
    L = model.truncation

    loglik = _loglik_matrix(model, X, y)
    z = sample_states(model, loglik, rng)

    counts = _transition_counts(z, L)
    transitions = np.empty((L, L))
    for j in range(L):
        conc = model.alpha * model.beta + counts[j]
        if model.kappa > 0:
            conc = conc.copy()
            conc[j] += model.kappa
        transitions[j] = _sample_dirichlet(conc, rng)

    tables = _sample_tables(counts, model, rng)
    beta = _sample_dirichlet(model.gamma / L + tables.sum(axis=0), rng)

    states = []
    for k in range(L):
        mask = z == k
        states.append(_sample_emission(X[mask], y[mask], model.prior,
                                       model.order, rng))

    updated = replace(model, states=states, transitions=transitions, beta=beta)
    return updated, z


def complete_data_loglik(model: SwitchingArModel, data: ScalarSeries,
                         z: np.ndarray) -> float:
    """log p(x, z | model): transition terms plus per-point AR likelihoods.

    ``z`` is the chain over t = r .. T-1 (length T - r).
    """
    X, y = _design(data.values, model.order)
    z = np.asarray(z, dtype=int)
    if len(z) != len(y):
        raise ValidationError("z must cover t = r .. T-1")
    loglik = _loglik_matrix(model, X, y)
    emission = float(loglik[np.arange(len(y)), z].sum())
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.transitions)
    transition = float(log_pi[z[:-1], z[1:]].sum())
    return emission + transition


def initial_model(data: ScalarSeries, config: SwArConfig) -> SwitchingArModel:
    """Initialization: all mass on state 0 (single occupied hidden state)."""
    L = config.truncation
    prior = ArPrior(coef_scale=1.0, shape=2.0,
                    scale=max(float(np.var(data.values)), 1e-12))
    states = [ArState(coefficients=np.zeros(config.order), mean=0.0,
                      variance=prior.scale) for _ in range(L)]
    transitions = np.full((L, L), 1.0 / L)
    beta = np.full(L, 1.0 / L)
    return SwitchingArModel(order=config.order, truncation=L, states=states,
                            transitions=transitions, beta=beta,
                            alpha=config.alpha, gamma=config.gamma,
                            kappa=config.kappa, seed=config.seed, prior=prior)


def fit(data: ScalarSeries, config: SwArConfig | None = None) -> SwArFit:
    """Run the blocked Gibbs sampler and return a point estimate.

    The point estimate is the post-burn-in sample with the highest
    complete-data log-likelihood; per-time posteriors are post-burn-in
    empirical state frequencies. The first r outputs inherit the first
    sampled state for continuity.
    """
    config = config or SwArConfig()
    r = config.order
    if len(data) < max(50 * max(r, 1), r + 2):
        raise ValidationError(f"need at least {50 * max(r, 1)} points for order {r}")
    rng = np.random.default_rng(config.seed)
    model = initial_model(data, config)
    X, y = _design(data.values, r)
    n = len(y)
    L = config.truncation

    if config.sweeps == 0:
        z_init = np.zeros(n, dtype=int)
        return SwArFit(model=model,
                       states=_expand_chain(z_init, r, None),
                       loglik_trace=np.empty(0))

    best_ll = -np.inf
    best_model = model
    best_z = np.zeros(n, dtype=int)
    freq = np.zeros((n, L))
    kept = 0
    trace = np.empty(config.sweeps)
    occupied_trace = np.empty(config.sweeps, dtype=int)
    for sweep in range(config.sweeps):
        model, z = gibbs_sweep(model, data, rng, design=(X, y))
        ll = complete_data_loglik(model, data, z)
        trace[sweep] = ll
        occupied_trace[sweep] = len(np.unique(z))
        if sweep >= config.burn_in:
            freq[np.arange(n), z] += 1.0
            kept += 1
            if ll > best_ll:
                best_ll = ll
                best_model = model
                best_z = z
    posteriors = freq / kept if kept else None
    states = _expand_chain(best_z, r, posteriors)
    return SwArFit(model=best_model, states=states, loglik_trace=trace,
                   occupied_trace=occupied_trace)


def _expand_chain(z: np.ndarray, order: int,
                  posteriors: np.ndarray | None) -> StateSequence:
    """Prepend the first chain state over the r conditioned-on points."""
    full = np.concatenate([np.full(order, z[0], dtype=int), z])
    full_post = None
    if posteriors is not None:
        head = np.tile(posteriors[0], (order, 1))
        full_post = np.vstack([head, posteriors])
    return StateSequence(indicators=full, posteriors=full_post)
