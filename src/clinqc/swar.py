"""Nonparametric switching autoregressive segmentation.

A truncated (weak-limit) hierarchical-Dirichlet-process prior couples the
rows of an HMM transition matrix whose states are AR(r) processes with
Gaussian innovations. Inference is a blocked Gibbs sampler: the full state
sequence is drawn jointly by backward filtering / forward sampling, then
transition rows, global weights and per-state AR parameters are resampled
from their conditional posteriors.

The backward filter runs in three passes over blocks of about sqrt(n)
steps (block transfer matrices, messages at the block ends, then every
block's messages at once), so a sweep takes about 3 sqrt(n) numpy steps
instead of n. Its messages match the sequential recursion to rounding, and
the draws equal the sequential recursion's unless a rounding difference at
the 1e-16 level moves a uniform across a cumulative weight.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ClinQcError, ValidationError
from .series import ScalarSeries, SpectrumEstimate, StateSequence, check_simplex

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
        if not (np.all(np.isfinite([self.alpha, self.gamma, self.kappa]))
                and self.alpha > 0 and self.gamma > 0 and self.kappa >= 0):
            raise ValidationError("need finite alpha > 0, gamma > 0, kappa >= 0")
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
        check_simplex(self.transitions, "transition rows must sum to 1")
        if len(self.beta) != L:
            raise ValidationError("beta must be a length-L simplex")
        check_simplex(self.beta, "beta must be a length-L simplex")


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
    occupied_trace: np.ndarray     # K+ of the sampled chain per sweep

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


def ar_psd(state: ArState, freqs: np.ndarray) -> SpectrumEstimate:
    """Closed-form AR power spectral density on a frequency grid.

    ``freqs`` are normalized frequencies, in cycles per sample; the density
    is two-sided, S(f) = variance / |1 - sum_j A_j exp(-i 2 pi f j)|^2,
    per unit of normalized frequency.
    """
    freqs = np.asarray(freqs, dtype=float)
    if state.order:
        lags = np.arange(1, state.order + 1)
        phase = np.exp(-1j * 2.0 * np.pi * np.outer(freqs, lags))
        transfer = 1.0 - phase @ state.coefficients.astype(complex)
    else:
        transfer = np.ones(len(freqs), dtype=complex)
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


_BLOCK = 512   # time steps per block of the forward table


def sample_states(model: SwitchingArModel, loglik: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Jointly sample the chain by backward filtering / forward sampling.

    The chain starts from the global weights ``beta``. Per-time likelihoods
    are max-shifted before exponentiation and the backward messages are
    renormalized every step; ``_backward_messages`` computes them in three
    passes over blocks of about sqrt(n) steps. The forward pass looks each
    draw up in a table: per block of steps and previous state j, one
    vectorized pass draws the next state of every step in the block, the
    first time the chain is in j within that block. Draws equal those of
    the sequential recursion ``m_t = pi @ (lik_{t+1} * m_{t+1}) / total``
    unless a rounding difference at the 1e-16 level moves a uniform across
    a cumulative weight.
    """
    n, L = loglik.shape
    shift = loglik.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(shift)):
        raise ClinQcError("emission likelihoods are not finite")
    lik = np.exp(loglik - shift)
    pi = model.transitions
    messages = _backward_messages(lik, pi)
    uniforms = rng.random(n)
    weights = lik * messages
    state = _draw_column(weights[:1], model.beta, uniforms[:1])[0]
    if state < 0:
        raise ClinQcError("all state probabilities underflowed")
    path = [state]
    for start in range(1, n, _BLOCK):
        block = slice(start, min(start + _BLOCK, n))
        block_weights, block_uniforms = weights[block], uniforms[block]
        table = [None] * L
        for i in range(len(block_uniforms)):
            column = table[state]
            if column is None:
                column = table[state] = _draw_column(block_weights, pi[state],
                                                     block_uniforms)
            state = column[i]
            if state < 0:
                raise ClinQcError("all state probabilities underflowed")
            path.append(state)
    return np.array(path, dtype=int)


def _backward_messages(lik: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Normalized backward messages ``m_t ~ pi @ (lik[t+1] * m_{t+1})``.

    ``m_{n-1}`` is all ones. The n - 1 steps are cut into blocks of
    B = ceil(sqrt(n - 1)) steps, the first block taking the remainder, and
    run in three passes of about sqrt(n) numpy steps each:

    1. For every block but the first, at once, the transfer matrix P (the
       product of the block's ``pi @ diag(lik)`` factors, which maps the
       message at the block's end to the one at its start) is built from
       the identity in B steps. The columns of all the blocks' P sit side
       by side in one ``(L, (blocks - 1) * L)`` array, so each step is one
       contiguous ``(L, L) @ (L, (blocks - 1) * L)`` product. Every column
       is renormalized by its total at every step and the logs of the
       totals are summed; a column whose total is 0 stays zero with
       log-scale -inf (a dead state, not an error).
    2. From the last block back, the message at each block's start is the
       sum of its P columns weighted by ``exp(log m + logscale - max)``,
       with m the message at the block's end.
    3. Every block at once fills its messages by the sequential recursion,
       starting from the message at its end.

    ``pi`` enters as ``pi * 2**64``: the factor is exact, cancels in the
    normalization, and turns subnormal transitions (Dirichlet draws for
    empty states) into normal numbers, which multiply far faster. A
    message whose total is 0 or not finite raises ``ClinQcError``.
    """
    n, L = lik.shape
    messages = np.empty((n, L))
    messages[n - 1] = 1.0
    steps = n - 1
    if steps == 0:
        return messages
    width = math.isqrt(steps - 1) + 1
    blocks = -(-steps // width)
    first = steps - (blocks - 1) * width     # steps in the first block
    # block b >= 1 runs from message first + (b-1)*width to first + b*width
    pi = np.ldexp(pi, 64)
    ones = np.ones(L)

    with np.errstate(divide="ignore"):        # log(0) = -inf marks a dead column
        # pass 1: columns[:, i, b - 1] is column i of block b's P
        columns = np.repeat(np.eye(L)[:, :, None], blocks - 1, axis=2)
        flat = columns.reshape(L, -1)
        product = np.empty_like(flat)
        total = np.empty(flat.shape[1])
        logscale = np.zeros(flat.shape[1])
        # step_lik[k, :, 0, b - 1] = lik[first + b*width - k]: step k of
        # every block, counted from the block's end
        tail = lik[first + 1:].reshape(blocks - 1, width, L)
        step_lik = tail[:, ::-1].transpose(1, 2, 0)[:, :, None, :].copy()
        for k in range(width):
            np.multiply(columns, step_lik[k], out=columns)
            np.matmul(pi, flat, out=product)
            np.matmul(ones, product, out=total)
            logscale += np.log(total)
            total[total == 0] = 1.0           # a dead column stays zero
            np.divide(product, total, out=flat)
        # pass 2: the message at each block's start, from the last block back
        logscale = logscale.reshape(L, -1)
        for b in range(blocks - 1, 0, -1):
            log_weight = np.log(messages[first + b * width]) + logscale[:, b - 1]
            top = log_weight.max()
            if not np.isfinite(top):
                raise ClinQcError("backward message underflowed")
            msg = columns[:, :, b - 1] @ np.exp(log_weight - top)
            messages[first + (b - 1) * width] = msg / msg.sum()
    # pass 3: the recursion inside every block at once, last step first
    for k in range(width):
        lo = first - 1 - k
        if lo < 0:                             # the first block is filled
            lo += width
        msg = np.multiply(lik[lo + 1: steps - k + 1: width],
                          messages[lo + 1: steps - k + 1: width]) @ pi.T
        total = msg @ ones
        if not (total.min() > 0 and total.max() < np.inf):
            raise ClinQcError("backward message underflowed")
        np.divide(msg, total[:, None], out=messages[lo: steps - k: width])
    return messages


def _draw_column(weights: np.ndarray, row: np.ndarray,
                 uniforms: np.ndarray) -> list[int]:
    """One categorical draw per step from ``weights[t] * row``.

    Draw t is ``searchsorted(cum, u_t * cum[-1], side="right")`` capped at
    L - 1 with ``cum = cumsum(weights[t] * row)``: the number of the first
    L - 1 cumulative weights at most u_t times the total, as they never
    decrease. A step whose total is not positive and finite draws -1.
    """
    last = len(row) - 1
    cum = np.add.accumulate(weights * row, axis=1)
    total = cum[:, last]
    picks = (cum[:, :last] <= (uniforms * total)[:, None]).sum(axis=1)
    picks[~((total > 0) & (total < np.inf))] = -1
    return picks.tolist()


def _transition_counts(z: np.ndarray, L: int) -> np.ndarray:
    counts = np.zeros((L, L))
    np.add.at(counts, (z[:-1], z[1:]), 1.0)
    return counts


def _sample_dirichlet(alphas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Dirichlet draws along the last axis, one per row of a matrix.

    A row whose gamma draws all underflow puts its mass on its largest
    concentration.
    """
    draws = rng.gamma(np.maximum(alphas, 1e-12))
    total = draws.sum(axis=-1, keepdims=True)
    empty = total <= 0
    if empty.any():
        largest = np.argmax(alphas, axis=-1)[..., None]
        draws = np.where(empty, np.arange(alphas.shape[-1]) == largest, draws)
        total = np.where(empty, 1.0, total)
    return draws / total


def _sample_tables(counts: np.ndarray, model: SwitchingArModel,
                   rng: np.random.Generator) -> np.ndarray:
    """Chinese-restaurant-franchise table counts for the beta update.

    Customer i (from 0) of cell (j, k) opens a table with probability
    c / (c + i), c = alpha * beta_k + kappa [j == k]: one uniform per
    customer, cells in row-major order. Includes the sticky override
    correction so self-transition tables caused by the kappa bias do not
    inflate the global weights.
    """
    L = model.truncation
    conc = np.tile(model.alpha * model.beta, (L, 1))
    conc[np.diag_indices(L)] += model.kappa
    customers = counts.astype(int).ravel()
    cell = np.repeat(np.arange(L * L), customers)
    i = np.arange(len(cell)) - np.repeat(np.cumsum(customers) - customers, customers)
    c = conc.ravel()[cell]
    opened = rng.random(len(cell)) < c / (c + i)
    tables = np.bincount(cell, weights=opened, minlength=L * L).reshape(L, L)
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
        w = np.sqrt(variance * prior.coef_scale ** 2) * rng.standard_normal(d)
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


def gibbs_sweep(model: SwitchingArModel, X: np.ndarray, y: np.ndarray,
                loglik: np.ndarray, rng: np.random.Generator
                ) -> tuple[SwitchingArModel, np.ndarray]:
    """One full blocked sweep; returns the updated model and sampled chain.

    ``X, y`` are the regression form of the data from ``_design`` and
    ``loglik`` is ``_loglik_matrix(model, X, y)``, the emission
    log-likelihoods of the current model. The chain covers t = r .. T-1;
    the first r observations are conditioned on and carry no likelihood.
    """
    L = model.truncation

    z = sample_states(model, loglik, rng)

    counts = _transition_counts(z, L)
    conc = model.alpha * model.beta + counts
    if model.kappa > 0:
        conc[np.diag_indices(L)] += model.kappa
    transitions = _sample_dirichlet(conc, rng)

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
    return _score(model, _loglik_matrix(model, X, y), z)


def _score(model: SwitchingArModel, loglik: np.ndarray, z: np.ndarray) -> float:
    """``complete_data_loglik`` from the model's log-likelihood matrix."""
    emission = float(loglik[np.arange(len(z)), z].sum())
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

    loglik = _loglik_matrix(model, X, y)
    best_ll = -np.inf
    best_model = model
    best_z = np.zeros(n, dtype=int)
    freq = np.zeros((n, L))
    kept = 0
    trace = np.empty(config.sweeps)
    occupied_trace = np.empty(config.sweeps, dtype=int)
    for sweep in range(config.sweeps):
        model, z = gibbs_sweep(model, X, y, loglik, rng)
        loglik = _loglik_matrix(model, X, y)     # scores z and drives the next sweep
        ll = _score(model, loglik, z)
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
