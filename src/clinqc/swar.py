"""Nonparametric switching autoregressive segmentation.

A truncated (weak-limit) hierarchical-Dirichlet-process prior couples the
rows of an HMM transition matrix whose states are AR(r) processes with
Gaussian innovations. Inference is a blocked Gibbs sampler: the full state
sequence is drawn jointly by backward filtering / forward sampling, then
transition rows, global weights and per-state AR parameters are resampled
from their conditional posteriors. The model holds what a sweep reads: its
states fix the truncation and the AR order, both HDP concentrations are
``CONCENTRATION`` = 1, and the run's settings are arguments of ``fit``.

The backward filter runs in three passes over blocks of about sqrt(n)
steps (block transfer matrices, messages at the block ends, then every
block's messages at once), so a sweep takes about 3 sqrt(n) numpy steps
instead of n. Its messages match the sequential recursion to rounding, and
the draws equal the sequential recursion's unless a rounding difference at
the 1e-16 level moves a uniform across a cumulative weight. A state is
closed when no other state moves into it: the Dirichlet draws of states
that hold no data underflow to exact zeros, so most of the L states are
closed once the chain settles. The open states then form a chain of their
own, so the filter runs on them only; a closed state can hold the chain
only from t = 0, for as long as it stays there, and its start weight comes
in closed form from the open states' forward weights. Emission
likelihoods, the forward table's weights and its cumulative sums are
state-major, (L, n), so the sums over the states are contiguous row adds.
The per-state stages run batched where that keeps every bit: the
log-likelihoods' Gaussian terms over all L rows at once, and the emission
draws' inverses and Cholesky factors as one stacked call each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ClinQcError, ValidationError
from .series import ScalarSeries, check_simplex

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class ArState:
    """One autoregressive regime: coefficients plus Gaussian innovation."""

    coefficients: np.ndarray
    mean: float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        self.coefficients = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        if not 0 < self.variance < np.inf:
            raise ValidationError(
                f"innovation variance must be positive and finite, got {self.variance!r}")
        if not (np.isfinite(self.coefficients).all() and math.isfinite(self.mean)):
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

    def __post_init__(self):
        for name in ("coef_scale", "shape", "scale"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValidationError(f"{name} must be finite and > 0, got {value!r}")


#: The local (alpha) and global (gamma) concentrations of the sticky HDP.
CONCENTRATION = 1.0
#: Most sweeps ``fit`` runs: numpy can size its 8-byte-a-sweep traces.
MAX_SWEEPS = np.iinfo(np.intp).max // 8


@dataclass
class SwitchingArModel:
    """Weak-limit truncated HDP switching AR model; L = len(states)."""

    states: list[ArState]
    transitions: np.ndarray        # (L, L), rows on the simplex
    beta: np.ndarray               # (L,), global weights
    kappa: float = 0.0             # sticky self-transition bias
    prior: ArPrior = field(default_factory=ArPrior)

    def __post_init__(self):
        if len(self.states) < 2:
            raise ValidationError("truncation must be >= 2")
        if not 0 <= self.kappa < np.inf:
            raise ValidationError(f"kappa must be finite and >= 0, got {self.kappa!r}")
        if any(s.order != self.order for s in self.states):
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

    @property
    def order(self) -> int:
        return self.states[0].order

    @property
    def truncation(self) -> int:
        return len(self.states)


@dataclass
class SwArFit:
    """Result of a switching-AR fit: the point estimate (a model and an int
    state path), the kept sweeps' per-time state frequencies and traces."""

    model: SwitchingArModel
    states: np.ndarray             # (T,) int state path of the point estimate
    posteriors: np.ndarray         # (T, L) kept sweeps' state frequencies
    loglik_trace: np.ndarray       # complete-data log-likelihood per sweep
    occupied_trace: np.ndarray     # K+ of the sampled chain per sweep

    @property
    def occupied(self) -> int:
        """K+ of the point estimate."""
        return len(np.unique(self.states))


def ar_psd(state: ArState, freqs: np.ndarray) -> np.ndarray:
    """Closed-form AR power spectral density at each of ``freqs``.

    ``freqs`` are normalized frequencies, in cycles per sample; the density
    is two-sided, S(f) = variance / |1 - sum_j A_j exp(-i 2 pi f j)|^2,
    per unit of normalized frequency (white noise at order 0).
    """
    freqs = np.asarray(freqs, dtype=float)
    lags = np.arange(1, state.order + 1)
    phase = np.exp(-1j * 2.0 * np.pi * np.outer(freqs, lags))
    transfer = 1.0 - phase @ state.coefficients.astype(complex)
    return state.variance / np.abs(transfer) ** 2


def ar_path(states: list[ArState], z: np.ndarray,
            rng: np.random.Generator) -> np.ndarray:
    """The per-state AR recursion along the state path ``z``, driven by one
    ``standard_normal(len(z))``; missing lags before t = r count as zeros."""
    x = np.zeros(len(z))
    noise = rng.standard_normal(len(z))
    for t in range(len(z)):
        st = states[z[t]]
        pred = st.mean
        for j in range(1, st.order + 1):
            if t - j >= 0:
                pred += st.coefficients[j - 1] * x[t - j]
        x[t] = pred + np.sqrt(st.variance) * noise[t]
    return x


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
    """Per-state, per-time emission log-likelihoods, shape (L, T - r): one
    ``X @ w`` per state, then the Gaussian terms over all rows at once."""
    variance = np.array([st.variance for st in model.states])
    out = np.empty((model.truncation, len(y)))
    w = np.empty(X.shape[1])
    for k, st in enumerate(model.states):
        w[:-1], w[-1] = st.coefficients, st.mean
        np.matmul(X, w, out=out[k])
    np.subtract(y, out, out=out)                  # the residuals
    np.square(out, out=out)
    out *= 0.5
    out /= variance[:, None]
    np.subtract((-0.5 * (_LOG_2PI + np.log(variance)))[:, None], out, out=out)
    return out


_BLOCK = 1024  # time steps per block of the forward table


def sample_states(model: SwitchingArModel, loglik: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Jointly sample the chain by backward filtering / forward sampling.

    ``loglik`` is state-major, shape (L, n), as ``_loglik_matrix`` returns
    it. The chain starts from the global weights ``beta``. Per-time
    likelihoods are max-shifted before exponentiation and the backward
    messages are renormalized every step; ``_backward_messages`` computes
    them in three passes over blocks of about sqrt(n) steps.

    A state c is closed when no other state moves into it, so the open
    states S form a chain of their own: their messages are those of the
    filter on ``lik[S]`` and ``pi[S, S]``, and after t = 0 the chain is in
    S unless it starts in c and stays there. The filter and the forward
    weights ``lik * m`` run on S only; ``_start_weights`` gives each closed
    state its start weight in closed form. When the draw at t = 0 picks a
    closed state, the filter runs again on S and that state.

    The forward pass looks each draw up in a table: per block of steps and
    previous state j, one vectorized pass draws the next state of every
    step in the block, the first time the chain is in j within that block,
    summing over every open state. Draws equal those of the sequential
    recursion ``m_t = pi @ (lik_{t+1} * m_{t+1}) / total`` unless a
    rounding difference at the 1e-16 level moves a uniform across a
    cumulative weight.
    """
    n = loglik.shape[1]
    shift = loglik.max(axis=0)
    if not np.all(np.isfinite(shift)):
        raise ClinQcError("emission likelihoods are not finite")
    pi = model.transitions
    entered = pi != 0
    np.fill_diagonal(entered, False)
    is_open = entered.any(axis=0)
    keep = np.flatnonzero(is_open)
    weights = _forward_weights(loglik, shift, pi, keep)
    start = _start_weights(loglik, shift, pi, keep, weights)
    uniforms = rng.random(n)
    state = int(_draw_column(start[:, None], model.beta, uniforms[:1])[0])
    if state < 0:
        raise ClinQcError("all state probabilities underflowed")
    if not is_open[state]:
        del weights                           # before the filter runs again
        is_open[state] = True
        keep = np.flatnonzero(is_open)
        weights = _forward_weights(loglik, shift, pi, keep)
    # from here on states are positions in keep
    pi = pi[np.ix_(keep, keep)]
    state = int(np.searchsorted(keep, state))
    path = [state]
    for begin in range(1, n, _BLOCK):
        block = slice(begin, min(begin + _BLOCK, n))
        block_weights, block_uniforms = weights[:, block], uniforms[block]
        table = [None] * len(pi)
        for i in range(len(block_uniforms)):
            column = table[state]
            if column is None:
                column = table[state] = _draw_column(block_weights, pi[state],
                                                     block_uniforms).tolist()
            state = column[i]
            if state < 0:
                raise ClinQcError("all state probabilities underflowed")
            path.append(state)
    return keep[path]


def _forward_weights(loglik: np.ndarray, shift: np.ndarray, pi: np.ndarray,
                     keep: np.ndarray) -> np.ndarray:
    """The forward weights ``lik * m`` of the states ``keep``, shape
    (len(keep), n), with ``lik = exp(loglik - shift)``. No state in
    ``keep`` may move to a state outside it."""
    lik = loglik[keep]
    lik -= shift
    np.exp(lik, out=lik)
    if len(keep):
        lik *= _backward_messages(lik, pi[np.ix_(keep, keep)]).T
    return lik


def _start_weights(loglik: np.ndarray, shift: np.ndarray, pi: np.ndarray,
                   keep: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``lik_0 * m_0`` of all L states, up to a common factor, from the
    forward weights ``w`` of the open states ``keep`` and the closed
    states' log-likelihoods; the largest is at most 1.

    A closed state c is followed only by itself and the open states S.
    On the scale on which the open states' ``m_0`` sums to 1, with
    ``s_v = colsum(pi[S, S]) @ w[:, v + 1]`` the total of message v before
    its normalization, ``rho_v = pi[c, S] @ w[:, v + 1] / s_v`` and
    ``ell_c = loglik[c] - shift``:

        m_0[c] = sum_{u < n-1} exp(B_u) rho_u + exp(B_{n-1}),
        B_u = sum_{v < u} (log pi_cc + ell_c(v + 1) - log s_v),

    term u for the paths that stay in c to step u and enter S at u + 1,
    the last for those that stay to the end. The terms are summed from
    their logs, so neither a long stay nor a tiny ``s_v`` overflows.
    ``pi`` enters as ``pi * 2**64``, as in ``_backward_messages``.
    """
    L, n = len(pi), loglik.shape[1]
    start = np.empty(L)
    start[keep] = weights[:, 0]
    is_closed = np.ones(L, dtype=bool)
    is_closed[keep] = False
    closed = np.flatnonzero(is_closed)
    if not len(closed):
        return start
    pi = np.ldexp(pi, 64)
    # terms[:, u] is the log of term u; the stay to the end has rho = 1
    terms = np.zeros((len(closed), n))
    inflow = terms[:, :-1]
    with np.errstate(divide="ignore"):
        np.matmul(pi[closed][:, keep], weights[:, 1:], out=inflow)
        np.log(inflow, out=inflow)
        log_total = np.log(pi[keep][:, keep].sum(axis=0) @ weights[:, 1:]
                           if len(keep) else 1.0)
        inflow -= log_total
        stay = loglik[closed, 1:]
        stay -= log_total + shift[1:]
        stay += np.log(np.diagonal(pi)[closed])[:, None]
        np.cumsum(stay, axis=1, out=stay)
        terms[:, 1:] += stay
        top = terms.max(axis=1)
        dead = top == -np.inf                 # no path: m_0[c] = 0
        top[dead] = 0.0
        terms -= top[:, None]
        # a term below exp(-700) of the largest adds nothing; exp would
        # take a slow path on it
        np.maximum(terms, -700.0, out=terms)
        np.exp(terms, out=terms)
        log_start = np.log(terms.sum(axis=1))
    log_start += top
    log_start += loglik[closed, 0] - shift[0]
    log_start[dead] = -np.inf
    scale = max(log_start.max(), 0.0)
    start[keep] *= math.exp(-scale)
    start[closed] = np.exp(log_start - scale)
    return start


def _backward_messages(lik: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Normalized backward messages ``m_t ~ pi @ (lik[:, t+1] * m_{t+1})``.

    ``lik`` is state-major, shape (L, n); the messages come back
    time-major, shape (n, L), and ``m_{n-1}`` is all ones. The n - 1 steps
    are cut into blocks of B = ceil(sqrt(n - 1)) steps, the first block
    taking the remainder, and run in three passes of about sqrt(n) numpy
    steps each:

    1. For every block but the first, at once, the transfer matrix P (the
       product of the block's ``pi @ diag(lik)`` factors, which maps the
       message at the block's end to the one at its start) is built from
       the identity in B steps. The L columns of all the blocks' P sit
       side by side in one ``(L, (blocks - 1) * L)`` array, so each step
       is one contiguous ``(L, L) @ (L, (blocks - 1) * L)`` product. Every
       column is renormalized by its total at every step and the logs of
       the totals are summed; a column whose total is 0 stays zero with
       log-scale -inf (a dead state, not an error).
    2. From the last block back, the message at each block's start is the
       sum of its P columns weighted by ``exp(log m + logscale - max)``,
       with m the message at the block's end. Every block's P is stacked
       contiguously once, after pass 1's product is freed, so each block
       is a few in-place steps and one matrix-vector product.
    3. Every block at once fills its messages by the sequential recursion,
       starting from the message at its end.

    ``pi`` enters as ``pi * 2**64``: the factor is exact, cancels in the
    normalization, and turns subnormal transitions (Dirichlet draws for
    empty states) into normal numbers, which multiply far faster. A
    message whose total is 0 or not finite raises ``ClinQcError``.
    """
    L, n = lik.shape
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
        # pass 1: columns[:, j, b - 1] is column j of block b's P
        columns = np.repeat(np.eye(L)[:, :, None], blocks - 1, axis=2)
        flat = columns.reshape(L, -1)
        product = np.empty_like(flat)
        total = np.empty(flat.shape[1])
        logscale = np.zeros(flat.shape[1])
        for k in range(width):
            # step k of every block b, counted from its end: t = first + b*width - k
            step = slice(first + width - k, steps - k + 1, width)
            np.multiply(columns, lik[:, None, step], out=columns)
            np.matmul(pi, flat, out=product)
            np.matmul(ones, product, out=total)
            logscale += np.log(total)
            total[total == 0] = 1.0           # a dead column stays zero
            np.divide(product, total, out=flat)
        del product
        # transfer[b - 1] is block b's P and logscale[b - 1] its log-scales
        transfer = np.ascontiguousarray(columns.transpose(2, 0, 1))
        logscale = logscale.reshape(L, -1).T
        del columns, flat
        # pass 2: the message at each block's start, from the last block back
        weight = np.empty(L)
        for b in range(blocks - 1, 0, -1):
            np.log(messages[first + b * width], out=weight)
            weight += logscale[b - 1]
            top = weight.max()
            if not math.isfinite(top):
                raise ClinQcError("backward message underflowed")
            weight -= top
            np.exp(weight, out=weight)
            msg = messages[first + (b - 1) * width]
            np.matmul(transfer[b - 1], weight, out=msg)
            msg /= msg.sum()
    # pass 3: the recursion inside every block at once, last step first; a
    # total of 0 leaves 0/0 = nan in its message, for the check after it
    with np.errstate(invalid="ignore"):
        for k in range(width):
            lo = first - 1 - k
            if lo < 0:                         # the first block is filled
                lo += width
            rows = slice(lo + 1, steps - k + 1, width)
            msg = np.multiply(lik[:, rows].T, messages[rows], order="C") @ pi.T
            np.divide(msg, (msg @ ones)[:, None], out=messages[lo: steps - k: width])
    if not np.isfinite(messages).all():
        raise ClinQcError("backward message underflowed")
    return messages


def _draw_column(weights: np.ndarray, row: np.ndarray,
                 uniforms: np.ndarray) -> np.ndarray:
    """One categorical draw per step from ``weights[:, t] * row``.

    ``weights`` is state-major, shape (L, m). With ``cum =
    cumsum(weights[:, t] * row)`` and ``total = cum[-1]``, draw t is
    ``min(searchsorted(cum, u_t * total, side="right"), searchsorted(cum,
    total))``: the number of the first L - 1 cumulative weights at most
    u_t times the total, as they never decrease, but at most the row where
    ``cum`` reaches the total, the last of positive weight. The cap acts
    only where ``u_t * total`` rounds up to the total, which happens only
    at a subnormal total. The cumulative sums run as row adds, in the
    order ``np.cumsum`` adds. A step whose total is not positive and
    finite draws -1.
    """
    last = len(row) - 1
    cum = weights * row[:, None]
    for k in range(last):
        np.add(cum[k], cum[k + 1], out=cum[k + 1])
    total = cum[last]
    scaled = uniforms * total
    picks = (cum[:last] <= scaled).sum(axis=0)
    up = scaled == total
    if up.any():
        picks[up] = (cum[:last, up] < total[up]).sum(axis=0)
    picks[~((total > 0) & (total < np.inf))] = -1
    return picks


def _transition_counts(z: np.ndarray, L: int) -> np.ndarray:
    return np.bincount(z[:-1] * L + z[1:], minlength=L * L).reshape(L, L).astype(float)


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
    conc = np.tile(CONCENTRATION * model.beta, (L, 1))
    conc[np.diag_indices(L)] += model.kappa
    customers = counts.astype(int).ravel()
    cell = np.repeat(np.arange(L * L), customers)
    i = np.arange(len(cell)) - np.repeat(np.cumsum(customers) - customers, customers)
    c = conc.ravel()[cell]
    opened = rng.random(len(cell)) < c / (c + i)
    tables = np.bincount(cell, weights=opened, minlength=L * L).reshape(L, L)
    if model.kappa > 0:
        rho = model.kappa / (CONCENTRATION + model.kappa)
        # a count of 0 draws nothing from rng
        tables[np.diag_indices(L)] -= rng.binomial(
            np.diagonal(tables).astype(int), rho / (rho + model.beta * (1.0 - rho)))
    return tables


def _sample_emissions(X: np.ndarray, y: np.ndarray, bounds: np.ndarray,
                      prior: ArPrior, rng: np.random.Generator) -> list[ArState]:
    """Draw every state's (A, mu, sigma^2) from its conjugate posterior.

    ``X, y`` hold the steps grouped by state: state k's are rows
    ``bounds[k]:bounds[k + 1]``. A state with no data draws from the prior.
    Each occupied state forms its own ``X.T @ X``, ``X.T @ y`` and
    ``y @ y``; one stacked ``inv`` and ``cholesky`` then cover them all.
    The generator is called state by state: a gamma, then
    ``standard_normal(d)``.
    """
    L, d = len(bounds) - 1, X.shape[1]
    sizes = np.diff(bounds)
    occupied = np.flatnonzero(sizes)
    precision = np.empty((len(occupied), d, d))
    xty = np.empty((len(occupied), d, 1))
    yy = np.empty(len(occupied))
    for i, k in enumerate(occupied):
        Xk, yk = X[bounds[k]:bounds[k + 1]], y[bounds[k]:bounds[k + 1]]
        precision[i] = Xk.T @ Xk
        xty[i, :, 0] = Xk.T @ yk
        yy[i] = yk @ yk
    precision += np.eye(d) / prior.coef_scale ** 2
    cov = np.linalg.inv(precision)
    mean = cov @ xty                                          # (K, d, 1)
    quad = (mean.transpose(0, 2, 1) @ precision @ mean)[:, 0, 0]
    shape = np.full(L, prior.shape)
    scale = np.full(L, prior.scale)
    shape[occupied] += 0.5 * sizes[occupied]
    scale[occupied] = np.maximum(prior.scale + 0.5 * (yy - quad), 1e-12)
    gammas = np.empty(L)
    normals = np.empty((L, d))
    for k in range(L):
        gammas[k] = rng.gamma(shape[k], 1.0 / scale[k])
        rng.standard_normal(d, out=normals[k])
    variance = 1.0 / gammas
    w = np.sqrt(variance * prior.coef_scale ** 2)[:, None] * normals
    w[occupied] = mean[:, :, 0] + np.sqrt(variance[occupied])[:, None] * (
        np.linalg.cholesky(cov) @ normals[occupied, :, None])[:, :, 0]
    return [ArState(coefficients=w[k, :-1], mean=float(w[k, -1]),
                    variance=float(variance[k])) for k in range(L)]


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
    conc = CONCENTRATION * model.beta + counts
    conc[np.diag_indices(L)] += model.kappa
    transitions = _sample_dirichlet(conc, rng)

    tables = _sample_tables(counts, model, rng)
    beta = _sample_dirichlet(CONCENTRATION / L + tables.sum(axis=0), rng)

    # by_state[bounds[k]:bounds[k + 1]] are the steps in state k, in order
    by_state = np.argsort(z, kind="stable")
    bounds = np.searchsorted(z[by_state], np.arange(L + 1))
    states = _sample_emissions(X[by_state], y[by_state], bounds, model.prior, rng)

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
    emission = float(loglik[z, np.arange(len(z))].sum())
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.transitions)
    transition = float(log_pi[z[:-1], z[1:]].sum())
    return emission + transition


def initial_model(data: ScalarSeries, *, order: int, truncation: int,
                  kappa: float) -> SwitchingArModel:
    """Initialization: L identical AR(r) states (zero coefficients and mean,
    innovation variance the data's variance), uniform transitions and a
    uniform beta, so the first sweeps' chains occupy up to all L states."""
    L = truncation
    prior = ArPrior(coef_scale=1.0, shape=2.0,
                    scale=max(float(np.var(data.values)), 1e-12))
    states = [ArState(coefficients=np.zeros(order), mean=0.0,
                      variance=prior.scale) for _ in range(L)]
    transitions = np.full((L, L), 1.0 / L)
    beta = np.full(L, 1.0 / L)
    return SwitchingArModel(states=states, transitions=transitions, beta=beta,
                            kappa=kappa, prior=prior)


def fit(data: ScalarSeries, *, order: int, truncation: int, sweeps: int,
        burn_in: int, kappa: float = 0.0, seed: int = 0) -> SwArFit:
    """Run the blocked Gibbs sampler and return a point estimate.

    The first ``burn_in`` of the ``sweeps`` sweeps are discarded, and at
    least one must be kept: ``0 <= burn_in < sweeps``. The point estimate
    is the kept sweep's model and chain with the highest complete-data
    log-likelihood; row t of the posteriors is the share of kept sweeps in
    each state at time t. The chain covers t = r .. T-1, so the first r
    indicators and rows repeat those at t = r.
    """
    r = order
    if r < 0:
        raise ValidationError("order must be >= 0")
    if truncation < 2:
        raise ValidationError("truncation must be >= 2")
    if not 0 <= burn_in < sweeps:
        raise ValidationError(
            f"burn_in must lie in [0, sweeps), got burn_in={burn_in} "
            f"with sweeps={sweeps}")
    if len(data) < max(50 * max(r, 1), r + 2):
        raise ValidationError(f"need at least {50 * max(r, 1)} points for order {r}")
    if truncation > len(data) - r:
        # n modelled points occupy at most n states
        raise ValidationError(f"truncation must be at most the {len(data) - r} "
                              f"modelled points, got {truncation}")
    if sweeps > MAX_SWEEPS:
        raise ValidationError(f"sweeps must be at most {MAX_SWEEPS}, got {sweeps}")
    rng = np.random.default_rng(seed)
    model = initial_model(data, order=r, truncation=truncation, kappa=kappa)
    X, y = _design(data.values, r)
    n = len(y)

    loglik = _loglik_matrix(model, X, y)
    best = None
    freq = np.zeros((n, truncation))
    trace = np.empty(sweeps)
    occupied_trace = np.empty(sweeps, dtype=int)
    for sweep in range(sweeps):
        model, z = gibbs_sweep(model, X, y, loglik, rng)
        loglik = _loglik_matrix(model, X, y)     # scores z and drives the next sweep
        ll = _score(model, loglik, z)
        trace[sweep] = ll
        occupied_trace[sweep] = np.count_nonzero(np.bincount(z))
        if sweep >= burn_in:
            freq[np.arange(n), z] += 1.0
            if best is None or ll > best[0]:
                best = (ll, model, z)
    _, best_model, best_z = best
    expand = np.concatenate([np.zeros(r, dtype=int), np.arange(n)])
    return SwArFit(model=best_model, states=best_z[expand],
                   posteriors=freq[expand] / (sweeps - burn_in),
                   loglik_trace=trace, occupied_trace=occupied_trace)
