"""Seeded synthetic recordings with ground truth.

Stand-ins for unavailable clinical recordings: scheduled switching-AR
series, piecewise-linear gravity drift with dynamic bursts, and two-cluster
adherence/violation signals. Every generator is deterministic given its
seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSchedule
from .series import (
    ADHERENCE,
    VIOLATION,
    AdherenceLabels,
    ScalarSeries,
    StateSequence,
    TimestampedTriaxial,
    TriaxialSeries,
)
from .swar import ArState, SwitchingArModel, simulate

GRAVITY = 9.81

SCENARIOS = ("switching-ar", "gravity-drift", "two-cluster")


@dataclass
class RegimeInterval:
    state: int
    start: float  # seconds
    end: float


@dataclass
class SynthSpec:
    """Scenario description for the generators."""

    scenario: str
    duration: float          # seconds
    rate: float              # Hz
    schedule: list[RegimeInterval] = field(default_factory=list)
    noise: float = 0.05
    separation: float = 6.0  # cluster separation in noise units
    burst_amplitude: float = 1.0
    jitter: float = 0.0      # timestamp jitter as a fraction of the spacing
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise InvalidSchedule(f"unknown scenario {self.scenario!r}")
        if self.rate <= 0 or self.duration <= 0:
            raise InvalidSchedule("rate and duration must be positive")
        if not self.schedule:
            self.schedule = [RegimeInterval(0, 0.0, self.duration)]
        self._validate_schedule()

    def _validate_schedule(self):
        cursor = 0.0
        for iv in self.schedule:
            if iv.end <= iv.start:
                raise InvalidSchedule("interval end must exceed its start")
            if abs(iv.start - cursor) > 1e-9:
                raise InvalidSchedule("schedule must cover the duration without gaps")
            cursor = iv.end
        if abs(cursor - self.duration) > 1e-9:
            raise InvalidSchedule("schedule must end at the duration")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration * self.rate))

    def states_per_sample(self) -> np.ndarray:
        t = np.arange(self.n_samples) / self.rate
        z = np.empty(self.n_samples, dtype=int)
        for iv in self.schedule:
            z[(t >= iv.start - 1e-12) & (t < iv.end - 1e-12)] = iv.state
        return z


def default_ar_states(order: int = 1) -> list[ArState]:
    """Three well-separated AR regimes used by the scenario presets."""
    def pad(coeffs):
        out = np.zeros(order)
        out[: len(coeffs)] = coeffs[:order]
        return out

    return [
        ArState(coefficients=pad([0.95]), mean=0.0, variance=0.05),
        ArState(coefficients=pad([-0.9]), mean=0.0, variance=1.0),
        ArState(coefficients=pad([0.0]), mean=3.0, variance=0.2),
    ]


def gen_switching_ar(spec: SynthSpec, states: list[ArState] | None = None
                     ) -> tuple[ScalarSeries, StateSequence]:
    """Switching-AR path with scheduled (not random) regime switches."""
    z = spec.states_per_sample()
    if states is None:
        states = default_ar_states()
    n_states = max(int(z.max()) + 1, 2, len(states))
    order = states[0].order
    full_states = list(states) + [
        ArState(coefficients=np.zeros(order), mean=0.0, variance=1.0)
        for _ in range(n_states - len(states))
    ]
    model = SwitchingArModel(
        order=order, truncation=n_states, states=full_states,
        transitions=np.full((n_states, n_states), 1.0 / n_states),
        beta=np.full(n_states, 1.0 / n_states), seed=spec.seed)
    series, truth = simulate(model, spec.n_samples, seed=spec.seed, z_fixed=z)
    return ScalarSeries(rate=spec.rate, values=series.values), truth


def gen_gravity_drift(spec: SynthSpec
                      ) -> tuple[TimestampedTriaxial, np.ndarray, np.ndarray]:
    """Raw-style triaxial recording with known gravity trend.

    The gravity vector follows a piecewise-linear path of norm ~9.81 with
    kinks at the schedule boundaries; intervals with state != 0 carry a
    sinusoidal dynamic burst. Returns the recording plus the true trend and
    true dynamic component, both (T, 3).
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples
    base_t = np.arange(n) / spec.rate
    if spec.jitter > 0:
        offsets = rng.uniform(-0.4, 0.4, size=n) * spec.jitter / spec.rate
        t = base_t + offsets
        t[0] = max(t[0], 0.0)
    else:
        t = base_t

    # Orientation keypoints at schedule boundaries, each of norm 9.81.
    knots = [iv.start for iv in spec.schedule] + [spec.duration]
    directions = rng.standard_normal((len(knots), 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    trend = np.empty((n, 3))
    for axis in range(3):
        trend[:, axis] = np.interp(t, knots, GRAVITY * directions[:, axis])

    dynamic = np.zeros((n, 3))
    z = spec.states_per_sample()
    burst = z != 0
    phase = 2.0 * np.pi * 4.0 * t
    for axis in range(3):
        dynamic[burst, axis] = spec.burst_amplitude * np.sin(
            phase[burst] + axis * np.pi / 3.0)

    noise = rng.normal(0.0, spec.noise, size=(n, 3)) if spec.noise > 0 else 0.0
    samples = trend + dynamic + noise
    return TimestampedTriaxial(timestamps=t, samples=samples), trend, dynamic


def gen_two_cluster(spec: SynthSpec) -> tuple[ScalarSeries, AdherenceLabels]:
    """Blockwise two-class signal with Gaussian emissions.

    Schedule state 0 is the adherence class; its emission mean sits
    ``separation`` noise units above the violation mean, matching the
    larger-mean-is-adherence orientation of walking and voice tests.
    """
    rng = np.random.default_rng(spec.seed)
    z = spec.states_per_sample()
    if np.any(z > 1):
        raise InvalidSchedule("two-cluster schedules use states 0 and 1 only")
    sigma = spec.noise if spec.noise > 0 else 1.0
    mean_adherence = spec.separation * sigma
    means = np.where(z == 0, mean_adherence, 0.0)
    values = means + rng.normal(0.0, sigma, size=len(z))
    labels = np.where(z == 0, ADHERENCE, VIOLATION)
    return (ScalarSeries(rate=spec.rate, values=values),
            AdherenceLabels(rate=spec.rate, labels=labels))
