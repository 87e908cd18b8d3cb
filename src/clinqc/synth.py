"""Seeded synthetic recordings with ground truth.

Stand-ins for unavailable clinical recordings: scheduled switching-AR
series, piecewise-linear gravity drift with dynamic bursts, and two-cluster
adherence/violation signals. Every generator is deterministic given its
seed; ``SCENARIOS`` holds the states each scenario visits by default.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .series import (
    ADHERENCE,
    VIOLATION,
    ScalarSeries,
    StateSequence,
    TimestampedTriaxial,
)
from .swar import ArState, ar_path

GRAVITY = 9.81
#: Two-cluster separation of the class means, in noise units.
SEPARATION = 6.0
#: Amplitude of the gravity-drift scenario's dynamic bursts, in m/s^2.
BURST_AMPLITUDE = 1.0
#: Most samples a recording may hold: about 38 min of 44.1 kHz audio.
MAX_SAMPLES = 10**8

#: Scenario -> the states its default schedule visits, one interval each.
SCENARIOS = {"switching-ar": (0, 1, 2), "gravity-drift": (0, 1, 0),
             "two-cluster": (0, 1)}


@dataclass
class RegimeInterval:
    state: int
    start: float  # seconds
    end: float


@dataclass
class SynthSpec:
    """Scenario description for the generators.

    With no ``schedule``, the scenario's ``SCENARIOS`` states follow each
    other in equal intervals; edge k is ``k * (duration / n)``.
    """

    scenario: str
    duration: float          # seconds
    rate: float              # Hz
    schedule: list[RegimeInterval] = field(default_factory=list)
    noise: float = 0.05      # noise standard deviation, finite and > 0
    jitter: float = 0.0      # timestamp jitter as a fraction of the spacing
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValidationError(f"unknown scenario {self.scenario!r}")
        if not (np.isfinite(self.rate) and np.isfinite(self.duration)
                and self.rate > 0 and self.duration > 0):
            raise ValidationError("rate and duration must be finite and positive")
        if not 0 < self.noise < np.inf:
            raise ValidationError(f"noise must be finite and positive, got {self.noise!r}")
        # duration * rate may overflow to inf, which n_samples cannot round
        if self.duration * self.rate >= MAX_SAMPLES + 1 or self.n_samples > MAX_SAMPLES:
            raise ValidationError(
                f"{self.duration:g} s at {self.rate:g} Hz is more than "
                f"{MAX_SAMPLES} samples")
        if self.n_samples < 1:
            raise ValidationError(
                f"{self.duration:g} s at {self.rate:g} Hz rounds to 0 samples")
        if not self.schedule:
            states = SCENARIOS[self.scenario]
            edges = np.linspace(0.0, self.duration, len(states) + 1).tolist()
            self.schedule = [RegimeInterval(state, start, end)
                             for state, start, end in zip(states, edges, edges[1:])]
        cursor = 0.0
        for iv in self.schedule:
            if iv.end <= iv.start:
                raise ValidationError("interval end must exceed its start")
            if abs(iv.start - cursor) > 1e-9:
                raise ValidationError("schedule must cover the duration without gaps")
            cursor = iv.end
        if abs(cursor - self.duration) > 1e-9:
            raise ValidationError("schedule must end at the duration")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration * self.rate))

    def states_per_sample(self) -> np.ndarray:
        t = np.arange(self.n_samples) / self.rate
        z = np.empty(self.n_samples, dtype=int)
        for iv in self.schedule:
            z[(t >= iv.start - 1e-12) & (t < iv.end - 1e-12)] = iv.state
        return z


def default_ar_states() -> list[ArState]:
    """Three well-separated AR(1) regimes used by the scenario presets."""
    return [
        ArState(coefficients=[0.95], mean=0.0, variance=0.05),
        ArState(coefficients=[-0.9], mean=0.0, variance=1.0),
        ArState(coefficients=[0.0], mean=3.0, variance=0.2),
    ]


def gen_switching_ar(spec: SynthSpec, states: list[ArState] | None = None
                     ) -> tuple[ScalarSeries, StateSequence]:
    """Switching-AR path with scheduled (not random) regime switches;
    schedule state k follows ``states[k]``."""
    z = spec.states_per_sample()
    if states is None:
        states = default_ar_states()
    if spec.n_samples <= states[0].order:
        raise ValidationError("length must exceed the AR order")
    if z.min() < 0 or z.max() >= len(states):
        raise ValidationError(
            f"schedule names a state outside 0..{len(states) - 1}, with no ArState")
    values = ar_path(states, z, np.random.default_rng(spec.seed))
    return ScalarSeries(rate=spec.rate, values=values), StateSequence(indicators=z)


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
        dynamic[burst, axis] = BURST_AMPLITUDE * np.sin(
            phase[burst] + axis * np.pi / 3.0)

    samples = trend + dynamic + rng.normal(0.0, spec.noise, size=(n, 3))
    return TimestampedTriaxial(timestamps=t, samples=samples), trend, dynamic


def gen_two_cluster(spec: SynthSpec) -> tuple[ScalarSeries, np.ndarray]:
    """Blockwise two-class signal with Gaussian emissions.

    Schedule state 0 is the adherence class; its emission mean sits
    ``SEPARATION`` noise units above the violation mean, matching the
    larger-mean-is-adherence orientation of walking and voice tests.
    """
    rng = np.random.default_rng(spec.seed)
    z = spec.states_per_sample()
    if np.any(z > 1):
        raise ValidationError("two-cluster schedules use states 0 and 1 only")
    means = np.where(z == 0, SEPARATION * spec.noise, 0.0)
    values = means + rng.normal(0.0, spec.noise, size=len(z))
    return (ScalarSeries(rate=spec.rate, values=values),
            np.where(z == 0, ADHERENCE, VIOLATION))
