import numpy as np
import pytest

from clinqc import preprocess, swar, synth
from clinqc.errors import ValidationError
from clinqc.series import ADHERENCE, VIOLATION
from clinqc.synth import GRAVITY, RegimeInterval, SynthSpec


def three_regime_spec(duration=60.0, rate=30.0, seed=0, scenario="switching-ar"):
    return SynthSpec(scenario=scenario, duration=duration, rate=rate, seed=seed,
                     schedule=[RegimeInterval(0, 0.0, duration / 3),
                               RegimeInterval(1, duration / 3, 2 * duration / 3),
                               RegimeInterval(2, 2 * duration / 3, duration)])


class TestSynthSpec:
    def test_default_schedule_covers_duration(self):
        # each scenario's states in equal intervals, edge k at k * (duration / n)
        # bit for bit: the schedule the synth subcommand has always written
        visits = {"switching-ar": [0, 1, 2], "gravity-drift": [0, 1, 0],
                  "two-cluster": [0, 1]}
        durations = [10.0, 60.0, 7.3, 1e-3, 3e5]
        durations += np.random.default_rng(0).uniform(0.1, 1e4, size=200).tolist()
        for scenario, states in visits.items():
            for duration in durations:
                # at least one sample, which 1e-3 s at 30 Hz does not hold
                spec = SynthSpec(scenario=scenario, duration=duration,
                                 rate=max(30.0, 1.0 / duration))
                step = duration / len(states)
                edges = [k * step for k in range(len(states))] + [duration]
                assert [(iv.state, iv.start, iv.end) for iv in spec.schedule] == list(
                    zip(states, edges, edges[1:]))
        spec = SynthSpec(scenario="switching-ar", duration=10.0, rate=30.0)
        assert spec.n_samples == 300
        assert spec.states_per_sample().tolist() == [0] * 100 + [1] * 100 + [2] * 100

    def test_states_per_sample_switch_indices(self):
        spec = three_regime_spec(duration=3.0, rate=10.0)
        z = spec.states_per_sample()
        assert z.tolist() == [0] * 10 + [1] * 10 + [2] * 10

    def test_unknown_scenario(self):
        with pytest.raises(ValidationError, match="unknown scenario 'running-like'"):
            SynthSpec(scenario="running-like", duration=1.0, rate=10.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["duration", "rate"])
    def test_non_finite_size(self, name, value):
        with pytest.raises(ValidationError,
                           match="rate and duration must be finite and positive"):
            SynthSpec(scenario="switching-ar", **{"duration": 1.0, "rate": 10.0,
                                                  name: value})

    @pytest.mark.parametrize("noise", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("scenario", ["two-cluster", "gravity-drift"])
    def test_noise_must_be_finite_and_positive(self, scenario, noise):
        # a generator would otherwise swap in unit noise or none at all
        with pytest.raises(ValidationError,
                           match=f"^noise must be finite and positive, got {noise}$"):
            SynthSpec(scenario=scenario, duration=1.0, rate=10.0, noise=noise)

    def test_gap_in_schedule(self):
        with pytest.raises(ValidationError, match="cover the duration without gaps"):
            SynthSpec(scenario="switching-ar", duration=2.0, rate=10.0,
                      schedule=[RegimeInterval(0, 0.0, 0.5),
                                RegimeInterval(1, 1.0, 2.0)])

    def test_short_schedule(self):
        with pytest.raises(ValidationError, match="schedule must end at the duration"):
            SynthSpec(scenario="switching-ar", duration=2.0, rate=10.0,
                      schedule=[RegimeInterval(0, 0.0, 1.0)])

    def test_empty_interval(self):
        with pytest.raises(ValidationError, match="interval end must exceed its start"):
            SynthSpec(scenario="switching-ar", duration=1.0, rate=10.0,
                      schedule=[RegimeInterval(0, 0.0, 0.0),
                                RegimeInterval(1, 0.0, 1.0)])

    @pytest.mark.parametrize("duration, rate", [(1e9, 30.0), (1e9, 44_100.0),
                                                (1e200, 1e200), (1e7, 10.00000006)],
                             ids=["1e9-s", "1e9-s-audio", "overflow", "one-over"])
    def test_too_many_samples(self, duration, rate):
        # rejected while the spec is built, before any array is allocated
        with pytest.raises(ValidationError, match="more than 100000000 samples"):
            SynthSpec(scenario="two-cluster", duration=duration, rate=rate)

    @pytest.mark.parametrize("duration, rate", [(0.1, 1.0), (0.5, 1.0), (1e-9, 120.0)])
    def test_no_samples(self, duration, rate):
        # every reader rejects a table without data rows
        with pytest.raises(ValidationError, match="rounds to 0 samples"):
            SynthSpec(scenario="two-cluster", duration=duration, rate=rate)

    def test_sample_cap_itself_accepted(self):
        spec = SynthSpec(scenario="two-cluster", duration=synth.MAX_SAMPLES / 100,
                         rate=100.0)
        assert spec.n_samples == synth.MAX_SAMPLES


def periodic_state(rate=30.0):
    """An AR(4) regime with a sharp 2 Hz peak at ``rate`` Hz sampling."""
    radius, theta = 0.97, 2 * np.pi * (2.0 / rate)
    coeffs = np.zeros(4)
    coeffs[0], coeffs[1] = 2 * radius * np.cos(theta), -radius**2
    return swar.ArState(coefficients=coeffs, mean=0.0, variance=0.1)


def placeholder_model_path(spec, states=None):
    """Reference for ``gen_switching_ar``: the states padded with unit white
    noise into a uniform-transition ``SwitchingArModel``, whose per-state AR
    loop then runs on the fixed schedule from ``default_rng(spec.seed)``."""
    z = spec.states_per_sample()
    states = states or synth.default_ar_states()
    n_states = max(int(z.max()) + 1, 2, len(states))
    order = states[0].order
    padding = [swar.ArState(coefficients=np.zeros(order), mean=0.0, variance=1.0)
               for _ in range(n_states - len(states))]
    model = swar.SwitchingArModel(
        states=list(states) + padding,
        transitions=np.full((n_states, n_states), 1.0 / n_states),
        beta=np.full(n_states, 1.0 / n_states))
    rng = np.random.default_rng(spec.seed)
    x = np.zeros(len(z))
    noise = rng.standard_normal(len(z))
    for t in range(len(z)):
        st = model.states[z[t]]
        pred = st.mean
        for j in range(1, st.order + 1):
            if t - j >= 0:
                pred += st.coefficients[j - 1] * x[t - j]
        x[t] = pred + np.sqrt(st.variance) * noise[t]
    return x, z


class TestGenSwitchingAr:
    @pytest.mark.parametrize("seed", [0, 3, 700])
    def test_equals_placeholder_model_path(self, seed):
        spec = three_regime_spec(seed=seed)
        series, truth = synth.gen_switching_ar(spec)
        x, z = placeholder_model_path(spec)
        assert np.array_equal(series.values, x)
        assert np.array_equal(truth.indicators, z)
        assert series.rate == spec.rate

    def test_custom_state_equals_placeholder_model_path(self):
        spec = SynthSpec(scenario="switching-ar", duration=20.0, rate=30.0,
                         schedule=[RegimeInterval(0, 0.0, 20.0)], seed=2)
        series, _ = synth.gen_switching_ar(spec, states=[periodic_state()])
        assert np.array_equal(series.values,
                              placeholder_model_path(spec, [periodic_state()])[0])

    def test_schedule_state_without_ar_state(self):
        with pytest.raises(ValidationError, match="with no ArState"):
            synth.gen_switching_ar(three_regime_spec(), states=[periodic_state()])

    def test_determinism(self):
        spec = three_regime_spec(seed=3)
        a, za = synth.gen_switching_ar(spec)
        b, zb = synth.gen_switching_ar(spec)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(za.indicators, zb.indicators)

    def test_truth_matches_schedule(self):
        spec = three_regime_spec(duration=6.0, rate=10.0)
        _, truth = synth.gen_switching_ar(spec)
        assert np.array_equal(truth.indicators, spec.states_per_sample())

    def test_regime_statistics(self):
        spec = three_regime_spec(duration=600.0, rate=10.0, seed=1)
        series, truth = synth.gen_switching_ar(spec)
        z = truth.indicators
        states = synth.default_ar_states()
        # stationary AR(1) variance sigma^2 / (1 - a^2) per regime
        for k, state in enumerate(states):
            seg = series.values[z == k]
            a = state.coefficients[0]
            expected_var = state.variance / (1 - a**2)
            expected_mean = state.mean / (1 - a)
            assert abs(seg.var() - expected_var) < 0.25 * expected_var
            assert abs(seg.mean() - expected_mean) < 0.3 * max(1.0, abs(expected_mean))

    def test_custom_periodic_regime_spectral_consistency(self):
        rate = 30.0
        periodic = periodic_state(rate)
        spec = SynthSpec(scenario="switching-ar", duration=300.0, rate=rate,
                         schedule=[RegimeInterval(0, 0.0, 300.0)], seed=2)
        series, _ = synth.gen_switching_ar(spec, states=[periodic])
        freqs, welch = preprocess.power_spectrum(series, segment_length=512)
        closed = swar.ar_psd(periodic, freqs * (1.0 / rate))
        bin_width = freqs[1] - freqs[0]
        welch_peak = freqs[np.argmax(welch)]
        closed_peak = freqs[np.argmax(closed)]
        assert abs(welch_peak - closed_peak) <= bin_width
        # the PSD maximum sits slightly below the pole angle at radius < 1
        assert abs(welch_peak - 2.0) <= 2 * bin_width


class TestGenGravityDrift:
    def test_determinism_and_shapes(self):
        spec = three_regime_spec(duration=6.0, rate=120.0, scenario="gravity-drift")
        a, trend_a, dyn_a = synth.gen_gravity_drift(spec)
        b, trend_b, dyn_b = synth.gen_gravity_drift(spec)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(trend_a, trend_b)
        assert trend_a.shape == dyn_a.shape == (spec.n_samples, 3)

    def test_trend_has_gravity_norm_at_knots(self):
        spec = three_regime_spec(duration=6.0, rate=120.0, scenario="gravity-drift")
        _, trend, _ = synth.gen_gravity_drift(spec)
        for knot_time in (0.0, 2.0, 4.0):
            idx = int(round(knot_time * spec.rate))
            assert np.linalg.norm(trend[idx]) == pytest.approx(GRAVITY, rel=1e-6)

    def test_bursts_only_on_active_states(self):
        spec = three_regime_spec(duration=6.0, rate=120.0, scenario="gravity-drift")
        _, _, dynamic = synth.gen_gravity_drift(spec)
        z = spec.states_per_sample()
        assert np.all(dynamic[z == 0] == 0.0)
        assert np.abs(dynamic[z != 0]).max() == pytest.approx(
            synth.BURST_AMPLITUDE, abs=0.01)

    def test_jitter_perturbs_timestamps_monotonically(self):
        spec = SynthSpec(scenario="gravity-drift", duration=5.0, rate=120.0,
                         jitter=0.2, seed=4)
        rec, _, _ = synth.gen_gravity_drift(spec)
        uniform = np.arange(spec.n_samples) / spec.rate
        assert not np.allclose(rec.timestamps, uniform)
        assert np.all(np.diff(rec.timestamps) > 0)


class TestGenTwoCluster:
    def test_labels_follow_schedule(self):
        spec = SynthSpec(scenario="two-cluster", duration=4.0, rate=10.0,
                         schedule=[RegimeInterval(0, 0.0, 2.0),
                                   RegimeInterval(1, 2.0, 4.0)], seed=1)
        _, labels = synth.gen_two_cluster(spec)
        assert np.all(labels[:20] == ADHERENCE)
        assert np.all(labels[20:] == VIOLATION)

    def test_separation_in_noise_units(self):
        spec = SynthSpec(scenario="two-cluster", duration=200.0, rate=10.0,
                         noise=0.5,
                         schedule=[RegimeInterval(0, 0.0, 100.0),
                                   RegimeInterval(1, 100.0, 200.0)], seed=2)
        series, labels = synth.gen_two_cluster(spec)
        adh = series.values[labels == ADHERENCE]
        vio = series.values[labels == VIOLATION]
        assert abs(adh.mean() - vio.mean() - 3.0) < 0.1
        assert abs(adh.std() - 0.5) < 0.05

    def test_rejects_extra_states(self):
        with pytest.raises(ValidationError, match="use states 0 and 1 only"):
            spec = SynthSpec(scenario="two-cluster", duration=3.0, rate=10.0,
                             schedule=[RegimeInterval(0, 0.0, 1.0),
                                       RegimeInterval(2, 1.0, 3.0)])
            synth.gen_two_cluster(spec)

    def test_determinism(self):
        spec = SynthSpec(scenario="two-cluster", duration=3.0, rate=10.0, seed=9)
        a, _ = synth.gen_two_cluster(spec)
        b, _ = synth.gen_two_cluster(spec)
        assert np.array_equal(a.values, b.values)
