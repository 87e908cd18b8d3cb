import numpy as np
import pytest

from clinqc import preprocess
from clinqc.errors import (
    CutoffAboveNyquist,
    TooFewSamples,
    WindowLargerThanInput,
    ZeroFactor,
)
from clinqc.series import ScalarSeries, TimestampedTriaxial, TriaxialSeries


def triaxial(values, rate=120.0):
    return TriaxialSeries(rate=rate, samples=np.asarray(values, dtype=float))


class TestInterpolateUniform:
    def test_identity_on_uniform_input(self):
        t = np.arange(100) / 120.0
        samples = np.column_stack([np.sin(t), np.cos(t), t])
        raw = TimestampedTriaxial(timestamps=t, samples=samples)
        out = preprocess.interpolate_uniform(raw, 120.0)
        assert out.rate == 120.0
        assert np.max(np.abs(out.samples - samples)) < 1e-9

    def test_jittered_sine_recovered(self):
        rng = np.random.default_rng(7)
        t = np.sort(np.arange(0, 10, 1 / 50.0) + rng.uniform(-0.004, 0.004, 500))
        sine = np.sin(2 * np.pi * 1.0 * t)
        raw = TimestampedTriaxial(timestamps=t,
                                  samples=np.column_stack([sine, sine, sine]))
        out = preprocess.interpolate_uniform(raw, 120.0)
        grid = t[0] + np.arange(len(out)) / 120.0
        interior = (grid > t[0] + 0.2) & (grid < t[-1] - 0.2)
        err = np.abs(out.samples[interior, 0] - np.sin(2 * np.pi * grid[interior]))
        assert err.max() < 1e-3

    def test_exact_on_cubics(self):
        t = np.sort(np.random.default_rng(0).uniform(0, 5, 50))
        cubic = 0.3 * t**3 - t**2 + 2 * t - 1
        raw = TimestampedTriaxial(timestamps=t,
                                  samples=np.column_stack([cubic, -cubic, cubic + 1]))
        out = preprocess.interpolate_uniform(raw, 77.0)
        grid = t[0] + np.arange(len(out)) / 77.0
        expected = 0.3 * grid**3 - grid**2 + 2 * grid - 1
        assert np.max(np.abs(out.samples[:, 0] - expected)) < 1e-9

    def test_no_extrapolation(self):
        t = np.array([0.0, 0.11, 0.21, 0.33, 0.45])
        raw = TimestampedTriaxial(timestamps=t, samples=np.zeros((5, 3)))
        out = preprocess.interpolate_uniform(raw, 10.0)
        assert t[0] + (len(out) - 1) / 10.0 <= t[-1] + 1e-12

    def test_too_few_samples(self):
        raw = TimestampedTriaxial(timestamps=np.array([0.0, 0.1, 0.2]),
                                  samples=np.zeros((3, 3)))
        with pytest.raises(TooFewSamples):
            preprocess.interpolate_uniform(raw, 120.0)


class TestMagnitude:
    def test_pythagorean(self):
        out = preprocess.magnitude(triaxial([[3.0, 4.0, 0.0]]))
        assert out.values[0] == pytest.approx(5.0)

    def test_zero(self):
        out = preprocess.magnitude(triaxial([[0.0, 0.0, 0.0]]))
        assert out.values[0] == 0.0

    def test_stationary_gravity(self):
        out = preprocess.magnitude(triaxial([[0.0, 0.0, 9.81]] * 10))
        assert np.allclose(out.values, 9.81)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(50, 3))
        # random rotation via QR
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = samples @ q.T
        a = preprocess.magnitude(triaxial(samples)).values
        b = preprocess.magnitude(triaxial(rotated)).values
        assert np.max(np.abs(a - b)) < 1e-9


class TestLogMagnitude:
    def test_power_of_ten(self):
        out = preprocess.log_magnitude(triaxial([[10.0, 0.0, 0.0]]))
        assert out.values[0] == pytest.approx(1.0)

    def test_floor_engages(self):
        out = preprocess.log_magnitude(triaxial([[0.0, 0.0, 0.0]]), floor=1e-6)
        assert out.values[0] == pytest.approx(-6.0)

    def test_gravity_magnitude(self):
        out = preprocess.log_magnitude(triaxial([[0.0, 0.0, 9.81]]))
        assert out.values[0] == pytest.approx(np.log10(9.81), abs=1e-5)

    def test_bad_floor(self):
        from clinqc.errors import NonPositiveFloor
        with pytest.raises(NonPositiveFloor):
            preprocess.log_magnitude(triaxial([[1.0, 0.0, 0.0]]), floor=0.0)


class TestWindowedEnergy:
    def test_root_sum_square(self):
        series = ScalarSeries(rate=44_100.0, values=np.ones(441))
        out = preprocess.windowed_energy(series, 441)
        assert out.values[0] == pytest.approx(21.0)

    def test_squared_variant(self):
        series = ScalarSeries(rate=44_100.0, values=np.ones(441))
        out = preprocess.windowed_energy(series, 441, squared=True)
        assert out.values[0] == pytest.approx(441.0)

    def test_zeros(self):
        series = ScalarSeries(rate=100.0, values=np.zeros(30))
        out = preprocess.windowed_energy(series, 10)
        assert np.all(out.values == 0)

    def test_output_rate_10ms_windows(self):
        series = ScalarSeries(rate=44_100.0, values=np.ones(44_100))
        out = preprocess.windowed_energy(series, 441)
        assert out.rate == pytest.approx(100.0)
        assert len(out) == 100

    def test_trailing_partial_discarded(self):
        series = ScalarSeries(rate=10.0, values=np.ones(25))
        out = preprocess.windowed_energy(series, 10)
        assert len(out) == 2

    def test_scaling_property(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=100)
        series = ScalarSeries(rate=10.0, values=values)
        base = preprocess.windowed_energy(series, 10).values
        scaled = preprocess.windowed_energy(
            ScalarSeries(rate=10.0, values=3.5 * values), 10).values
        assert np.allclose(scaled, 3.5 * base)

    def test_window_too_large(self):
        series = ScalarSeries(rate=10.0, values=np.ones(5))
        with pytest.raises(WindowLargerThanInput):
            preprocess.windowed_energy(series, 10)


class TestLowpassFilter:
    def test_passband_preserved(self):
        t = np.arange(0, 20, 1 / 120.0)
        series = ScalarSeries(rate=120.0, values=np.sin(2 * np.pi * 1.0 * t))
        out = preprocess.lowpass_filter(series, 15.0)
        interior = slice(120, -120)
        ratio = np.max(np.abs(out.values[interior])) / 1.0
        assert abs(ratio - 1.0) < 0.01

    def test_stopband_attenuated(self):
        t = np.arange(0, 20, 1 / 120.0)
        series = ScalarSeries(rate=120.0, values=np.sin(2 * np.pi * 40.0 * t))
        out = preprocess.lowpass_filter(series, 15.0)
        rms_in = np.sqrt(np.mean(series.values**2))
        rms_out = np.sqrt(np.mean(out.values**2))
        assert rms_out < 0.05 * rms_in

    def test_cutoff_above_nyquist(self):
        series = ScalarSeries(rate=120.0, values=np.zeros(100))
        with pytest.raises(CutoffAboveNyquist):
            preprocess.lowpass_filter(series, 70.0)


class TestDownsample:
    def test_identity(self):
        series = ScalarSeries(rate=120.0, values=np.arange(8.0))
        out = preprocess.downsample(series, 1)
        assert np.array_equal(out.values, series.values)
        assert out.rate == 120.0

    def test_factor_four_rate_and_length(self):
        series = ScalarSeries(rate=120.0, values=np.zeros(1001))
        out = preprocess.downsample(series, 4)
        assert out.rate == pytest.approx(30.0)
        assert len(out) == int(np.ceil(1001 / 4))

    def test_index_arithmetic(self):
        series = ScalarSeries(rate=8.0, values=np.arange(8.0))
        out = preprocess.downsample(series, 4)
        assert np.array_equal(out.values, [0.0, 4.0])

    def test_zero_factor(self):
        series = ScalarSeries(rate=8.0, values=np.arange(8.0))
        with pytest.raises(ZeroFactor):
            preprocess.downsample(series, 0)

    def test_peak_preserved_after_antialias(self):
        # bandlimited signal below 0.8 * new nyquist keeps its spectral peak
        rate, factor = 120.0, 4
        t = np.arange(0, 60, 1 / rate)
        series = ScalarSeries(rate=rate, values=np.sin(2 * np.pi * 5.0 * t))
        filtered = preprocess.lowpass_filter(series, rate / (2 * factor))
        down = preprocess.downsample(filtered, factor)
        spec_full = preprocess.power_spectrum(series)
        spec_down = preprocess.power_spectrum(down)
        bin_width = spec_down.frequencies[1] - spec_down.frequencies[0]
        assert abs(spec_full.peak_frequency() - spec_down.peak_frequency()) <= bin_width


class TestPowerSpectrum:
    def test_white_noise_flat(self):
        rng = np.random.default_rng(11)
        series = ScalarSeries(rate=120.0, values=rng.normal(size=2**16))
        spec = preprocess.power_spectrum(series)
        total = np.trapezoid(spec.power, spec.frequencies)
        assert abs(total - 1.0) < 0.15

    def test_sine_peak_dominates(self):
        t = np.arange(0, 60, 1 / 120.0)
        series = ScalarSeries(rate=120.0, values=np.sin(2 * np.pi * 5.0 * t))
        spec = preprocess.power_spectrum(series)
        peak_region = np.abs(spec.frequencies - 5.0) <= (spec.frequencies[1] * 2)
        assert spec.power[peak_region].sum() >= 0.9 * spec.power.sum()

    def test_constant_signal(self):
        series = ScalarSeries(rate=10.0, values=np.full(256, 3.0))
        spec = preprocess.power_spectrum(series)
        assert np.all(spec.power < 1e-20)  # mean removed by detrending

    def test_parseval(self):
        rng = np.random.default_rng(5)
        series = ScalarSeries(rate=30.0, values=rng.normal(scale=2.0, size=2**14))
        spec = preprocess.power_spectrum(series)
        total = np.trapezoid(spec.power, spec.frequencies)
        assert abs(total - np.var(series.values)) < 0.1 * np.var(series.values)

    def test_segment_too_long(self):
        from clinqc.errors import SegmentTooLong
        series = ScalarSeries(rate=10.0, values=np.zeros(50))
        with pytest.raises(SegmentTooLong):
            preprocess.power_spectrum(series, segment_length=100)
