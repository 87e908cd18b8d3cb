import tracemalloc

import numpy as np
import pytest

from clinqc import preprocess
from clinqc.errors import ValidationError
from clinqc.series import ScalarSeries, TimestampedTriaxial


class TestInterpolateUniform:
    def test_identity_on_uniform_input(self):
        t = np.arange(100) / 120.0
        samples = np.column_stack([np.sin(t), np.cos(t), t])
        raw = TimestampedTriaxial(timestamps=t, samples=samples)
        out = preprocess.interpolate_uniform(raw, 120.0)
        assert np.max(np.abs(out - samples)) < 1e-9

    def test_jittered_sine_recovered(self):
        rng = np.random.default_rng(7)
        t = np.sort(np.arange(0, 10, 1 / 50.0) + rng.uniform(-0.004, 0.004, 500))
        sine = np.sin(2 * np.pi * 1.0 * t)
        raw = TimestampedTriaxial(timestamps=t,
                                  samples=np.column_stack([sine, sine, sine]))
        out = preprocess.interpolate_uniform(raw, 120.0)
        grid = t[0] + np.arange(len(out)) / 120.0
        interior = (grid > t[0] + 0.2) & (grid < t[-1] - 0.2)
        err = np.abs(out[interior, 0] - np.sin(2 * np.pi * grid[interior]))
        assert err.max() < 1e-3

    def test_exact_on_cubics(self):
        t = np.sort(np.random.default_rng(0).uniform(0, 5, 50))
        cubic = 0.3 * t**3 - t**2 + 2 * t - 1
        raw = TimestampedTriaxial(timestamps=t,
                                  samples=np.column_stack([cubic, -cubic, cubic + 1]))
        out = preprocess.interpolate_uniform(raw, 77.0)
        grid = t[0] + np.arange(len(out)) / 77.0
        expected = 0.3 * grid**3 - grid**2 + 2 * grid - 1
        assert np.max(np.abs(out[:, 0] - expected)) < 1e-9

    def test_no_extrapolation(self):
        t = np.array([0.0, 0.11, 0.21, 0.33, 0.45])
        raw = TimestampedTriaxial(timestamps=t, samples=np.zeros((5, 3)))
        out = preprocess.interpolate_uniform(raw, 10.0)
        assert t[0] + (len(out) - 1) / 10.0 <= t[-1] + 1e-12

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.inf, np.nan])
    def test_rate_must_be_finite_and_positive(self, rate):
        t = np.arange(10) / 10.0
        raw = TimestampedTriaxial(timestamps=t, samples=np.zeros((10, 3)))
        with pytest.raises(ValidationError, match="rate must be finite and positive"):
            preprocess.interpolate_uniform(raw, rate)

    def test_too_few_samples(self):
        raw = TimestampedTriaxial(timestamps=np.array([0.0, 0.1, 0.2]),
                                  samples=np.zeros((3, 3)))
        with pytest.raises(ValidationError, match="spline interpolation needs at least 4"):
            preprocess.interpolate_uniform(raw, 120.0)

    def test_peaks_at_most_15_float64_per_sample(self, walking_raw, traced_peak):
        # one axis's spline at a time: the output's 3 float64 a sample, the
        # shared grid offsets and intervals, and one axis's coefficients
        head = TimestampedTriaxial(timestamps=walking_raw.timestamps[:100],
                                   samples=walking_raw.samples[:100])
        preprocess.interpolate_uniform(head, 120.0)  # loads scipy.linalg first
        out, peak = traced_peak(preprocess.interpolate_uniform, walking_raw, 120.0)
        assert len(out) == 71_999
        assert peak <= 15 * 8 * len(out)


def cubic_spline_oracle(raw, rate):
    """scipy's not-a-knot CubicSpline per axis on the grid interpolate_uniform uses."""
    from scipy.interpolate import CubicSpline

    t = raw.timestamps
    grid = t[0] + np.arange(int(np.floor((t[-1] - t[0]) * rate)) + 1) / rate
    return np.column_stack([CubicSpline(t, raw.samples[:, axis])(grid)
                            for axis in range(3)])


class TestInterpolateUniformMatchesCubicSpline:
    def test_jittered_120hz(self):
        rng = np.random.default_rng(4)
        t = np.arange(6000) / 120.0 + rng.uniform(-0.003, 0.003, 6000)
        samples = np.cumsum(rng.normal(size=(6000, 3)), axis=0)
        raw = TimestampedTriaxial(timestamps=t, samples=samples)
        out = preprocess.interpolate_uniform(raw, 120.0)
        assert np.array_equal(out, cubic_spline_oracle(raw, 120.0))

    def test_random_irregular_grids(self):
        rng = np.random.default_rng(5)
        for _ in range(250):
            n = int(rng.integers(4, 80))
            t = rng.uniform(-50, 50) + np.cumsum(rng.uniform(1e-3, 1.0, n)) * rng.uniform(0.01, 10)
            samples = rng.normal(scale=rng.uniform(0.1, 100), size=(n, 3))
            rate = float(rng.uniform(0.2, 20) * n / (t[-1] - t[0]))
            raw = TimestampedTriaxial(timestamps=t, samples=samples)
            out = preprocess.interpolate_uniform(raw, rate)
            assert np.array_equal(out, cubic_spline_oracle(raw, rate))

    def test_four_samples(self):
        t = np.array([0.0, 0.13, 0.2, 0.41])
        raw = TimestampedTriaxial(timestamps=t,
                                  samples=np.array([[1.0, -2.0, 0.5], [0.3, 4.0, 2.0],
                                                    [-1.0, 0.0, 1.0], [2.0, 1.0, -3.0]]))
        out = preprocess.interpolate_uniform(raw, 50.0)
        assert np.array_equal(out, cubic_spline_oracle(raw, 50.0))

    def test_grid_ends_on_last_timestamp(self):
        t = np.array([0.0, 0.07, 0.25, 0.3, 0.42, 0.5])
        samples = np.random.default_rng(6).normal(size=(6, 3))
        raw = TimestampedTriaxial(timestamps=t, samples=samples)
        out = preprocess.interpolate_uniform(raw, 10.0)
        assert t[0] + (len(out) - 1) / 10.0 == t[-1]
        assert np.array_equal(out, cubic_spline_oracle(raw, 10.0))
        assert np.allclose(out[-1], samples[-1], rtol=0, atol=1e-12)


class TestMagnitude:
    def test_pythagorean(self):
        out = preprocess.magnitude(np.array([[3.0, 4.0, 0.0]]))
        assert out[0] == pytest.approx(5.0)

    def test_zero(self):
        out = preprocess.magnitude(np.array([[0.0, 0.0, 0.0]]))
        assert out[0] == 0.0

    def test_stationary_gravity(self):
        out = preprocess.magnitude(np.array([[0.0, 0.0, 9.81]] * 10))
        assert np.allclose(out, 9.81)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(50, 3))
        # random rotation via QR
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = samples @ q.T
        a = preprocess.magnitude(samples)
        b = preprocess.magnitude(rotated)
        assert np.max(np.abs(a - b)) < 1e-9

    @pytest.mark.parametrize("reduce", [preprocess.magnitude, preprocess.log_magnitude])
    def test_rejects_1d(self, reduce):
        with pytest.raises(ValidationError, match="samples must be 2-dimensional"):
            reduce(np.array([3.0, 4.0, 0.0]))

    @pytest.mark.parametrize("reduce", [preprocess.magnitude, preprocess.log_magnitude])
    def test_rejects_non_finite(self, reduce):
        with pytest.raises(ValidationError, match="samples contains non-finite"):
            reduce(np.array([[3.0, np.inf, 0.0]]))


class TestLogMagnitude:
    def test_power_of_ten(self):
        out = preprocess.log_magnitude(np.array([[10.0, 0.0, 0.0]]))
        assert out[0] == pytest.approx(1.0)

    def test_floor_engages(self):
        out = preprocess.log_magnitude(np.array([[0.0, 0.0, 0.0]]))
        assert out[0] == pytest.approx(-6.0)

    def test_gravity_magnitude(self):
        out = preprocess.log_magnitude(np.array([[0.0, 0.0, 9.81]]))
        assert out[0] == pytest.approx(np.log10(9.81), abs=1e-5)


class TestWindowedEnergy:
    def test_root_sum_square(self):
        series = ScalarSeries(rate=44_100.0, values=np.ones(441))
        out = preprocess.windowed_energy(series, 441)
        assert out.values[0] == pytest.approx(21.0)

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

    @pytest.mark.parametrize("windows", [255, 256, 257])
    @pytest.mark.parametrize("window", [1, 441])
    def test_bit_identical_to_one_shot_sum(self, windows, window):
        # with a trailing partial window, when there can be one
        values = np.random.default_rng(windows).normal(size=(windows + 1) * window - 1)
        chunks = values[:windows * window].reshape(windows, window)
        out = preprocess.windowed_energy(ScalarSeries(rate=10.0, values=values), window)
        assert out.values.tobytes() == np.sqrt(np.sum(chunks ** 2, axis=1)).tobytes()

    def test_bit_identical_on_strided_input(self):
        # the audio reader's values: the float64 field of (float32, float64) rows
        rows = np.zeros(300 * 441, dtype=[("t", np.float32), ("v", np.float64)])
        rows["v"] = np.random.default_rng(0).normal(size=len(rows))
        values = rows["v"]
        assert not values.flags.c_contiguous
        out = preprocess.windowed_energy(ScalarSeries(rate=44_100.0, values=values), 441)
        expected = np.sqrt(np.sum(values.reshape(300, 441) ** 2, axis=1))
        assert out.values.tobytes() == expected.tobytes()

    def test_allocates_under_2_mb_besides_its_output(self):
        # 30 s at 44.1 kHz: the squares of all windows at once would take 10.6 MB
        series = ScalarSeries(rate=44_100.0, values=np.ones(1_323_000))
        tracemalloc.start()
        try:
            out = preprocess.windowed_energy(series, 441)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.values.nbytes < 2e6

    def test_window_too_large(self):
        series = ScalarSeries(rate=10.0, values=np.ones(5))
        with pytest.raises(ValidationError, match="window 10 larger than input length 5"):
            preprocess.windowed_energy(series, 10)

    def test_empty_input(self):
        series = ScalarSeries(rate=10.0, values=np.empty(0))
        with pytest.raises(ValidationError, match="input series is empty"):
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
        with pytest.raises(ValidationError, match=r"cutoff 70.0 Hz must lie in \(0, 60.0\)"):
            preprocess.lowpass_filter(series, 70.0)

    def test_too_short_for_padding(self):
        series = ScalarSeries(rate=120.0, values=np.ones(15))
        with pytest.raises(ValidationError, match="needs more than 15 samples, got 15"):
            preprocess.lowpass_filter(series, 15.0)

    @pytest.mark.parametrize("wn", [0.05, 0.1, 0.25, 0.3, 0.6, 0.9])
    def test_sections_match_scipy_butter(self, wn):
        from scipy.signal import butter, sosfilt_zi

        sos = preprocess._butter_sos(wn)
        assert np.array_equal(sos, butter(4, wn, output="sos"))
        assert np.array_equal(preprocess._sos_zi(sos), sosfilt_zi(sos))

    @pytest.mark.parametrize("n", [16, 17, 100, 4321, 100_000])
    def test_matches_scipy_sosfiltfilt(self, n):
        from scipy.signal import butter, sosfiltfilt

        rng = np.random.default_rng(n)
        x = 3.0 + np.cumsum(rng.normal(size=n)) + rng.normal(scale=5.0, size=n)
        for wn in (0.05, 0.1, 0.25, 0.5, 0.75, 0.9):
            out = preprocess.lowpass_filter(ScalarSeries(rate=2.0, values=x), wn)
            expected = sosfiltfilt(butter(4, wn, output="sos"), x)
            assert np.max(np.abs(out.values - expected)) <= 1e-12 * np.max(np.abs(x))


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
        with pytest.raises(ValidationError, match="factor must be a positive integer"):
            preprocess.downsample(series, 0)

    def test_peak_preserved_after_antialias(self):
        # bandlimited signal below 0.8 * new nyquist keeps its spectral peak
        rate, factor = 120.0, 4
        t = np.arange(0, 60, 1 / rate)
        series = ScalarSeries(rate=rate, values=np.sin(2 * np.pi * 5.0 * t))
        filtered = preprocess.lowpass_filter(series, rate / (2 * factor))
        down = preprocess.downsample(filtered, factor)
        freqs_full, power_full = preprocess.power_spectrum(series)
        freqs_down, power_down = preprocess.power_spectrum(down)
        bin_width = freqs_down[1] - freqs_down[0]
        peak_full = freqs_full[np.argmax(power_full)]
        assert abs(peak_full - freqs_down[np.argmax(power_down)]) <= bin_width


class TestPowerSpectrum:
    def test_white_noise_flat(self):
        rng = np.random.default_rng(11)
        series = ScalarSeries(rate=120.0, values=rng.normal(size=2**16))
        freqs, power = preprocess.power_spectrum(series)
        total = np.trapezoid(power, freqs)
        assert abs(total - 1.0) < 0.15

    def test_sine_peak_dominates(self):
        t = np.arange(0, 60, 1 / 120.0)
        series = ScalarSeries(rate=120.0, values=np.sin(2 * np.pi * 5.0 * t))
        freqs, power = preprocess.power_spectrum(series)
        peak_region = np.abs(freqs - 5.0) <= (freqs[1] * 2)
        assert power[peak_region].sum() >= 0.9 * power.sum()

    def test_constant_signal(self):
        series = ScalarSeries(rate=10.0, values=np.full(256, 3.0))
        _, power = preprocess.power_spectrum(series)
        assert np.all(power < 1e-20)  # mean removed by detrending

    def test_parseval(self):
        rng = np.random.default_rng(5)
        series = ScalarSeries(rate=30.0, values=rng.normal(scale=2.0, size=2**14))
        freqs, power = preprocess.power_spectrum(series)
        total = np.trapezoid(power, freqs)
        assert abs(total - np.var(series.values)) < 0.1 * np.var(series.values)

    def test_segment_too_long(self):
        series = ScalarSeries(rate=10.0, values=np.zeros(50))
        with pytest.raises(ValidationError, match="length 100 exceeds series length 50"):
            preprocess.power_spectrum(series, segment_length=100)
