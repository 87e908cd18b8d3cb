"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output) and asserts the same condition, so the suite doubles as a
release checklist.
"""
import json
import time

import numpy as np

from clinqc import context, gmm, metrics, preprocess, serialize, swar, synth, trend
from clinqc.cli import main as cli_main
from clinqc.series import ADHERENCE, VIOLATION, ScalarSeries
from clinqc.synth import RegimeInterval, SynthSpec
from clinqc.trend import _objective, l1_trend_filter


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} [{status}] {description}{suffix}")


def adjusted_rand(a: np.ndarray, b: np.ndarray) -> float:
    """Adjusted Rand index from the contingency table."""
    a = np.asarray(a)
    b = np.asarray(b)
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(len(a))
    expected = sum_rows * sum_cols / total
    max_index = 0.5 * (sum_rows + sum_cols)
    return float((sum_cells - expected) / (max_index - expected))


def three_regime_spec(duration, rate, seed=0):
    third = duration / 3.0
    return SynthSpec(scenario="switching-ar", duration=duration, rate=rate,
                     seed=seed,
                     schedule=[RegimeInterval(0, 0.0, third),
                               RegimeInterval(1, third, 2 * third),
                               RegimeInterval(2, 2 * third, duration)])


def test_criterion_1_trend_solver_oracle(trend_filter_oracle):
    start = time.time()
    worst_gap = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.normal(size=50)) + rng.normal(0, 0.1, size=50)
        lam = 2.0 + 3.0 * rng.random()
        _, oracle_obj = trend_filter_oracle(x, lam)
        ours = l1_trend_filter(x, lam, tolerance=1e-12, max_iterations=50_000)
        gap = _objective(x, ours, lam) - oracle_obj
        worst_gap = max(worst_gap, gap)

    t = np.arange(100.0)
    affine = 0.3 * t - 2.0
    out = l1_trend_filter(affine, 10.0)
    affine_err = float(np.max(np.abs(out - affine)))
    elapsed = time.time() - start

    ok = worst_gap < 1e-6 and affine_err < 1e-9 and elapsed < 10
    report(1, "L1 trend solver matches the convex-program oracle", ok,
           f"gap {worst_gap:.2e}, affine err {affine_err:.2e}, {elapsed:.1f}s")
    assert worst_gap < 1e-6
    assert affine_err < 1e-9
    assert elapsed < 10


def test_criterion_2_gravity_removal_recovery():
    start = time.time()
    spec = SynthSpec(scenario="gravity-drift", duration=8.0, rate=120.0,
                     noise=0.05, seed=0,
                     schedule=[RegimeInterval(0, 0.0, 3.0),
                               RegimeInterval(1, 3.0, 5.0),
                               RegimeInterval(0, 5.0, 8.0)])
    raw, trend_truth, dynamic_truth = synth.gen_gravity_drift(spec)
    uniform = preprocess.interpolate_uniform(raw, spec.rate)
    n = len(uniform)
    dynamic = trend.remove_gravity(uniform)
    trend_est = uniform - dynamic

    trend_rms = float(np.sqrt(np.mean((trend_est - trend_truth[:n]) ** 2)))
    burst = np.any(dynamic_truth[:n] != 0, axis=1)
    rms_true = float(np.sqrt(np.mean(dynamic_truth[:n][burst] ** 2)))
    rms_est = float(np.sqrt(np.mean(dynamic[burst] ** 2)))
    burst_rel = abs(rms_est - rms_true) / rms_true
    elapsed = time.time() - start

    ok = trend_rms < 0.1 and burst_rel < 0.1 and elapsed < 30
    report(2, "gravity trend recovered, dynamic bursts preserved", ok,
           f"trend RMS {trend_rms:.3f}, burst RMS off by {100 * burst_rel:.1f}%, "
           f"{elapsed:.1f}s")
    assert trend_rms < 0.1
    assert burst_rel < 0.1
    assert elapsed < 30


def test_criterion_3_ar_psd_vs_welch():
    start = time.time()
    radius, angle = 0.95, 0.4 * np.pi
    state = swar.ArState(coefficients=[2 * radius * np.cos(angle), -radius**2],
                         mean=0.0, variance=1.0)
    values = swar.ar_path([state], np.zeros(2**17, dtype=int), np.random.default_rng(0))
    series = ScalarSeries(rate=1.0, values=values)
    freqs, welch = preprocess.power_spectrum(series, segment_length=512)
    # one-sided Welch vs the two-sided closed form
    closed = 2 * swar.ar_psd(state, freqs)
    peak = int(np.argmax(welch))
    peak_closed = int(np.argmax(closed))
    bin_err = abs(peak - peak_closed)
    power_rel = abs(welch[peak] - closed[peak]) / closed[peak]
    elapsed = time.time() - start

    ok = power_rel < 0.1 and bin_err <= 1 and elapsed < 30
    report(3, "AR spectral density matches the Welch periodogram", ok,
           f"peak power off by {100 * power_rel:.1f}%, peak bins differ by "
           f"{bin_err}, {elapsed:.1f}s")
    assert power_rel < 0.1
    assert bin_err <= 1
    assert elapsed < 30


def test_criterion_4_sampler_exactness_micro():
    start = time.time()
    states = [swar.ArState(coefficients=[0.8], mean=0.0, variance=0.3),
              swar.ArState(coefficients=[-0.4], mean=1.5, variance=1.0)]
    model = swar.SwitchingArModel(
        states=states,
        transitions=np.array([[0.85, 0.15], [0.3, 0.7]]),
        beta=np.array([0.6, 0.4]))
    values = np.array([0.2, 0.9, 1.4, -0.3, 0.5])
    X, y = swar._design(values, 1)
    loglik = swar._loglik_matrix(model, X, y)  # (2, 4)
    lik = np.exp(loglik)

    # exact posterior over all 2^4 chains
    n_steps = len(y)
    exact = {}
    for code in range(2**n_steps):
        z = [(code >> t) & 1 for t in range(n_steps)]
        p = model.beta[z[0]] * lik[z[0], 0]
        for t in range(1, n_steps):
            p *= model.transitions[z[t - 1], z[t]] * lik[z[t], t]
        exact[tuple(z)] = p
    total = sum(exact.values())
    exact = {k: v / total for k, v in exact.items()}

    draws = 100_000
    rng = np.random.default_rng(0)
    counts = {}
    for _ in range(draws):
        z = tuple(swar.sample_states(model, loglik, rng).tolist())
        counts[z] = counts.get(z, 0) + 1
    tv = 0.5 * sum(abs(exact.get(z, 0.0) - counts.get(z, 0) / draws)
                   for z in set(exact) | set(counts))
    elapsed = time.time() - start

    ok = tv < 0.02 and elapsed < 60
    report(4, "blocked sampler matches the enumerated chain posterior", ok,
           f"total variation {tv:.4f} over {draws} draws, {elapsed:.1f}s")
    assert tv < 0.02
    assert elapsed < 60


def test_criterion_5_switching_ar_recovery():
    start = time.time()
    spec = three_regime_spec(duration=200.0, rate=30.0, seed=0)
    series, truth = synth.gen_switching_ar(spec)
    fit = swar.fit(series, order=1, truncation=10, kappa=20.0,
                   sweeps=500, burn_in=250, seed=0)
    ari = adjusted_rand(fit.states, truth.indicators)
    k_mode = np.bincount(fit.occupied_trace[250:]).argmax()
    elapsed = time.time() - start

    ok = ari >= 0.9 and k_mode == 3 and elapsed < 300
    report(5, "switching-AR sampler recovers 3 well-separated regimes", ok,
           f"ARI {ari:.3f}, K+ mode {k_mode}, {elapsed:.0f}s")
    assert ari >= 0.9
    assert k_mode == 3
    assert elapsed < 300


def test_criterion_6_gmm_path():
    spec = SynthSpec(scenario="two-cluster", duration=120.0, rate=30.0, seed=0,
                     schedule=[RegimeInterval(0, 0.0, 50.0),
                               RegimeInterval(1, 50.0, 90.0),
                               RegimeInterval(0, 90.0, 120.0)])
    series, truth = synth.gen_two_cluster(spec)
    params = gmm.fit_gmm_em(series, seed=0)
    assigned = gmm.map_assign(params, series)
    smoothed = gmm.median_smooth_to_convergence(assigned, 61)
    labels = gmm.mean_rule_adherence(params, smoothed, "voice")
    ba = metrics.tp_tn_ba(labels, truth).ba

    # E-M monotonicity is asserted inside the fit on every iteration; run a
    # spread of fixtures through it so a violation would raise here.
    for seed in range(5):
        rng = np.random.default_rng(seed)
        mix = np.concatenate([rng.normal(0, 1, 300),
                              rng.normal(rng.uniform(1, 8), 0.5, 300)])
        gmm.fit_gmm_em(ScalarSeries(rate=1.0, values=mix), seed=seed)

    ok = ba is not None and ba >= 0.95
    report(6, "GMM path reaches BA >= 0.95 at 6-sigma separation", ok,
           f"BA {ba:.3f}, E-M monotone on 6 fixtures")
    assert ba >= 0.95


def test_criterion_7_end_to_end_pipelines():
    start = time.time()
    # switching-AR + naive Bayes on a walking-like series whose regimes
    # alternate, so every contiguous CV fold holds both classes
    duration, rate, step = 200.0, 30.0, 200.0 / 30
    schedule = [RegimeInterval(k % 3, i * step, (i + 1) * step)
                for i, k in enumerate(range(30))]
    spec = SynthSpec(scenario="switching-ar", duration=duration, rate=rate,
                     seed=1, schedule=schedule)
    series, truth = synth.gen_switching_ar(spec)
    fit = swar.fit(series, order=1, truncation=10, kappa=20.0,
                   sweeps=500, burn_in=250, seed=1)
    counts = context.rescale_to_counts(fit.posteriors)
    labels = np.where(truth.indicators == 0, ADHERENCE, VIOLATION)

    def train(c, u):
        return context.nb_train(c, u)

    def predict(model, c):
        return context.nb_predict(model, c)[0]

    walking = metrics.kfold_cv(counts, labels, 10, train, predict)
    walking_ba = walking["mean"]["ba"]

    # GMM path on a voice-like two-cluster series
    voice_spec = SynthSpec(scenario="two-cluster", duration=120.0, rate=30.0, seed=2,
                           schedule=[RegimeInterval(0, 0.0, 60.0),
                                     RegimeInterval(1, 60.0, 120.0)])
    voice_series, voice_truth = synth.gen_two_cluster(voice_spec)
    params = gmm.fit_gmm_em(voice_series, seed=0)
    smoothed = gmm.median_smooth_to_convergence(
        gmm.map_assign(params, voice_series), 61)
    voice_labels = gmm.mean_rule_adherence(params, smoothed, "voice")
    voice_ba = metrics.tp_tn_ba(voice_labels, voice_truth).ba
    elapsed = time.time() - start

    ok = walking_ba >= 0.85 and voice_ba is not None and voice_ba >= 0.9 \
        and elapsed < 600
    report(7, "end-to-end pipelines hit the published operating range", ok,
           f"walking BA {walking_ba:.3f}, voice BA {voice_ba:.3f}, {elapsed:.0f}s")
    assert walking_ba >= 0.85
    assert voice_ba >= 0.9
    assert elapsed < 600


def test_criterion_8_shuffled_baseline():
    start = time.time()
    rng = np.random.default_rng(0)
    # informative counts: the attribute mix tracks the label
    n = 2000
    labels = rng.permutation(np.r_[np.full(n // 2, ADHERENCE),
                                   np.full(n // 2, VIOLATION)])
    probs = np.where(labels[:, None] == ADHERENCE,
                     [0.85, 0.15], [0.2, 0.8])
    counts = np.array([rng.multinomial(100, p) for p in probs])

    def train(c, u):
        return context.nb_train(c, u)

    def predict(model, c):
        return context.nb_predict(model, c)[0]

    # recall-mode rates stay defined even if a fold's predictions collapse
    # onto a single class, which shuffling makes possible
    bas = [metrics.shuffled_baseline(counts, labels, 10, train, predict,
                                     seed=rep, mode="recall")["mean"]["ba"]
           for rep in range(20)]
    bas = np.asarray(bas)
    mean_ba = float(bas.mean())
    elapsed = time.time() - start

    ok = 0.45 <= mean_ba <= 0.55 and elapsed < 300
    report(8, "shuffled-indicator control sits at chance level", ok,
           f"BA {mean_ba:.3f} (range {bas.min():.3f}-{bas.max():.3f}) over "
           f"20 repetitions, {elapsed:.0f}s")
    assert 0.45 <= mean_ba <= 0.55
    assert elapsed < 300


def test_criterion_9_metric_identities():
    fixture = metrics.tp_tn_ba(np.array([1, 1, 2, 2]), np.array([1, 2, 2, 2]))
    fixture_ok = (fixture.tp == 0.5 and fixture.tn == 1.0 and fixture.ba == 0.75)

    identity_ok = True
    rng = np.random.default_rng(0)
    for _ in range(200):
        pred = rng.choice([1, 2], size=30)
        truth = rng.choice([1, 2], size=30)
        for mode in ("printed", "recall"):
            m = metrics.tp_tn_ba(pred, truth, mode=mode)
            if m.ba is not None and m.ba != 0.5 * (m.tp + m.tn):
                identity_ok = False

    ok = fixture_ok and identity_ok
    report(9, "TP/TN/BA identities and the hand-derived fixture hold", ok,
           f"fixture TP={fixture.tp} TN={fixture.tn} BA={fixture.ba}")
    assert fixture_ok
    assert identity_ok


def test_criterion_10_cli_determinism(tmp_path):
    def cli(*argv):
        assert cli_main([str(a) for a in argv] + ["--seed", "3"]) == 0

    def run_pipeline(base):
        data = base / "data"
        cli("synth", "--scenario", "two-cluster", "--duration", "60", "--rate", "10",
            "--out", data)
        cli("segment-gmm", data / "feature.csv", "--kind", "voice", "--out", base / "seg")
        ar_data = base / "ar"
        cli("synth", "--scenario", "switching-ar", "--duration", "20", "--rate", "30",
            "--out", ar_data)
        cli("spectrum", ar_data / "feature.csv", "--out", ar_data)
        ar_seg = base / "arseg"
        cli("segment-ar", ar_data / "feature.csv", "--order", "1", "--truncation", "5",
            "--sweeps", "15", "--burn-in", "5", "--kappa", "20", "--out", ar_seg)
        # the classifier's inputs come from this run: counts from its posteriors,
        # labels from its truth, on which regime 1 is adherence
        counts = base / "counts.csv"
        serialize.write_table(counts, None, context.rescale_to_counts(
            np.loadtxt(ar_seg / "posteriors.csv", delimiter=",")))
        truth = serialize.read_scalar_csv(ar_data / "truth.csv")
        labels = base / "labels.csv"
        serialize.write_labels_csv(labels, truth.rate,
                                   np.where(truth.values == 1, ADHERENCE, VIOLATION))
        cli("train-nb", counts, labels, "--out", base / "nb")
        cli("classify", base / "nb" / "nb.json", counts, "--out", base / "nb")
        cli("evaluate", counts, labels, "--folds", "2", "--out", base / "eval")
        cli("evaluate", counts, labels, "--folds", "2", "--baseline", "shuffled",
            "--name", "control.json", "--out", base / "eval")
        raw = base / "raw"
        cli("synth", "--scenario", "gravity-drift", "--duration", "4", "--rate", "120",
            "--out", raw)
        for kind in ("walking", "balance"):
            cli("preprocess", raw / "raw.csv", "--kind", kind, "--out", base / kind)
        # a 2-s 220 Hz tone, loud for its first second
        t = np.arange(2 * 44_100) / 44_100
        tone = np.where(t < 1, 0.3, 0.01) * np.sin(2 * np.pi * 220 * t)
        np.savetxt(base / "audio.csv", np.column_stack([t, tone]), fmt="%.7f",
                   delimiter=",", header="t,v", comments="")
        cli("preprocess", base / "audio.csv", "--kind", "voice", "--out", base / "voice")
        return sorted(p for p in base.rglob("*") if p.is_file())

    files_a = run_pipeline(tmp_path / "a")
    files_b = run_pipeline(tmp_path / "b")
    names_a = [p.relative_to(tmp_path / "a") for p in files_a]
    names_b = [p.relative_to(tmp_path / "b") for p in files_b]
    identical = names_a == names_b and all(
        a.read_bytes() == b.read_bytes() for a, b in zip(files_a, files_b))

    report(10, "CLI reruns with a fixed seed are byte-identical", identical,
           f"{len(files_a)} artifacts compared")
    assert identical
