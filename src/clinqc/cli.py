"""Command-line pipeline orchestration.

Subcommands: preprocess, segment-gmm, segment-ar, train-nb, classify,
evaluate, synth, spectrum. Options may come from a JSON config file
(``--config``); explicit flags win over the file. Exit codes: 0 success,
2 validation error, 3 runtime/numerical error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import context, gmm, metrics, preprocess, serialize, swar, synth, trend
from .errors import ClinQcError, ValidationError
from .series import ADHERENCE, AdherenceLabels, ScalarSeries

DEFAULT_TARGET_RATE = 120.0
DEFAULT_CUTOFF_HZ = 15.0
DEFAULT_DECIMATION = 4
DEFAULT_ENERGY_WINDOW = 441
DEFAULT_AUDIO_RATE = 44_100.0
KINDS = tuple(kind.value for kind in gmm.TestKind)


@dataclass
class PipelineConfig:
    """Settings a config file or a flag may change; the recipe constants
    above are not among them."""

    kind: str = "walking"                # walking | balance | voice
    audio_rate: float = DEFAULT_AUDIO_RATE
    lam: float | None = None
    order: int = 4
    truncation: int = 20
    kappa: float = 0.0
    sweeps: int = 500
    burn_in: int = 250
    window_seconds: float = 2.0
    smoothing: float = 1.0
    folds: int = 10
    seed: int = 0


def _out_dir(args) -> Path:
    base = getattr(args, "out", None) or os.environ.get("CLINQC_OUT_DIR", ".")
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_config(args) -> PipelineConfig:
    fields = PipelineConfig.__dataclass_fields__
    values = {}
    if getattr(args, "config", None):
        try:
            values = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{args.config}: not valid JSON: {exc}") from exc
        if not isinstance(values, dict):
            raise ValidationError(f"{args.config}: expected a JSON object")
        unknown = sorted(set(values) - set(fields))
        if unknown:
            raise ValidationError(
                f"{args.config}: unknown config key(s) {', '.join(unknown)}")
        for key, value in values.items():
            if not _fits(fields[key].type, value):
                raise ValidationError(
                    f"{args.config}: bad value {value!r} for config key {key}")
    for key in fields:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return PipelineConfig(**values)


def _fits(annotation: str, value) -> bool:
    """Whether a config-file value fits a ``PipelineConfig`` annotation.

    bool is not a number, an int stays an int in a float field (so the
    config hash does not move), and the kind must name a test.
    """
    if annotation == "str":
        return value in KINDS
    if value is None or isinstance(value, bool):
        return value is None and annotation == "float | None"
    return isinstance(value, int) or (annotation != "int" and isinstance(value, float))


def _meta(config: PipelineConfig) -> dict:
    return {"config_hash": serialize.config_hash(asdict(config)), "seed": config.seed}


def preprocess_recipe(kind: str, raw_path: Path, config: PipelineConfig
                      ) -> ScalarSeries:
    """Per-test-kind preprocessing composition.

    walking: interpolate to 120 Hz -> gravity removal -> log-magnitude ->
    15 Hz low-pass -> decimate by 4. balance: interpolate to 120 Hz ->
    gravity removal -> magnitude (no decimation). voice: energy of
    non-overlapping 441-sample windows of the raw audio.
    """
    tf_config = trend.TrendFilterConfig(lam=config.lam)
    if kind == "voice":
        audio = serialize.read_audio_csv(raw_path, rate=config.audio_rate)
        return preprocess.windowed_energy(audio, DEFAULT_ENERGY_WINDOW)
    raw = serialize.read_accelerometer_csv(raw_path)
    uniform = preprocess.interpolate_uniform(raw, DEFAULT_TARGET_RATE)
    decomposition = trend.remove_gravity(uniform, tf_config)
    if kind == "walking":
        feature = preprocess.log_magnitude(decomposition.dynamic)
        filtered = preprocess.lowpass_filter(feature, DEFAULT_CUTOFF_HZ)
        return preprocess.downsample(filtered, DEFAULT_DECIMATION)
    if kind == "balance":
        return preprocess.magnitude(decomposition.dynamic)
    raise ValidationError(f"unknown test kind {kind!r}")


def _odd_window(seconds: float, series: ScalarSeries) -> int:
    """Odd median window of at least 3 samples covering ``seconds``."""
    if not (np.isfinite(seconds) and 0 < seconds * series.rate <= len(series)):
        raise ValidationError(
            f"window_seconds must be positive and at most the series duration "
            f"({len(series) / series.rate:g} s), got {seconds!r}")
    window = max(int(np.ceil(seconds * series.rate)), 3)
    return window + 1 if window % 2 == 0 else window


def _segment_gmm(series: ScalarSeries, config: PipelineConfig
                 ) -> tuple[AdherenceLabels, gmm.GmmParams]:
    window = _odd_window(config.window_seconds, series)
    params, _ = gmm.fit_gmm_em(series, seed=config.seed)
    assigned = gmm.map_assign(params, series)
    smoothed = gmm.median_smooth_to_convergence(assigned, window)
    labels = gmm.mean_rule_adherence(params, smoothed,
                                     gmm.TestKind(config.kind), series.rate)
    return labels, params


# -- subcommand handlers ------------------------------------------------------

def _cmd_preprocess(args) -> int:
    config = _load_config(args)
    series = preprocess_recipe(config.kind, Path(args.input), config)
    out = _out_dir(args) / (args.name or "feature.csv")
    serialize.write_scalar_csv(out, series, _meta(config))
    print(f"wrote {out} ({len(series)} samples at {series.rate:g} Hz)")
    return 0


def _cmd_spectrum(args) -> int:
    config = _load_config(args)
    series = serialize.read_scalar_csv(Path(args.input))
    spectrum = preprocess.power_spectrum(series)
    out = _out_dir(args) / (args.name or "spectrum.csv")
    serialize.write_spectrum_csv(out, spectrum, _meta(config))
    print(f"wrote {out} (peak at {spectrum.peak_frequency():g} Hz)")
    return 0


def _cmd_segment_gmm(args) -> int:
    config = _load_config(args)
    series = serialize.read_scalar_csv(Path(args.input))
    labels, params = _segment_gmm(series, config)
    out_dir = _out_dir(args)
    serialize.write_labels_csv(out_dir / "labels.csv", labels, meta=_meta(config))
    serialize.save_model(out_dir / "gmm.json", params, asdict(config), config.seed)
    print(f"wrote {out_dir / 'labels.csv'} and {out_dir / 'gmm.json'}")
    return 0


def _cmd_segment_ar(args) -> int:
    config = _load_config(args)
    series = serialize.read_scalar_csv(Path(args.input))
    sw_config = swar.SwArConfig(order=config.order, truncation=config.truncation,
                                kappa=config.kappa, sweeps=config.sweeps,
                                burn_in=config.burn_in, seed=config.seed)
    result = swar.fit(series, sw_config)
    out_dir = _out_dir(args)
    serialize.save_model(out_dir / "swar.json", result.model,
                         asdict(config), config.seed)
    rows = np.column_stack([series.times, result.states.indicators])
    serialize.write_table(out_dir / "states.csv", "t,z", rows, _meta(config))
    if result.states.posteriors is not None:
        np.savetxt(out_dir / "posteriors.csv", result.states.posteriors,
                   delimiter=",", fmt="%.12g")
    print(f"wrote {out_dir / 'swar.json'}; occupied states K+ = {result.occupied}")
    return 0


def _cmd_train_nb(args) -> int:
    config = _load_config(args)
    counts = serialize.read_counts_csv(Path(args.counts))
    labels = serialize.read_labels_csv(Path(args.labels))
    model = context.nb_train(counts, labels, smoothing=config.smoothing)
    out = _out_dir(args) / (args.name or "nb.json")
    serialize.save_model(out, model, asdict(config), config.seed)
    print(f"wrote {out}")
    return 0


def _cmd_classify(args) -> int:
    config = _load_config(args)
    model = serialize.load_model(Path(args.model))
    if not isinstance(model, context.NaiveBayesModel):
        raise ValidationError(f"{args.model}: not a naive-Bayes model artifact")
    counts = serialize.read_counts_csv(Path(args.counts))
    predictions, confidence = context.nb_predict(model, counts)
    labels = AdherenceLabels(rate=args.rate, labels=predictions)
    out = _out_dir(args) / (args.name or "predictions.csv")
    serialize.write_labels_csv(out, labels, confidence=confidence.max(axis=1),
                               meta=_meta(config))
    print(f"wrote {out}")
    return 0


def _cmd_evaluate(args) -> int:
    config = _load_config(args)
    counts = serialize.read_counts_csv(Path(args.counts))
    labels = serialize.read_labels_csv(Path(args.labels))

    def train(train_counts, train_labels):
        return context.nb_train(train_counts, train_labels,
                                smoothing=config.smoothing)

    def predict(model, eval_counts):
        return context.nb_predict(model, eval_counts)[0]

    if args.baseline == "shuffled":
        report = metrics.shuffled_baseline(counts, labels, config.folds,
                                           train, predict, seed=config.seed)
    else:
        report = metrics.kfold_cv(counts, labels, config.folds, train, predict)
    doc = {**_meta(config), "metrics": report.to_dict(),
           "config": asdict(config), "baseline": args.baseline}
    out = _out_dir(args) / (args.name or "report.json")
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


def _cmd_synth(args) -> int:
    config = _load_config(args)
    out_dir = _out_dir(args)
    spec = synth.SynthSpec(scenario=args.scenario, duration=args.duration,
                           rate=args.rate, seed=config.seed,
                           schedule=_default_schedule(args.scenario, args.duration))
    meta = _meta(config)
    if args.scenario == "gravity-drift":
        raw, trend_truth, dynamic_truth = synth.gen_gravity_drift(spec)
        rows = np.column_stack([raw.timestamps, raw.samples])
        serialize.write_table(out_dir / "raw.csv", "t,x,y,z", rows, meta)
        serialize.write_decomposition_csv(out_dir / "truth.csv", raw.timestamps,
                                          trend_truth, dynamic_truth, meta)
    elif args.scenario == "two-cluster":
        series, labels = synth.gen_two_cluster(spec)
        serialize.write_scalar_csv(out_dir / "feature.csv", series, meta)
        serialize.write_labels_csv(out_dir / "truth.csv", labels, meta=meta)
    else:
        series, states = synth.gen_switching_ar(spec)
        serialize.write_scalar_csv(out_dir / "feature.csv", series, meta)
        rows = np.column_stack([series.times, states.indicators])
        serialize.write_table(out_dir / "truth.csv", "t,z", rows, meta)
    print(f"wrote synthetic {args.scenario} data to {out_dir}")
    return 0


def _default_schedule(scenario: str, duration: float) -> list[synth.RegimeInterval]:
    third = duration / 3.0
    if scenario == "two-cluster":
        half = duration / 2.0
        return [synth.RegimeInterval(0, 0.0, half),
                synth.RegimeInterval(1, half, duration)]
    if scenario == "gravity-drift":
        return [synth.RegimeInterval(0, 0.0, third),
                synth.RegimeInterval(1, third, 2 * third),
                synth.RegimeInterval(0, 2 * third, duration)]
    return [synth.RegimeInterval(0, 0.0, third),
            synth.RegimeInterval(1, third, 2 * third),
            synth.RegimeInterval(2, 2 * third, duration)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clinqc",
        description="Quality control of behavioural sensor test recordings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output directory (default: $CLINQC_OUT_DIR or .)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", help="JSON config file; flags override it")

    p = sub.add_parser("preprocess", help="run the per-kind preprocessing recipe")
    p.add_argument("input")
    p.add_argument("--kind", choices=KINDS, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--name", default=None)
    common(p)
    p.set_defaults(handler=_cmd_preprocess)

    p = sub.add_parser("spectrum", help="Welch power spectrum of a feature CSV")
    p.add_argument("input")
    p.add_argument("--name", default=None)
    common(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("segment-gmm", help="two-component GMM quality control")
    p.add_argument("input")
    p.add_argument("--kind", choices=KINDS, default=None)
    p.add_argument("--window-seconds", dest="window_seconds", type=float,
                   default=None)
    common(p)
    p.set_defaults(handler=_cmd_segment_gmm)

    p = sub.add_parser("segment-ar", help="switching-AR segmentation")
    p.add_argument("input")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--sweeps", type=int, default=None)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    p.add_argument("--kappa", type=float, default=None)
    common(p)
    p.set_defaults(handler=_cmd_segment_ar)

    p = sub.add_parser("train-nb", help="train the adherence classifier")
    p.add_argument("counts")
    p.add_argument("labels")
    p.add_argument("--smoothing", type=float, default=None)
    p.add_argument("--name", default=None)
    common(p)
    p.set_defaults(handler=_cmd_train_nb)

    p = sub.add_parser("classify", help="classify count vectors")
    p.add_argument("model")
    p.add_argument("counts")
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--name", default=None)
    common(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("evaluate", help="cross-validated metrics report")
    p.add_argument("counts")
    p.add_argument("labels")
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--baseline", choices=["none", "shuffled"], default="none")
    p.add_argument("--name", default=None)
    common(p)
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("synth", help="generate synthetic test data")
    p.add_argument("--scenario", choices=list(synth.SCENARIOS),
                   default="switching-ar")
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--rate", type=float, default=30.0)
    common(p)
    p.set_defaults(handler=_cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClinQcError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
