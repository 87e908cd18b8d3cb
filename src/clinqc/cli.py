"""Command-line pipeline orchestration.

Subcommands: preprocess, segment-gmm, segment-ar, train-nb, classify,
evaluate, synth, spectrum. Options may come from a JSON config file
(``--config``); explicit flags win over the file. Exit codes: 0 success,
2 validation error or any OS error on a path, 3 runtime/numerical error
or out of memory.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import context, gmm, metrics, preprocess, serialize, swar, synth, trend
from .errors import ClinQcError, ValidationError
from .series import ScalarSeries, check_rate

DEFAULT_TARGET_RATE = 120.0
DEFAULT_CUTOFF_HZ = 15.0
DEFAULT_DECIMATION = 4
DEFAULT_ENERGY_WINDOW = 441
DEFAULT_AUDIO_RATE = 44_100.0


@dataclass
class PipelineConfig:
    """Settings a config file or a flag may change; the recipe constants
    above are not among them."""

    kind: str = "walking"                # one of gmm.KINDS
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
        values = serialize.read_json(args.config)
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
    config = PipelineConfig(**values)
    if config.seed < 0:
        raise ValidationError("seed must be >= 0")
    return config


def _fits(annotation: str, value) -> bool:
    """Whether a config-file value fits a ``PipelineConfig`` annotation.

    bool is not a number, an int stays an int in a float field (so the
    config hash does not move), and the kind must name a test.
    """
    if annotation == "str":
        return value in gmm.KINDS
    if value is None or isinstance(value, bool):
        return value is None and annotation == "float | None"
    return isinstance(value, int) or (annotation != "int" and isinstance(value, float))


def _meta(config: PipelineConfig) -> dict:
    return {"config_hash": serialize.config_hash(asdict(config)), "seed": config.seed}


def preprocess_recipe(raw_path: Path, config: PipelineConfig) -> ScalarSeries:
    """Preprocessing composition for the test kind ``config.kind``.

    walking: interpolate to 120 Hz -> gravity removal -> log-magnitude ->
    15 Hz low-pass -> decimate by 4. balance: interpolate to 120 Hz ->
    gravity removal -> magnitude (no decimation). voice: energy of
    non-overlapping 441-sample windows of the raw audio.
    """
    if config.kind not in gmm.KINDS:
        raise ValidationError(f"unknown test kind {config.kind!r}")
    trend.check_lambda(config.lam)
    if config.kind == "voice":
        audio = serialize.read_audio_csv(raw_path, rate=config.audio_rate)
        return preprocess.windowed_energy(audio, DEFAULT_ENERGY_WINDOW)
    # the raw recording is freed once resampled; the (n, 3) arrays carry
    # no rate, which is attached once, to the scalar feature
    uniform = preprocess.interpolate_uniform(
        serialize.read_accelerometer_csv(raw_path), DEFAULT_TARGET_RATE)
    dynamic = trend.remove_gravity(uniform, config.lam)
    reduce = preprocess.log_magnitude if config.kind == "walking" else preprocess.magnitude
    feature = ScalarSeries(rate=DEFAULT_TARGET_RATE, values=reduce(dynamic))
    if config.kind == "balance":
        return feature
    filtered = preprocess.lowpass_filter(feature, DEFAULT_CUTOFF_HZ)
    return preprocess.downsample(filtered, DEFAULT_DECIMATION)


def _odd_window(seconds: float, series: ScalarSeries) -> int:
    """Odd median window of at least 3 samples covering ``seconds``."""
    if not (np.isfinite(seconds) and 0 < seconds * series.rate <= len(series)):
        raise ValidationError(
            f"window_seconds must be positive and at most the series duration "
            f"({len(series) / series.rate:g} s), got {seconds!r}")
    window = max(int(np.ceil(seconds * series.rate)), 3)
    return window + 1 if window % 2 == 0 else window


# -- subcommand handlers ------------------------------------------------------

def _cmd_preprocess(args, config: PipelineConfig) -> int:
    series = preprocess_recipe(Path(args.input), config)
    out = _out_dir(args) / "feature.csv"
    serialize.write_scalar_csv(out, series, _meta(config))
    print(f"wrote {out} ({len(series)} samples at {series.rate:g} Hz)")
    return 0


def _cmd_spectrum(args, config: PipelineConfig) -> int:
    series = serialize.read_scalar_csv(Path(args.input))
    frequencies, power = preprocess.power_spectrum(series)
    out = _out_dir(args) / "spectrum.csv"
    serialize.write_spectrum_csv(out, frequencies, power, _meta(config))
    print(f"wrote {out} (peak at {frequencies[np.argmax(power)]:g} Hz)")
    return 0


def _cmd_segment_gmm(args, config: PipelineConfig) -> int:
    series = serialize.read_scalar_csv(Path(args.input))
    window = _odd_window(config.window_seconds, series)
    params = gmm.fit_gmm_em(series, seed=config.seed)
    assigned = gmm.map_assign(params, series)
    smoothed = gmm.median_smooth_to_convergence(assigned, window)
    labels = gmm.mean_rule_adherence(params, smoothed, config.kind)
    out_dir = _out_dir(args)
    serialize.write_labels_csv(out_dir / "labels.csv", series.rate, labels,
                               meta=_meta(config))
    serialize.save_model(out_dir / "gmm.json", params, asdict(config))
    print(f"wrote {out_dir / 'labels.csv'} and {out_dir / 'gmm.json'}")
    return 0


def _cmd_segment_ar(args, config: PipelineConfig) -> int:
    series = serialize.read_scalar_csv(Path(args.input))
    result = swar.fit(series, order=config.order, truncation=config.truncation,
                      sweeps=config.sweeps, burn_in=config.burn_in,
                      kappa=config.kappa, seed=config.seed)
    out_dir = _out_dir(args)
    serialize.save_model(out_dir / "swar.json", result.model, asdict(config))
    rows = np.column_stack([series.times, result.states])
    serialize.write_table(out_dir / "states.csv", "t,z", rows, _meta(config))
    # header-less, so a bare np.loadtxt reads it past the meta comments
    serialize.write_table(out_dir / "posteriors.csv", None, result.posteriors,
                          _meta(config))
    print(f"wrote {out_dir / 'swar.json'}; occupied states K+ = {result.occupied}")
    return 0


def _cmd_train_nb(args, config: PipelineConfig) -> int:
    counts = serialize.read_counts_csv(Path(args.counts))
    labels = serialize.read_labels_csv(Path(args.labels))
    model = context.nb_train(counts, labels, smoothing=config.smoothing)
    out = _out_dir(args) / "nb.json"
    serialize.save_model(out, model, asdict(config))
    print(f"wrote {out}")
    return 0


def _cmd_classify(args, config: PipelineConfig) -> int:
    check_rate(args.rate)
    model = serialize.load_model(Path(args.model))
    if not isinstance(model, context.NaiveBayesModel):
        raise ValidationError(f"{args.model}: not a naive-Bayes model artifact")
    counts = serialize.read_counts_csv(Path(args.counts))
    predictions, confidence = context.nb_predict(model, counts)
    out = _out_dir(args) / "predictions.csv"
    serialize.write_labels_csv(out, args.rate, predictions,
                               confidence=confidence.max(axis=1), meta=_meta(config))
    print(f"wrote {out}")
    return 0


def _cmd_evaluate(args, config: PipelineConfig) -> int:
    counts = serialize.read_counts_csv(Path(args.counts))
    labels = serialize.read_labels_csv(Path(args.labels))
    train = functools.partial(context.nb_train, smoothing=config.smoothing)

    def predict(model, eval_counts):
        return context.nb_predict(model, eval_counts)[0]

    if args.baseline == "shuffled":
        report = metrics.shuffled_baseline(counts, labels, config.folds,
                                           train, predict, seed=config.seed)
    else:
        report = metrics.kfold_cv(counts, labels, config.folds, train, predict)
    out = _out_dir(args) / (args.name or "report.json")
    serialize.write_json(out, {**_meta(config), "metrics": report,
                               "config": asdict(config), "baseline": args.baseline})
    print(f"wrote {out}")
    undefined = [str(i) for i, fold in enumerate(report["folds"], start=1)
                 if fold["tp"] is None or fold["tn"] is None]
    if undefined:
        null = [rate for rate, value in report["mean"].items() if value is None]
        print(f"warning: folds {', '.join(undefined)} of {len(report['folds'])} predict "
              f"one class only, so their TP or TN is undefined; the mean and std of "
              f"{', '.join(null)} are null", file=sys.stderr)
    return 0


def _cmd_synth(args, config: PipelineConfig) -> int:
    # each branch generates its data before it makes the directory, so a
    # spec the generator rejects leaves none
    spec = synth.SynthSpec(scenario=args.scenario, duration=args.duration,
                           rate=args.rate, seed=config.seed)
    meta = _meta(config)
    if args.scenario == "gravity-drift":
        raw, trend_truth, dynamic_truth = synth.gen_gravity_drift(spec)
        out_dir = _out_dir(args)
        rows = np.column_stack([raw.timestamps, raw.samples])
        serialize.write_table(out_dir / "raw.csv", "t,x,y,z", rows, meta)
        serialize.write_decomposition_csv(out_dir / "truth.csv", raw.timestamps,
                                          trend_truth, dynamic_truth, meta)
    elif args.scenario == "two-cluster":
        series, labels = synth.gen_two_cluster(spec)
        out_dir = _out_dir(args)
        serialize.write_scalar_csv(out_dir / "feature.csv", series, meta)
        serialize.write_labels_csv(out_dir / "truth.csv", spec.rate, labels, meta=meta)
    else:
        series, states = synth.gen_switching_ar(spec)
        out_dir = _out_dir(args)
        serialize.write_scalar_csv(out_dir / "feature.csv", series, meta)
        rows = np.column_stack([series.times, states.indicators])
        serialize.write_table(out_dir / "truth.csv", "t,z", rows, meta)
    print(f"wrote synthetic {args.scenario} data to {out_dir}")
    return 0


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
    p.add_argument("--kind", choices=gmm.KINDS, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    common(p)
    p.set_defaults(handler=_cmd_preprocess)

    p = sub.add_parser("spectrum", help="Welch power spectrum of a feature CSV")
    p.add_argument("input")
    common(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("segment-gmm", help="two-component GMM quality control")
    p.add_argument("input")
    p.add_argument("--kind", choices=gmm.KINDS, default=None)
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
    common(p)
    p.set_defaults(handler=_cmd_train_nb)

    p = sub.add_parser("classify", help="classify count vectors")
    p.add_argument("model")
    p.add_argument("counts")
    p.add_argument("--rate", type=float, default=1.0)
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
        return args.handler(args, _load_config(args))
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ClinQcError, MemoryError) as exc:
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
