"""Every clinqc subcommand, run once on small synthetic inputs.

One function per recipe group: ``accelerometer``, ``audio``, ``two_cluster``
and ``field``. Each takes an output directory and a ``cli(argv)`` callable,
which runs one command line (str items, no program name) and checks its
exit code. The steps between commands (a tone CSV, a config file, counts
and labels) run here, outside ``cli``. ``clinqc`` is imported only inside
the functions, so a caller may import it first, under a tracer, say.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np


def _with_str_args(cli):
    return lambda *argv: cli([str(a) for a in argv])


def accelerometer(out: Path, cli) -> None:
    """synth gravity-drift; walking and balance preprocess and segment-gmm,
    balance's segment-gmm through ``--config``."""
    run = _with_str_args(cli)
    raw = out / "raw"
    run("synth", "--scenario", "gravity-drift", "--duration", "4", "--rate", "120",
        "--out", raw)
    for kind in ("walking", "balance"):
        run("preprocess", raw / "raw.csv", "--kind", kind, "--out", out / kind)
    run("segment-gmm", out / "walking" / "feature.csv", "--kind", "walking",
        "--out", out / "walking")
    config = out / "balance.json"
    config.write_text('{"kind": "balance", "window_seconds": 2.0}')
    run("segment-gmm", out / "balance" / "feature.csv", "--config", config,
        "--out", out / "balance")


def audio(out: Path, cli) -> None:
    """A 2-s 220 Hz tone, loud for its first second; voice preprocess and
    segment-gmm."""
    from clinqc import serialize

    run = _with_str_args(cli)
    out.mkdir(parents=True, exist_ok=True)
    t = np.arange(2 * 44_100) / 44_100
    tone = np.where(t < 1, 0.3, 0.01) * np.sin(2 * np.pi * 220 * t)
    serialize.write_table(out / "audio.csv", "t,v", np.column_stack([t, tone]))
    run("preprocess", out / "audio.csv", "--kind", "voice", "--out", out / "voice")
    run("segment-gmm", out / "voice" / "feature.csv", "--kind", "voice",
        "--out", out / "voice")


def two_cluster(out: Path, cli) -> None:
    """synth two-cluster; segment-gmm and spectrum."""
    run = _with_str_args(cli)
    data = out / "two-cluster"
    run("synth", "--scenario", "two-cluster", "--duration", "60", "--rate", "10",
        "--out", data)
    run("segment-gmm", data / "feature.csv", "--kind", "voice", "--out", data)
    run("spectrum", data / "feature.csv", "--out", data)


def field(out: Path, cli) -> None:
    """synth switching-ar, segment-ar; counts and labels; train-nb, classify,
    and evaluate plain and with the shuffled baseline."""
    from clinqc import context, serialize
    from clinqc.series import ADHERENCE, VIOLATION

    run = _with_str_args(cli)
    data, seg = out / "switching-ar", out / "ar"
    run("synth", "--scenario", "switching-ar", "--duration", "20", "--rate", "30",
        "--out", data)
    run("segment-ar", data / "feature.csv", "--order", "1", "--truncation", "5",
        "--sweeps", "15", "--burn-in", "5", "--kappa", "20", "--out", seg)
    # counts from this run's posteriors; labels from its truth, on which
    # regime 1 is adherence
    counts, labels = out / "counts.csv", out / "labels.csv"
    serialize.write_table(counts, None, context.rescale_to_counts(
        np.loadtxt(seg / "posteriors.csv", delimiter=",")))
    truth = serialize.read_scalar_csv(data / "truth.csv")
    serialize.write_labels_csv(labels, truth.rate,
                               np.where(truth.values == 1, ADHERENCE, VIOLATION))
    run("train-nb", counts, labels, "--out", out / "nb")
    run("classify", out / "nb" / "nb.json", counts, "--out", out / "nb")
    # some of 5 contiguous folds hold one class only, so evaluate warns too
    for baseline, name in (("none", "report.json"), ("shuffled", "control.json")):
        run("evaluate", counts, labels, "--folds", "5", "--baseline", baseline,
            "--name", name, "--out", out / "eval")


GROUPS = (accelerometer, audio, two_cluster, field)
