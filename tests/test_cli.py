import ast
import errno
import functools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import signal

import clinqc
from clinqc import context, metrics, serialize, swar, synth
from clinqc.cli import main
from clinqc.synth import SynthSpec


def run(args):
    return main([str(a) for a in args])


def four_row_tables(tmp_path):
    """A 4-row count table and its labels, adherence and violation in turn."""
    counts, labels = tmp_path / "counts.csv", tmp_path / "labels.csv"
    counts.write_text("3,0\n0,3\n2,1\n1,2\n")
    labels.write_text("t,u\n0,1\n1,2\n2,1\n3,2\n")
    return counts, labels


def run_in_new_interpreter(code, *args, **env):
    """The stdout of ``python -c code args``, with this package on the path."""
    src = str(Path(clinqc.__file__).parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          check=True, capture_output=True, text=True).stdout


def run_at_blas_threads(threads, args):
    """Run the CLI in a new interpreter whose BLAS uses ``threads`` threads;
    the count is read once, when numpy loads, so it needs a process of its own."""
    run_in_new_interpreter(
        "import sys; from clinqc.cli import main; sys.exit(main(sys.argv[1:]))", *args,
        OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))


class TestSynthCommand:
    def test_switching_ar_outputs(self, tmp_path):
        assert run(["synth", "--scenario", "switching-ar", "--duration", "10",
                    "--rate", "30", "--out", tmp_path]) == 0
        assert (tmp_path / "feature.csv").exists()
        assert (tmp_path / "truth.csv").exists()

    def test_gravity_drift_outputs(self, tmp_path):
        assert run(["synth", "--scenario", "gravity-drift", "--duration", "6",
                    "--rate", "120", "--out", tmp_path]) == 0
        raw = serialize.read_accelerometer_csv(tmp_path / "raw.csv")
        assert raw.samples.shape[1] == 3
        truth = serialize._read_table(tmp_path / "truth.csv", 7)
        assert len(truth) == len(raw.timestamps)

    def test_two_cluster_outputs(self, tmp_path):
        assert run(["synth", "--scenario", "two-cluster", "--duration", "20",
                    "--rate", "10", "--out", tmp_path]) == 0
        labels = serialize.read_labels_csv(tmp_path / "truth.csv")
        assert set(np.unique(labels)) == {1, 2}

    @pytest.mark.parametrize("scenario", ["walking-like", "balance-like",
                                          "voice-like"])
    def test_removed_alias_scenarios_exit_2(self, tmp_path, scenario):
        with pytest.raises(SystemExit) as exc:
            run(["synth", "--scenario", scenario, "--out", tmp_path])
        assert exc.value.code == 2

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CLINQC_OUT_DIR", str(tmp_path / "env_out"))
        assert run(["synth", "--scenario", "two-cluster", "--duration", "4",
                    "--rate", "10"]) == 0
        assert (tmp_path / "env_out" / "feature.csv").exists()


class TestPreprocessCommand:
    def test_balance_recipe(self, tmp_path):
        raw_dir = tmp_path / "raw"
        run(["synth", "--scenario", "gravity-drift", "--duration", "4",
             "--rate", "120", "--out", raw_dir])
        out = tmp_path / "feat"
        assert run(["preprocess", raw_dir / "raw.csv", "--kind", "balance",
                    "--out", out]) == 0
        series = serialize.read_scalar_csv(out / "feature.csv")
        assert series.rate == pytest.approx(120.0, rel=0.01)
        assert np.all(series.values >= 0)

    def test_walking_recipe_decimates(self, tmp_path):
        raw_dir = tmp_path / "raw"
        run(["synth", "--scenario", "gravity-drift", "--duration", "4",
             "--rate", "120", "--out", raw_dir])
        out = tmp_path / "feat"
        assert run(["preprocess", raw_dir / "raw.csv", "--kind", "walking",
                    "--out", out]) == 0
        series = serialize.read_scalar_csv(out / "feature.csv")
        assert series.rate == pytest.approx(30.0, rel=0.01)

    def test_voice_recipe(self, tmp_path):
        t = np.arange(44_100) / 44_100.0
        audio = np.sin(2 * np.pi * 220 * t)
        path = tmp_path / "audio.csv"
        rows = "\n".join(f"{ti},{vi}" for ti, vi in zip(t, audio))
        path.write_text("t,v\n" + rows + "\n")
        out = tmp_path / "feat"
        assert run(["preprocess", path, "--kind", "voice", "--out", out]) == 0
        series = serialize.read_scalar_csv(out / "feature.csv")
        assert len(series) == 100  # 44100 samples / 441-sample windows

    def test_missing_input_exit_2(self, tmp_path, capsys):
        assert run(["preprocess", tmp_path / "nope.csv", "--kind", "walking",
                    "--out", tmp_path]) == 2
        assert "error" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_rows_are_welch_with_4_second_segments(self, tmp_path, capsys):
        run(["synth", "--scenario", "switching-ar", "--duration", "60",
             "--rate", "30", "--out", tmp_path])
        assert run(["spectrum", tmp_path / "feature.csv", "--out", tmp_path]) == 0
        series = serialize.read_scalar_csv(tmp_path / "feature.csv")
        freqs, power = signal.welch(series.values, fs=series.rate, nperseg=120,
                                    noverlap=60, detrend="constant")
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[2] == "f,power"
        assert lines[3:] == [f"{f:.12g},{p:.12g}" for f, p in zip(freqs, power)]
        peak = freqs[np.argmax(power)]
        assert f"(peak at {peak:g} Hz)" in capsys.readouterr().out


class TestSegmentationCommands:
    def make_feature(self, tmp_path):
        data_dir = tmp_path / "data"
        run(["synth", "--scenario", "two-cluster", "--duration", "60",
             "--rate", "10", "--out", data_dir])
        return data_dir / "feature.csv"

    def test_segment_gmm(self, tmp_path):
        feature = self.make_feature(tmp_path)
        out = tmp_path / "seg"
        assert run(["segment-gmm", feature, "--kind", "voice", "--out", out]) == 0
        labels = serialize.read_labels_csv(out / "labels.csv")
        params = serialize.load_model(out / "gmm.json")
        assert len(labels) == 600
        assert len(params.means) == 2

    def test_segment_ar(self, tmp_path):
        data_dir = tmp_path / "data"
        run(["synth", "--scenario", "switching-ar", "--duration", "30",
             "--rate", "30", "--out", data_dir])
        out = tmp_path / "seg"
        assert run(["segment-ar", data_dir / "feature.csv", "--order", "1",
                    "--truncation", "5", "--sweeps", "20", "--burn-in", "10",
                    "--kappa", "20", "--out", out]) == 0
        states = serialize._read_table(out / "states.csv", 2)
        assert len(states) == 900
        model = serialize.load_model(out / "swar.json")
        assert model.truncation == 5
        # meta comments and no header line, so a bare np.loadtxt reads it
        meta = (out / "posteriors.csv").read_text().splitlines()[:3]
        assert meta[0].startswith("# config_hash=") and meta[1] == "# seed=0"
        assert not meta[2].startswith("#")
        posteriors = np.loadtxt(out / "posteriors.csv", delimiter=",")
        assert posteriors.shape == (900, 5)
        assert np.allclose(posteriors.sum(axis=1), 1.0)


class TestClassifierCommands:
    def prepare(self, tmp_path):
        rng = np.random.default_rng(0)
        counts = np.vstack([rng.multinomial(100, [0.9, 0.1], size=30),
                            rng.multinomial(100, [0.1, 0.9], size=30)])
        labels = np.r_[np.ones(30, dtype=int), np.full(30, 2)]
        perm = rng.permutation(60)
        counts, labels = counts[perm], labels[perm]
        counts_path = tmp_path / "counts.csv"
        np.savetxt(counts_path, counts, delimiter=",", fmt="%d")
        labels_path = tmp_path / "labels.csv"
        t = np.arange(60, dtype=float)
        rows = "\n".join(f"{ti},{ui}" for ti, ui in zip(t, labels))
        labels_path.write_text("t,u\n" + rows + "\n")
        return counts_path, labels_path

    def test_train_then_classify(self, tmp_path):
        counts_path, labels_path = self.prepare(tmp_path)
        out = tmp_path / "model"
        assert run(["train-nb", counts_path, labels_path, "--out", out]) == 0
        assert run(["classify", out / "nb.json", counts_path,
                    "--out", tmp_path / "pred"]) == 0
        pred = serialize._read_table(tmp_path / "pred" / "predictions.csv", 3)
        truth = serialize.read_labels_csv(labels_path)
        agreement = (pred[:, 1].astype(int) == truth).mean()
        assert agreement > 0.95

    def test_classify_output_independent_of_model_location(self, tmp_path):
        counts_path, labels_path = self.prepare(tmp_path)
        assert run(["train-nb", counts_path, labels_path,
                    "--out", tmp_path / "model"]) == 0
        outputs = []
        for name in ("a", "b"):
            copy = tmp_path / name / "nb.json"
            copy.parent.mkdir()
            copy.write_bytes((tmp_path / "model" / "nb.json").read_bytes())
            assert run(["classify", copy, counts_path,
                        "--out", tmp_path / name / "pred"]) == 0
            outputs.append((tmp_path / name / "pred" / "predictions.csv").read_text())
        assert "# config_hash=" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_evaluate_report(self, tmp_path):
        counts_path, labels_path = self.prepare(tmp_path)
        out = tmp_path / "eval"
        assert run(["evaluate", counts_path, labels_path, "--folds", "5",
                    "--out", out]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["metrics"]["mean"]["ba"] > 0.9
        assert doc["metrics"]["strategy"] == "blocks"
        assert len(doc["metrics"]["folds"]) == 5
        # the CLI writes the library's report, nothing else
        train = functools.partial(context.nb_train, smoothing=doc["config"]["smoothing"])
        assert doc["metrics"] == metrics.kfold_cv(
            serialize.read_counts_csv(counts_path), serialize.read_labels_csv(labels_path),
            5, train, lambda model, c: context.nb_predict(model, c)[0])

    def test_evaluate_shuffled_baseline(self, tmp_path):
        counts_path, labels_path = self.prepare(tmp_path)
        out = tmp_path / "base"
        assert run(["evaluate", counts_path, labels_path, "--folds", "5",
                    "--baseline", "shuffled", "--out", out]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["baseline"] == "shuffled"
        assert doc["metrics"]["mean"]["ba"] < 0.8

    def test_evaluate_mean_ba_undefined_on_a_fold_is_null(self, tmp_path, capsys):
        # honest 2-fold BA is 1.0; shuffled, each fold predicts one class, so
        # its TP or TN and the mean BA are undefined, written as JSON null,
        # and stderr says so
        counts, labels = four_row_tables(tmp_path)
        out = tmp_path / "eval"
        assert run(["evaluate", counts, labels, "--folds", "2", "--out", out]) == 0
        assert capsys.readouterr().err == ""
        assert run(["evaluate", counts, labels, "--folds", "2", "--baseline", "shuffled",
                    "--name", "control.json", "--out", out]) == 0
        assert capsys.readouterr().err == (
            "warning: folds 1, 2 of 2 predict one class only, so their TP or TN is "
            "undefined; the mean and std of tp, tn, ba are null\n")
        ba = [json.loads((out / name).read_text())["metrics"]["mean"]["ba"]
              for name in ("report.json", "control.json")]
        assert ba == [1.0, None]
        assert '"ba": null' in (out / "control.json").read_text()

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_smoothing_exit_2(self, tmp_path, capsys, value):
        counts_path, labels_path = self.prepare(tmp_path)
        assert run(["train-nb", counts_path, labels_path, "--smoothing", value,
                    "--out", tmp_path / "model"]) == 2
        assert "smoothing must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "model" / "nb.json").exists()

    def test_smoothing_overflowing_its_denominator_exit_2(self, tmp_path, capsys):
        # K * smoothing is inf, so the message names smoothing, not the rows
        counts, labels = four_row_tables(tmp_path)
        assert run(["train-nb", counts, labels, "--smoothing", "1e308",
                    "--out", tmp_path / "model"]) == 2
        assert ("error: smoothing 1e+308 overflows with these counts: K * smoothing + "
                "a class's count total is not finite") in capsys.readouterr().err
        assert not (tmp_path / "model").exists()

    def test_infinite_smoothing_in_config_exit_2(self, tmp_path, capsys):
        counts_path, labels_path = self.prepare(tmp_path)
        config = tmp_path / "config.json"
        config.write_text('{"smoothing": Infinity}')
        assert run(["evaluate", counts_path, labels_path, "--folds", "5",
                    "--config", config, "--out", tmp_path / "eval"]) == 2
        assert "smoothing must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "report.json").exists()

    @pytest.mark.parametrize("command", ["train-nb", "classify", "evaluate"])
    def test_corrupt_counts_exit_2(self, tmp_path, capsys, command):
        counts_path, labels_path = self.prepare(tmp_path)
        assert run(["train-nb", counts_path, labels_path,
                    "--out", tmp_path / "model"]) == 0
        lines = counts_path.read_text().splitlines()
        lines[40] = "3,x"
        counts_path.write_text("# counts\n" + "\n".join(lines) + "\n")
        args = {"train-nb": [counts_path, labels_path],
                "classify": [tmp_path / "model" / "nb.json", counts_path],
                "evaluate": [counts_path, labels_path]}[command]
        capsys.readouterr()
        assert run([command, *args, "--out", tmp_path / "out"]) == 2
        assert "line 42: could not convert 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["-5,105", "nan,100", "100,inf"])
    @pytest.mark.parametrize("command", ["train-nb", "classify", "evaluate"])
    def test_negative_or_non_finite_counts_exit_2(self, tmp_path, capsys, command, row):
        counts_path, labels_path = self.prepare(tmp_path)
        assert run(["train-nb", counts_path, labels_path,
                    "--out", tmp_path / "model"]) == 0
        lines = counts_path.read_text().splitlines()
        lines[40] = row
        counts_path.write_text("# counts\n" + "\n".join(lines) + "\n")
        args = {"train-nb": [counts_path, labels_path],
                "classify": [tmp_path / "model" / "nb.json", counts_path],
                "evaluate": [counts_path, labels_path]}[command]
        capsys.readouterr()
        assert run([command, *args, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert f"{counts_path}, line 42: counts must be finite and non-negative" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train-nb", "evaluate"])
    def test_non_integer_labels_exit_2(self, tmp_path, capsys, command):
        counts_path, labels_path = self.prepare(tmp_path)
        text = labels_path.read_text().replace(",1\n", ",1.6\n").replace(",2\n", ",2.6\n")
        labels_path.write_text(text)
        capsys.readouterr()
        assert run([command, counts_path, labels_path, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert f"{labels_path}, line 2: labels must be 1 (adherence) or 2 (violation)" in err
        assert not (tmp_path / "out").exists()


class TestReproducibility:
    def test_synth_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            run(["synth", "--scenario", "switching-ar", "--duration", "10",
                 "--rate", "30", "--seed", "5", "--out", tmp_path / name])
        assert ((tmp_path / "a" / "feature.csv").read_bytes()
                == (tmp_path / "b" / "feature.csv").read_bytes())

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # null for lam and an int for a float field are valid values
        cfg.write_text(json.dumps({"kind": "balance", "seed": 9, "lam": None,
                                   "smoothing": 1}))
        raw_dir = tmp_path / "raw"
        run(["synth", "--scenario", "gravity-drift", "--duration", "4",
             "--rate", "120", "--out", raw_dir])
        out_a = tmp_path / "a"
        assert run(["preprocess", raw_dir / "raw.csv", "--config", cfg,
                    "--out", out_a]) == 0
        series = serialize.read_scalar_csv(out_a / "feature.csv")
        assert series.rate == pytest.approx(120.0, rel=0.01)  # balance recipe
        # flag wins over the file
        out_b = tmp_path / "b"
        assert run(["preprocess", raw_dir / "raw.csv", "--config", cfg,
                    "--kind", "walking", "--out", out_b]) == 0
        walked = serialize.read_scalar_csv(out_b / "feature.csv")
        assert walked.rate == pytest.approx(30.0, rel=0.01)

    def test_config_is_a_subcommand_option(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9}))
        with pytest.raises(SystemExit) as info:
            run(["--config", cfg, "synth", "--duration", "4", "--out", tmp_path / "a"])
        assert info.value.code == 2
        assert not (tmp_path / "a").exists()
        assert run(["synth", "--duration", "4", "--config", cfg,
                    "--out", tmp_path / "b"]) == 0
        assert run(["synth", "--duration", "4", "--seed", "9",
                    "--out", tmp_path / "c"]) == 0
        assert ((tmp_path / "b" / "feature.csv").read_bytes()
                == (tmp_path / "c" / "feature.csv").read_bytes())

    def test_walking_feature_same_at_any_blas_thread_count(self, tmp_path):
        # 600 s at 120 Hz resamples to 72,000 samples, so the trend filter
        # solves on 18,000 knots. OpenBLAS splits a dot product that long
        # across its threads; at 6,000 knots it rounds the same at 1 and 2
        # threads, so a shorter input would not see a sum through BLAS
        run(["synth", "--scenario", "gravity-drift", "--duration", "600",
             "--rate", "120", "--out", tmp_path])
        features = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            run_at_blas_threads(threads, ["preprocess", tmp_path / "raw.csv",
                                          "--kind", "walking", "--out", out])
            features.append((out / "feature.csv").read_bytes())
        assert features[0] == features[1]

    def test_switching_ar_same_at_any_blas_thread_count(self, tmp_path):
        # at kappa 20 the later sweeps have closed states, which the backward
        # filter leaves out and which get their start weights in closed form
        run(["synth", "--scenario", "switching-ar", "--out", tmp_path])
        artifacts = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            run_at_blas_threads(threads, ["segment-ar", tmp_path / "feature.csv",
                                          "--kappa", "20", "--sweeps", "12",
                                          "--burn-in", "6", "--out", out])
            artifacts.append([(out / name).read_bytes()
                              for name in ("swar.json", "states.csv", "posteriors.csv")])
        assert artifacts[0] == artifacts[1]


class TestExitCodes:
    @pytest.mark.parametrize("case", ["preprocess directory", "classify directory",
                                      "config directory", "out is a file",
                                      "csv header not utf-8", "csv row not utf-8",
                                      "config not utf-8", "model not utf-8"])
    def test_unreadable_input_exit_2(self, tmp_path, capsys, case):
        folder, out = tmp_path / "folder", tmp_path / "out"
        folder.mkdir()
        synth = ["synth", "--scenario", "two-cluster", "--duration", "4"]
        bad = tmp_path / "bad"
        rows = "".join(f"{i / 10},0.5\n" for i in range(3000))
        argv, named = {
            "preprocess directory": (["preprocess", folder, "--kind", "walking",
                                      "--out", out], folder),
            "classify directory": (["classify", folder, bad, "--out", out], folder),
            "config directory": (synth + ["--config", folder, "--out", out], folder),
            "out is a file": (synth + ["--out", bad], bad),
            "csv header not utf-8": (["segment-gmm", bad, "--out", out], bad),
            "csv row not utf-8": (["segment-gmm", bad, "--out", out], bad),
            "config not utf-8": (synth + ["--config", bad, "--out", out], bad),
            "model not utf-8": (["classify", bad, folder, "--out", out], bad),
        }[case]
        bad.write_bytes({
            "csv header not utf-8": b"t,\xffv\n" + rows.encode(),
            # beyond the first block the header scan decodes
            "csv row not utf-8": ("t,v\n" + rows).encode() + b"300.0,0\xff\n",
            "config not utf-8": b'{"kind": "balanc\xe9"}',
            "model not utf-8": b'{"format": "clinqc-model\xff"}',
        }.get(case, b"t,v\n0,1\n"))
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(named) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "spectrum"])
    def test_path_through_a_file_exit_2(self, tmp_path, capsys, command):
        regular = tmp_path / "f.csv"
        regular.write_text("t,v\n0,1\n")
        argv, named = {
            "synth": (["synth", "--duration", "4", "--out", regular / "sub"], regular / "sub"),
            "spectrum": (["spectrum", regular / "x", "--out", tmp_path / "out"], regular / "x"),
        }[command]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Not a directory" in err and str(named) in err

    @pytest.mark.parametrize("case", ["name too long", "symlink loop"])
    def test_any_os_error_on_a_path_exit_2(self, tmp_path, capsys, case):
        path, code = {"name too long": (tmp_path / ("x" * 5000), errno.ENAMETOOLONG),
                      "symlink loop": (tmp_path / "loop.csv", errno.ELOOP)}[case]
        if case == "symlink loop":
            path.symlink_to(path)
        assert run(["segment-gmm", path, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and os.strerror(code) in err and str(path) in err
        assert not (tmp_path / "out").exists()

    def test_permission_denied_exit_2(self, tmp_path, capsys, monkeypatch):
        # the tests may run as root, who may write anywhere, so mkdir is patched
        def denied(self, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

        monkeypatch.setattr(Path, "mkdir", denied)
        assert run(["synth", "--duration", "4", "--out", tmp_path / "locked"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / "locked") in err

    def test_too_many_synth_samples_exit_2(self, tmp_path, capsys):
        assert run(["synth", "--scenario", "two-cluster", "--duration", "1e9",
                    "--out", tmp_path / "out"]) == 2
        assert "1e+09 s at 30 Hz is more than 100000000 samples" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["synth", "--seed", "-1"],
        ["segment-gmm", "feature.csv", "--seed", "-1"],
        ["segment-ar", "feature.csv", "--config", "seed.json"],
        ["evaluate", "counts.csv", "labels.csv", "--seed", "-2"],
    ])
    def test_negative_seed_exit_2(self, tmp_path, capsys, argv):
        # the check comes before any input is read, so none need exist
        (tmp_path / "seed.json").write_text('{"seed": -3}')
        argv = [tmp_path / a if a.endswith((".csv", ".json")) else a for a in argv]
        assert run(argv + ["--out", tmp_path / "out"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_corrupt_row_exit_2(self, tmp_path, capsys):
        path = tmp_path / "raw.csv"
        rows = [f"{i / 120:.6f},0.1,0.2,9.8" for i in range(600)]
        rows[300] = "0.0x2,7,8,9"
        path.write_text("t,x,y,z\n" + "\n".join(rows) + "\n")
        assert run(["preprocess", path, "--kind", "walking",
                    "--out", tmp_path / "feat"]) == 2
        assert "0.0x2" in capsys.readouterr().err
        assert not (tmp_path / "feat" / "feature.csv").exists()

    def test_non_increasing_timestamps_exit_2(self, tmp_path, capsys):
        path = tmp_path / "raw.csv"
        rows = [f"{i / 120:.6f},0.1,0.2,9.8" for i in range(600)]
        rows[300] = rows[299].replace("0.1,", "0.3,", 1)
        path.write_text("t,x,y,z\n" + "\n".join(rows) + "\n")
        assert run(["preprocess", path, "--kind", "walking",
                    "--out", tmp_path / "feat"]) == 2
        assert "timestamps must be strictly increasing" in capsys.readouterr().err
        assert not (tmp_path / "feat" / "feature.csv").exists()

    @staticmethod
    def raw_with_hole(tmp_path, start, length):
        """A jittered 20-s, 120-Hz recording without its rows in
        [start, start + length) s, the file line after the hole (line 1 is
        the header) and the hole's length in seconds."""
        spec = SynthSpec(scenario="gravity-drift", duration=20.0, rate=120.0,
                         jitter=0.3, seed=0)
        raw, _, _ = synth.gen_gravity_drift(spec)
        keep = (raw.timestamps < start) | (raw.timestamps >= start + length)
        path = tmp_path / "raw.csv"
        serialize.write_table(path, "t,x,y,z",
                              np.column_stack([raw.timestamps, raw.samples])[keep])
        t = raw.timestamps[keep]
        after = int(np.argmax(t >= start))
        return path, after + 2, t[after] - t[after - 1]

    @pytest.mark.parametrize("kind", ["walking", "balance"])
    @pytest.mark.parametrize("length", [10.0, 2.0])
    def test_hole_in_timestamps_exit_2(self, tmp_path, capsys, kind, length):
        # the spline would otherwise invent the signal across the hole
        path, line, hole = self.raw_with_hole(tmp_path, 5.0, length)
        assert run(["preprocess", path, "--kind", kind,
                    "--out", tmp_path / "feat"]) == 2
        assert (f"{path}, line {line}: a {hole:g}-s hole before this row; "
                "steps over 1 s are not interpolated") in capsys.readouterr().err
        assert not (tmp_path / "feat").exists()

    def test_short_hole_is_interpolated(self, tmp_path):
        path, _, _ = self.raw_with_hole(tmp_path, 5.0, 0.5)
        assert run(["preprocess", path, "--kind", "walking",
                    "--out", tmp_path / "feat"]) == 0

    def test_non_increasing_timestamp_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "raw.csv"
        rows = [f"{i / 120:.6f},0.1,0.2,9.8" for i in range(600)]
        rows[300] = rows[299]
        path.write_text("t,x,y,z\n" + "\n".join(rows) + "\n")
        assert run(["preprocess", path, "--kind", "walking",
                    "--out", tmp_path / "feat"]) == 2
        assert (f"{path}, line 302: timestamps must be strictly increasing"
                in capsys.readouterr().err)

    def test_walking_too_short_to_filter_exit_2(self, tmp_path, capsys):
        path = tmp_path / "raw.csv"
        rows = [f"{i / 120:.6f},0.1,{0.2 + 0.01 * i:.2f},9.8" for i in range(10)]
        path.write_text("t,x,y,z\n" + "\n".join(rows) + "\n")
        assert run(["preprocess", path, "--kind", "walking",
                    "--out", tmp_path / "feat"]) == 2
        assert "low-pass filtering needs more than 15 samples, got 10" in capsys.readouterr().err
        assert not (tmp_path / "feat" / "feature.csv").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"kind": "balance", "windw_seconds": 3}', "windw_seconds"),
        ('{"kind": "balance",', "not valid JSON"),
        ('["kind", "balance"]', "JSON object"),
        ('{"window_seconds": "2"}', "window_seconds"),
        ('{"seed": 1.5}', "seed"),
        ('{"seed": true}', "seed"),
        ('{"sweeps": "10"}', "sweeps"),
        ('{"kind": "jogging"}', "kind"),
        ('{"lam": "auto"}', "lam"),
        # recipe constants, not settings
        ('{"target_rate": 120.0}', "unknown config key(s) target_rate"),
        ('{"cutoff": 15.0}', "unknown config key(s) cutoff"),
        ('{"decimation": 4}', "unknown config key(s) decimation"),
        ('{"energy_window": 441}', "unknown config key(s) energy_window"),
        ('{"alpha": 1.0}', "unknown config key(s) alpha"),
        ('{"gamma": 1.0}', "unknown config key(s) gamma"),
    ])
    def test_bad_config_file_exit_2(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run(["synth", "--scenario", "two-cluster", "--duration", "4",
                    "--config", cfg, "--out", tmp_path]) == 2
        assert message in capsys.readouterr().err

    def test_classify_non_nb_artifact_exit_2(self, tmp_path, capsys):
        run(["synth", "--scenario", "two-cluster", "--duration", "60",
             "--rate", "10", "--out", tmp_path / "data"])
        run(["segment-gmm", tmp_path / "data" / "feature.csv", "--kind", "voice",
             "--out", tmp_path / "seg"])
        counts = tmp_path / "counts.csv"
        np.savetxt(counts, np.ones((5, 2)), delimiter=",", fmt="%d")
        assert run(["classify", tmp_path / "seg" / "gmm.json", counts,
                    "--out", tmp_path / "pred"]) == 2
        assert "naive-Bayes" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "not json",
        "[1, 2]",
        '{"format": "clinqc-model", "version": 1, "payload": {}}',
        '{"format": "clinqc-model", "version": 1, "kind": "gmm",'
        ' "payload": {"means": [0, 1], "weights": [0.5, 0.5]}}',
        '{"format": "clinqc-model", "version": 1, "kind": "naive-bayes",'
        ' "payload": {"attribute_probs": [[0.5, 0.5], [0.5, 0.5]],'
        ' "priors": [0.5, 0.5], "seen": [1, 1], "smoothing": 1.0,'
        ' "temperature": 2.0}}',
        '{"format": "clinqc-model", "version": 1, "kind": "naive-bayes",'
        ' "payload": {"attribute_probs": [[0.5, 0.5], [0.5, 0.5]],'
        ' "priors": [NaN, NaN], "seen": [1, 1], "smoothing": 1.0}}',
        '{"format": "clinqc-model", "version": 1, "kind": "naive-bayes",'
        ' "payload": {"attribute_probs": [[0.5, 0.5], [0.5, 0.5]],'
        ' "priors": [0.5, 0.5], "seen": [1], "smoothing": 1.0}}',
    ], ids=["not-json", "json-list", "no-kind", "gmm-missing-field",
            "unknown-field", "nan-priors", "short-seen"])
    def test_malformed_model_artifact_exit_2(self, tmp_path, capsys, text):
        model = tmp_path / "nb.json"
        model.write_text(text)
        counts = tmp_path / "counts.csv"
        np.savetxt(counts, np.ones((5, 2)), delimiter=",", fmt="%d")
        assert run(["classify", model, counts, "--out", tmp_path / "pred"]) == 2
        assert str(model) in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lambda_exit_2(self, tmp_path, capsys, value):
        raw_dir = tmp_path / "raw"
        run(["synth", "--scenario", "gravity-drift", "--duration", "4",
             "--rate", "120", "--out", raw_dir])
        capsys.readouterr()
        assert run(["preprocess", raw_dir / "raw.csv", "--kind", "walking",
                    "--lambda", value, "--out", tmp_path / "feat"]) == 2
        assert "lambda must be finite" in capsys.readouterr().err

    def test_lambda_overflowing_the_objective_exit_3(self, tmp_path, capsys):
        run(["synth", "--scenario", "gravity-drift", "--duration", "6",
             "--rate", "120", "--out", tmp_path / "raw"])
        capsys.readouterr()
        assert run(["preprocess", tmp_path / "raw" / "raw.csv", "--kind", "walking",
                    "--lambda", "1e308", "--out", tmp_path / "feat"]) == 3
        assert ("runtime error: trend filter objective is not finite: the values are too "
                "large to square, or lambda * sum |D g| overflows at lambda = 1e+308"
                in capsys.readouterr().err)
        assert not (tmp_path / "feat").exists()

    @pytest.mark.parametrize("kind", ["balance", "voice"])
    def test_nan_lambda_checked_before_reading_exit_2(self, tmp_path, capsys, kind):
        # voice never filters a trend, and the file is never read
        assert run(["preprocess", tmp_path / "missing.csv", "--kind", kind,
                    "--lambda", "nan", "--out", tmp_path / "feat"]) == 2
        assert "lambda must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_non_finite_classify_rate_exit_2(self, tmp_path, capsys, value):
        counts, labels = four_row_tables(tmp_path)
        assert run(["train-nb", counts, labels, "--out", tmp_path]) == 0
        capsys.readouterr()
        assert run(["classify", tmp_path / "nb.json", counts, "--rate", value,
                    "--out", tmp_path / "pred"]) == 2
        assert "rate must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "pred").exists()

    def test_infinite_audio_rate_exit_2(self, tmp_path, capsys):
        audio = tmp_path / "audio.csv"
        audio.write_text("t,v\n" + "".join(f"{i / 44_100},{(-1) ** i * 0.1}\n"
                                             for i in range(4410)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"audio_rate": float("inf")}))
        assert "Infinity" in cfg.read_text()
        assert run(["preprocess", audio, "--kind", "voice", "--config", cfg,
                    "--out", tmp_path / "feat"]) == 2
        assert "rate must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "feat" / "feature.csv").exists()

    def test_audio_with_three_columns_exit_2(self, tmp_path, capsys):
        audio = tmp_path / "audio.csv"
        audio.write_text("t,v\n" + "".join(f"{i / 44_100},0.1,0.2\n" for i in range(882)))
        assert run(["preprocess", audio, "--kind", "voice",
                    "--out", tmp_path / "feat"]) == 2
        assert "expected 2 columns, got shape (882, 3)" in capsys.readouterr().err
        assert not (tmp_path / "feat" / "feature.csv").exists()

    @pytest.mark.parametrize("command", ["segment-gmm", "spectrum", "train-nb"])
    def test_time_column_not_advancing_exit_2(self, tmp_path, capsys, command):
        # a constant time column: the median step is 0
        table = tmp_path / "table.csv"
        table.write_text("t,v\n" + "".join(f"0,{i % 2 + 1}\n" for i in range(100)))
        counts = tmp_path / "counts.csv"
        np.savetxt(counts, np.ones((100, 2)), delimiter=",", fmt="%d")
        args = {"segment-gmm": [table, "--kind", "voice"], "spectrum": [table],
                "train-nb": [counts, table]}[command]
        assert run([command, *args, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert f"{table}: the time column must advance" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["hole", "step back"])
    def test_feature_off_its_time_grid_exit_2(self, tmp_path, capsys, case):
        # the rate comes from the median step, so the rows after a 60-s hole
        # or a step back would otherwise be shifted onto the wrong times
        series, _ = synth.gen_two_cluster(SynthSpec(scenario="two-cluster",
                                                    duration=180.0, rate=30.0))
        rows = np.column_stack([series.times, series.values])
        if case == "hole":
            rows = np.delete(rows, slice(1800, 3600), axis=0)
        else:
            rows[1800, 0] = rows[1799, 0] - 1.0
        feature = tmp_path / "feature.csv"
        serialize.write_table(feature, "t,v", rows)
        assert run(["segment-gmm", feature, "--kind", "voice",
                    "--out", tmp_path / "out"]) == 2
        step = rows[1800, 0] - rows[1799, 0]
        assert (f"{feature}, line 1802: a {step:g}-s time step before this row"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train-nb", "evaluate"])
    @pytest.mark.parametrize("times, line, step", [("0 1 2 60", 5, "58"),
                                                   ("0 1 0.5 3", 4, "-0.5")],
                             ids=["hole", "step back"])
    def test_labels_off_their_time_grid_exit_2(self, tmp_path, capsys, command,
                                               times, line, step):
        # labels are matched to counts by row, so a label table that lost or
        # reordered rows is rejected like a feature, at its file line
        counts = tmp_path / "counts.csv"
        counts.write_text("3,0\n0,3\n2,1\n1,2\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("t,u\n" + "".join(f"{t},{1 + i % 2}\n"
                                            for i, t in enumerate(times.split())))
        args = ["--folds", "2"] if command == "evaluate" else []
        assert run([command, counts, labels, *args, "--out", tmp_path / "out"]) == 2
        assert (f"{labels}, line {line}: a {step}-s time step before this row; "
                f"the grid steps 1 s" in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        feature = tmp_path / "feature.csv"
        feature.write_text("t,v\n" + "".join(f"{i / 10},1.0\n" for i in range(100)))
        assert run(["segment-gmm", feature, "--kind", "voice",
                    "--out", tmp_path / "seg"]) == 3
        assert "runtime error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "1e300", "0", "-1"])
    def test_bad_window_seconds_exit_2(self, tmp_path, capsys, value):
        run(["synth", "--scenario", "two-cluster", "--duration", "60",
             "--rate", "10", "--out", tmp_path / "data"])
        capsys.readouterr()
        assert run(["segment-gmm", tmp_path / "data" / "feature.csv", "--kind", "voice",
                    "--window-seconds", value, "--out", tmp_path / "seg"]) == 2
        assert "window_seconds must be positive" in capsys.readouterr().err
        assert not (tmp_path / "seg" / "labels.csv").exists()

    def test_nan_kappa_exit_2(self, tmp_path, capsys):
        run(["synth", "--scenario", "switching-ar", "--duration", "10",
             "--rate", "30", "--out", tmp_path / "data"])
        capsys.readouterr()
        assert run(["segment-ar", tmp_path / "data" / "feature.csv", "--order", "1",
                    "--truncation", "2", "--sweeps", "2", "--burn-in", "1",
                    "--kappa", "nan", "--out", tmp_path / "seg"]) == 2
        assert "kappa must be finite and >= 0, got nan" in capsys.readouterr().err
        assert not (tmp_path / "seg" / "swar.json").exists()

    @pytest.mark.parametrize("sweeps", ["10", "0"])
    def test_no_kept_sweep_exit_2(self, tmp_path, capsys, sweeps):
        run(["synth", "--scenario", "switching-ar", "--duration", "10",
             "--rate", "30", "--out", tmp_path / "data"])
        capsys.readouterr()
        assert run(["segment-ar", tmp_path / "data" / "feature.csv", "--order", "1",
                    "--truncation", "2", "--sweeps", sweeps, "--burn-in", sweeps,
                    "--out", tmp_path / "seg"]) == 2
        assert "burn_in must lie in [0, sweeps)" in capsys.readouterr().err
        assert not (tmp_path / "seg").exists()

    @pytest.mark.parametrize("truncation", ["1", "0", "-3"])
    def test_truncation_below_two_exit_2(self, tmp_path, capsys, truncation):
        run(["synth", "--scenario", "switching-ar", "--duration", "10",
             "--rate", "30", "--out", tmp_path / "data"])
        capsys.readouterr()
        assert run(["segment-ar", tmp_path / "data" / "feature.csv", "--order", "1",
                    "--truncation", truncation, "--sweeps", "2", "--burn-in", "1",
                    "--out", tmp_path / "seg"]) == 2
        assert "truncation must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "seg").exists()

    @pytest.mark.parametrize("truncation", ["300", "1000000000"])
    def test_truncation_beyond_modelled_points_exit_2(self, tmp_path, capsys, truncation):
        # 10 s at 30 Hz is 300 points, 299 of them modelled at order 1
        run(["synth", "--scenario", "switching-ar", "--duration", "10",
             "--rate", "30", "--out", tmp_path / "data"])
        capsys.readouterr()
        assert run(["segment-ar", tmp_path / "data" / "feature.csv", "--order", "1",
                    "--truncation", truncation, "--sweeps", "2", "--burn-in", "1",
                    "--out", tmp_path / "seg"]) == 2
        assert (f"truncation must be at most the 299 modelled points, got {truncation}"
                in capsys.readouterr().err)
        assert not (tmp_path / "seg").exists()

    @pytest.mark.parametrize("sweeps", ["10000000000000000000", "2000000000000000000"])
    def test_sweeps_beyond_numpy_sizes_exit_2(self, tmp_path, capsys, sweeps):
        # np.empty(sweeps) would raise ValueError, not MemoryError, here
        run(["synth", "--scenario", "switching-ar", "--duration", "10",
             "--rate", "30", "--out", tmp_path / "data"])
        capsys.readouterr()
        assert run(["segment-ar", tmp_path / "data" / "feature.csv", "--order", "1",
                    "--sweeps", sweeps, "--out", tmp_path / "seg"]) == 2
        assert (f"sweeps must be at most {swar.MAX_SWEEPS}, got {sweeps}"
                in capsys.readouterr().err)
        assert not (tmp_path / "seg").exists()

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 7.28 TiB", "Unable to allocate 7.28 TiB"),
        ("", "MemoryError")])
    def test_out_of_memory_exit_3(self, tmp_path, capsys, monkeypatch, message, shown):
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(swar, "fit", out_of_memory)
        code, err = self.segment_ar_exit_code(tmp_path, capsys)
        assert code == 3
        assert f"runtime error: {shown}" in err

    @pytest.mark.parametrize("flags", [["--duration", "nan"], ["--duration", "inf"],
                                       ["--rate", "nan"], ["--rate", "inf"]],
                             ids=["duration-nan", "duration-inf", "rate-nan",
                                  "rate-inf"])
    def test_non_finite_synth_size_exit_2(self, tmp_path, capsys, flags):
        assert run(["synth", "--scenario", "two-cluster", *flags,
                    "--out", tmp_path]) == 2
        assert "rate and duration must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "feature.csv").exists()

    @pytest.mark.parametrize("scenario", list(synth.SCENARIOS))
    def test_synth_without_samples_exit_2(self, tmp_path, capsys, scenario):
        assert run(["synth", "--scenario", scenario, "--duration", "0.1",
                    "--rate", "1", "--out", tmp_path / "out"]) == 2
        assert "0.1 s at 1 Hz rounds to 0 samples" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_synth_generation_failure_leaves_no_directory(self, tmp_path, capsys):
        # one sample passes the spec but not the AR(1) generator
        assert run(["synth", "--scenario", "switching-ar", "--duration", "1",
                    "--rate", "1", "--out", tmp_path / "out"]) == 2
        assert "length must exceed the AR order" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def segment_ar_exit_code(self, tmp_path, capsys):
        run(["synth", "--scenario", "switching-ar", "--duration", "10",
             "--rate", "30", "--out", tmp_path / "data"])
        capsys.readouterr()
        code = run(["segment-ar", tmp_path / "data" / "feature.csv", "--order", "1",
                    "--truncation", "2", "--sweeps", "2", "--burn-in", "1",
                    "--out", tmp_path / "seg"])
        return code, capsys.readouterr().err

    def test_swar_non_finite_loglik_exit_3(self, tmp_path, capsys, monkeypatch):
        loglik_matrix = swar._loglik_matrix

        def with_nan_row(model, X, y):
            out = loglik_matrix(model, X, y)
            out[:, 5] = np.nan
            return out

        monkeypatch.setattr(swar, "_loglik_matrix", with_nan_row)
        code, err = self.segment_ar_exit_code(tmp_path, capsys)
        assert code == 3
        assert "runtime error: emission likelihoods are not finite" in err

    def test_swar_message_underflow_exit_3(self, tmp_path, capsys, monkeypatch):
        # every state moves to state 0, whose tiny innovation variance gives
        # the data zero likelihood: the backward messages vanish
        initial_model = swar.initial_model

        def absorbing_chain(data, **settings):
            model = initial_model(data, **settings)
            return replace(model, transitions=np.array([[1.0, 0.0], [1.0, 0.0]]),
                           states=[replace(model.states[0], variance=1e-6),
                                   model.states[1]])

        monkeypatch.setattr(swar, "initial_model", absorbing_chain)
        code, err = self.segment_ar_exit_code(tmp_path, capsys)
        assert code == 3
        assert "runtime error: backward message underflowed" in err


def scipy_modules_after(every_subcommand, out, *groups):
    """The scipy modules a fresh interpreter holds after it imports the CLI
    and runs the recipe ``groups`` of ``tools/every_subcommand.py`` in ``out``."""
    code = """
import runpy, sys
from pathlib import Path
from clinqc import cli
script = runpy.run_path(sys.argv[1])

def run(argv):
    assert cli.main(argv) == 0, argv

for group in sys.argv[3:]:
    script[group](Path(sys.argv[2]), run)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    stdout = run_in_new_interpreter(code, every_subcommand["__file__"], out, *groups)
    return stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_scipy(tmp_path, every_subcommand):
    # scipy is imported on first use, so commands that never resample,
    # filter or trend-filter do not pay for it at start-up
    assert scipy_modules_after(every_subcommand, tmp_path) == "[]"


def test_walking_and_balance_pipelines_load_only_scipy_linalg(tmp_path, every_subcommand):
    # the spline, the trend filter and the Butterworth filter run on the
    # LAPACK and BLAS routines of scipy.linalg; scipy.signal, interpolate,
    # sparse and the rest stay unloaded
    loaded = ast.literal_eval(scipy_modules_after(every_subcommand, tmp_path,
                                                  "accelerometer"))
    internals = {"scipy", "scipy.__config__", "scipy._distributor_init",
                 "scipy._cyutility", "scipy.version"}
    assert "scipy.linalg" in loaded
    assert [m for m in loaded if m not in internals
            and m.split(".")[:2] not in (["scipy", "_lib"], ["scipy", "linalg"])] == []
    assert (tmp_path / "walking" / "labels.csv").exists()
    assert (tmp_path / "balance" / "labels.csv").exists()


def test_voice_and_field_pipelines_load_no_scipy(tmp_path, every_subcommand):
    # a cold scipy import costs start-up time and tens of MB of peak memory,
    # so the voice and switching-AR paths keep to numpy
    assert scipy_modules_after(every_subcommand, tmp_path, "audio", "field") == "[]"
    assert (tmp_path / "voice" / "labels.csv").exists()
    assert (tmp_path / "eval" / "report.json").exists()
