import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import clinqc
from clinqc import serialize, swar
from clinqc.cli import main


def run(args):
    return main([str(a) for a in args])


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
        assert set(np.unique(labels.labels)) == {1, 2}

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
        agreement = (pred[:, 1].astype(int) == truth.labels).mean()
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

    def test_evaluate_shuffled_baseline(self, tmp_path):
        counts_path, labels_path = self.prepare(tmp_path)
        out = tmp_path / "base"
        assert run(["evaluate", counts_path, labels_path, "--folds", "5",
                    "--baseline", "shuffled", "--out", out]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["baseline"] == "shuffled"
        assert doc["metrics"]["mean"]["ba"] < 0.8

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


class TestExitCodes:
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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_classify_rate_exit_2(self, tmp_path, capsys, value):
        counts, labels = tmp_path / "counts.csv", tmp_path / "labels.csv"
        np.savetxt(counts, [[3, 0], [0, 3], [2, 1], [1, 2]], delimiter=",", fmt="%d")
        labels.write_text("t,u\n0,1\n1,2\n2,1\n3,2\n")
        assert run(["train-nb", counts, labels, "--out", tmp_path]) == 0
        capsys.readouterr()
        assert run(["classify", tmp_path / "nb.json", counts, "--rate", value,
                    "--out", tmp_path / "pred"]) == 2
        assert "rate must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "pred" / "predictions.csv").exists()

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
        assert "need finite alpha > 0, gamma > 0, kappa >= 0" in capsys.readouterr().err
        assert not (tmp_path / "seg" / "swar.json").exists()

    @pytest.mark.parametrize("flags", [["--duration", "nan"], ["--rate", "nan"],
                                       ["--rate", "inf"]],
                             ids=["duration-nan", "rate-nan", "rate-inf"])
    def test_non_finite_synth_size_exit_2(self, tmp_path, capsys, flags):
        assert run(["synth", "--scenario", "two-cluster", *flags,
                    "--out", tmp_path]) == 2
        assert "rate and duration must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "feature.csv").exists()

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
            out[5] = np.nan
            return out

        monkeypatch.setattr(swar, "_loglik_matrix", with_nan_row)
        code, err = self.segment_ar_exit_code(tmp_path, capsys)
        assert code == 3
        assert "runtime error: emission likelihoods are not finite" in err

    def test_swar_message_underflow_exit_3(self, tmp_path, capsys, monkeypatch):
        # every state moves to state 0, whose tiny innovation variance gives
        # the data zero likelihood: the backward messages vanish
        initial_model = swar.initial_model

        def absorbing_chain(data, config):
            model = initial_model(data, config)
            return replace(model, transitions=np.array([[1.0, 0.0], [1.0, 0.0]]),
                           states=[replace(model.states[0], variance=1e-6),
                                   model.states[1]])

        monkeypatch.setattr(swar, "initial_model", absorbing_chain)
        code, err = self.segment_ar_exit_code(tmp_path, capsys)
        assert code == 3
        assert "runtime error: backward message underflowed" in err


def test_cli_import_loads_no_scipy():
    # scipy is imported on first use, so commands that never resample,
    # filter or trend-filter do not pay for it at start-up
    code = ("import sys, clinqc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(clinqc.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert done.stdout.strip() == "[]"
