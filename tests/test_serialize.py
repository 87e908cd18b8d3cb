import dataclasses
import json
import warnings

import numpy as np
import pytest

from clinqc import serialize
from clinqc.context import NaiveBayesModel
from clinqc.errors import ValidationError
from clinqc.gmm import GmmParams
from clinqc.series import AdherenceLabels, ScalarSeries, SpectrumEstimate
from clinqc.swar import ArState, SwitchingArModel


class TestConfigHash:
    def test_key_order_invariant(self):
        assert (serialize.config_hash({"a": 1, "b": 2})
                == serialize.config_hash({"b": 2, "a": 1}))

    def test_value_sensitivity(self):
        assert (serialize.config_hash({"a": 1})
                != serialize.config_hash({"a": 2}))


class TestCsvRoundTrips:
    def test_scalar_series(self, tmp_path):
        series = ScalarSeries(rate=30.0, values=np.array([0.5, -1.25, 3.0, 0.0]))
        path = tmp_path / "scalar.csv"
        serialize.write_scalar_csv(path, series, meta={"seed": 0})
        back = serialize.read_scalar_csv(path)
        assert back.rate == pytest.approx(30.0)
        assert np.allclose(back.values, series.values)

    def test_meta_comments_skipped(self, tmp_path):
        series = ScalarSeries(rate=10.0, values=np.arange(5, dtype=float))
        path = tmp_path / "scalar.csv"
        serialize.write_scalar_csv(path, series,
                                   meta={"config_hash": "abc", "seed": 3})
        text = path.read_text()
        assert text.startswith("# config_hash=abc\n# seed=3\n")
        assert len(serialize.read_scalar_csv(path)) == 5

    def test_accelerometer(self, tmp_path):
        path = tmp_path / "acc.csv"
        path.write_text("t,x,y,z\n0,1,2,3\n0.01,4,5,6\n")
        rec = serialize.read_accelerometer_csv(path)
        assert rec.samples.shape == (2, 3)
        assert rec.timestamps[1] == pytest.approx(0.01)

    def test_audio(self, tmp_path):
        path = tmp_path / "audio.csv"
        path.write_text("t,v\n0,0.1\n1,0.2\n")
        series = serialize.read_audio_csv(path, rate=8000.0)
        assert series.rate == 8000.0
        assert series.values.tolist() == [0.1, 0.2]

    def test_labels_with_confidence(self, tmp_path):
        labels = AdherenceLabels(rate=2.0, labels=np.array([1, 2, 2]))
        path = tmp_path / "labels.csv"
        serialize.write_labels_csv(path, labels,
                                   confidence=np.array([0.9, 0.8, 0.7]))
        assert "t,u,confidence" in path.read_text()

    def test_labels_roundtrip(self, tmp_path):
        labels = AdherenceLabels(rate=4.0, labels=np.array([1, 1, 2, 1]))
        path = tmp_path / "labels.csv"
        serialize.write_labels_csv(path, labels)
        back = serialize.read_labels_csv(path)
        assert back.rate == pytest.approx(4.0)
        assert np.array_equal(back.labels, labels.labels)

    def test_spectrum(self, tmp_path):
        spec = SpectrumEstimate(frequencies=np.array([0.0, 1.0]),
                                power=np.array([2.0, 0.5]))
        path = tmp_path / "spec.csv"
        serialize.write_spectrum_csv(path, spec)
        assert serialize._read_table(path, 2)[1, 1] == pytest.approx(0.5)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,v\n0,1,2\n")
        with pytest.raises(ValidationError):
            serialize.read_scalar_csv(path)


class TestStrictReader:
    def test_corrupt_middle_row_rejected(self, tmp_path):
        path = tmp_path / "acc.csv"
        path.write_text("t,x,y,z\n0.0,1,2,3\n0.0x2,7,8,9\n0.02,4,5,6\n")
        with pytest.raises(ValidationError, match="0.0x2"):
            serialize.read_accelerometer_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "scalar.csv"
        path.write_text("t,v\n0,1\n1\n2,3\n")
        with pytest.raises(ValidationError):
            serialize.read_scalar_csv(path)

    @pytest.mark.parametrize("text, line", [
        ("# seed=0\nt,v\n0,1\n1,2\n2,3\n3,x\n", "line 6: could not convert 'x'"),
        ("t,v\n0,1\n\n# note\n1,2,3\n", "line 5: expected 2 values, got 3"),
        ("0,1\n1,1_0\n", "line 2: could not convert '1_0'"),
    ])
    def test_error_names_file_line(self, tmp_path, text, line):
        path = tmp_path / "scalar.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=line):
            serialize.read_scalar_csv(path)

    def test_headerless_numeric_file(self, tmp_path):
        path = tmp_path / "audio.csv"
        path.write_text("0,0.5\n1,0.25\n2,-1\n")
        series = serialize.read_audio_csv(path)
        assert series.values.tolist() == [0.5, 0.25, -1.0]

    def test_comments_blank_lines_and_header(self, tmp_path):
        path = tmp_path / "scalar.csv"
        path.write_text("\n# config_hash=abc\n\n# seed=0\nt,v\n"
                        "0,1\n# inline block comment\n0.5,2  # trailing\n\n1,3\n")
        series = serialize.read_scalar_csv(path)
        assert series.values.tolist() == [1.0, 2.0, 3.0]
        assert series.rate == pytest.approx(2.0)

    def test_only_one_header_line_skipped(self, tmp_path):
        path = tmp_path / "scalar.csv"
        path.write_text("t,v\ntime,value\n0,1\n1,2\n")
        with pytest.raises(ValidationError):
            serialize.read_scalar_csv(path)

    @pytest.mark.parametrize("text", ["t,v\n", "# seed=0\nt,v\n", ""])
    def test_table_without_rows_rejected_without_warning(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="no data rows"):
                serialize.read_scalar_csv(path)

    def test_values_bit_identical_to_python_float(self, tmp_path):
        texts = ["1e-300", "-0", "0.1", "nan", "-1.5e308", "5e-324",
                 "0.30000000000000004", "123456789.123456789", "inf", "-inf"]
        path = tmp_path / "audio.csv"
        path.write_text("t,v\n" + "".join(f"{i},{v}\n" for i, v in enumerate(texts)))
        values = serialize._read_table(path, 2)[:, 1]
        expected = np.array([float(v) for v in texts])
        assert values.tobytes() == expected.tobytes()


class TestReadCountsCsv:
    @pytest.mark.parametrize("columns", [1, 2, 5])
    def test_any_column_count(self, tmp_path, columns):
        counts = np.arange(4 * columns).reshape(4, columns)
        path = tmp_path / "counts.csv"
        np.savetxt(path, counts, delimiter=",", fmt="%d")
        read = serialize.read_counts_csv(path)
        assert read.dtype == np.float64
        assert np.array_equal(read, counts)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ValidationError, match="line 2: expected 3 values, got 2"):
            serialize.read_counts_csv(path)


class TestWriteTable:
    def test_matches_per_value_formatting(self, tmp_path):
        rows = np.column_stack([np.arange(7) / 3.0,
                                [0.1, -0.0, 1e-300, np.nan, np.inf, 2, 1e17]])
        path = tmp_path / "table.csv"
        serialize.write_table(path, "t,v", rows, meta={"seed": 1, "b": "x"})
        expected = ["# b=x", "# seed=1", "t,v"]
        expected += [",".join("%.12g" % v for v in row) for row in rows]
        assert path.read_text() == "\n".join(expected) + "\n"

    def test_single_row_and_empty_table(self, tmp_path):
        path = tmp_path / "table.csv"
        serialize.write_table(path, "a,b,c", np.array([1, 2.5, 3]))
        assert path.read_text() == "a,b,c\n1,2.5,3\n"
        serialize.write_table(path, "a,b", np.zeros((0, 2)))
        assert path.read_text() == "a,b\n"


def payload_keys(path):
    return set(json.loads(path.read_text())["payload"])


def field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


class TestModelArtifacts:
    def test_switching_ar_roundtrip(self, tmp_path):
        model = SwitchingArModel(
            order=1, truncation=2,
            states=[ArState(coefficients=[0.9], mean=0.1, variance=0.5),
                    ArState(coefficients=[-0.4], mean=2.0, variance=1.5)],
            transitions=np.array([[0.95, 0.05], [0.1, 0.9]]),
            beta=np.array([0.6, 0.4]), alpha=1.0, gamma=2.0, kappa=10.0, seed=7)
        path = tmp_path / "model.json"
        serialize.save_model(path, model, config={"sweeps": 100}, seed=7)
        back = serialize.load_model(path)
        assert isinstance(back, SwitchingArModel)
        assert payload_keys(path) == field_names(SwitchingArModel)
        assert back.order == 1 and back.kappa == 10.0
        assert np.allclose(back.transitions, model.transitions)
        assert np.allclose(back.beta, model.beta)
        for a, b in zip(back.states, model.states):
            assert np.allclose(a.coefficients, b.coefficients)
            assert a.mean == b.mean and a.variance == b.variance

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_switching_ar_non_finite_kappa_rejected(self, tmp_path, value):
        model = SwitchingArModel(
            order=1, truncation=2,
            states=[ArState(coefficients=[0.9], mean=0.1, variance=0.5),
                    ArState(coefficients=[-0.4], mean=2.0, variance=1.5)],
            transitions=np.array([[0.95, 0.05], [0.1, 0.9]]),
            beta=np.array([0.6, 0.4]), kappa=10.0)
        path = tmp_path / "swar.json"
        serialize.save_model(path, model)
        doc = json.loads(path.read_text())
        doc["payload"]["kappa"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="need finite alpha > 0"):
            serialize.load_model(path)

    def test_gmm_roundtrip(self, tmp_path):
        params = GmmParams(means=np.array([0.0, 3.0]),
                           variances=np.array([1.0, 0.5]),
                           weights=np.array([0.7, 0.3]))
        path = tmp_path / "gmm.json"
        serialize.save_model(path, params)
        back = serialize.load_model(path)
        assert payload_keys(path) == field_names(GmmParams)
        assert np.allclose(back.means, params.means)
        assert np.allclose(back.variances, params.variances)
        assert np.allclose(back.weights, params.weights)

    def test_gmm_three_components_rejected(self, tmp_path):
        params = GmmParams(means=np.array([0.0, 3.0]), variances=np.array([1.0, 0.5]),
                           weights=np.array([0.7, 0.3]))
        path = tmp_path / "gmm.json"
        serialize.save_model(path, params)
        doc = json.loads(path.read_text())
        doc["payload"] = {"means": [0.0, 3.0, 6.0], "variances": [1.0, 0.5, 2.0],
                          "weights": [0.5, 0.3, 0.2]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="need 2 means, variances and weights"):
            serialize.load_model(path)

    def test_naive_bayes_roundtrip(self, tmp_path):
        model = NaiveBayesModel(
            attribute_probs=np.array([[0.75, 0.25], [1 / 6, 5 / 6]]),
            priors=np.array([0.5, 0.5]),
            seen=np.array([True, False]), smoothing=1.0)
        path = tmp_path / "nb.json"
        serialize.save_model(path, model, seed=0)
        back = serialize.load_model(path)
        assert payload_keys(path) == field_names(NaiveBayesModel)
        assert json.loads(path.read_text())["payload"]["seen"] == [1, 0]
        assert np.allclose(back.attribute_probs, model.attribute_probs)
        assert np.array_equal(back.seen, model.seen)
        assert back.smoothing == 1.0

    def test_artifact_metadata(self, tmp_path):
        params = GmmParams(means=np.array([0.0, 3.0]), variances=np.array([1.0, 1.0]),
                           weights=np.array([0.5, 0.5]))
        path = tmp_path / "gmm.json"
        config = {"kind": "voice", "seed": 5}
        serialize.save_model(path, params, config=config, seed=5)
        doc = json.loads(path.read_text())
        assert doc["format"] == "clinqc-model"
        assert doc["version"] == serialize.ARTIFACT_VERSION
        assert doc["config_hash"] == serialize.config_hash(config)

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValidationError):
            serialize.load_model(path)

    def test_rejects_future_version(self, tmp_path):
        params = GmmParams(means=np.array([0.0, 3.0]), variances=np.array([1.0, 1.0]),
                           weights=np.array([0.5, 0.5]))
        path = tmp_path / "gmm.json"
        serialize.save_model(path, params)
        doc = json.loads(path.read_text())
        doc["version"] = serialize.ARTIFACT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            serialize.load_model(path)

    def test_rejects_unknown_model_type(self, tmp_path):
        with pytest.raises(ValidationError):
            serialize.save_model(tmp_path / "x.json", object())
