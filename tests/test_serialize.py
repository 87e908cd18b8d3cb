import dataclasses
import functools
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from clinqc import serialize
from clinqc.context import NaiveBayesModel
from clinqc.errors import ValidationError
from clinqc.gmm import GmmParams
from clinqc.series import ScalarSeries
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

    def test_accelerometer_hole(self, tmp_path):
        # a step of exactly MAX_GAP_S is allowed, a longer one is not
        path = tmp_path / "acc.csv"
        path.write_text("t,x,y,z\n0,1,2,3\n1,4,5,6\n2.5,7,8,9\n")
        assert serialize.MAX_GAP_S == 1.0
        with pytest.raises(ValidationError, match=r"acc.csv, line 4: a 1.5-s hole"):
            serialize.read_accelerometer_csv(path)

    @pytest.mark.parametrize("t", ["%.6f", "%.3f"])
    def test_scalar_series_rounded_times(self, tmp_path, t):
        # times rounded to fixed decimals step unevenly, within half a step
        path = tmp_path / "scalar.csv"
        rows = np.column_stack([np.arange(900) / 30, np.ones(900)])
        np.savetxt(path, rows, fmt=[t, "%g"], delimiter=",", header="t,v", comments="")
        assert len(serialize.read_scalar_csv(path)) == 900

    @pytest.mark.parametrize("times, line, step", [
        ("0,0.1,0.2,0.3,0.46,0.56", 6, 0.16),    # over half a step late
        ("0,0.1,0.2,0.15,0.3,0.4", 5, -0.05),    # backwards
        ("0,0.1,0.2,0.26,0.36,0.46", None, None),  # under half a step early: kept
    ])
    def test_scalar_series_off_grid(self, tmp_path, times, line, step):
        path = tmp_path / "scalar.csv"
        path.write_text("t,v\n" + "".join(f"{t},1\n" for t in times.split(",")))
        if line is None:
            assert len(serialize.read_scalar_csv(path)) == 6
            return
        with pytest.raises(ValidationError, match=re.escape(
                f"scalar.csv, line {line}: a {step:g}-s time step before this row; "
                "the grid steps 0.1 s")):
            serialize.read_scalar_csv(path)

    def test_audio(self, tmp_path):
        path = tmp_path / "audio.csv"
        path.write_text("t,v\n0,0.1\n1,0.2\n")
        series = serialize.read_audio_csv(path, rate=8000.0)
        assert series.rate == 8000.0
        assert series.values.tolist() == [0.1, 0.2]

    def test_labels_with_confidence(self, tmp_path):
        path = tmp_path / "labels.csv"
        serialize.write_labels_csv(path, 2.0, np.array([1, 2, 2]),
                                   confidence=np.array([0.9, 0.8, 0.7]))
        assert "t,u,confidence" in path.read_text()

    def test_labels_roundtrip(self, tmp_path):
        labels = np.array([1, 1, 2, 1])
        path = tmp_path / "labels.csv"
        serialize.write_labels_csv(path, 4.0, labels)
        assert np.array_equal(serialize._read_table(path, 2)[:, 0], np.arange(4) / 4.0)
        back = serialize.read_labels_csv(path)
        assert back.dtype.kind == "i"
        assert np.array_equal(back, labels)

    def test_spectrum(self, tmp_path):
        path = tmp_path / "spec.csv"
        serialize.write_spectrum_csv(path, np.array([0.0, 1.0]), np.array([2.0, 0.5]))
        assert serialize._read_table(path, 2)[1, 1] == pytest.approx(0.5)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,v\n0,1,2\n")
        with pytest.raises(ValidationError):
            serialize.read_scalar_csv(path)


# every CSV reader, the header of its table, and its row at time t holding
# value v (1 or 2, so that it is also a label)
READERS = {
    "scalar": (serialize.read_scalar_csv, "t,v", "{t},{v}"),
    "audio": (functools.partial(serialize.read_audio_csv, rate=44_100.0), "t,v", "{t},{v}"),
    "labels": (serialize.read_labels_csv, "t,u", "{t},{v}"),
    "counts": (serialize.read_counts_csv, "a,b", "{t},{v}"),
    "accelerometer": (serialize.read_accelerometer_csv, "t,x,y,z", "{t},{v},{v},{v}"),
}


class TestStrictReader:
    @pytest.mark.parametrize("name", READERS)
    def test_corrupt_middle_row_rejected(self, tmp_path, name):
        reader, header, row = READERS[name]
        path = tmp_path / "table.csv"
        path.write_text(f"{header}\n{row.format(t=0, v=1)}\n{row.format(t='0.0x2', v=2)}\n"
                        f"{row.format(t=0.02, v=1)}\n")
        with pytest.raises(ValidationError,
                           match=re.escape("line 3: could not convert '0.0x2'")):
            reader(path)

    @pytest.mark.parametrize("name", READERS)
    def test_short_row_rejected(self, tmp_path, name):
        reader, header, row = READERS[name]
        width = len(header.split(","))
        short = row.format(t=1, v=2).rsplit(",", 1)[0]
        path = tmp_path / "table.csv"
        path.write_text(f"{header}\n{row.format(t=0, v=1)}\n{short}\n{row.format(t=2, v=1)}\n")
        with pytest.raises(ValidationError,
                           match=f"line 3: expected {width} values, got {width - 1}"):
            reader(path)

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

    @pytest.mark.parametrize("reader, text, line", [
        (serialize.read_scalar_csv, "# seed=0\nt,v\n0,1\n1,2\n2,nan\n3,4\n", 5),
        (serialize.read_accelerometer_csv,
         "t,x,y,z\n0,1,2,3\n0.01,1,inf,3\n0.02,1,2,3\n", 3),
        (functools.partial(serialize.read_audio_csv, rate=44_100.0),
         "t,v\n0,1\n\n1,-inf\n2,0\n", 4),
    ], ids=["scalar", "accelerometer", "audio"])
    def test_non_finite_value_names_file_line(self, tmp_path, reader, text, line):
        path = tmp_path / "table.csv"
        path.write_text(text)
        with pytest.raises(ValidationError,
                           match=f"line {line}: values must be finite") as info:
            reader(path)
        assert str(path) in str(info.value)

    def test_headerless_numeric_file(self, tmp_path):
        path = tmp_path / "audio.csv"
        path.write_text("0,0.5\n1,0.25\n2,-1\n")
        series = serialize.read_audio_csv(path, rate=44_100.0)
        assert series.values.tolist() == [0.5, 0.25, -1.0]

    @pytest.mark.parametrize("reader, text, field", [
        (serialize.read_scalar_csv, "0.0,abc\n0.1,2.0\n0.2,3.0\n", "abc"),
        (serialize.read_scalar_csv, "\ufeff0.0,1.0\n0.1,2.0\n0.2,3.0\n", "\ufeff0.0"),
        (serialize.read_counts_csv, "1,x\n2,3\n4,5\n6,7\n", "x"),
        (serialize.read_accelerometer_csv,
         "0,1,2,x\n0.01,1,2,3\n0.02,1,2,3\n", "x"),
        (functools.partial(serialize.read_audio_csv, rate=44_100.0),
         "0,abc\n1,0.25\n2,-1\n", "abc"),
    ], ids=["scalar", "scalar-bom", "counts", "accelerometer", "audio"])
    def test_headerless_corrupt_first_row_names_line_1(self, tmp_path, reader,
                                                        text, field):
        # a line with a numeric field is a row, not a header to skip
        path = tmp_path / "table.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError,
                           match=re.escape(f"line 1: could not convert {field!r}")):
            reader(path)

    @pytest.mark.parametrize("name, returned, expected", [
        ("scalar", lambda s: [s.rate, *s.values.tolist()], [2.0, 1.0, 2.0, 1.0]),
        ("audio", lambda s: s.values.tolist(), [1.0, 2.0, 1.0]),
        ("labels", lambda u: u.tolist(), [1, 2, 1]),
        ("counts", lambda c: c.tolist(), [[0.0, 1.0], [0.5, 2.0], [1.0, 1.0]]),
        ("accelerometer", lambda a: [*a.timestamps.tolist(), *a.samples[:, 0].tolist()],
         [0.0, 0.5, 1.0, 1.0, 2.0, 1.0]),
    ], ids=list(READERS))
    def test_comments_blank_lines_and_header(self, tmp_path, name, returned, expected):
        reader, header, row = READERS[name]
        path = tmp_path / "table.csv"
        path.write_text(f"\n# config_hash=abc\n\n# seed=0\n{header}\n{row.format(t=0, v=1)}\n"
                        f"# inline block comment\n{row.format(t=0.5, v=2)}  # trailing\n\n"
                        f"{row.format(t=1, v=1)}\n")
        assert returned(reader(path)) == expected

    def test_only_one_header_line_skipped(self, tmp_path):
        path = tmp_path / "scalar.csv"
        path.write_text("t,v\ntime,value\n0,1\n1,2\n")
        with pytest.raises(ValidationError):
            serialize.read_scalar_csv(path)

    @pytest.mark.parametrize("text", ["{header}\n", "# seed=0\n{header}\n", ""])
    @pytest.mark.parametrize("name", READERS)
    def test_table_without_rows_rejected_without_warning(self, tmp_path, name, text):
        reader, header, _ = READERS[name]
        path = tmp_path / "empty.csv"
        path.write_text(text.format(header=header))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=re.escape(f"{path}: no data rows")):
                reader(path)

    def test_values_bit_identical_to_python_float(self, tmp_path):
        texts = ["1e-300", "-0", "0.1", "nan", "-1.5e308", "5e-324",
                 "0.30000000000000004", "123456789.123456789", "inf", "-inf"]
        path = tmp_path / "audio.csv"
        path.write_text("t,v\n" + "".join(f"{i},{v}\n" for i, v in enumerate(texts)))
        values = serialize._read_table(path, 2)[:, 1]
        expected = np.array([float(v) for v in texts])
        assert values.tobytes() == expected.tobytes()
        finite = [v for v in texts if np.isfinite(float(v))]  # series hold no nan or inf
        path.write_text("t,v\n" + "".join(f"{i},{v}\n" for i, v in enumerate(finite)))
        audio = serialize.read_audio_csv(path, rate=8000.0).values
        assert audio.dtype == np.float64
        assert audio.tobytes() == np.array([float(v) for v in finite]).tobytes()

    def test_audio_three_columns_rejected(self, tmp_path):
        path = tmp_path / "audio.csv"
        path.write_text("t,v\n0,1,2\n1,2,3\n")
        with pytest.raises(ValidationError) as exc:
            serialize.read_audio_csv(path, rate=44_100.0)
        assert str(exc.value) == f"{path}: expected 2 columns, got shape (2, 3)"

    def test_audio_time_beyond_float32_accepted_without_warning(self, tmp_path):
        path = tmp_path / "audio.csv"
        path.write_text("t,v\n1e300,0.5\n-1e39,0.25\nnan,-1\ninf,2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = serialize.read_audio_csv(path, rate=44_100.0)
        assert series.values.tolist() == [0.5, 0.25, -1.0, 2.0]

    def test_audio_read_peaks_at_most_14_bytes_per_row(self, tmp_path):
        # 30 s at 44.1 kHz; the float64 values take 8 bytes a row, the time
        # column 4, and np.loadtxt grows its buffer in steps of a quarter
        rows = 1_323_000
        path = tmp_path / "audio.csv"
        path.write_text("t,v\n" + "0.0000227,-0.001234\n" * rows)
        tracemalloc.start()
        try:
            series = serialize.read_audio_csv(path, rate=44_100.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(series) == rows
        assert peak <= 14 * rows


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

    def test_no_header_matches_savetxt(self, tmp_path):
        # more rows than write_table formats at a time
        rows = np.random.default_rng(0).dirichlet(np.ones(20), size=600)
        rows[0, :3] = [-0.0, 1e-300, 0.1]
        serialize.write_table(tmp_path / "a.csv", None, rows)
        np.savetxt(tmp_path / "b.csv", rows, delimiter=",", fmt="%.12g")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        # meta still goes first, as comments a bare np.loadtxt skips
        serialize.write_table(tmp_path / "c.csv", None, rows, meta={"seed": 1, "b": "x"})
        assert (tmp_path / "c.csv").read_bytes() == (
            b"# b=x\n# seed=1\n" + (tmp_path / "b.csv").read_bytes())
        assert np.array_equal(np.loadtxt(tmp_path / "c.csv", delimiter=","),
                              np.loadtxt(tmp_path / "b.csv", delimiter=","))


def payload_keys(path):
    return set(json.loads(path.read_text())["payload"])


def field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def two_state_model():
    return SwitchingArModel(
        states=[ArState(coefficients=[0.9], mean=0.1, variance=0.5),
                ArState(coefficients=[-0.4], mean=2.0, variance=1.5)],
        transitions=np.array([[0.95, 0.05], [0.1, 0.9]]),
        beta=np.array([0.6, 0.4]), kappa=10.0)


def edited_swar_json(path, edit):
    """Save ``two_state_model`` at ``path``, then apply ``edit`` to its payload."""
    serialize.save_model(path, two_state_model())
    doc = json.loads(path.read_text())
    edit(doc["payload"])
    path.write_text(json.dumps(doc))


class TestModelArtifacts:
    def test_switching_ar_roundtrip(self, tmp_path):
        model = two_state_model()
        path = tmp_path / "model.json"
        serialize.save_model(path, model, config={"sweeps": 100, "seed": 7})
        back = serialize.load_model(path)
        assert isinstance(back, SwitchingArModel)
        assert payload_keys(path) == field_names(SwitchingArModel) == {
            "states", "transitions", "beta", "kappa", "prior"}
        assert json.loads(path.read_text())["seed"] == 7
        assert back.order == 1 and back.truncation == 2 and back.kappa == 10.0
        assert np.allclose(back.transitions, model.transitions)
        assert np.allclose(back.beta, model.beta)
        for a, b in zip(back.states, model.states):
            assert np.allclose(a.coefficients, b.coefficients)
            assert a.mean == b.mean and a.variance == b.variance

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_switching_ar_non_finite_kappa_rejected(self, tmp_path, value):
        path = tmp_path / "swar.json"
        edited_swar_json(path, lambda payload: payload.update(kappa=value))
        with pytest.raises(ValidationError, match="kappa must be finite and >= 0"):
            serialize.load_model(path)

    @pytest.mark.parametrize("field, value, message", [
        ("variance", float("nan"), "innovation variance must be positive and finite"),
        ("variance", float("inf"), "innovation variance must be positive and finite"),
        ("coef_scale", -1.0, "coef_scale must be finite and > 0"),
        ("shape", 0.0, "shape must be finite and > 0"),
        ("scale", float("nan"), "scale must be finite and > 0"),
    ])
    def test_switching_ar_bad_state_or_prior_rejected(self, tmp_path, field, value,
                                                      message):
        def edit(payload):
            target = payload["states"][1] if field == "variance" else payload["prior"]
            target[field] = value

        path = tmp_path / "swar.json"
        edited_swar_json(path, edit)
        with pytest.raises(ValidationError, match=message) as info:
            serialize.load_model(path)
        assert str(path) in str(info.value)

    def test_switching_ar_parent_format_rejected(self, tmp_path):
        # the earlier layout also stored alpha, gamma, seed, order and truncation
        def edit(payload):
            payload.update(alpha=1.0, gamma=1.0, seed=0, order=1, truncation=2)

        path = tmp_path / "swar.json"
        edited_swar_json(path, edit)
        with pytest.raises(ValidationError,
                           match="malformed switching-ar payload.*'alpha'") as info:
            serialize.load_model(path)
        assert str(path) in str(info.value)

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
        serialize.save_model(path, model, config={"seed": 0})
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
        serialize.save_model(path, params, config=config)
        doc = json.loads(path.read_text())
        assert doc["seed"] == 5
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


class TestJsonDocuments:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "doc.json"
        serialize.write_json(path, {"b": np.array([1.5, 2.0]),
                                    "a": {"mask": np.array([True, False]), "n": None}})
        plain = {"a": {"mask": [1, 0], "n": None}, "b": [1.5, 2.0]}
        assert path.read_text() == json.dumps(plain, indent=2, sort_keys=True) + "\n"
        assert serialize.read_json(path) == plain

    @pytest.mark.parametrize("data", [b'{"kind": "walking",', b'{"kind": "walk\xffing"}'],
                             ids=["truncated", "not utf-8"])
    def test_read_rejects_text_that_is_not_json(self, tmp_path, data):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: not valid JSON: "):
            serialize.read_json(path)
