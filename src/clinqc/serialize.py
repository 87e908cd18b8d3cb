"""File formats: sensor CSV, feature/label/spectrum CSV, model artifacts.

Every CSV reader accepts the same input:

- blank lines and ``#`` comments (whole lines or line ends) are skipped;
  writers put the config hash and seed there;
- the first remaining line is a header and is skipped if any of its fields
  is not a number; at most one such line is skipped;
- every other line is a row of comma-separated numbers, as many as the
  table has columns (a count matrix: as many as its first row).

Anything else, such as a corrupt value, a short row or a table without
rows, raises ``ValidationError`` (CLI exit code 2) naming the file line at
fault: no row is dropped silently, and neither is a negative or non-finite
count or a label other than 1 or 2. An audio table's time column is
parsed and checked like any other, but held at float32 (4 bytes a row)
since nothing reads it; its values stay float64, a view into the parsed
rows.

Model artifacts are versioned JSON documents whose payload is the model
dataclass's fields, so they round-trip field-for-field; the run's config
and seed sit beside it.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np

from .context import NaiveBayesModel
from .errors import ValidationError
from .gmm import GmmParams
from .series import (
    ADHERENCE,
    VIOLATION,
    AdherenceLabels,
    ScalarSeries,
    SpectrumEstimate,
    TimestampedTriaxial,
)
from .swar import ArPrior, ArState, SwitchingArModel

ARTIFACT_VERSION = 1
#: Artifact ``kind`` -> model class; the payload holds the class's fields.
MODEL_KINDS = {"switching-ar": SwitchingArModel, "gmm": GmmParams,
               "naive-bayes": NaiveBayesModel}
_FLOAT_FMT = "%.12g"
_WRITE_BLOCK = 256    # rows write_table formats at a time
#: An audio row: the time column is only checked, so 4 bytes hold it.
_AUDIO_ROW = np.dtype([("t", np.float32), ("v", np.float64)])


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _header_lines(meta: dict | None) -> list[str]:
    if not meta:
        return []
    return [f"# {key}={value}" for key, value in sorted(meta.items())]


def write_table(path: Path, header: str | None, rows: np.ndarray,
                meta: dict | None = None) -> None:
    """Write ``meta`` comments, one header line and ``%.12g`` CSV rows;
    ``header=None`` writes the rows alone, without ``meta``.

    Rows are formatted a block at a time, so the text of the whole table is
    never held in memory.
    """
    rows = np.atleast_2d(rows)
    row_fmt = ",".join([_FLOAT_FMT] * rows.shape[1]) + "\n"
    lines = [] if header is None else _header_lines(meta) + [header]
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in lines)
        for start in range(0, len(rows), _WRITE_BLOCK):
            block = rows[start:start + _WRITE_BLOCK]
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def _content(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _rows_to_skip(path: Path) -> int:
    """Lines ``np.loadtxt`` must skip: through the header, if there is one."""
    with open(path) as fh:
        for index, line in enumerate(fh):
            line = _content(line)
            if not line:
                continue
            try:
                [float(field) for field in line.split(",")]
            except ValueError:
                return index + 1
            return 0
    return 0


def _parses_like_loadtxt(field: str) -> bool:
    """Whether ``np.loadtxt`` reads ``field`` as a number; ``float()`` also
    takes ``_`` digit separators and non-ASCII digits, loadtxt does not."""
    try:
        float(field)
    except ValueError:
        return False
    return field.isascii() and "_" not in field


def _first_bad_row(path: Path, skip: int) -> str | None:
    """Where and why the first row after ``skip`` lines is not a row of as
    many numbers as the first row; None if every row parses."""
    columns = None
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            fields = _content(line).split(",")
            if number <= skip or fields == [""]:
                continue
            for field in fields:
                if not _parses_like_loadtxt(field):
                    return (f"line {number}: could not convert {field.strip()!r}"
                            " to a number")
            if columns is None:
                columns = len(fields)
            elif len(fields) != columns:
                return f"line {number}: expected {columns} values, got {len(fields)}"
    return None


def _loadtxt(path: Path, skip: int, dtype: np.dtype) -> np.ndarray:
    """``np.loadtxt`` of the rows after ``skip`` lines: a record ``dtype``
    gives one record per row, any other a (rows, columns) array."""
    with warnings.catch_warnings():
        # an empty table is reported as a ValidationError by the caller
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        return np.loadtxt(path, dtype=dtype, delimiter=",", comments="#",
                          skiprows=skip, ndmin=1 if dtype.names else 2)


def _read_table(path: Path, expected_columns: int | None,
                dtype: np.dtype = np.dtype(float)) -> np.ndarray:
    """Parse a numeric CSV table strictly; see the module docstring.

    ``expected_columns=None`` accepts any column count shared by all rows.
    A record ``dtype`` holds one field per column, ``expected_columns`` of
    them, and the table is returned as one record per row.
    """
    skip = _rows_to_skip(path)
    try:
        data = _loadtxt(path, skip, dtype)
    except ValueError as exc:
        # numpy counts data rows, not file lines; find the line itself
        reason = _first_bad_row(path, skip)
        if reason is not None or not dtype.names:
            raise ValidationError(f"{path}, {reason or exc}") from exc
        # every row is numbers, but not as many as the record has fields
        data = _loadtxt(path, skip, np.dtype(float))
    if len(data) == 0:
        raise ValidationError(f"{path}: no data rows")
    if (data.ndim == 2 and expected_columns is not None
            and data.shape[1] != expected_columns):
        raise ValidationError(
            f"{path}: expected {expected_columns} columns, got shape {data.shape}")
    return data


def _reject_rows(path: Path, bad: np.ndarray, message: str) -> None:
    """Raise ``ValidationError`` at the file line of the first row ``bad`` flags."""
    if bad.any():
        skip = _rows_to_skip(path)
        with open(path) as fh:
            lines = [n for n, line in enumerate(fh, start=1) if n > skip and _content(line)]
        raise ValidationError(f"{path}, line {lines[int(np.argmax(bad))]}: {message}")


# -- sensor / feature CSV -----------------------------------------------------

def read_accelerometer_csv(path: Path) -> TimestampedTriaxial:
    """Read ``t,x,y,z`` (seconds, m/s^2)."""
    data = _read_table(path, 4)
    return TimestampedTriaxial(timestamps=data[:, 0], samples=data[:, 1:])


def read_audio_csv(path: Path, *, rate: float) -> ScalarSeries:
    """Read ``t,v`` audio samples at ``rate``.

    The time column is parsed and checked, but only at float32: it fixes
    nothing, not even the rate. The values are float64, a view into the
    parsed (float32, float64) rows, so a row takes 12 bytes.
    """
    data = _read_table(path, 2, _AUDIO_ROW)
    return ScalarSeries(rate=rate, values=data["v"])


def read_counts_csv(path: Path) -> np.ndarray:
    """Read a count matrix: one row per time point, one column per state;
    every entry must be finite and non-negative."""
    data = _read_table(path, None)
    _reject_rows(path, ~np.all((data >= 0) & (data < np.inf), axis=1),
                 "counts must be finite and non-negative")
    return data


def write_scalar_csv(path: Path, series: ScalarSeries,
                     meta: dict | None = None) -> None:
    rows = np.column_stack([series.times, series.values])
    write_table(path, "t,v", rows, meta)


def _rate_of(path: Path, t: np.ndarray) -> float:
    """Sampling rate from the median step of the time column ``t``."""
    step = float(np.median(np.diff(t)))
    if not 0 < step < np.inf:
        raise ValidationError(
            f"{path}: the time column must advance; its median step is {step:g}")
    return 1.0 / step


def read_scalar_csv(path: Path) -> ScalarSeries:
    data = _read_table(path, 2)
    if len(data) < 2:
        raise ValidationError(f"{path}: need at least 2 samples")
    return ScalarSeries(rate=_rate_of(path, data[:, 0]), values=data[:, 1])


def write_spectrum_csv(path: Path, spectrum: SpectrumEstimate,
                       meta: dict | None = None) -> None:
    rows = np.column_stack([spectrum.frequencies, spectrum.power])
    write_table(path, "f,power", rows, meta)


def write_labels_csv(path: Path, labels: AdherenceLabels,
                     confidence: np.ndarray | None = None,
                     meta: dict | None = None) -> None:
    t = np.arange(len(labels)) / labels.rate
    if confidence is None:
        write_table(path, "t,u", np.column_stack([t, labels.labels]), meta)
    else:
        write_table(path, "t,u,confidence",
                    np.column_stack([t, labels.labels, confidence]), meta)


def read_labels_csv(path: Path) -> AdherenceLabels:
    data = _read_table(path, 2)
    rate = _rate_of(path, data[:, 0]) if len(data) > 1 else 1.0
    _reject_rows(path, ~np.isin(data[:, 1], (ADHERENCE, VIOLATION)),
                 "labels must be 1 (adherence) or 2 (violation)")
    return AdherenceLabels(rate=rate, labels=data[:, 1])


def write_decomposition_csv(path: Path, times: np.ndarray, trend: np.ndarray,
                            dynamic: np.ndarray, meta: dict | None = None) -> None:
    rows = np.column_stack([times, trend, dynamic])
    write_table(path, "t,gx,gy,gz,dx,dy,dz", rows, meta)


# -- model artifacts ----------------------------------------------------------

def _to_json(value):
    """Arrays as nested lists; boolean masks as 0/1."""
    if isinstance(value, np.ndarray):
        return (value.astype(int) if value.dtype == bool else value).tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def save_model(path: Path, model, config: dict | None = None) -> None:
    """Write ``model``'s dataclass fields as a versioned JSON artifact, with
    ``config``, its hash and its ``seed``."""
    kind = next((name for name, cls in MODEL_KINDS.items()
                 if isinstance(model, cls)), None)
    if kind is None:
        raise ValidationError(f"cannot serialize model of type {type(model)!r}")
    config = config or {}
    doc = {
        "format": "clinqc-model",
        "version": ARTIFACT_VERSION,
        "kind": kind,
        "seed": config.get("seed"),
        "config": config,
        "config_hash": config_hash(config),
        "payload": dataclasses.asdict(model),
    }
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True, default=_to_json) + "\n")


def load_model(path: Path):
    """Rebuild the model saved at ``path``; ``ValidationError`` if malformed."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "clinqc-model":
        raise ValidationError(f"{path}: not a model artifact")
    if doc.get("version") != ARTIFACT_VERSION:
        raise ValidationError(f"{path}: unsupported artifact version")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise ValidationError(f"{path}: unknown model kind {kind!r}")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: payload is not a JSON object")
    try:
        if kind == "switching-ar":
            payload = {**payload,
                       "states": [ArState(**s) for s in payload["states"]],
                       "prior": ArPrior(**payload["prior"])}
        return MODEL_KINDS[kind](**payload)
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"{path}: malformed {kind} payload: {exc}") from exc
