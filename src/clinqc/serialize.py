"""File formats: sensor CSV, feature/label/spectrum CSV, model artifacts.

Every CSV reader accepts the same input:

- blank lines and ``#`` comments (whole lines or line ends) are skipped;
  every table writer puts the config hash and seed there, header or not;
- the first remaining line is a header and is skipped if none of its
  fields is a number; at most one such line is skipped;
- every other line is a row of comma-separated numbers, as many as the
  table has columns (a count matrix: as many as its first row).

Anything else, such as a corrupt value, a short row or a table without
rows, raises ``ValidationError`` (CLI exit code 2) naming the file line at
fault, or the file if its text is not UTF-8 or every row has the wrong
column count: no row is dropped silently, and neither is a non-finite
value, a negative count, a label other than 1 or 2, an accelerometer
timestamp that does not advance or leaves a hole over ``MAX_GAP_S``
seconds, or a feature or label time step more than half a median step off
the median step. An audio table's time column is parsed like any other, but
held at float32 (4 bytes a row) and not checked for finiteness, since
nothing reads it; its values stay float64, a view into the parsed rows.

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
from .series import ADHERENCE, VIOLATION, ScalarSeries, TimestampedTriaxial, check_rate
from .swar import ArPrior, ArState, SwitchingArModel

ARTIFACT_VERSION = 1
#: Artifact ``kind`` -> model class; the payload holds the class's fields.
MODEL_KINDS = {"switching-ar": SwitchingArModel, "gmm": GmmParams,
               "naive-bayes": NaiveBayesModel}
_FLOAT_FMT = "%.12g"
_WRITE_BLOCK = 256    # rows write_table formats at a time
#: An audio row: the time column is only parsed, so 4 bytes hold it.
_AUDIO_ROW = np.dtype([("t", np.float32), ("v", np.float64)])
_NON_FINITE = "values must be finite"
#: Longest step between accelerometer timestamps, in seconds: the resampling
#: spline would invent the signal over a longer hole.
MAX_GAP_S = 1.0


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def write_table(path: Path, header: str | None, rows: np.ndarray,
                meta: dict | None = None) -> None:
    """Write ``meta`` as ``# key=value`` comments, then ``header`` unless it
    is None, then ``%.12g`` CSV rows.

    Rows are formatted a block at a time, so the text of the whole table is
    never held in memory.
    """
    rows = np.atleast_2d(rows)
    row_fmt = ",".join([_FLOAT_FMT] * rows.shape[1]) + "\n"
    lines = [f"# {key}={value}" for key, value in sorted((meta or {}).items())]
    lines += [] if header is None else [header]
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in lines)
        for start in range(0, len(rows), _WRITE_BLOCK):
            block = rows[start:start + _WRITE_BLOCK]
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def _numbered_lines(path: Path):
    """Yield ``(file line, fields)`` for each line that is not blank or a
    comment; text that does not decode raises ``ValidationError``."""
    with open(path) as fh:
        try:
            for number, line in enumerate(fh, start=1):
                content = line.split("#", 1)[0].strip()
                if content:
                    yield number, content.split(",")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: {exc}") from exc


def _rows_to_skip(path: Path) -> int:
    """Lines ``np.loadtxt`` must skip: through the header, if there is one.

    The first content line is a header only if none of its fields is a
    number; a row with one corrupt field is a row, and is reported as one.
    """
    for number, fields in _numbered_lines(path):
        return 0 if any(map(_parses_like_loadtxt, fields)) else number
    return 0


def _parses_like_loadtxt(field: str) -> bool:
    """Whether ``np.loadtxt`` reads ``field`` as a number; ``float()`` also
    takes ``_`` digit separators and non-ASCII digits, loadtxt does not."""
    try:
        float(field)
    except ValueError:
        return False
    return field.isascii() and "_" not in field


def _first_bad_row(path: Path, skip: int, columns: int | None) -> str | None:
    """Why the rows after ``skip`` lines are not a table of ``columns``
    numbers a row (None: as many as the first row), or None if they are."""
    rows, width = 0, None
    for number, fields in _numbered_lines(path):
        if number <= skip:
            continue
        for field in fields:
            if not _parses_like_loadtxt(field):
                return (f"{path}, line {number}: could not convert "
                        f"{field.strip()!r} to a number")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            return f"{path}, line {number}: expected {width} values, got {len(fields)}"
        rows += 1
    if columns is not None and width not in (None, columns):
        return f"{path}: expected {columns} columns, got shape {(rows, width)}"
    return None


def _read_table(path: Path, expected_columns: int | None,
                dtype: np.dtype = np.dtype(float)) -> np.ndarray:
    """Parse a numeric CSV table strictly; see the module docstring.

    ``expected_columns=None`` accepts any column count shared by all rows.
    A record ``dtype`` holds one field per column, ``expected_columns`` of
    them, and the table is returned as one record per row.
    """
    skip = _rows_to_skip(path)
    try:
        with warnings.catch_warnings():
            # an empty table is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            data = np.loadtxt(path, dtype=dtype, delimiter=",", comments="#",
                              skiprows=skip, ndmin=1 if dtype.names else 2)
    except ValueError as exc:
        # numpy counts data rows, not file lines; find the line itself
        raise ValidationError(_first_bad_row(path, skip, expected_columns)
                              or f"{path}, {exc}") from exc
    if len(data) == 0:
        raise ValidationError(f"{path}: no data rows")
    if data.ndim == 2 and expected_columns not in (None, data.shape[1]):
        raise ValidationError(_first_bad_row(path, skip, expected_columns))
    return data


def _reject_rows(path: Path, bad: np.ndarray, message: str) -> None:
    """Raise ``ValidationError`` at the file line of the first row ``bad`` flags."""
    if bad.any():
        skip = _rows_to_skip(path)
        lines = [number for number, _ in _numbered_lines(path) if number > skip]
        raise ValidationError(f"{path}, line {lines[int(np.argmax(bad))]}: {message}")


# -- sensor / feature CSV -----------------------------------------------------

def read_accelerometer_csv(path: Path) -> TimestampedTriaxial:
    """Read ``t,x,y,z`` (seconds, m/s^2); the timestamps must increase, by
    at most ``MAX_GAP_S`` a row."""
    data = _read_table(path, 4)
    _reject_rows(path, ~np.isfinite(data).all(axis=1), _NON_FINITE)
    step = np.diff(data[:, 0], prepend=np.nan)    # NaN: the first row has none
    _reject_rows(path, step <= 0, "timestamps must be strictly increasing")
    hole = step > MAX_GAP_S
    _reject_rows(path, hole, f"a {step[np.argmax(hole)]:g}-s hole before this row; "
                             f"steps over {MAX_GAP_S:g} s are not interpolated")
    return TimestampedTriaxial(timestamps=data[:, 0], samples=data[:, 1:])


def read_audio_csv(path: Path, *, rate: float) -> ScalarSeries:
    """Read ``t,v`` audio samples at ``rate``.

    The time column is parsed, but only at float32, and may hold any
    number: it fixes nothing, not even the rate. The values are float64, a
    view into the parsed (float32, float64) rows, so a row takes 12 bytes.
    """
    data = _read_table(path, 2, _AUDIO_ROW)
    _reject_rows(path, ~np.isfinite(data["v"]), _NON_FINITE)
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


def _grid_rate(path: Path, t: np.ndarray) -> float:
    """Sampling rate from the median step of the time column ``t``, whose
    every step must lie within half a median step of it."""
    median = float(np.median(np.diff(t)))
    if not 0 < median < np.inf:
        raise ValidationError(
            f"{path}: the time column must advance; its median step is {median:g}")
    rate = 1.0 / median
    step = np.diff(t, prepend=np.nan)             # NaN: the first row has none
    off = np.abs(step * rate - 1.0) > 0.5
    _reject_rows(path, off, f"a {step[np.argmax(off)]:g}-s time step before this row; "
                            f"the grid steps {1.0 / rate:g} s")
    return rate


def read_scalar_csv(path: Path) -> ScalarSeries:
    """Read a ``t,v`` feature; every time step lies within half the median one."""
    data = _read_table(path, 2)
    _reject_rows(path, ~np.isfinite(data).all(axis=1), _NON_FINITE)
    if len(data) < 2:
        raise ValidationError(f"{path}: need at least 2 samples")
    return ScalarSeries(rate=_grid_rate(path, data[:, 0]), values=data[:, 1])


def write_spectrum_csv(path: Path, frequencies: np.ndarray, power: np.ndarray,
                       meta: dict | None = None) -> None:
    write_table(path, "f,power", np.column_stack([frequencies, power]), meta)


def write_labels_csv(path: Path, rate: float, labels: np.ndarray,
                     confidence: np.ndarray | None = None,
                     meta: dict | None = None) -> None:
    """Write labels sampled at ``rate`` as ``t,u`` (plus ``confidence``)."""
    check_rate(rate)
    columns = [np.arange(len(labels)) / rate, labels]
    if confidence is None:
        write_table(path, "t,u", np.column_stack(columns), meta)
    else:
        write_table(path, "t,u,confidence",
                    np.column_stack(columns + [confidence]), meta)


def read_labels_csv(path: Path) -> np.ndarray:
    """Read the ``u`` column of a ``t,u`` table as ints; with two or more
    rows every time step lies within half the median one, as in a feature."""
    data = _read_table(path, 2)
    if len(data) > 1:
        _grid_rate(path, data[:, 0])
    _reject_rows(path, ~np.isin(data[:, 1], (ADHERENCE, VIOLATION)),
                 "labels must be 1 (adherence) or 2 (violation)")
    return data[:, 1].astype(int)


def write_decomposition_csv(path: Path, times: np.ndarray, trend: np.ndarray,
                            dynamic: np.ndarray, meta: dict | None = None) -> None:
    rows = np.column_stack([times, trend, dynamic])
    write_table(path, "t,gx,gy,gz,dx,dy,dz", rows, meta)


# -- JSON documents and model artifacts ---------------------------------------

def write_json(path: Path, doc: dict) -> None:
    """Write ``doc`` as JSON, indented by 2 with sorted keys; numpy arrays
    as nested lists, boolean masks as 0/1."""
    text = json.dumps(doc, indent=2, sort_keys=True,
                      default=lambda a: (a.astype(int) if a.dtype == bool else a).tolist())
    Path(path).write_text(text + "\n")


def read_json(path: Path):
    """The JSON document at ``path``; ``ValidationError`` if it is not JSON."""
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc


def save_model(path: Path, model, config: dict | None = None) -> None:
    """Write ``model``'s dataclass fields as a versioned JSON artifact, with
    ``config``, its hash and its ``seed``."""
    kind = next((name for name, cls in MODEL_KINDS.items()
                 if isinstance(model, cls)), None)
    if kind is None:
        raise ValidationError(f"cannot serialize model of type {type(model)!r}")
    config = config or {}
    write_json(path, {
        "format": "clinqc-model",
        "version": ARTIFACT_VERSION,
        "kind": kind,
        "seed": config.get("seed"),
        "config": config,
        "config_hash": config_hash(config),
        "payload": dataclasses.asdict(model),
    })


def load_model(path: Path):
    """Rebuild the model saved at ``path``; ``ValidationError`` if malformed."""
    doc = read_json(path)
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
