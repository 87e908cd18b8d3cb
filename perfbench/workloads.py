"""Seeded workload inputs and the CLI recipes that consume them.

Each workload has a generator ``make(rng, index, root, tiny)`` that writes
one raw recording and its ground truth with numpy, a recipe
``run(rec, out, tiny)`` that pushes the recording through the real CLI in
process, and a ``check(rec, out)`` that parses the artifacts and returns
the balanced accuracy of what the CLI produced. ``Runner`` times the
recipe alone, one recording at a time, and counts a recording as failed
when the recipe or its check raises ``CheckFailed`` (or anything else),
its accuracy is below the floor, or a rerun does not write the same bytes.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from clinqc import cli, context, metrics, synth
from clinqc.series import ADHERENCE, VIOLATION

# balanced accuracy each recipe must reach on its own ground truth, and the
# band the field-ar shuffled-indicator control must stay inside
BA_FLOOR = {"walking": 0.9, "voice": 0.9, "field-ar": 0.8}
CHANCE_BAND = (0.3, 0.7)

_CHUNK_ROWS = 100_000


class CheckFailed(Exception):
    """A CLI call failed, or an artifact is missing, unparsable or inaccurate."""


@dataclass
class Recording:
    """One generated input: the raw CSV, its ground truth and its size."""

    workload: str
    index: int
    raw: Path
    truth: Path
    duration_s: float        # seconds of signal the recording holds
    rows: int

    @property
    def bytes(self) -> int:
        return self.raw.stat().st_size


# -- writing inputs and reading artifacts -------------------------------------

def write_csv(path: Path, header: str, fmt: str, columns: list[np.ndarray]) -> None:
    """Write ``fmt % row`` lines in chunks, so the text never sits in memory
    whole, and flush them to disk, so no write-back of inputs overlaps the
    timed recordings."""
    table = np.column_stack(columns)
    line = fmt + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), _CHUNK_ROWS):
            chunk = table[start:start + _CHUNK_ROWS]
            fh.write((line * len(chunk)) % tuple(chunk.ravel()))
        fh.flush()
        os.fsync(fh.fileno())


def read_table(path: Path, columns: int) -> np.ndarray:
    """Parse a CLI table (``#`` comments, one header line) or raise CheckFailed."""
    try:
        lines = [ln for ln in path.read_text().splitlines()
                 if ln and not ln.startswith("#")]
        table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    except (OSError, ValueError, IndexError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc
    if table.shape[1] != columns or len(table) == 0:
        raise CheckFailed(f"{path.name}: table of shape {table.shape}")
    return table


def read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc


def balanced_accuracy(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Recall-style BA, so a collapsed prediction scores 0.5 instead of None."""
    return metrics.tp_tn_ba(predicted, truth, mode="recall").ba


def run_cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"clinqc {argv[0]} exited with {code}")


def _alternating(rng: np.random.Generator, duration: float, shortest: float,
                 longest: float) -> list[synth.RegimeInterval]:
    """States 0/1 in turn, interval lengths uniform in [shortest, longest]."""
    schedule = []
    state = int(rng.integers(2))
    start = 0.0
    while start < duration:
        end = start + float(rng.uniform(shortest, longest))
        if duration - end < shortest:
            end = duration
        schedule.append(synth.RegimeInterval(state, start, end))
        state, start = 1 - state, end
    return schedule


def _state_at(schedule: list[synth.RegimeInterval], t: np.ndarray) -> np.ndarray:
    ends = np.array([iv.end for iv in schedule])
    states = np.array([iv.state for iv in schedule])
    idx = np.searchsorted(ends, t, side="right")
    return states[np.minimum(idx, len(states) - 1)]


def _write_truth(path: Path, rate: float, labels: np.ndarray) -> None:
    write_csv(path, "t,u", "%.6f,%d", [np.arange(len(labels)) / rate, labels])


# -- walking: raw accelerometer, gravity removal, GMM ------------------------

def make_walking(rng, index, root, tiny):
    """Triaxial accelerometer at 120 Hz nominal with timestamp jitter.

    Burst intervals (state 1) are adherence; the orientation changes at
    every interval boundary, which is what the trend filter must remove.
    Three to four long intervals, as in the ``synth`` CLI's default
    schedule, keep the ADMM near 180 iterations per axis.
    """
    duration = 90.0 if tiny else 600.0
    schedule = _alternating(rng, duration, duration / 5, duration / 2.5)
    spec = synth.SynthSpec(scenario="gravity-drift", duration=duration,
                           rate=120.0, schedule=schedule, jitter=0.3,
                           seed=int(rng.integers(2**31)))
    raw, _, _ = synth.gen_gravity_drift(spec)
    rec = Recording("walking", index, root / f"walking{index}.csv",
                    root / f"walking{index}_truth.json", duration, len(raw))
    write_csv(rec.raw, "t,x,y,z", "%.6f,%.6f,%.6f,%.6f",
              [raw.timestamps, *raw.samples.T])
    rec.truth.write_text(json.dumps(
        [[iv.state, iv.start, iv.end] for iv in schedule]))
    return rec


def run_walking(rec, out, tiny):
    run_cli(["preprocess", str(rec.raw), "--kind", "walking", "--seed", "0",
             "--out", str(out / "feature")])
    run_cli(["segment-gmm", str(out / "feature" / "feature.csv"),
             "--kind", "walking", "--seed", "0", "--out", str(out / "seg")])


def check_walking(rec, out):
    read_json(out / "seg" / "gmm.json")
    labels = read_table(out / "seg" / "labels.csv", 2)
    schedule = [synth.RegimeInterval(*iv) for iv in read_json(rec.truth)]
    truth = np.where(_state_at(schedule, labels[:, 0]) == 1, ADHERENCE, VIOLATION)
    return balanced_accuracy(labels[:, 1].astype(int), truth)


# -- voice: raw audio, windowed energy, GMM -----------------------------------

AUDIO_RATE = 44_100
ENERGY_WINDOW = cli.DEFAULT_ENERGY_WINDOW


def make_voice(rng, index, root, tiny):
    """Microphone samples: a harmonic tone in phonation blocks, noise between.

    No ``synth`` scenario produces raw audio, so the tone is built here.
    Phonation (state 1) is adherence. One speaker per recording: pitch and
    loudness are drawn once. When loudness varies from block to block, the
    two-component GMM on window energy can split loud from quiet phonation
    instead of phonation from silence (BA 0.88 on one such input), a limit
    of the method rather than a cost this benchmark measures.
    """
    duration = 10.0 if tiny else 30.0
    schedule = _alternating(rng, duration, 2.5, 5.0)
    n = int(duration * AUDIO_RATE)
    t = np.arange(n) / AUDIO_RATE
    values = rng.normal(0.0, 0.005, size=n)
    f0 = rng.uniform(110.0, 260.0)
    amplitude = rng.uniform(0.2, 0.5)
    for iv in schedule:
        if iv.state != 1:
            continue
        on = (t >= iv.start) & (t < iv.end)
        for harmonic, weight in ((1, 1.0), (2, 0.5), (3, 0.25)):
            values[on] += amplitude * weight * np.sin(2 * np.pi * harmonic * f0 * t[on])
    rec = Recording("voice", index, root / f"voice{index}.csv",
                    root / f"voice{index}_truth.csv", duration, n)
    write_csv(rec.raw, "t,v", "%.7f,%.6f", [t, values])
    centres = (np.arange(n // ENERGY_WINDOW) + 0.5) * ENERGY_WINDOW / AUDIO_RATE
    _write_truth(rec.truth, AUDIO_RATE / ENERGY_WINDOW,
                 np.where(_state_at(schedule, centres) == 1, ADHERENCE, VIOLATION))
    return rec


def run_voice(rec, out, tiny):
    run_cli(["preprocess", str(rec.raw), "--kind", "voice", "--seed", "0",
             "--out", str(out / "feature")])
    run_cli(["segment-gmm", str(out / "feature" / "feature.csv"),
             "--kind", "voice", "--seed", "0", "--out", str(out / "seg")])


def check_voice(rec, out):
    read_json(out / "seg" / "gmm.json")
    labels = read_table(out / "seg" / "labels.csv", 2)
    truth = read_table(rec.truth, 2)
    if len(truth) != len(labels):
        raise CheckFailed(f"labels.csv has {len(labels)} rows, truth {len(truth)}")
    return balanced_accuracy(labels[:, 1].astype(int), truth[:, 1].astype(int))


# -- field-ar: switching-AR feature, naive Bayes, block CV --------------------

FIELD_RATE = 30.0
REGIME_S = 3.0            # regimes alternate every 3 s
VIOLATION_REGIME = 1
FOLDS = 10


def _field_schedule(rng, duration):
    """Every 6-s CV block holds one adherence regime and the violation
    regime, so each fold sees both classes; neighbouring 3-s intervals never
    repeat a regime. The adherence regimes 0 and 2 each fill half the blocks:
    a regime held by one block only is unseen when that block is held out,
    naive Bayes flags it as violation by design, and the fold's adherence
    rate is undefined (seen on one input in 90)."""
    states = []
    blocks = int(round(duration / (2 * REGIME_S)))
    for adherence in rng.permutation(np.resize([0, 2], blocks)):
        pair = [int(adherence), VIOLATION_REGIME]
        if rng.random() < 0.5:
            pair.reverse()
        if states and states[-1] == pair[0]:
            pair.reverse()
        states.extend(pair)
    return [synth.RegimeInterval(s, i * REGIME_S, (i + 1) * REGIME_S)
            for i, s in enumerate(states)]


def make_field_ar(rng, index, root, tiny):
    """Scalar feature at 30 Hz from three scheduled AR regimes."""
    duration = 60.0
    spec = synth.SynthSpec(scenario="switching-ar", duration=duration,
                           rate=FIELD_RATE, schedule=_field_schedule(rng, duration),
                           seed=int(rng.integers(2**31)))
    series, states = synth.gen_switching_ar(spec)
    rec = Recording("field-ar", index, root / f"field{index}.csv",
                    root / f"field{index}_truth.csv", duration, len(series))
    write_csv(rec.raw, "t,v", "%.6f,%.9f", [series.times, series.values])
    _write_truth(rec.truth, FIELD_RATE,
                 np.where(states.indicators == VIOLATION_REGIME, VIOLATION, ADHERENCE))
    return rec


def run_field_ar(rec, out, tiny):
    sweeps, burn_in = (10, 5) if tiny else (100, 50)
    seg = out / "seg"
    run_cli(["segment-ar", str(rec.raw), "--order", "4", "--kappa", "20",
             "--sweeps", str(sweeps), "--burn-in", str(burn_in), "--seed", "0",
             "--out", str(seg)])
    try:
        posteriors = np.loadtxt(seg / "posteriors.csv", delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"posteriors.csv: {exc}") from exc
    counts = context.rescale_to_counts(posteriors, 100)
    np.savetxt(out / "counts.csv", counts, fmt="%d", delimiter=",")
    run_cli(["evaluate", str(out / "counts.csv"), str(rec.truth),
             "--folds", str(FOLDS), "--seed", "0", "--out", str(out),
             "--name", "report.json"])
    run_cli(["evaluate", str(out / "counts.csv"), str(rec.truth),
             "--folds", str(FOLDS), "--baseline", "shuffled", "--seed", "0",
             "--out", str(out), "--name", "control.json"])


def check_field_ar(rec, out):
    read_json(out / "seg" / "swar.json")
    read_table(out / "seg" / "states.csv", 2)
    ba = read_json(out / "report.json")["metrics"]["mean"]["ba"]
    control = read_json(out / "control.json")["metrics"]["mean"]["ba"]
    if ba is None:
        raise CheckFailed("10-fold BA undefined")
    if control is None or not CHANCE_BAND[0] <= control <= CHANCE_BAND[1]:
        raise CheckFailed(f"shuffled control BA {control} outside {CHANCE_BAND}")
    return float(ba)


@dataclass
class Workload:
    name: str
    make: Callable
    run: Callable
    check: Callable


WORKLOADS = {
    "walking": Workload("walking", make_walking, run_walking, check_walking),
    "voice": Workload("voice", make_voice, run_voice, check_voice),
    "field-ar": Workload("field-ar", make_field_ar, run_field_ar, check_field_ar),
}


def make_pool(name: str, seed: int, size: int, root: Path, tiny: bool) -> list[Recording]:
    """Generate ``size`` recordings of one workload from ``seed``."""
    rng = np.random.default_rng(seed)
    return [WORKLOADS[name].make(rng, i, root, tiny) for i in range(size)]


def write_pool(name: str, seed: str, size: str, root: str, tiny: str) -> None:
    """Generate a pool from command-line strings and list it in ``pool.json``
    under ``root``, for a parent process to read with ``read_pool``."""
    pool = make_pool(name, int(seed), int(size), Path(root), tiny == "1")
    (Path(root) / "pool.json").write_text(json.dumps(
        [{"workload": r.workload, "index": r.index, "raw": str(r.raw),
          "truth": str(r.truth), "duration_s": r.duration_s, "rows": r.rows}
         for r in pool]))


def read_pool(root: Path) -> list[Recording]:
    entries = json.loads((root / "pool.json").read_text())
    return [Recording(e["workload"], e["index"], Path(e["raw"]), Path(e["truth"]),
                      e["duration_s"], e["rows"]) for e in entries]


def digest(directory: Path) -> str:
    """Hash of every artifact's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs recordings of one workload and keeps what the checks found."""

    def __init__(self, workload, work: Path, tiny: bool):
        self.workload = workload
        self.work = work
        self.tiny = tiny
        self.floor = BA_FLOOR[workload.name]
        self.attempted = 0
        self.failed = 0
        self.first_digest: dict[int, str] = {}
        self.reruns = 0
        self.ba: dict[int, float] = {}

    def attempt(self, rec) -> float | None:
        """Run one recording; return its recipe wall seconds, or None if it failed."""
        self.attempted += 1
        out = self.work / f"run{self.attempted}"
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                self.workload.run(rec, out, self.tiny)
            wall = time.perf_counter() - start
            ba = self.workload.check(rec, out)
            if ba is None or ba < self.floor:
                raise CheckFailed(f"balanced accuracy {ba} below {self.floor}")
            found = digest(out)
            first = self.first_digest.setdefault(rec.index, found)
            if rec.index in self.ba:
                self.reruns += 1
                if found != first:
                    raise CheckFailed("rerun artifacts are not byte-identical")
            self.ba[rec.index] = ba
            return wall
        except CheckFailed as exc:
            print(f"recording {rec.index} failed: {exc}", file=sys.stderr)
        except Exception:   # the loop must go on and count the failure
            traceback.print_exc()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self.failed += 1
        return None
