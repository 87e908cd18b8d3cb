"""Outside-only tracing of clinqc's public layer functions.

``Tracer.installed()`` replaces module attributes with wrappers that record
one span per call: its name, start, end, parent span and recording id.
Calls made through a module attribute, including a module's calls to its
own functions, pass through the wrapper; calls to private helpers do not.
Counts come from public hooks: the length of ``l1_trend_filter``'s
``trace_out``, caught ``NoConvergenceWarning``s, ``SwArFit.occupied``, rows
returned by readers and bytes on disk after writers. ``src/`` is untouched.
"""
from __future__ import annotations

import functools
import statistics
import time
import tracemalloc
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from clinqc import cli, context, gmm, metrics, preprocess, serialize, swar, trend
from clinqc.errors import NoConvergenceWarning

READERS = ["read_accelerometer_csv", "read_audio_csv", "read_scalar_csv",
           "read_labels_csv"]
WRITERS = ["write_scalar_csv", "write_labels_csv", "write_spectrum_csv",
           "write_decomposition_csv", "save_model"]

TRACED = {
    cli: ["main"],
    serialize: READERS + WRITERS,
    preprocess: ["interpolate_uniform", "magnitude", "log_magnitude",
                 "windowed_energy", "lowpass_filter", "downsample",
                 "power_spectrum"],
    trend: ["remove_gravity", "l1_trend_filter"],
    gmm: ["fit_gmm_em", "map_assign", "median_smooth_to_convergence",
          "mean_rule_adherence"],
    swar: ["fit", "gibbs_sweep", "sample_states", "complete_data_loglik"],
    context: ["rescale_to_counts", "nb_train", "nb_predict"],
    metrics: ["kfold_cv", "shuffled_baseline"],
}

# per-layer metric name -> unit, in report order
LAYER_METRICS = {
    "cli.self_s": "s",
    "serialize.read_s": "s",
    "serialize.read_rows_per_s": "rows/s",
    "serialize.write_s": "s",
    "serialize.write_mb_per_s": "MB/s",
    "preprocess.interpolate_s": "s",
    "preprocess.feature_s": "s",
    "trend.remove_gravity_s": "s",
    "trend.admm_iters": "count",
    "trend.ms_per_iter": "ms",
    "trend.nonconverged": "count",
    "gmm.em_s": "s",
    "gmm.assign_s": "s",
    "gmm.smooth_s": "s",
    "swar.fit_s": "s",
    "swar.sweep_ms": "ms",
    "swar.sample_states_ms": "ms",
    "swar.sample_states_share": "fraction",
    "swar.loglik_ms": "ms",
    "swar.sample_states_peak_mb": "MB",
    "swar.k_plus": "count",
    "context.s": "s",
    "metrics.cv_s": "s",
    "trace.recording_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    id: int
    name: str                  # "<layer>.<function>"
    parent: int | None
    recording: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def function(self) -> str:
        return self.name.split(".", 1)[1]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _call_trend_filter(span, fn, args, kwargs):
    trace = args[3] if len(args) > 3 else kwargs.get("trace_out")
    if trace is None:
        trace = kwargs["trace_out"] = []
    before = len(trace)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NoConvergenceWarning)
        result = fn(*args, **kwargs)
    span.counts["admm_iters"] = len(trace) - before
    span.counts["nonconverged"] = sum(
        issubclass(w.category, NoConvergenceWarning) for w in caught)
    return result


def _call_fit(span, fn, args, kwargs):
    result = fn(*args, **kwargs)
    span.counts["k_plus"] = result.occupied
    return result


def _call_reader(span, fn, args, kwargs):
    result = fn(*args, **kwargs)
    span.counts["rows"] = len(result)
    return result


def _call_writer(span, fn, args, kwargs):
    result = fn(*args, **kwargs)
    span.counts["bytes"] = Path(args[0]).stat().st_size
    return result


HOOKS = {"trend.l1_trend_filter": _call_trend_filter, "swar.fit": _call_fit}
HOOKS.update({f"serialize.{name}": _call_reader for name in READERS})
HOOKS.update({f"serialize.{name}": _call_writer for name in WRITERS})


class Tracer:
    """Spans kept in memory; ``recording`` tags every span opened after it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.recording = ""
        self.last_sample_states: tuple | None = None
        self._stack: list[Span] = []

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, parent, self.recording, 0.0)
            self.spans.append(span)
            self._stack.append(span)
            if name == "swar.sample_states":
                self.last_sample_states = args[:2]
            span.start = time.perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(span, fn, args, kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    @contextmanager
    def installed(self):
        originals = []
        try:
            for module, names in TRACED.items():
                layer = module.__name__.rsplit(".", 1)[1]
                for fname in names:
                    fn = getattr(module, fname)
                    originals.append((module, fname, fn))
                    setattr(module, fname, self._wrap(layer, fn))
            yield self
        finally:
            for module, fname, fn in originals:
                setattr(module, fname, fn)
            self._stack.clear()

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def sample_states_peak_mb(model, loglik) -> float:
    """Peak traced allocation of one ``sample_states`` call, in its own pass."""
    tracemalloc.start()
    try:
        swar.sample_states(model, loglik, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def recording_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer figures for the spans of one traced recording of ``wall`` s."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    self_time = {s.id: s.duration - child_time[s.id] for s in spans}

    def self_s(layer, functions=None):
        return sum(self_time[s.id] for s in spans if s.layer == layer
                   and (functions is None or s.function in functions))

    def called(name):
        return [s for s in spans if s.name == name]

    def mean_ms(name):
        found = called(name)
        return 1000 * statistics.fmean(s.duration for s in found) if found else 0.0

    def count(key):
        return sum(s.counts.get(key, 0) for s in spans)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    read_s = self_s("serialize", READERS)
    write_s = self_s("serialize", WRITERS)
    iters = count("admm_iters")
    admm_s = sum(s.duration for s in called("trend.l1_trend_filter"))
    sweep_s = sum(s.duration for s in called("swar.gibbs_sweep"))
    states_s = sum(s.duration for s in called("swar.sample_states"))
    layer_s = sum(self_time[s.id] for s in spans if s.layer != "cli")
    return {
        "cli.self_s": wall - layer_s,
        "serialize.read_s": read_s,
        "serialize.read_rows_per_s": rate(count("rows"), read_s),
        "serialize.write_s": write_s,
        "serialize.write_mb_per_s": rate(count("bytes") / 1e6, write_s),
        "preprocess.interpolate_s": self_s("preprocess", ["interpolate_uniform"]),
        "preprocess.feature_s": self_s("preprocess") - self_s(
            "preprocess", ["interpolate_uniform"]),
        "trend.remove_gravity_s": self_s("trend"),
        "trend.admm_iters": iters,
        "trend.ms_per_iter": 1000 * rate(admm_s, iters),
        "trend.nonconverged": count("nonconverged"),
        "gmm.em_s": self_s("gmm", ["fit_gmm_em"]),
        "gmm.assign_s": self_s("gmm", ["map_assign", "mean_rule_adherence"]),
        "gmm.smooth_s": self_s("gmm", ["median_smooth_to_convergence"]),
        "swar.fit_s": self_s("swar"),
        "swar.sweep_ms": mean_ms("swar.gibbs_sweep"),
        "swar.sample_states_ms": mean_ms("swar.sample_states"),
        "swar.sample_states_share": rate(states_s, sweep_s),
        "swar.loglik_ms": mean_ms("swar.complete_data_loglik"),
        "swar.k_plus": count("k_plus"),
        "context.s": self_s("context"),
        "metrics.cv_s": self_s("metrics"),
    }
