"""clinqc benchmark: one workload of CLI recipes, one client, closed loop.

    python3 perfbench/run.py --workload walking --seed 1 --seconds 20 --trace 0

The benchmark builds nothing: it imports ``clinqc`` from ``src/`` of the
checkout it sits in, and refuses to run without it. Inputs come from
``--seed``. Recordings run back to back through ``clinqc.cli.main`` until
``--seconds`` of recipe time have passed (and at least once over the
input pool plus one rerun). Every recording is checked; see README.md.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The run
record and the spans go to ``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
POOL = 3                 # distinct recordings generated per run

END_TO_END = {
    "recording_s": "s",
    "realtime_x": "x",
    "balanced_accuracy": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _cap_blas_threads() -> int:
    """Cap BLAS threads at nproc, or at the fewest any BLAS variable asks
    for, before numpy loads; return the cap."""
    threads = min([NPROC] + [int(os.environ[v]) for v in BLAS_VARS if v in os.environ])
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def _import_clinqc():
    """Import clinqc from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "clinqc" / "cli.py").is_file():
        sys.exit(f"perfbench: no clinqc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import clinqc
    if SRC.resolve() not in Path(clinqc.__file__).resolve().parents:
        sys.exit(f"perfbench: imported clinqc from {clinqc.__file__}, not {SRC}")


def _child(*argv: str) -> None:
    """Run a fresh interpreter with ``src/`` and this directory on its path,
    and wait for it to end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, check=True,
                   timeout=300)


def measure_setup_s() -> float:
    """Median wall time of a fresh interpreter importing the CLI and building
    its parser, the start-up every CLI invocation pays."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _child("-c", "import clinqc.cli as c; c.build_parser()")
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def machine_record(blas_threads: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads}


def run_plain(runner, pool, seconds: float) -> tuple[dict, list]:
    walls, signal_s = [], 0.0
    start = time.perf_counter()
    i = 0
    while i <= len(pool) or time.perf_counter() - start < seconds:
        rec = pool[i % len(pool)]
        wall = runner.attempt(rec)
        if wall is not None:
            walls.append(wall)
            signal_s += rec.duration_s
        i += 1
    return {
        "recording_s": statistics.median(walls) if walls else 0.0,
        "realtime_x": signal_s / sum(walls) if walls else 0.0,
        "balanced_accuracy": (statistics.fmean(runner.ba.values())
                              if len(runner.ba) == len(pool) else 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, walls


def run_traced(runner, pool, seconds: float) -> tuple[dict, list, list]:
    """Each recording runs traced and untraced, in alternating order; the
    pair's difference is the tracing overhead and the second run doubles as
    the rerun check. Whole passes over the pool keep the medians of counts
    deterministic."""
    import tracing
    tracer = tracing.Tracer()
    per_recording, overhead, traced_walls = [], [], []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for rec in pool:
            tracer.recording = f"{rec.workload}{rec.index}.{passes}"
            first_span = len(tracer.spans)
            untraced_first = (rec.index + passes) % 2 == 1
            if untraced_first:
                untraced = runner.attempt(rec)
            with tracer.installed():
                traced = runner.attempt(rec)
            if not untraced_first:
                untraced = runner.attempt(rec)
            if traced is None:
                continue
            spans = tracer.spans[first_span:]
            per_recording.append(tracing.recording_metrics(spans, traced))
            traced_walls.append(traced)
            if untraced is not None:
                overhead.append(traced - untraced)
        passes += 1
    layer = {name: statistics.median(r[name] for r in per_recording)
             for name in (per_recording[0] if per_recording else ())}
    peak = 0.0
    if tracer.last_sample_states is not None:
        peak = tracing.sample_states_peak_mb(*tracer.last_sample_states)
    layer["swar.sample_states_peak_mb"] = peak
    layer["trace.recording_s"] = statistics.median(traced_walls) if traced_walls else 0.0
    layer["trace.overhead_s"] = statistics.median(overhead) if overhead else 0.0
    metrics = {name: layer.get(name, 0.0) for name in tracing.LAYER_METRICS}
    return metrics, traced_walls, tracer.dump()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["walking", "voice", "field-ar"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and few sweeps, for the smoke test")
    args = parser.parse_args(argv)

    blas_threads = _cap_blas_threads()
    _import_clinqc()
    sys.path.insert(0, str(HERE))
    import tracing
    from workloads import WORKLOADS, Runner, read_pool

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    work = OUT / f"{tag}-{os.getpid()}"
    setup_s = None if args.trace else measure_setup_s()
    try:
        work.mkdir(parents=True)
        # a child process generates the inputs, so peak_rss_mb of this
        # process covers the recipes and not the generators
        _child("-c", "import sys, workloads; workloads.write_pool(*sys.argv[1:])",
               args.workload, str(args.seed), str(POOL), str(work),
               "1" if args.tiny else "0")
        pool = read_pool(work)
        inputs = [{"rows": rec.rows, "bytes": rec.bytes,
                   "signal_s": rec.duration_s} for rec in pool]
        runner = Runner(workload, work, args.tiny)
        spans = []
        if args.trace:
            metrics, walls, spans = run_traced(runner, pool, args.seconds)
            units = tracing.LAYER_METRICS
        else:
            metrics, walls = run_plain(runner, pool, args.seconds)
            metrics["setup_s"] = setup_s
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    error_rate = runner.failed / runner.attempted
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "machine": machine_record(blas_threads),
        "inputs": inputs, "attempted": runner.attempted, "failed": runner.failed,
        "error_rate": error_rate, "reruns": runner.reruns,
        "recording_walls_s": walls,
        "samples": {"recording_s": len(walls),
                    "setup_s": 0 if args.trace else SETUP_REPEATS,
                    "balanced_accuracy": len(runner.ba)},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    if spans:
        (OUT / f"{tag}-spans.json").write_text(json.dumps(spans) + "\n")

    print(f"{args.workload} seed {args.seed}: {runner.attempted} recordings, "
          f"{len(walls)} timed, {runner.reruns} reruns, error_rate {error_rate:g}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
