"""Smoke test for the benchmark itself, at tiny sizes (about two minutes).

    python3 perfbench/smoke.py

Checks that every workload emits every metric named in BENCHMARK.json with
its unit in both modes, that a traced recording writes the same bytes as
an untraced one, and that the benchmark refuses to run without ``src/``.
It is a plain script so the repository's pytest run does not collect it.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_metrics(spec: dict) -> None:
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = bench("--workload", name, "--seed", "5", "--seconds", "1",
                         "--trace", str(trace), "--tiny")
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, done.stderr
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, (name, trace, got)
            print(f"ok  {name} --trace {trace}: {len(got)} metrics")


def check_traced_artifacts_identical() -> None:
    work = run.OUT / "smoke-artifacts"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for name, workload in workloads.WORKLOADS.items():
            rng = np.random.default_rng(7)
            rec = workload.make(rng, 0, work, True)
            tracer = tracing.Tracer()
            with contextlib.redirect_stdout(io.StringIO()):
                workload.run(rec, work / f"{name}-plain", True)
                with tracer.installed():
                    workload.run(rec, work / f"{name}-traced", True)
            assert tracer.spans, name
            assert (workloads.digest(work / f"{name}-plain")
                    == workloads.digest(work / f"{name}-traced")), name
            print(f"ok  {name}: traced artifacts identical "
                  f"({len(tracer.spans)} spans)")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_refuses_without_sources() -> None:
    bare = run.OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = bench("--workload", "walking", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        assert done.returncode != 0
        assert not done.stdout.strip(), done.stdout
        print("ok  refuses to run without src/")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_refuses_without_sources()
    check_traced_artifacts_identical()
    check_metrics(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
