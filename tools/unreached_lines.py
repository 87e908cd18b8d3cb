"""Map the lines of ``src/clinqc`` that no CLI run reaches.

Runs each subcommand in process under the stdlib ``trace`` module, on small
synthetic inputs: synth for all three scenarios; preprocess for walking,
balance and voice; segment-gmm for each kind, one of them through a config
file; spectrum; a short segment-ar; train-nb; classify; and evaluate with
both baselines. Then prints, per module, how many executable lines no run
executed, followed by those lines. Exits 1 if any subcommand exits non-zero.
``__init__.py``, which only imports, is not listed: ``trace`` decides what
to ignore by bare module name, and numpy's ``__init__`` is ignored first.

    python tools/unreached_lines.py

Takes about 5 s on a 2-vCPU virtual machine.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import sys
import tempfile
import trace
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"


def ranges(numbers: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``3-5, 9``."""
    runs: list[list[int]] = []
    for n in numbers:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def unreached(results: trace.CoverageResults, package: Path, coverdir: Path
              ) -> dict[str, tuple[int, list[int]]]:
    """Module file name -> (executable lines, the unreached ones)."""
    counts = {key: n for key, n in results.counts.items()
              if Path(key[0]).parent == package}
    with contextlib.redirect_stdout(io.StringIO()):
        trace.CoverageResults(counts=counts).write_results(
            show_missing=True, coverdir=str(coverdir))
    found = {}
    for cover in sorted(coverdir.glob("clinqc.*.cover")):
        lines = cover.read_text().splitlines()
        executable = [n for n, line in enumerate(lines, start=1)
                      if line[:6].strip()]
        missing = [n for n, line in enumerate(lines, start=1)
                   if line.startswith(">>>>>>")]
        found[cover.name[len("clinqc."):-len("cover")] + "py"] = (
            len(executable), missing)
    return found


def main() -> int:
    sys.path.insert(0, str(SRC))
    tracer = trace.Trace(count=1, trace=0, ignoredirs=sorted({
        sys.prefix, sys.exec_prefix, sys.base_prefix, sys.base_exec_prefix}))
    # imported under the tracer, so module-level lines count as reached
    cli = tracer.runfunc(importlib.import_module, "clinqc.cli")
    package = Path(cli.__file__).parent
    if package != SRC / "clinqc":
        sys.exit(f"imported clinqc from {package}, not {SRC}")
    from clinqc import context  # loaded by the traced import above

    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)

        def run(*argv) -> None:
            argv = [str(a) for a in argv]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = tracer.runfunc(cli.main, argv)
            if code != 0:
                sys.exit(f"clinqc {' '.join(argv)} exited with {code}: {err.getvalue()}")

        for scenario in ("switching-ar", "gravity-drift", "two-cluster"):
            run("synth", "--scenario", scenario, "--out", d / scenario)
        t = np.arange(2 * 44_100) / 44_100
        audio = np.where(t < 1, 0.3, 0.01) * np.sin(2 * np.pi * 220 * t)
        np.savetxt(d / "audio.csv", np.column_stack([t, audio]), fmt="%.7f",
                   delimiter=",", header="t,v", comments="")
        run("preprocess", d / "gravity-drift" / "raw.csv", "--kind", "walking",
            "--out", d / "walking")
        run("preprocess", d / "gravity-drift" / "raw.csv", "--kind", "balance",
            "--out", d / "balance")
        run("preprocess", d / "audio.csv", "--kind", "voice", "--out", d / "voice")
        run("segment-gmm", d / "walking" / "feature.csv", "--kind", "walking",
            "--out", d / "walking")
        (d / "balance.json").write_text('{"kind": "balance", "window_seconds": 2.0}')
        run("segment-gmm", d / "balance" / "feature.csv", "--config",
            d / "balance.json", "--out", d / "balance")
        run("segment-gmm", d / "two-cluster" / "feature.csv", "--kind", "voice",
            "--out", d / "two-cluster")
        feature = d / "switching-ar" / "feature.csv"
        run("spectrum", feature, "--out", d / "switching-ar")
        run("segment-ar", feature, "--sweeps", "10", "--burn-in", "5",
            "--kappa", "20", "--out", d / "ar")

        # counts and labels for the classifier, written outside the tracer
        posteriors = np.loadtxt(d / "ar" / "posteriors.csv", delimiter=",")
        np.savetxt(d / "counts.csv", context.rescale_to_counts(posteriors),
                   fmt="%d", delimiter=",")
        truth = np.loadtxt(d / "switching-ar" / "truth.csv", delimiter=",",
                           skiprows=3)
        np.savetxt(d / "labels.csv",
                   np.column_stack([truth[:, 0], np.where(truth[:, 1] == 1, 2, 1)]),
                   fmt=["%.6f", "%d"], delimiter=",", header="t,u", comments="")
        run("train-nb", d / "counts.csv", d / "labels.csv", "--out", d / "nb")
        run("classify", d / "nb" / "nb.json", d / "counts.csv", "--out", d / "nb")
        for baseline in ("none", "shuffled"):
            run("evaluate", d / "counts.csv", d / "labels.csv", "--folds", "5",
                "--baseline", baseline, "--name", f"{baseline}.json",
                "--out", d / "nb")

        found = unreached(tracer.results(), package, d / "cover")

    print(f"{'module':<16}{'unreached':>10}{'executable':>12}")
    for name, (executable, missing) in found.items():
        print(f"{name:<16}{len(missing):>10}{executable:>12}")
    print(f"{'total':<16}{sum(len(m) for _, m in found.values()):>10}"
          f"{sum(e for e, _ in found.values()):>12}")
    print()
    for name, (_, missing) in found.items():
        print(f"{name}: {ranges(missing) or '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
