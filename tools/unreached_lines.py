"""Map the lines of ``src/clinqc`` that no CLI run reaches.

Runs every recipe group of ``tools/every_subcommand.py`` (each subcommand
on small synthetic inputs, in process), with each CLI call under the stdlib
``trace`` module; the steps between calls, such as writing counts and
labels, run untraced. Then prints, per module, how many executable lines no
run executed, followed by those lines. Exits 1 if any subcommand exits
non-zero.
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

import every_subcommand  # this script's directory is on sys.path

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

    def run(argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = tracer.runfunc(cli.main, argv)
        if code != 0:
            sys.exit(f"clinqc {' '.join(argv)} exited with {code}: {err.getvalue()}")

    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for group in every_subcommand.GROUPS:
            group(d, run)
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
