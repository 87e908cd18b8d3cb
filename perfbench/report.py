"""Run every workload once and print the end-to-end metrics side by side.

    python3 perfbench/report.py

Each workload runs in its own ``run.py`` process, as the benchmark does,
with ``run.py``'s default seed and duration. ``error_rate`` is failed over
attempted recordings.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["walking", "voice", "field-ar"]


def main() -> int:
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--trace", "0"],
            capture_output=True, text=True, check=True)
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])

    first = results[WORKLOADS[0]]["metrics"]
    print(f"{'metric':28s} {'unit':9s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for metric, entry in first.items():
        row = "".join(f"{results[w]['metrics'][metric]['value']:14.6g}"
                      for w in WORKLOADS)
        print(f"{metric:28s} {entry['unit']:9s}{row}")
    row = "".join(f"{results[w]['failed'] / results[w]['attempted']:14.6g}"
                  for w in WORKLOADS)
    print(f"{'error_rate':28s} {'fraction':9s}{row}")
    row = "".join(f"{results[w]['attempted']:14d}" for w in WORKLOADS)
    print(f"{'attempted':28s} {'count':9s}{row}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
