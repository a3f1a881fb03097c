"""Record the benchmark for the current tree in one JSON file: ``tools/record_bench.py OUT``.

Run from anywhere; paths are taken from this file's checkout. The script runs
``python3 perfbench/run.py`` for each workload in ``BENCHMARK.json`` over
seeds 1-5, each for the ``run_seconds`` of ``BENCHMARK.json``, one run at a time. It then times, by
wall clock, a cold ``oranpower eval`` process and a ``sweep --max-ru 10000``
process (median of 7 each), one run of the tier-1 test suite and one of
``tests/mutants.py``. ``OUT`` gets:

- per workload and end-to-end metric: the median, the interquartile range
  (``statistics.quantiles``, exclusive method) and every run's value, with
  each run's ``correct`` and ``failed``;
- the machine: the CPU model from ``/proc/cpuinfo`` and the core count; the
  Python version, the commit (``-dirty`` when the tree has changes) and
  ``PYTHONDONTWRITEBYTECODE``;
- ``src_lines``: the lines of every ``src/oranpower/*.py``, per file and in total;
- the wall times above, in seconds, with each command's exit status.

It exits 1, after writing ``OUT``, when a benchmark run reports
``"correct": false`` or a failed operation, or a timed command fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 6)
WALL_REPEATS = 7


def benchmark_runs(workload: str, seconds: float) -> list[dict]:
    """The last line of ``perfbench/run.py`` for each of ``SEEDS``, parsed."""
    results = []
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"{workload} seed {seed}: {results[-1]['metrics']}", file=sys.stderr, flush=True)
    return results


def summary(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": quartiles[2] - quartiles[0],
            "runs": values}


def wall_time(command: list[str], repeats: int) -> dict:
    """Median wall seconds of ``command`` run from the root with ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times, statuses = [], set()
    for _ in range(repeats):
        start = time.perf_counter()
        statuses.add(subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL).returncode)
        times.append(time.perf_counter() - start)
    return {"command": " ".join(["python", *command[1:]]), "median_s": statistics.median(times),
            "runs_s": times, "exit_status": max(statuses, key=abs)}


def machine() -> dict:
    models = [line.split(":", 1)[1].strip()
              for line in Path("/proc/cpuinfo").read_text().splitlines()
              if line.startswith("model name")]
    git = ["git", "-C", str(ROOT)]
    commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                            check=True).stdout.strip()
    dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                           capture_output=True, text=True, check=True).stdout.strip()
    return {"cpu_model": models[0] if models else platform.processor(),
            "cores": os.cpu_count(), "python": platform.python_version(),
            "commit": commit + ("-dirty" if dirty else ""),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", help="path of the JSON file to write")
    args = parser.parse_args(argv)
    seconds = benchmark["run_seconds"]

    record = {"machine": machine(), "workloads": {}}
    healthy = True
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        results = benchmark_runs(workload, seconds)
        healthy &= all(r["correct"] is True and r["failed"] == 0 for r in results)
        record["workloads"][workload] = {
            "seconds": seconds,
            "seeds": list(SEEDS),
            "correct": [r["correct"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": {m["name"]: dict(summary([r["metrics"][m["name"]]["value"]
                                                 for r in results]), unit=m["unit"])
                        for m in benchmark["end_to_end"]},
        }
    lines = {path.name: len(path.read_text(encoding="utf-8").splitlines())
             for path in sorted((ROOT / "src" / "oranpower").glob("*.py"))}
    record["src_lines"] = {"total": sum(lines.values()), "files": lines}
    cli = [sys.executable, "-m", "oranpower.cli"]
    record["wall"] = {
        "cold_eval": wall_time(cli + ["eval", "--n-ru", "100", "--users-per-ru", "10",
                                      "--bbp", "dc"], WALL_REPEATS),
        "sweep_max_ru_10000": wall_time(cli + ["sweep", "--max-ru", "10000"], WALL_REPEATS),
        "tier1_suite": wall_time([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                  "--continue-on-collection-errors"], 1),
        "mutants": wall_time([sys.executable, "tests/mutants.py"], 1),
    }
    healthy &= all(entry["exit_status"] == 0 for entry in record["wall"].values())
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
