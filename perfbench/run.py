"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload {sweep,whatif} --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the last line holds the end-to-end metrics:

- ``setup_s``: median over fresh interpreters, run before and after the
  timed loop, of the CPU time to import ``oranpower.cli`` and build its
  argument parser;
- ``cells_per_s``: median over the run's rounds of model cells per CPU
  second of program calls;
- ``op_p50_ms`` and ``op_p99_ms``: median over rounds of the round's
  percentiles of one operation's CPU time;
- ``peak_rss_mib``: the peak resident set size of this process.

With ``--trace 1`` it holds the per-layer metrics of ``traced.py``. Each run
also writes its line to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 5  # before the timed loop and again after it
MAX_PROBLEMS_SHOWN = 20


def import_cli():
    """``oranpower.cli`` from this checkout's ``src/``, or exit without a result."""
    sys.path.insert(1, SRC)
    try:
        from oranpower import cli
    except ImportError as exc:
        sys.exit(f"cannot import oranpower from {SRC}: {exc}")
    if os.path.commonpath([os.path.abspath(cli.__file__), SRC]) != SRC:
        sys.exit(f"oranpower was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup_samples(warm_up: bool) -> list[float]:
    """CPU seconds of set-up in SETUP_RUNS fresh interpreters.

    The warm-up run, which may compile bytecode, is not counted.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    command = [sys.executable, os.path.join(HERE, "setup_child.py")]
    samples = []
    for _ in range(SETUP_RUNS + warm_up):
        proc = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            sys.exit(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout))
    return samples[warm_up:]


def end_to_end(tally, setup_s: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (setup_s, "s"),
        "cells_per_s": (statistics.median(tally.rates), "1/s"),
        "op_p50_ms": (statistics.median(tally.p50s), "ms"),
        "op_p99_ms": (statistics.median(tally.p99s), "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "whatif"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    import checks
    import traced
    import workloads

    problems = checks.selftest()
    with tempfile.TemporaryDirectory(prefix="out-", dir=HERE) as out_dir:
        if args.trace:
            metrics, tallies = traced.run_traced(args.workload, args.seed, args.seconds, out_dir,
                                                 cli, ROOT)
        else:
            setup = setup_samples(warm_up=True)
            tally = workloads.run(args.workload, args.seed, args.seconds, out_dir, cli)
            setup += setup_samples(warm_up=False)
            metrics, tallies = end_to_end(tally, statistics.median(setup)), [tally]
    for tally in tallies:
        problems += tally.unexpected
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(problem, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(tally.attempted for tally in tallies),
        "failed": sum(tally.failed for tally in tallies),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as handle:
        handle.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
