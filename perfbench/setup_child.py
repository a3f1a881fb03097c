"""Set-up probe, run in a fresh interpreter: ``python3 perfbench/setup_child.py``.

Imports ``oranpower.cli`` and builds its argument parser, the program-side
objects both workloads need before their timed loop, then prints the CPU
seconds that took. Interpreter start-up before this file runs is not
included.
"""

import time

START_CPU = time.process_time()

import oranpower.cli  # noqa: E402

oranpower.cli.build_parser()

print(time.process_time() - START_CPU)
