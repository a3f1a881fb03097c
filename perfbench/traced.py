"""Traced run: per-layer metrics, timed from outside the package.

    python3 perfbench/traced.py --workload {sweep,whatif} --seed N --seconds S

The workload runs untraced for half the time and then, with the same seed,
traced for the other half. Tracing replaces public functions of the six
``oranpower`` modules with wrappers, in every module that binds them (the
modules import names from each other), and records one span per call:
layer, start, end and the enclosing span. Spans stay in memory until the
run ends. A small function called many times per cell only has its calls
counted. Import self times come from ``python -X importtime`` and line
counts from ``src/oranpower/*.py``. ``trace.overhead_pct`` compares the
traced half's cells per CPU second with the untraced half's.
"""

from __future__ import annotations

import importlib
import os
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter

import workloads

MODULES = ("configfile", "catalog", "topology", "powermodel", "experiments", "cli")
# (layer, module, attribute); a dotted attribute is a class member.
SPANS = (
    ("cli.main", "cli", "main"),
    ("cli.build_parser", "cli", "build_parser"),
    ("cli.load_run_config", "cli", "load_run_config"),
    ("cli.cmd_eval", "cli", "cmd_eval"),
    ("cli.cmd_fanout", "cli", "cmd_fanout"),
    ("cli.cmd_sweep", "cli", "cmd_sweep"),
    ("configfile.parse_config_text", "configfile", "parse_config_text"),
    ("catalog.catalog_from_entries", "catalog", "catalog_from_entries"),
    ("powermodel.evaluate", "powermodel", "ModelConfig.evaluate"),
    ("powermodel.evaluate", "powermodel", "total_power_per_user"),
    ("powermodel.processing_power_per_user", "powermodel", "processing_power_per_user"),
    ("powermodel.transmission_power_per_user", "powermodel", "transmission_power_per_user"),
    ("powermodel.PowerBreakdown", "powermodel", "PowerBreakdown.__init__"),
    ("topology.build_sweep_topology", "topology", "build_sweep_topology"),
    ("topology.from_fanout_case", "topology", "from_fanout_case"),
    ("experiments.sweep_orus", "experiments", "sweep_orus"),
    ("experiments.fanout_study", "experiments", "fanout_study"),
)
# Counted only while a cell (one evaluate call) is open.
COUNTS = (
    ("powermodel.provision_units", "powermodel", "provision_units"),
    ("powermodel.node_ecpri_load", "powermodel", "node_ecpri_load"),
    ("topology.coverage_factor", "topology", "coverage_factor"),
)
CELL = "powermodel.evaluate"
MEAN_US = ("cli.build_parser", "cli.load_run_config", "configfile.parse_config_text",
           "catalog.catalog_from_entries", "powermodel.processing_power_per_user",
           "powermodel.transmission_power_per_user", "powermodel.PowerBreakdown",
           "topology.build_sweep_topology", "experiments.fanout_study",
           "topology.from_fanout_case")
SELF_US = ("cli.main", "cli.cmd_eval", "cli.cmd_fanout")
IMPORT_RUNS = 5


class Tracer:
    """Wraps the traced functions and keeps every span in flat in-memory arrays."""

    def __init__(self):
        self.layers = []
        self.layer_id = {}
        self.layer = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.stack = []
        self.open_cells = 0
        self.counts = Counter()
        self.records_held = 0
        self.patches = []

    def _id(self, name: str) -> int:
        if name not in self.layer_id:
            self.layer_id[name] = len(self.layers)
            self.layers.append(name)
        return self.layer_id[name]

    def _span(self, name: str, fn):
        layer_id, is_cell = self._id(name), name == CELL
        layer, start, end, parent, stack = self.layer, self.start, self.end, self.parent, self.stack
        clock = time.perf_counter_ns
        after = self._held if name == "experiments.sweep_orus" else None

        def wrapper(*args, **kwargs):
            if stack and layer[stack[-1]] == layer_id:  # ModelConfig.evaluate -> total_power_per_user
                return fn(*args, **kwargs)
            index = len(start)
            layer.append(layer_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(index)
            self.open_cells += is_cell
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
                self.open_cells -= is_cell
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.open_cells:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _held(self, args, result) -> None:
        # A sized result holds every record at once; a stream holds one at a time.
        held = len(result) if hasattr(result, "__len__") else 1
        self.records_held = max(self.records_held, held)

    def install(self) -> None:
        loaded = [module for name, module in sys.modules.items()
                  if name == "oranpower" or name.startswith("oranpower.")]
        for targets, make in ((SPANS, self._span), (COUNTS, self._count)):
            for name, module_name, attribute in targets:
                module = importlib.import_module(f"oranpower.{module_name}")
                if "." in attribute:
                    owner_name, member = attribute.split(".")
                    owner = getattr(module, owner_name, None)
                    if owner is None or member not in vars(owner):
                        continue  # a layer the program no longer has reads 0
                    self._patch(owner, member, make(name, vars(owner)[member]))
                    continue
                original = getattr(module, attribute, None)
                if original is None:
                    continue
                wrapper = make(name, original)
                for holder in loaded:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, key, wrapper)

    def _patch(self, holder, key: str, wrapper) -> None:
        self.patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self.patches):
            setattr(holder, key, original)
        self.patches.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += duration[i]
        calls, inclusive, own = Counter(), Counter(), Counter()
        sweep_cmd = self.layer_id.get("cli.cmd_sweep")
        cell = self.layer_id.get(CELL)
        sweep_rows = 0
        for i in range(n):
            name = self.layers[self.layer[i]]
            calls[name] += 1
            inclusive[name] += duration[i]
            own[name] += duration[i] - child[i]
            if self.layer[i] == cell and sweep_cmd is not None:
                up = self.parent[i]
                while up >= 0 and self.layer[up] != sweep_cmd:
                    up = self.parent[up]
                sweep_rows += up >= 0

        def per(total, count, scale):
            return total / count / scale if count else 0.0

        cells = calls[CELL]
        out = {f"{name}.us": (per(inclusive[name], calls[name], 1e3), "us") for name in MEAN_US}
        out.update({f"{name}.self_us": (per(own[name], calls[name], 1e3), "us")
                    for name in SELF_US})
        out["powermodel.evaluate.us_per_cell"] = (per(inclusive[CELL], cells, 1e3), "us")
        out.update({f"{name}.calls_per_cell": (per(self.counts[name], cells, 1), "count")
                    for name, _, _ in COUNTS})
        out["cli.cmd_sweep.self_us_per_row"] = (per(own["cli.cmd_sweep"], sweep_rows, 1e3), "us")
        out["experiments.sweep_orus.records_held"] = (float(self.records_held), "count")
        return out


def import_self_ms(root: str) -> dict[str, tuple[float, str]]:
    """Median self import time of each module over fresh ``-X importtime`` interpreters."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    command = [sys.executable, "-X", "importtime", "-c", "import oranpower.cli"]
    samples = {module: [] for module in MODULES}
    for run in range(IMPORT_RUNS + 1):  # the first run may compile bytecode; it is dropped
        proc = subprocess.run(command, env=env, cwd=root, capture_output=True, text=True,
                              timeout=60, check=True)
        if run == 0:
            continue
        for line in proc.stderr.splitlines():
            parts = [part.strip() for part in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("oranpower."):
                module = parts[2][len("oranpower."):]
                if module in samples:
                    samples[module].append(int(parts[0].split()[-1]))
    return {f"import.{module}.self_ms": (statistics.median(values) / 1e3 if values else 0.0, "ms")
            for module, values in samples.items()}


def source_lines(root: str) -> dict[str, tuple[float, str]]:
    out = {}
    for module in MODULES:
        path = os.path.join(root, "src", "oranpower", f"{module}.py")
        with open(path, encoding="utf-8") as handle:
            out[f"src.{module}.lines"] = (float(sum(1 for _ in handle)), "lines")
    return out


def run_traced(workload: str, seed: int, seconds: float, out_dir: str, cli, root: str):
    """Untraced half, then traced half; returns (per-layer metrics, both tallies)."""
    plain = workloads.run(workload, seed, seconds / 2, out_dir, cli)
    tracer = Tracer()
    tracer.install()
    try:
        traced = workloads.run(workload, seed, seconds / 2, out_dir, cli)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics.update(import_self_ms(root))
    metrics.update(source_lines(root))
    overhead = statistics.median(plain.rates) / statistics.median(traced.rates) - 1
    metrics["trace.overhead_pct"] = (overhead * 100, "%")
    return metrics, [plain, traced]


if __name__ == "__main__":
    import run

    sys.exit(run.main(sys.argv[1:] + ["--trace", "1"]))
