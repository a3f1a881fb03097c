"""The benchmark's workloads: seeded inputs, a closed timed loop, and output checks.

One single-threaded caller drives the program and sends the next operation
only after the previous one returns. Each workload attempts whole rounds of
operations until the run's time is spent; the program calls alone are timed
with the process CPU clock, and each output is checked afterwards.

- ``sweep``: three ``oranpower sweep`` commands per round (quantized, linear,
  quantized with ``--attached-load``) over n_ru = 1..SWEEP_MAX_RU and all four
  placements, written to CSV files. Every round repeats the same commands.
- ``whatif``: rounds of 1000 small CLI calls (``eval`` as a table or CSV,
  and ``fanout``), each reading its own generated config file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import os
import random
import statistics
import time
from array import array
from typing import Callable

import checks
import reference as ref

SWEEP_MAX_RU = 5000
SWEEP_SAMPLE_ROWS = 64
# A round holds 1000 calls, so that its 99th percentile has ten calls beyond it.
WHATIF_MIX = (("eval_table", 380), ("eval_csv", 300), ("fanout", 270), ("rejected", 30),
              ("nonfinite", 20))
# (cases, placements) of one round's fanout calls: every combination once,
# then seven more, the last a second 20-cell call, so that the slowest 2% of
# calls are alike and the 99th percentile does not fall between two kinds.
WHATIF_FANOUT_SIZES = tuple((1 + i % 5, 1 + i // 5) for i in range(20)) + (
    (1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (5, 4))
# Calls whose config carries an infinite sigma or alpha. The correct outcome
# is exit code 1 with an error naming the field; they do not depend on the
# seed, so every round fails the same number of them while the fault stands.
NONFINITE_CALLS = (
    (["eval", "--n-ru", "100", "--users-per-ru", "10", "--bbp", "dc"], "segment.oru.sigma"),
    (["fanout"], "segment.backhaul.alpha"),
)


LINEAR = {name: ref.Sizing() for name in ref.POLICY_CLASSES}
QUANTIZED = dict(LINEAR, servers=ref.Sizing(quantized=True))


class Tally:
    """Operations attempted and failed, and per-round cell rates and latency percentiles.

    Percentiles are taken within each round and the run reports their median
    over rounds, so that a burst of interference from outside the process,
    which lands on a few rounds, does not decide the tail.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # problems outside the known fault class
        self.rates, self.p50s, self.p99s = [], [], []
        self._round_ns = []

    def record(self, op_ns: int, problems: list[str], known_fault: bool = False) -> None:
        self.attempted += 1
        self._round_ns.append(op_ns)
        if problems:
            self.failed += 1
            if not known_fault:
                self.unexpected.extend(problems)

    def end_round(self, cells: int) -> None:
        op_ms = [ns / 1e6 for ns in self._round_ns]
        self.rates.append(cells / (sum(op_ms) / 1e3))
        self.p50s.append(statistics.median(op_ms))
        self.p99s.append(statistics.quantiles(op_ms, n=100)[98])
        self._round_ns = []


def timed(call: Callable, *args):
    """Run one program call; return (result or raised exception, CPU ns)."""
    start = time.process_time_ns()
    try:
        result = call(*args)
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        result = exc
    return result, time.process_time_ns() - start


def _num(value: float) -> float:
    return float(f"{value:.4g}")


def _random_model(rng: random.Random, entries: dict, p: float) -> ref.Model:
    """Catalog and segment overrides, each key present with probability ``p``."""
    model = ref.Model()
    for name, (power, capacity) in ref.DEFAULT_EQUIPMENT.items():
        if rng.random() < p:
            power = entries[f"{name}.power_w"] = _num(power * rng.uniform(0.5, 2.0))
        if rng.random() < p:
            capacity = entries[f"{name}.capacity_gbps"] = _num(capacity * rng.uniform(0.5, 2.0))
        model.equipment[name] = (power, capacity)
    for name in ref.DEFAULT_SERVERS:
        if rng.random() < p:
            cores, core_w, core_gbps = rng.randint(1, 32), _num(rng.uniform(2, 10)), rng.choice(
                (0.125, 0.25, 0.5))
            server = (cores, core_w, core_gbps, cores * core_gbps)
            for key, value in zip(("cores", "per_core_power_w", "per_core_capacity_gbps",
                                   "server_capacity_gbps"), server):
                entries[f"{name}.{key}"] = value
            model.servers[name] = server
    if rng.random() < p:
        model.ue_nj_per_bit = entries["ue.energy_nj_per_bit"] = _num(rng.uniform(5, 50))
    for segment, (sigma, alpha) in ref.DEFAULT_SIGMA_ALPHA.items():
        if rng.random() < p:
            sigma = entries[f"segment.{segment}.sigma"] = _num(rng.uniform(1, 6))
        if rng.random() < p:
            alpha = entries[f"segment.{segment}.alpha"] = _num(rng.uniform(1, 6))
        model.sigma_alpha[segment] = (sigma, alpha)
    for link in ref.LINKS:
        hops = list(model.hops[link])
        for i, field in enumerate(("hops_switch", "hops_wdm", "hops_router")):
            if rng.random() < p:
                hops[i] = entries[f"segment.{link}.{field}"] = rng.randint(0, 3)
        model.hops[link] = tuple(hops)
    return model


def _config_text(entries: dict) -> str:
    return "".join(f"{key} = {value!r}\n" if not isinstance(value, str) else f"{key} = {value}\n"
                   for key, value in entries.items())


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class Sweep:
    """Repeated ``oranpower sweep`` commands over one seeded config."""

    min_rounds = 2  # the second round checks that identical commands give identical bytes

    def __init__(self, seed: int, out_dir: str, cli):
        rng = random.Random(f"sweep:{seed}")
        self.cli = cli
        entries = {}
        self.model = _random_model(rng, entries, p=0.4)
        self.cap = entries["topology.du_fanout_cap"] = rng.randint(2, 8)
        self.users_per_ru = rng.randint(5, 40)
        flags = ["--max-ru", str(SWEEP_MAX_RU)]
        if rng.random() < 0.5:
            entries["topology.users_per_ru"] = self.users_per_ru
        else:
            flags += ["--users-per-ru", str(self.users_per_ru)]
        config = os.path.join(out_dir, "sweep.cfg")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(_config_text(entries))
        # (policy, attached load): the first two are the quantized/linear pair.
        self.commands = []
        for index, (policy, attached) in enumerate(
                (("quantized", False), ("linear", False), ("quantized", True))):
            output = os.path.join(out_dir, f"sweep_{index}.csv")
            argv = ["sweep", "--config", config, "--policy", policy, "--output", output] + flags
            if attached:
                argv.append("--attached-load")
            self.commands.append((argv, output, policy, attached))
        self.sample_rng = random.Random(f"sweep-sample:{seed}")
        self.digests, self.verdicts = {}, []

    def round(self, index: int, tally: Tally) -> None:
        outcomes, totals = [], []
        for number, (argv, output, policy, attached) in enumerate(self.commands):
            result, cpu_ns = timed(self.cli.main, argv, io.StringIO(), io.StringIO())
            problems, column = [], None
            if result != 0:
                problems = [f"sweep {policy}: exit {result!r}"]
            elif index == 0:
                problems, column, self.digests[number] = self._check(output, policy, attached)
            elif _digest(output) != self.digests.get(number):
                problems = [f"sweep {policy}: output differs from an identical earlier command"]
            else:  # the same bytes as the first round, so the same verdict
                problems = list(self.verdicts[number])
            outcomes.append((cpu_ns, problems))
            totals.append(column)
        quantized, linear = totals[0], totals[1]
        if quantized is not None and linear is not None:
            below = sum(q < l for q, l in zip(quantized, linear))
            if below:
                outcomes[1][1].append(f"sweep: quantized below linear in {below} cells")
        if index == 0:
            self.verdicts = [problems for _, problems in outcomes]
        for cpu_ns, problems in outcomes:
            tally.record(cpu_ns, problems)
        tally.end_round(len(self.commands) * SWEEP_MAX_RU * len(ref.NODES))

    def _check(self, output: str, policy: str, attached: bool):
        """Check one sweep CSV line by line; return (problems, p_total_w column, digest).

        Rows are streamed so that the check adds little to the peak RSS the
        benchmark reports for the program.
        """
        where = f"sweep {policy}{' attached' if attached else ''}"
        model = dataclasses.replace(self.model, sizing=QUANTIZED if policy == "quantized"
                                    else LINEAR, provision_to_cap=not attached)
        n_rows = SWEEP_MAX_RU * len(ref.NODES)
        sample = {0, n_rows - 1} | set(self.sample_rng.sample(range(n_rows), SWEEP_SAMPLE_ROWS))
        problems, totals, header, i = [], array("d"), None, 0
        digest = hashlib.sha256()
        with open(output, "rb") as handle:
            for raw in handle:
                digest.update(raw)
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith("#"):
                    continue
                if header is None:
                    header = line.split(",")
                    missing = set(("n_ru", "placement") + checks.POWER_COLUMNS) - set(header)
                    if missing:
                        return [f"{where}: no columns {sorted(missing)}"], None, None
                    continue
                row = dict(zip(header, line.split(",")))
                if (row["n_ru"], row["placement"]) != (str(i // 4 + 1), ref.NODES[i % 4]):
                    return [f"{where} row {i}: {row['n_ru']} {row['placement']} out of order"], \
                        None, None
                if i in sample:
                    topo = ref.sweep_topo(i // 4 + 1, self.users_per_ru, self.cap)
                    problems += checks.row_problems(row, ref.per_user(model, topo, row["placement"]),
                                                    f"{where} row {i}")
                elif not checks.total_is_sum(row["p_total_w"], row["p_processing_w"],
                                             row["p_transmission_w"]):
                    problems.append(f"{where} row {i}: p_total_w != p_processing_w + p_transmission_w")
                totals.append(float(row["p_total_w"]))
                i += 1
        if i != n_rows:
            problems.append(f"{where}: {i} rows, expected {n_rows}")
        return problems, totals, digest.hexdigest()


@dataclasses.dataclass
class Call:
    """One whatif CLI call and what its output should be."""

    kind: str
    argv: list
    entries: dict
    model: ref.Model | None = None
    cells: list = dataclasses.field(default_factory=list)  # (label, topo, placement)
    bad_key: str | None = None


class Whatif:
    """A seeded stream of small CLI calls, each with its own config file."""

    min_rounds = 1

    def __init__(self, seed: int, out_dir: str, cli):
        self.seed = seed
        self.cli = cli
        self.config = os.path.join(out_dir, "whatif.cfg")

    def _calls(self, index: int) -> list[Call]:
        rng = random.Random(f"whatif:{self.seed}:{index}")
        calls = []
        for kind, count in WHATIF_MIX:
            for position in range(count):
                if kind == "nonfinite":
                    argv, key = NONFINITE_CALLS[len(calls) % len(NONFINITE_CALLS)]
                    calls.append(Call(kind, list(argv), {key: "inf"}, bad_key=key))
                elif kind == "rejected":
                    calls.append(self._rejected(rng, position % 3))
                else:
                    calls.append(self._valid(rng, kind, position))
        rng.shuffle(calls)
        return calls

    def _valid(self, rng: random.Random, kind: str, position: int = 0) -> Call:
        """A valid call; a fanout call's case and placement counts come from
        WHATIF_FANOUT_SIZES by its position, so every round evaluates as many cells."""
        entries = {}
        model = _random_model(rng, entries, p=0.2)
        policy = rng.choice(("linear", "quantized"))
        attached = rng.random() < 0.5
        model.sizing = QUANTIZED if policy == "quantized" else LINEAR
        model.provision_to_cap = not attached
        argv = [kind.split("_")[0], "--policy", policy] + (["--attached-load"] if attached else [])
        if kind == "fanout":
            n_ru, users_per_ru = 40, 10
            if rng.random() < 0.7:
                n_ru = 40 * rng.randint(1, 50)
                if rng.random() < 0.5:
                    argv += ["--n-ru", str(n_ru)]
                else:
                    entries["topology.n_ru"] = n_ru
            if rng.random() < 0.7:
                users_per_ru = rng.randint(1, 64)
                if rng.random() < 0.5:
                    argv += ["--users-per-ru", str(users_per_ru)]
                else:
                    entries["topology.users_per_ru"] = users_per_ru
            n_cases, n_placements = WHATIF_FANOUT_SIZES[position % len(WHATIF_FANOUT_SIZES)]
            cases = rng.sample(sorted(ref.FANOUT_CASES), n_cases)
            placements = rng.sample(ref.NODES, n_placements)
            argv += ["--cases", ",".join(cases), "--placements", ",".join(placements)]
            cells = [(case, ref.fanout_topo(case, n_ru, users_per_ru), placement)
                     for case in cases for placement in ref.NODES if placement in placements]
        else:
            n_ru, users_per_ru, placement = rng.randint(1, 3000), rng.randint(1, 64), rng.choice(
                ref.NODES)
            cap = 4
            if rng.random() < 0.5:
                cap = entries["topology.du_fanout_cap"] = rng.randint(1, 16)
            argv += ["--n-ru", str(n_ru), "--users-per-ru", str(users_per_ru), "--bbp", placement,
                     "--format", "table" if kind == "eval_table" else "csv"]
            cells = [(None, ref.sweep_topo(n_ru, users_per_ru, cap), placement)]
        return Call(kind, argv, entries, model, cells)

    def _rejected(self, rng: random.Random, flavour: int) -> Call:
        """A valid call plus one bad entry: a non-numeric value, an unknown key, or NaN."""
        call = self._valid(rng, rng.choice(("eval_table", "fanout")))
        if flavour == 0:
            key = rng.choice(["router.power_w", "wdm_link.capacity_gbps", "dc_server.cores",
                              "segment.midhaul.hops_wdm", "segment.odu.alpha"])
            value = rng.choice(["abc", "1.2.3", "12x", "0x1g"])
        elif flavour == 1:
            key = rng.choice(["segment.oru.beta", "topology.n_du", "radio.weight_kg",
                              "segment.uplink.sigma", "edge_server.threads"])
            value = str(rng.randint(1, 9))
        else:
            key = f"segment.{rng.choice(ref.NODES + ref.LINKS)}.{rng.choice(('sigma', 'alpha'))}"
            value = "nan"
        call.entries[key] = value
        return Call("rejected", call.argv, call.entries, bad_key=key)

    def round(self, index: int, tally: Tally) -> None:
        cells = 0
        for call in self._calls(index):
            with open(self.config, "w", encoding="utf-8") as handle:
                handle.write(_config_text(call.entries))
            stdout, stderr = io.StringIO(), io.StringIO()
            result, cpu_ns = timed(self.cli.main, call.argv + ["--config", self.config],
                                   stdout, stderr)
            cells += len(call.cells)
            tally.record(cpu_ns, self._check(call, result, stdout.getvalue(), stderr.getvalue()),
                         known_fault=call.kind == "nonfinite")
        tally.end_round(cells)

    def _check(self, call: Call, code, out: str, err: str) -> list[str]:
        where = f"whatif {' '.join(call.argv)} {call.entries}"
        if call.bad_key is not None:
            field = call.bad_key.rsplit(".", 1)[1]
            if code == 1 and not out and err.startswith("error:") and field in err:
                return []
            return [f"{where}: expected exit 1 naming {field!r}, got exit {code!r}"]
        if code != 0 or err:
            return [f"{where}: exit {code!r}, stderr {err!r}"]
        results = [ref.per_user(call.model, topo, placement) for _, topo, placement in call.cells]
        if call.kind == "eval_table":
            return self._check_table(out, call.cells[0], results[0], where)
        header, rows = checks.read_csv(out)
        rows = [dict(zip(header, row)) for row in rows]
        key = "case" if call.kind == "fanout" else "n_ru"
        expected = [(label if call.kind == "fanout" else str(topo.n_ru), placement)
                    for label, topo, placement in call.cells]
        if [(row.get(key), row.get("placement")) for row in rows] != expected:
            return [f"{where}: rows {[(r.get(key), r.get('placement')) for r in rows]}"]
        problems = []
        for row, result in zip(rows, results):
            problems += checks.row_problems(row, result, where)
        return problems

    @staticmethod
    def _check_table(out: str, cell, result: ref.Result, where: str) -> list[str]:
        _, topo, placement = cell
        found, section = {}, None
        for line in out.splitlines():
            words = line.split()
            if line.startswith("bbp placement"):
                found["placement"] = words[-1]
            elif line.startswith("topology"):
                found["topology"] = dict(word.split("=") for word in words if "=" in word)
            elif line.endswith("(W per user)"):
                section = words[0]
            elif section == "processing" and len(words) == 3:
                found[words[0]] = (words[1], words[2])
            elif section == "transmission" and len(words) in (2, 3):
                found[words[0]] = (words[1] if len(words) == 3 else "", words[-1])
            elif section == "totals" and len(words) == 2:
                found["total_" + words[0]] = ("", words[1])
        expected = {node: (result.branches[node], watts) for node, watts in result.nodes.items()}
        expected.update({link: ("ecpri" if result.ecpri_segments[link] else "baseband", watts)
                         for link, watts in result.segments.items()})
        expected["ue"] = ("", result.ue)
        expected["total_processing"] = ("", result.processing)
        expected["total_transmission"] = ("", result.transmission)
        expected["total_total"] = ("", result.total)
        problems = []
        if found.get("placement") != placement:
            problems.append(f"{where}: placement {found.get('placement')}")
        counts = {"n_ru": topo.n_ru, "n_du": topo.n_du, "n_cu": topo.n_cu, "n_dc": topo.n_dc,
                  "users_per_ru": topo.users_per_ru, "n_users": topo.n_users}
        if found.get("topology") != {name: str(count) for name, count in counts.items()}:
            problems.append(f"{where}: topology {found.get('topology')}")
        for name, (tag, watts) in expected.items():
            if name not in found:
                problems.append(f"{where}: no line for {name}")
            elif found[name][0] != tag or not checks.matches(found[name][1], watts):
                problems.append(f"{where}: {name} {found[name]}, reference {tag} {watts:.9g}")
        if not problems and not checks.total_is_sum(found["total_total"][1],
                                                    found["total_processing"][1],
                                                    found["total_transmission"][1]):
            problems.append(f"{where}: total != processing + transmission")
        return problems


WORKLOADS = {"sweep": Sweep, "whatif": Whatif}


def run(name: str, seed: int, seconds: float, out_dir: str, cli) -> Tally:
    """Attempt whole rounds of the workload until ``seconds`` of wall time have passed."""
    workload = WORKLOADS[name](seed, out_dir, cli)
    tally = Tally()
    deadline = time.perf_counter() + seconds
    index = 0
    while index < workload.min_rounds or time.perf_counter() < deadline:
        workload.round(index, tally)
        index += 1
    return tally
