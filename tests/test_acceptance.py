"""Acceptance suite: every release criterion checked at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on a
green run). Criterion 2's expected reduction is frozen from independent
arithmetic on the default ratings as a regression fixture.
"""

import random

import pytest

from oranpower.catalog import default_catalog
from oranpower.cli import main as cli_main
from oranpower.experiments import fanout_study
from oranpower.powermodel import ClassPolicy, ModelConfig, ProvisioningPolicy
from oranpower.topology import FANOUT_CASES, Node, build_sweep_topology

import oracle
from model_helpers import equipment_power, total_reduction

import io

REL_TOL = 1e-9
GRID_N_RU = range(1, 101)
USERS_PER_RU = 10
PLACEMENTS = list(Node)

# 1 - P_T(DC)/P_T(ORU) at n_ru=100, users_per_ru=10, default ratings;
# derived once by hand from the rating tables and frozen for regression.
FROZEN_REDUCTION = 0.41506330473679254

POLICIES = {
    "linear": ProvisioningPolicy.all_linear(),
    "default-quantized": ProvisioningPolicy.default(),
}


def report(criterion, description, passed):
    print(f"{'PASS' if passed else 'FAIL'}  criterion {criterion}: {description}")
    assert passed, f"criterion {criterion} failed: {description}"


@pytest.fixture(scope="module")
def grid():
    """Closed-form breakdowns for every (policy, n_ru, placement) grid cell."""
    cells = {}
    for name, policy in POLICIES.items():
        config = ModelConfig.default(policy=policy)
        for n_ru in GRID_N_RU:
            topology = build_sweep_topology(n_ru, USERS_PER_RU, 4)
            for placement in PLACEMENTS:
                cells[(name, n_ru, placement)] = (topology, config,
                                                  config.evaluate(topology, placement))
    return cells


def test_criterion_1_oracle_equivalence(grid):
    failures, snapped = [], 0
    for (name, n_ru, placement), (topology, config, breakdown) in grid.items():
        try:
            snapped += oracle.agrees(breakdown, config, topology, placement, REL_TOL)
        except AssertionError as exc:
            failures.append(f"{name} n_ru={n_ru} {placement.value}: {exc}")
    report(1, f"exact reference matches closed form term by term on 800 grid cells "
              f"(1e-9; {snapped} accepted one unit short in the snap region)"
              + "".join(f"; {failure}" for failure in failures[:3]), not failures)


def test_criterion_2_dc_vs_oru_reduction():
    config = ModelConfig.default()
    topology = build_sweep_topology(100, USERS_PER_RU, 4)
    reduction = total_reduction(config.evaluate(topology, Node.ORU),
                                config.evaluate(topology, Node.DC))
    in_band = 0.30 <= reduction <= 0.90
    frozen = abs(reduction - FROZEN_REDUCTION) <= REL_TOL * FROZEN_REDUCTION
    report(2, f"DC-vs-O-RU reduction {reduction:.6f} positive, within [0.30, 0.90], "
              f"and equal to frozen fixture", reduction > 0 and in_band and frozen)


def test_criterion_3_sawtooth_minima_at_multiples_of_four():
    config = ModelConfig.default()  # quantized servers, provisioned to the cap
    series = {}
    for n_ru in GRID_N_RU:
        topology = build_sweep_topology(n_ru, USERS_PER_RU, 4)
        series[n_ru] = config.evaluate(topology, Node.ODU).processing_watts
    minima = {n for n in GRID_N_RU
              if (n == 1 or series[n] < series[n - 1])
              and (n == 100 or series[n] < series[n + 1])}
    expected = {n for n in GRID_N_RU if n % 4 == 0}
    report(3, f"O-DU placement processing has local minima exactly at multiples of 4 "
              f"({sorted(minima)[:4]}...)", minima == expected)


def test_criterion_4_processing_ordering_at_100():
    config = ModelConfig.default()
    topology = build_sweep_topology(100, USERS_PER_RU, 4)
    dc = config.evaluate(topology, Node.DC).processing_watts
    ocu = config.evaluate(topology, Node.OCU).processing_watts
    report(4, f"processing at DC ({dc:.3f} W) below O-CU ({ocu:.3f} W) at n_ru=100", dc < ocu)


def test_criterion_5_transmission_ordering(grid):
    ok = True
    for name in POLICIES:
        for n_ru in GRID_N_RU:
            series = [grid[(name, n_ru, placement)][2].transmission_watts
                      for placement in PLACEMENTS]
            if not all(a <= b * (1 + 1e-12) for a, b in zip(series, series[1:])):
                ok = False
    report(5, "transmission power non-decreasing in placement depth on every grid cell", ok)


def test_criterion_6_dc_total_minimal_at_100():
    config = ModelConfig.default()
    topology = build_sweep_topology(100, USERS_PER_RU, 4)
    totals = {placement: config.evaluate(topology, placement).total_watts
              for placement in PLACEMENTS}
    report(6, f"DC placement total {totals[Node.DC]:.3f} W lowest of "
              f"{[round(totals[p], 3) for p in PLACEMENTS]}",
           min(totals, key=totals.get) is Node.DC)


def test_criterion_7_fanout_invariance_of_edge_placement():
    config = ModelConfig.default()
    rows = fanout_study(list(FANOUT_CASES.values()), 40, USERS_PER_RU, [Node.ORU], config)
    report(7, "O-RU placement breakdown identical across C-1..C-5 (bit-for-bit)",
           [label for label, _, _ in rows] == list(FANOUT_CASES)
           and len({repr(watts) for _, _, watts in rows}) == 1)


def test_criterion_8_fanout_multiplexing_gain():
    nic_quantized = ProvisioningPolicy(servers=ClassPolicy.quantize(),
                                       node_interface=ClassPolicy.quantize(minimum_units=1))
    config_nic = ModelConfig.default(policy=nic_quantized)
    ocu = {label: watts[0] for label, _, watts in fanout_study(
        [FANOUT_CASES["C-1"], FANOUT_CASES["C-2"]], 40, USERS_PER_RU, [Node.OCU], config_nic)}
    config_srv = ModelConfig.default()
    dc = {label: watts[0] for label, _, watts in fanout_study(
        [FANOUT_CASES["C-1"], FANOUT_CASES["C-3"]], 40, USERS_PER_RU, [Node.DC], config_srv)}
    report(8, f"shared chassis/servers win: C-2 {ocu['C-2']:.1f} < C-1 {ocu['C-1']:.1f} W at "
              f"O-CU; C-3 {dc['C-3']:.2f} < C-1 {dc['C-1']:.2f} W at DC",
           ocu["C-2"] < ocu["C-1"] and dc["C-3"] < dc["C-1"])


def test_criterion_9_quantized_never_below_linear():
    catalog = default_catalog()
    devices = [catalog.router, catalog.core_switch, catalog.access_switch,
               catalog.wdm_link, catalog.radio]
    servers = [catalog.edge_server, catalog.dc_server]
    rng = random.Random(20260808)
    failures = 0
    for _ in range(1000):
        minimum = rng.choice([0, 0, 1, 2])
        exact = rng.random() < 0.5
        k = rng.randrange(0, 60)
        if rng.random() < 0.7:
            spec = rng.choice(devices)
            unit = spec.capacity_gbps if rng.random() < 0.5 else rng.uniform(0.1, 80.0)
            load = k * unit if exact else (k + rng.uniform(0.01, 0.99)) * unit
            policy = ClassPolicy.quantize(unit_capacity_gbps=unit, minimum_units=minimum)
            quantized = equipment_power(load, spec, policy)
            linear = equipment_power(load, spec, ClassPolicy.linear())
        else:
            server = rng.choice(servers)
            unit = server.server_capacity_gbps if rng.random() < 0.5 else rng.uniform(0.1, 20.0)
            load = k * unit if exact else (k + rng.uniform(0.01, 0.99)) * unit
            policy = ClassPolicy.quantize(unit_capacity_gbps=unit, minimum_units=minimum)
            quantized = equipment_power(load, server, policy)
            linear = equipment_power(load, server, ClassPolicy.linear())
        if quantized < linear - 1e-12 * max(linear, 1.0):
            failures += 1
            continue
        should_be_equal = exact and minimum <= k
        if should_be_equal:
            if abs(quantized - linear) > REL_TOL * max(linear, 1e-300):
                failures += 1
        else:
            if not (quantized > linear * (1 + 1e-12) or (linear == 0.0 and quantized > 0.0)):
                failures += 1
    report(9, f"quantized >= linear on 1000 sampled configurations, equality exactly on "
              f"whole-unit loads ({failures} violations)", failures == 0)


def test_criterion_10_decomposition_and_determinism(grid):
    decomposed = all(
        abs(b.total_watts - (b.processing_watts + b.transmission_watts))
        <= REL_TOL * max(abs(b.total_watts), 1e-300)
        for (_, _, b) in grid.values()
    )

    def run(argv):
        out = io.StringIO()
        code = cli_main(argv, stdout=out, stderr=io.StringIO())
        return code, out.getvalue()

    runs = [
        ("sweep", ["sweep", "--max-ru", "100"]),
        ("fanout", ["fanout"]),
        ("eval", ["eval", "--n-ru", "100", "--users-per-ru", "10", "--bbp", "dc"]),
    ]
    deterministic = True
    for _, argv in runs:
        first, second = run(argv), run(argv)
        if first != second or first[0] != 0:
            deterministic = False
    report(10, "P_T = P_pr + P_tr within 1e-9 on all grid cells; repeated CLI runs "
               "byte-identical", decomposed and deterministic)
