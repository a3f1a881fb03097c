"""Sweep and fanout harnesses, and the closed form against the exact reference."""

import random
import tracemalloc
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oranpower.catalog import ServerSpec, default_catalog
from oranpower.experiments import SWEEP_CHUNK, fanout_study, sweep_chunks, sweep_orus
from oranpower.powermodel import (
    ClassPolicy,
    ModelConfig,
    PowerOverflowError,
    ProvisioningPolicy,
    TrafficModel,
)
from oranpower.topology import (
    FANOUT_CASES,
    NODE_ORDER,
    Node,
    TopologyError,
    build_sweep_topology,
    from_fanout_case,
    segment_map,
)

import oracle
from model_helpers import replace, total_reduction
from test_kernel import configs, same_shape_configs

ALL_PLACEMENTS = list(Node)


@pytest.fixture
def linear_config():
    return ModelConfig.default(policy=ProvisioningPolicy.all_linear())


@pytest.fixture
def default_config():
    return ModelConfig.default()


@pytest.fixture
def bound_loops(monkeypatch):
    """How many times each ``(placement, has_cap, csv)`` row loop is bound from now on."""
    bound = Counter()
    bind = ModelConfig._loop

    def spy(config, *key):
        bound[key] += 1
        return bind(config, *key)

    monkeypatch.setattr(ModelConfig, "_loop", spy)
    return bound


class TestSweep:
    def test_cardinality_and_order(self, default_config):
        rows = list(sweep_orus(range(1, 101), 10, ALL_PLACEMENTS, default_config))
        assert len(rows) == 400
        keys = [(n_ru, placement.depth) for n_ru, placement, _ in rows]
        assert keys == sorted(keys)

    def test_dc_total_at_hundred_orus(self, linear_config):
        [(_, _, watts)] = sweep_orus([100], 10, [Node.DC], linear_config)
        assert watts[2] == pytest.approx(93.2981596257716, rel=1e-9)

    def test_sawtooth_step_at_new_odu(self, default_config):
        processing = {n_ru: watts[0]
                      for n_ru, _, watts in sweep_orus([4, 5], 10, [Node.ODU], default_config)}
        assert processing[5] > processing[4]

    def test_deterministic(self, default_config):
        first = list(sweep_orus(range(1, 21), 10, ALL_PLACEMENTS, default_config))
        second = list(sweep_orus(range(1, 21), 10, ALL_PLACEMENTS, default_config))
        assert first == second

    def test_empty_range_rejected(self, default_config):
        with pytest.raises(ValueError):
            sweep_orus([], 10, ALL_PLACEMENTS, default_config)

    def test_any_iteration_order_gives_the_same_records(self, default_config):
        expected = list(sweep_orus(range(1, 30, 3), 10, ALL_PLACEMENTS, default_config))
        for counts in (range(28, 0, -3), [28, 1, 4, 4, 25, 7, 10, 13, 16, 19, 22]):
            assert list(sweep_orus(counts, 10, ALL_PLACEMENTS, default_config)) == expected

    def test_records_are_streamed(self, default_config):
        rows = sweep_orus(range(1, 50), 10, ALL_PLACEMENTS, default_config)
        assert iter(rows) is rows
        n_ru, placement, watts = next(rows)
        assert (n_ru, placement, len(watts)) == (1, Node.ORU, 11)

    def test_ascending_range_is_not_held(self, default_config):
        tracemalloc.start()
        try:
            rows = sweep_orus(range(1, 1_000_001), 10, [Node.DC], default_config)
            assert len(list(islice(rows, 1000))) == 1000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_bad_topology_rejected_by_the_call(self, default_config):
        with pytest.raises(TopologyError):
            sweep_orus(range(1, 5), 0, ALL_PLACEMENTS, default_config)

    def test_failing_placement_rejected_by_the_call(self, default_config):
        params = {**default_config.params,
                  Node.DC: replace(default_config.params[Node.DC], sigma=1e307)}
        config = ModelConfig(default_config.catalog, params, default_config.traffic,
                             default_config.policy)
        with pytest.raises(PowerOverflowError):
            sweep_orus(range(1, 5), 1, ALL_PLACEMENTS, config)

    def test_unknown_placement_rejected_by_the_call(self, default_config):
        with pytest.raises(ValueError, match="unknown BBP placement: 'dc'"):
            sweep_orus(range(1, 6), 10, ["dc"], default_config)

    def test_no_placement_gives_no_rows(self, default_config):
        assert list(sweep_orus(range(1, 600), 10, [], default_config)) == []

    def test_a_csv_sweep_binds_only_its_csv_row_loops(self, default_config, bound_loops):
        # The first count is priced through the sweep's own loops, not through evaluate's.
        list(sweep_chunks(range(1, 10), 10, ALL_PLACEMENTS, default_config, csv=True))
        assert bound_loops == {(node, True, True): 1 for node in ALL_PLACEMENTS}

    @pytest.mark.parametrize("provision_to_cap", [True, False])
    def test_a_breakdown_renders_the_csv_row_loops_line(self, linear_config, default_config,
                                                        provision_to_cap):
        # eval --format csv prints csv_line; a sweep prints its csv row loops' lines.
        counts = [1, 3, 5, 24, 1000]
        for config in (replace(linear_config, provision_to_cap=provision_to_cap),
                       replace(default_config, provision_to_cap=provision_to_cap)):
            lines = [line for chunk in sweep_chunks(counts, 10, ALL_PLACEMENTS, config, csv=True)
                     for line in chunk]
            assert lines == [config.evaluate(build_sweep_topology(n_ru, 10), node).csv_line(n_ru)
                             for n_ru in counts for node in ALL_PLACEMENTS]


def evaluated_rows(counts, users_per_ru, placements, config, cap):
    """The rows a sweep must stream, from ``evaluate`` on each cell's sweep topology.

    Cells come in (n_ru, placement depth) order, each count and placement once;
    every placement at the first count is evaluated before any row.
    """
    cells = [(n_ru, node) for n_ru in sorted(set(counts))
             for node in NODE_ORDER if node in placements]
    head = sum(n_ru == cells[0][0] for n_ru, _ in cells)

    def row(n_ru, node):
        b = config.evaluate(build_sweep_topology(n_ru, users_per_ru, cap), node)
        return n_ru, node, (b.processing_watts, b.transmission_watts, b.total_watts,
                            *b.nodes, *b.segments, b.ue_watts)

    rows = [row(*cell) for cell in cells[:head]]
    yield from rows
    for cell in cells[head:]:
        yield row(*cell)


def streamed(make):
    """``repr`` of every row ``make()`` yields, which tells each float's bits, and the type
    and message of the error that ends the stream, if any."""
    rows = []
    try:
        for row in make():
            rows.append(row)
    except (ArithmeticError, ValueError) as exc:
        return repr(rows), (type(exc), str(exc))
    return repr(rows), None


@st.composite
def sweep_counts(draw):
    """A positive-step range that need not start at 1, or any list of counts: a descending
    range, or counts unsorted and repeated."""
    start, length = draw(st.integers(1, 100)), draw(st.integers(1, 40))
    step = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("range", "descending", "list")))
    if kind == "range":
        return range(start, start + length * step, step)
    if kind == "descending":
        return range(start + length * step, start - 1, -step)
    counts = draw(st.lists(st.integers(1, 120), min_size=1, max_size=40))
    return counts + draw(st.lists(st.sampled_from(counts), max_size=5))


SWEEPS = {"counts": sweep_counts(), "users_per_ru": st.integers(1, 64), "cap": st.integers(1, 16),
          "placements": st.lists(st.sampled_from(NODE_ORDER), min_size=1)}


class TestSweepRows:
    """Each row of a sweep is ``evaluate``'s cell, bit for bit, and fails as it fails."""

    def check(self, counts, users_per_ru, placements, config, cap):
        assert (streamed(lambda: sweep_orus(counts, users_per_ru, placements, config, cap))
                == streamed(lambda: evaluated_rows(counts, users_per_ru, placements, config,
                                                   cap)))

    @given(config=configs(extreme=False), **SWEEPS)
    @settings(max_examples=80, deadline=None)
    def test_random_configs(self, config, counts, users_per_ru, cap, placements):
        self.check(counts, users_per_ru, placements, config, cap)

    @given(config=configs(extreme=True), **SWEEPS)
    @settings(max_examples=80, deadline=None)
    def test_extreme_configs(self, config, counts, users_per_ru, cap, placements):
        self.check(counts, users_per_ru, placements, config, cap)

    @pytest.mark.parametrize("provision_to_cap", [True, False])
    def test_partial_odus(self, provision_to_cap):
        # An O-DU provisioned to the cap of 4 carries 44 Gbps even with fewer O-RUs attached.
        config = replace(ModelConfig.default(), provision_to_cap=provision_to_cap)
        for counts in (range(1, 30), [17, 3, 9, 3, 30, 5]):
            self.check(counts, 10, list(Node), config, 4)

    @pytest.mark.parametrize("config", [
        ModelConfig.default(),
        replace(ModelConfig.default(ProvisioningPolicy.all_linear()), provision_to_cap=False),
        same_shape_configs()[1],
    ])
    @pytest.mark.parametrize("length", [1, SWEEP_CHUNK, SWEEP_CHUNK + 1, 2 * SWEEP_CHUNK + 3])
    def test_sweeps_across_chunk_boundaries(self, config, length):
        self.check(range(1, length + 1), 10, list(Node), config, 3)

    def test_unsorted_counts_with_repeats_across_a_chunk_boundary(self):
        rng = random.Random(18)
        counts = rng.sample(range(1, 1000), SWEEP_CHUNK + 7)
        counts += rng.choices(counts, k=20)
        rng.shuffle(counts)
        self.check(counts, 7, [Node.DC, Node.ODU, Node.DC], ModelConfig.default(), 5)

    def test_a_later_count_that_overflows_raises_evaluates_error(self):
        # Quantized O-CU servers of 1e-10 Gbps: the n_ru * 1.1e11 units times the 5e294 W/Gbps
        # ratio is within the float range up to 326 O-RUs and beyond it from 327, a count in
        # the second chunk, where the O-RU placement still prices.
        assert SWEEP_CHUNK < 327 <= 2 * SWEEP_CHUNK
        edge_server = ServerSpec(cores=1, per_core_power_w=5e284, per_core_capacity_gbps=1e-10,
                                 server_capacity_gbps=1e-10)
        config = ModelConfig(replace(default_catalog(), edge_server=edge_server), segment_map(),
                             TrafficModel(), ProvisioningPolicy.default())
        with pytest.raises(PowerOverflowError) as evaluated:
            config.evaluate(build_sweep_topology(327, 10), Node.OCU)
        assert "BBP at ocu and n_ru=327 overflows a float" in str(evaluated.value)
        rows = sweep_orus(range(1, 400), 10, [Node.DC, Node.OCU, Node.ORU], config)
        before = [(n_ru, node) for n_ru in range(1, 327) for node in (Node.ORU, Node.OCU, Node.DC)]
        assert [row[:2] for row in islice(rows, len(before) + 1)] == before + [(327, Node.ORU)]
        with pytest.raises(PowerOverflowError) as swept:
            next(rows)
        assert str(swept.value) == str(evaluated.value)

    def test_a_later_count_with_more_units_than_a_float_raises_evaluates_error(self):
        # Quantized O-CU servers of 1.8e-305 Gbps: the 11 * n_ru Gbps of O-CU load is more units
        # than a float holds from 295 O-RUs, a count in the second chunk.
        edge_server = ServerSpec(cores=1, per_core_power_w=1e-306,
                                 per_core_capacity_gbps=1.8e-305, server_capacity_gbps=1.8e-305)
        config = ModelConfig(replace(default_catalog(), edge_server=edge_server), segment_map(),
                             TrafficModel(), ProvisioningPolicy.default())
        with pytest.raises(PowerOverflowError) as evaluated:
            config.evaluate(build_sweep_topology(295, 10), Node.OCU)
        rows = sweep_orus(range(1, 400), 10, [Node.DC, Node.OCU, Node.ODU], config)
        before = [(n_ru, node) for n_ru in range(1, 295) for node in (Node.ODU, Node.OCU, Node.DC)]
        assert [row[:2] for row in islice(rows, len(before) + 1)] == before + [(295, Node.ODU)]
        with pytest.raises(PowerOverflowError) as swept:
            next(rows)
        assert str(swept.value) == str(evaluated.value)

    @pytest.mark.parametrize("count", [2**53 + 1, 10**400, 2.5])
    def test_a_later_count_out_of_range_raises_topology_error(self, count):
        # The call rejects the count with build_sweep_topology's error, before any row.
        with pytest.raises(TopologyError) as built:
            build_sweep_topology(count, 10)
        with pytest.raises(TopologyError) as swept:
            sweep_orus([1, count], 10, [Node.DC], ModelConfig.default())
        assert str(swept.value) == str(built.value)

    @pytest.mark.parametrize("count", ["a", None, [2]])
    def test_a_listed_count_that_does_not_sort_raises_topology_error(self, count):
        # Each count of a list is tested before the counts are sorted, which could not order
        # or hash this one, so the call names it as build_sweep_topology does.
        with pytest.raises(TopologyError) as built:
            build_sweep_topology(count, 10)
        for counts in ([1, count], [count, 3, 1]):
            with pytest.raises(TopologyError) as swept:
                sweep_orus(counts, 10, [Node.DC], ModelConfig.default())
            assert str(swept.value) == str(built.value)

    def test_a_count_out_of_range_in_a_later_chunk_raises_topology_error(self):
        with pytest.raises(TopologyError) as built:
            build_sweep_topology(2**53 + 1, 10)
        with pytest.raises(TopologyError) as swept:
            sweep_orus([*range(1, SWEEP_CHUNK + 4), 2**53 + 1], 10, [Node.ODU, Node.ORU],
                       ModelConfig.default())
        assert str(swept.value) == str(built.value)

    def test_a_range_whose_last_count_is_out_of_range_raises_topology_error(self):
        # A range is checked at its two ends: here only its last count is beyond 2**53.
        with pytest.raises(TopologyError) as built:
            build_sweep_topology(2**53 + 1, 10)
        with pytest.raises(TopologyError) as swept:
            sweep_orus(range(2**53 - 2, 2**53 + 2), 10, [Node.DC], ModelConfig.default())
        assert str(swept.value) == str(built.value)


class TestFanoutStudy:
    def test_oru_placement_identical_across_cases(self, default_config):
        rows = fanout_study(list(FANOUT_CASES.values()), 40, 10, [Node.ORU], default_config)
        assert [label for label, _, _ in rows] == list(FANOUT_CASES)
        assert all(placement is Node.ORU for _, placement, _ in rows)
        assert len({repr(watts) for _, _, watts in rows}) == 1

    def test_shared_ocu_beats_dedicated_with_quantized_interfaces(self):
        # one core-switch chassis per O-CU; ten times the users amortize it
        policy = ProvisioningPolicy(servers=ClassPolicy.quantize(),
                                    node_interface=ClassPolicy.quantize(minimum_units=1))
        config = ModelConfig.default(policy=policy)
        processing = {label: watts[0] for label, _, watts in fanout_study(
            [FANOUT_CASES["C-1"], FANOUT_CASES["C-2"]], 40, 10, [Node.OCU], config)}
        assert processing["C-2"] < processing["C-1"]

    def test_shared_dc_beats_dedicated_with_quantized_servers(self, default_config):
        # C-1 wastes ceil(11/5)=3 servers per DC; C-3 fills whole racks
        processing = {label: watts[0] for label, _, watts in fanout_study(
            [FANOUT_CASES["C-1"], FANOUT_CASES["C-3"]], 40, 10, [Node.DC], default_config)}
        assert processing["C-3"] < processing["C-1"]

    @pytest.mark.parametrize("config", [
        ModelConfig.default(),
        replace(ModelConfig.default(ProvisioningPolicy.all_linear()), provision_to_cap=False),
        same_shape_configs()[1],
    ])
    def test_rows_are_evaluates_figures(self, config):
        # Every case and placement, in case order and then depth, each row's 11 figures those
        # of evaluate on the case's tree, by repr, in CSV_COLUMNS order; evaluate runs on a
        # copy of the config, which binds its own loops.
        cases = list(FANOUT_CASES.values())
        rows = fanout_study(cases[::-1], 80, 7, ALL_PLACEMENTS[::-1], config)
        expected = []
        for case in cases[::-1]:
            tree = from_fanout_case(case, 80, 7)
            for node in NODE_ORDER:
                b = replace(config).evaluate(tree, node)
                expected.append((case.label, node, (
                    b.processing_watts, b.transmission_watts, b.total_watts, *b.nodes,
                    *b.segments, b.ue_watts)))
        assert repr(rows) == repr(expected)

    def test_no_placement_gives_no_rows_but_still_checks_each_case(self, default_config):
        assert fanout_study(list(FANOUT_CASES.values()), 40, 10, [], default_config) == []
        with pytest.raises(TopologyError, match="C-4"):
            fanout_study([FANOUT_CASES["C-4"]], 7, 10, [], default_config)

    def test_binds_one_loop_per_placement(self, default_config, bound_loops):
        fanout_study(list(FANOUT_CASES.values()), 40, 10, [Node.DC, Node.ORU, Node.DC],
                     default_config)
        assert bound_loops == {(Node.ORU, True, False): 1, (Node.DC, True, False): 1}

    def test_overflow_names_its_case(self):
        # DC servers of 1e-307 W and 1e-307 Gbps need more units than a float holds at every
        # case; the first case priced, C-2, fails at the DC, and the error names it.
        dc_server = ServerSpec(cores=1, per_core_power_w=1e-307, per_core_capacity_gbps=1e-307,
                               server_capacity_gbps=1e-307)
        config = ModelConfig(replace(default_catalog(), dc_server=dc_server), segment_map(),
                             TrafficModel(), ProvisioningPolicy.default())
        with pytest.raises(PowerOverflowError) as evaluated:
            config.evaluate(from_fanout_case(FANOUT_CASES["C-2"], 40, 10), Node.DC)
        with pytest.raises(PowerOverflowError) as studied:
            fanout_study([FANOUT_CASES["C-2"], FANOUT_CASES["C-1"]], 40, 10,
                         [Node.ORU, Node.DC], config)
        assert str(studied.value) == f"C-2: {evaluated.value}"
        assert "dc = inf" in str(studied.value)

    def test_divisibility_error_carries_label(self, default_config):
        with pytest.raises(TopologyError, match="C-4"):
            fanout_study([FANOUT_CASES["C-4"]], 7, 10, ALL_PLACEMENTS, default_config)

    def test_unknown_placement_rejected(self, default_config):
        with pytest.raises(ValueError, match="unknown BBP placement: 'dc'"):
            fanout_study(list(FANOUT_CASES.values()), 40, 10, ["dc", "oru"], default_config)


class TestReductionRatio:
    def test_dc_versus_oru(self, linear_config):
        topo = build_sweep_topology(100, 10, 4)
        oru = linear_config.evaluate(topo, Node.ORU)
        dc = linear_config.evaluate(topo, Node.DC)
        assert total_reduction(oru, dc) == pytest.approx(0.41506330473679254, rel=1e-9)

    def test_identical_breakdowns(self, linear_config):
        topo = build_sweep_topology(10, 10, 4)
        breakdown = linear_config.evaluate(topo, Node.ORU)
        assert total_reduction(breakdown, breakdown) == 0.0

    def test_zero_target(self, linear_config):
        topo = build_sweep_topology(10, 10, 4)
        breakdown = linear_config.evaluate(topo, Node.ORU)
        zero = ModelConfig.default(policy=ProvisioningPolicy.all_linear())
        from oranpower.powermodel import TrafficModel
        silent_catalog = replace(zero.catalog, ue_energy_j_per_bit=0.0)
        silent = ModelConfig(silent_catalog, zero.params,
                             TrafficModel(monthly_gb_per_user=0, ecpri_per_ru_gbps=0),
                             zero.policy)
        assert total_reduction(breakdown, silent.evaluate(topo, Node.ORU)) == 1.0


class TestBruteForceOracle:
    """Every term of ``evaluate`` against the exact reference in ``oracle.py``."""

    def test_single_instance_topology(self, linear_config):
        topo = build_sweep_topology(1, 1, 4)
        assert not oracle.agrees(linear_config.evaluate(topo, Node.ORU), linear_config, topo,
                                 Node.ORU)

    def test_cap_provisioning_matches(self, default_config):
        # 3 O-RUs share one O-DU sized for 4; both sides must count 44 Gbps
        topo = build_sweep_topology(3, 10, 4)
        assert not oracle.agrees(default_config.evaluate(topo, Node.ODU), default_config, topo,
                                 Node.ODU)

    @pytest.mark.parametrize("n_ru", [1, 4, 5, 17, 40])
    @pytest.mark.parametrize("placement", ALL_PLACEMENTS)
    def test_spot_equivalence(self, n_ru, placement, default_config):
        topo = build_sweep_topology(n_ru, 10, 4)
        assert not oracle.agrees(default_config.evaluate(topo, placement), default_config, topo,
                                 placement)

    @pytest.mark.parametrize("placement", ALL_PLACEMENTS)
    def test_user_rate_terms_alone(self, placement, linear_config):
        # With no eCPRI every watt is priced at the user rate, so a fault of one part in
        # 10**6 in the closed form's user rate shows here; the oracle derives the rate itself.
        config = replace(linear_config, traffic=TrafficModel(monthly_gb_per_user=37.0,
                                                             ecpri_per_ru_gbps=0.0))
        topo = build_sweep_topology(6, 7, 4)
        breakdown = config.evaluate(topo, placement)
        assert breakdown.total_watts > 0
        assert not oracle.agrees(breakdown, config, topo, placement)

    @pytest.mark.parametrize("monthly_gb", [1e299, 1e306, 1.7e308])
    @pytest.mark.parametrize("placement", ALL_PLACEMENTS)
    def test_volume_beyond_a_float_in_bits(self, monthly_gb, placement, linear_config):
        # More bits a month than a float holds, and from 1e306 GB more bits per second
        # at the UE; every term still fits. 1e299 GB at the O-RU totals 1.29e295 W.
        config = replace(linear_config, traffic=TrafficModel(monthly_gb_per_user=monthly_gb))
        topo = build_sweep_topology(4, 1, 4)
        assert not oracle.agrees(config.evaluate(topo, placement), config, topo, placement)

    def test_quantized_transport_equivalence(self):
        policy = ProvisioningPolicy(
            servers=ClassPolicy.quantize(),
            node_interface=ClassPolicy.quantize(minimum_units=1),
            switches=ClassPolicy.quantize(minimum_units=1),
            links=ClassPolicy.quantize(),
            routers=ClassPolicy.quantize(minimum_units=1),
        )
        config = ModelConfig.default(policy=policy)
        topo = from_fanout_case(FANOUT_CASES["C-5"], 8, 5)
        for placement in ALL_PLACEMENTS:
            assert not oracle.agrees(config.evaluate(topo, placement), config, topo, placement)
