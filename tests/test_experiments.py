"""Sweep and fanout harnesses, and the closed form against the exact reference."""

import tracemalloc
from dataclasses import replace
from itertools import islice

import pytest

from oranpower.experiments import fanout_study, sweep_orus
from oranpower.powermodel import (
    ClassPolicy,
    ModelConfig,
    PowerOverflowError,
    ProvisioningPolicy,
    TrafficModel,
)
from oranpower.topology import (
    FANOUT_CASES,
    Node,
    TopologyError,
    build_sweep_topology,
    from_fanout_case,
)

import oracle
from model_helpers import total_reduction

ALL_PLACEMENTS = list(Node)


@pytest.fixture
def linear_config():
    return ModelConfig.default(policy=ProvisioningPolicy.all_linear())


@pytest.fixture
def default_config():
    return ModelConfig.default()


class TestSweep:
    def test_cardinality_and_order(self, default_config):
        records = list(sweep_orus(range(1, 101), 10, ALL_PLACEMENTS, default_config))
        assert len(records) == 400
        keys = [(r.n_ru, r.breakdown.placement.depth) for r in records]
        assert keys == sorted(keys)

    def test_dc_total_at_hundred_orus(self, linear_config):
        records = list(sweep_orus([100], 10, [Node.DC], linear_config))
        assert records[0].breakdown.total_watts == pytest.approx(93.2981596257716, rel=1e-9)

    def test_sawtooth_step_at_new_odu(self, default_config):
        records = {r.n_ru: r for r in sweep_orus([4, 5], 10, [Node.ODU], default_config)}
        assert records[5].breakdown.processing_watts > records[4].breakdown.processing_watts

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
        records = sweep_orus(range(1, 50), 10, ALL_PLACEMENTS, default_config)
        assert iter(records) is records
        first = next(records)
        assert (first.n_ru, first.breakdown.placement) == (1, Node.ORU)

    def test_ascending_range_is_not_held(self, default_config):
        tracemalloc.start()
        try:
            records = sweep_orus(range(1, 1_000_001), 10, [Node.DC], default_config)
            assert len(list(islice(records, 1000))) == 1000
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


class TestFanoutStudy:
    def test_oru_placement_identical_across_cases(self, default_config):
        records = fanout_study(list(FANOUT_CASES.values()), 40, 10, [Node.ORU], default_config)
        assert len(records) == 5
        first = records[0].breakdown
        assert all(record.breakdown == first for record in records)

    def test_shared_ocu_beats_dedicated_with_quantized_interfaces(self):
        # one core-switch chassis per O-CU; ten times the users amortize it
        policy = ProvisioningPolicy(servers=ClassPolicy.quantize(),
                                    node_interface=ClassPolicy.quantize(minimum_units=1))
        config = ModelConfig.default(policy=policy)
        records = {r.case: r for r in fanout_study(
            [FANOUT_CASES["C-1"], FANOUT_CASES["C-2"]], 40, 10, [Node.OCU], config)}
        assert (records["C-2"].breakdown.processing_watts
                < records["C-1"].breakdown.processing_watts)

    def test_shared_dc_beats_dedicated_with_quantized_servers(self, default_config):
        # C-1 wastes ceil(11/5)=3 servers per DC; C-3 fills whole racks
        records = {r.case: r for r in fanout_study(
            [FANOUT_CASES["C-1"], FANOUT_CASES["C-3"]], 40, 10, [Node.DC], default_config)}
        assert (records["C-3"].breakdown.processing_watts
                < records["C-1"].breakdown.processing_watts)

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
        from dataclasses import replace
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
