"""Closed-form power model: rates, loads, branch selection, and policy modes.

Expected values are frozen from independent arithmetic on the default
ratings (written out inline), not from the functions under test. Every
per-node and per-segment term is read from ``ModelConfig.evaluate``.
"""

import copy
import math
import pickle
import random
import re

import pytest

from dataclasses import FrozenInstanceError, replace

from oranpower.catalog import default_catalog, energy_per_capacity
from oranpower.experiments import SweepRecord
from oranpower.powermodel import (
    ClassPolicy,
    ModelConfig,
    PowerBreakdown,
    PowerOverflowError,
    ProvisioningPolicy,
    TrafficModel,
    equipment_power,
    provision_units,
    user_baseband_rate,
)
from oranpower.topology import (
    FANOUT_CASES,
    LINK_ORDER,
    NODE_ORDER,
    Link,
    Node,
    Topology,
    TopologyError,
    build_sweep_topology,
    from_fanout_case,
    segment_map,
)

# Derived once from 10 GB/month * 8e9 bit/GB / (30*24*3600 s), in Gbps.
USER_RATE_10GB = 3.08641975308642e-05

# Per-Gbps transport brackets: switch + WDM link (+ router on backhaul).
FRONTHAUL_BRACKET = 86.7 / 480 + 4265 / 9600          # 0.6248958333...
MIDHAUL_BRACKET = 3000 / 25600 + 4265 / 9600          # 0.5614583333...
BACKHAUL_BRACKET = MIDHAUL_BRACKET + 172 / 3200       # 0.6152083333...


@pytest.fixture
def catalog():
    return default_catalog()


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def evaluate(topology, placement, policy=None, traffic=None, catalog=None,
             provision_to_cap=True):
    """Breakdown under the default segment parameters; linear sizing unless given."""
    config = ModelConfig(
        catalog=catalog if catalog is not None else default_catalog(),
        params=segment_map(),
        traffic=traffic if traffic is not None else TrafficModel(),
        policy=policy if policy is not None else ProvisioningPolicy.all_linear(),
        provision_to_cap=provision_to_cap,
    )
    return config.evaluate(topology, placement)


def bbp_load(topology, node, provision_to_cap=True):
    """Per-instance eCPRI load of the BBP node, read back from its linear processing watts."""
    catalog = default_catalog()
    chassis = {Node.ORU: catalog.radio, Node.ODU: catalog.access_switch,
               Node.OCU: catalog.core_switch, Node.DC: catalog.core_switch}[node]
    server = catalog.dc_server if node is Node.DC else catalog.edge_server
    seg = segment_map()[node]
    count = {Node.ORU: topology.n_ru, Node.ODU: topology.n_du,
             Node.OCU: topology.n_cu, Node.DC: topology.n_dc}[node]
    watts = evaluate(topology, node, provision_to_cap=provision_to_cap).node_watts(node)
    per_gbps = energy_per_capacity(chassis) + energy_per_capacity(server)
    return watts / (seg.alpha * seg.sigma * (count / topology.n_users) * per_gbps)


class TestUserBasebandRate:
    def test_ten_gb_per_month(self):
        assert rel_close(user_baseband_rate(10), USER_RATE_10GB)

    def test_zero(self):
        assert user_baseband_rate(0) == 0.0

    def test_linear_scaling(self):
        assert rel_close(user_baseband_rate(1), USER_RATE_10GB / 10)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            user_baseband_rate(-1)


class TestNodeEcpriLoad:
    def test_dc_aggregates_everything(self):
        topo = build_sweep_topology(100, 10, 4)
        assert rel_close(bbp_load(topo, Node.DC), 100 * 11.0)
        assert topo.n_dc == 1

    def test_odu_provisioned_to_cap(self):
        topo = build_sweep_topology(3, 10, 4)
        assert rel_close(bbp_load(topo, Node.ODU, provision_to_cap=True), 44.0)

    def test_odu_attached_load(self):
        topo = build_sweep_topology(3, 10, 4)
        assert rel_close(bbp_load(topo, Node.ODU, provision_to_cap=False), 33.0)

    def test_oru_single(self):
        topo = build_sweep_topology(1, 10, 4)
        assert rel_close(bbp_load(topo, Node.ORU), 11.0)


class TestProvisionUnits:
    def test_exact_division(self):
        assert provision_units(1100, 5) == 220

    def test_ceiling(self):
        assert provision_units(11, 5) == 3

    def test_minimum_floor(self):
        assert provision_units(0, 5, minimum_units=1) == 1

    def test_zero_load_zero_minimum(self):
        assert provision_units(0, 5) == 0

    def test_bad_unit(self):
        with pytest.raises(ValueError):
            provision_units(10, 0)

    def test_float_noise_on_exact_multiple(self):
        # 3 * 0.1 / 0.1 lands epsilon above 3; must not provision a 4th unit.
        assert provision_units(3 * 0.1, 0.1) == 3

    def test_large_count_keeps_its_fraction(self):
        # half a unit above 2.5e12 is far more than float noise: one more unit
        assert provision_units(2.5e12 + 0.5, 1.0) == 2_500_000_000_001

    @pytest.mark.parametrize("exponent", [49, 50, 51])
    def test_half_unit_within_four_ulps_kept(self, exponent):
        # from 2**49 up a half unit is within 4 ULPs of a whole number
        assert provision_units(2**exponent + 0.5, 1.0) == 2**exponent + 1

    @pytest.mark.parametrize("load,unit,named", [(1e300, 1e-10, r"1e\+300 Gbps .* 1e-10 Gbps"),
                                                 (math.inf, 1.0, "inf Gbps .* 1.0 Gbps")])
    def test_overflowing_ratio_is_overflow_error(self, load, unit, named):
        with pytest.raises(PowerOverflowError, match=named):
            provision_units(load, unit)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["monthly_gb_per_user", "ecpri_per_ru_gbps"])
    def test_traffic_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrafficModel(**{field: value})

    def test_infinite_unit_capacity_rejected(self):
        with pytest.raises(ValueError, match="unit_capacity_gbps"):
            ClassPolicy.quantize(unit_capacity_gbps=math.inf)

    def test_nan_node_power_rejected(self):
        with pytest.raises(ValueError, match="oru"):
            PowerBreakdown(Node.ORU, nodes=(math.nan, 0.0, 0.0, 0.0), segments=(0.0, 0.0, 0.0),
                           ue_watts=0.0)

    @pytest.mark.parametrize("index,name", list(enumerate(
        [segment.value for segment in NODE_ORDER + LINK_ORDER] + ["UE"])))
    def test_negative_part_rejected_naming_it(self, index, name):
        parts = [0.0] * 8
        parts[index] = -1.0
        with pytest.raises(ValueError, match=f"{name}.* must be >= 0, got -1.0"):
            PowerBreakdown(Node.DC, nodes=tuple(parts[:4]), segments=tuple(parts[4:7]),
                           ue_watts=parts[7])

    @pytest.mark.parametrize("nodes,segments,message", [
        ((0.0,) * 3, (0.0,) * 3, "nodes must hold 4 watts figures, got 3"),
        ((0.0,) * 4, (0.0,) * 4, "segments must hold 3 watts figures, got 4"),
        ((), (), "nodes must hold 4 watts figures, got 0"),
    ])
    def test_wrong_length_rejected(self, nodes, segments, message):
        with pytest.raises(ValueError, match=message):
            PowerBreakdown(Node.DC, nodes=nodes, segments=segments, ue_watts=0.0)

    def test_overflowing_product_of_finite_inputs(self):
        config = ModelConfig.default()
        config = replace(config, params={**config.params,
                                         Node.DC: replace(config.params[Node.DC], sigma=1e307)})
        topology = build_sweep_topology(4, 1, 4)
        assert config.evaluate(topology, Node.ORU).total_watts > 0
        with pytest.raises(PowerOverflowError, match="BBP at dc and n_ru=4 .* dc = inf"):
            config.evaluate(topology, Node.DC)

    def test_overflowing_total_rejected(self):
        with pytest.raises(ValueError, match="total power must be finite, got inf"):
            PowerBreakdown(Node.DC, nodes=(1e308, 0.0, 0.0, 0.0), segments=(1e308, 0.0, 0.0),
                           ue_watts=0.0)

    def test_nan_part_from_overflow_is_overflow_error(self):
        # an infinite user rate times a zero UE energy gives a NaN UE term
        catalog = replace(default_catalog(), ue_energy_j_per_bit=0.0)
        with pytest.raises(PowerOverflowError, match="ue = nan"):
            evaluate(build_sweep_topology(4, 1, 4), Node.ORU, catalog=catalog,
                     traffic=TrafficModel(monthly_gb_per_user=1e300))


class TestBbpServerPower:
    def test_dc_server_quantized(self, catalog):
        watts = equipment_power(11.0, catalog.dc_server, ClassPolicy.quantize())
        assert watts == 3 * 110.0  # ceil(11/5) servers of 20*5.5 W

    def test_dc_server_linear(self, catalog):
        watts = equipment_power(11.0, catalog.dc_server, ClassPolicy.linear())
        assert rel_close(watts, 242.0)  # 11 Gbps * 22 W/Gbps

    def test_zero_load_quantized(self, catalog):
        assert equipment_power(0.0, catalog.dc_server, ClassPolicy.quantize()) == 0.0

    def test_quantized_at_least_linear(self, catalog):
        for load in (0.3, 1.0, 4.9, 5.0, 7.3, 44.0):
            quantized = equipment_power(load, catalog.dc_server, ClassPolicy.quantize())
            linear = equipment_power(load, catalog.dc_server, ClassPolicy.linear())
            assert quantized >= linear - 1e-12 * linear


class TestEquipmentPower:
    def test_linear_matches_ratio(self, catalog):
        assert rel_close(equipment_power(44.0, catalog.access_switch, ClassPolicy.linear()),
                         44.0 * 86.7 / 480)

    def test_quantized_whole_device(self, catalog):
        watts = equipment_power(11.0, catalog.radio, ClassPolicy.quantize(minimum_units=1))
        assert watts == 110.0  # one whole 22 Gbps radio

    def test_explicit_unit_capacity(self, catalog):
        # quarter-capacity units carry pro-rata power
        watts = equipment_power(11.0, catalog.radio, ClassPolicy.quantize(unit_capacity_gbps=5.5))
        assert rel_close(watts, 2 * 5.5 * 5.0)


class TestBranchSelection:
    def test_placement_partitions_nodes(self):
        topo = build_sweep_topology(7, 3, 4)
        for placement in Node:
            breakdown = evaluate(topo, placement)
            assert breakdown.placement is placement
            branches = [breakdown.branch(node) for node in NODE_ORDER]
            assert branches.count("bbp") == 1
            depth = placement.depth
            assert branches == ["before"] * depth + ["bbp"] + ["after"] * (3 - depth)
            links = [breakdown.branch(link) for link in LINK_ORDER]
            assert links == ["before"] * depth + ["after"] * (3 - depth)


class TestProcessingPower:
    def test_bbp_at_oru(self):
        # alpha*sigma=5, rho=0.1, 11 Gbps, server 24 W/Gbps + radio 5 W/Gbps
        topo = build_sweep_topology(10, 10, 4)
        watts = evaluate(topo, Node.ORU).node_watts(Node.ORU)
        assert rel_close(watts, 5 * 0.1 * 11 * (24 + 5))

    def test_odu_pass_through(self):
        # alpha*sigma=10, rho=1/40, 44 Gbps through the access switch
        topo = build_sweep_topology(4, 10, 4)
        watts = evaluate(topo, Node.DC).node_watts(Node.ODU)
        assert rel_close(watts, 10 * (1 / 40) * 44 * (86.7 / 480))

    def test_ocu_after_bbp_is_coverage_free(self):
        expected = 10 * USER_RATE_10GB * (3000 / 25600)
        for n_ru in (4, 40, 100):
            topo = build_sweep_topology(n_ru, 10, 4)
            watts = evaluate(topo, Node.ORU).node_watts(Node.OCU)
            assert rel_close(watts, expected)

    def test_zero_traffic_after_branch(self):
        topo = build_sweep_topology(4, 10, 4)
        breakdown = evaluate(topo, Node.ORU, traffic=TrafficModel(monthly_gb_per_user=0))
        assert breakdown.node_watts(Node.OCU) == 0.0

    def test_unknown_node_rejected(self):
        topo = build_sweep_topology(4, 10, 4)
        with pytest.raises(ValueError, match="placement"):
            evaluate(topo, "oru")

    @pytest.mark.parametrize("placement", ["dc", None, 0, []], ids=repr)
    def test_unknown_placement_named_before_and_after_plans_are_cached(self, placement):
        config = ModelConfig.default()
        topo = build_sweep_topology(4, 10, 4)
        message = re.escape(f"unknown BBP placement: {placement!r}")
        with pytest.raises(ValueError, match=message):
            config.evaluate(topo, placement)
        for node in NODE_ORDER:  # plans are keyed by depth, so 0 must not find the O-RU plan
            config.evaluate(topo, node)
        with pytest.raises(ValueError, match=message):
            config.evaluate(topo, placement)


class TestTransmissionPower:
    def test_bbp_at_oru_components(self):
        topo = build_sweep_topology(100, 10, 4)
        result = evaluate(topo, Node.ORU)
        assert rel_close(result.ue_watts, USER_RATE_10GB * 1e9 * 25e-9)
        by_link = dict(zip(LINK_ORDER, result.segments))
        assert rel_close(by_link[Link.FRONTHAUL], 10 * USER_RATE_10GB * FRONTHAUL_BRACKET)
        assert rel_close(by_link[Link.MIDHAUL], 10 * USER_RATE_10GB * MIDHAUL_BRACKET)
        assert rel_close(by_link[Link.BACKHAUL], 3 * USER_RATE_10GB * BACKHAUL_BRACKET)
        assert [result.branch(link) for link in LINK_ORDER] == ["after"] * 3

    def test_bbp_at_dc_small_topology(self):
        # every segment carries 1.1 Gbps of provisioned eCPRI per user
        topo = build_sweep_topology(4, 10, 4)
        result = evaluate(topo, Node.DC)
        by_link = dict(zip(LINK_ORDER, result.segments))
        assert rel_close(by_link[Link.FRONTHAUL], 10 * 1.1 * FRONTHAUL_BRACKET)
        assert rel_close(by_link[Link.MIDHAUL], 10 * 1.1 * MIDHAUL_BRACKET)
        assert rel_close(by_link[Link.BACKHAUL], 3 * 1.1 * BACKHAUL_BRACKET)
        assert [result.branch(link) for link in LINK_ORDER] == ["before"] * 3

    def test_no_traffic_no_power(self, catalog):
        topo = build_sweep_topology(4, 10, 4)
        silent = replace(catalog, ue_energy_j_per_bit=0.0)
        result = evaluate(topo, Node.ORU, traffic=TrafficModel(monthly_gb_per_user=0),
                          catalog=silent)
        assert result.transmission_watts == 0.0


class TestTotalPower:
    def test_dc_placement_decomposition(self):
        topo = build_sweep_topology(100, 10, 4)
        breakdown = evaluate(topo, Node.DC)
        assert rel_close(breakdown.node_watts(Node.ORU), 27.5)
        assert rel_close(breakdown.node_watts(Node.ODU), 1.9868750000000002)
        assert rel_close(breakdown.node_watts(Node.OCU), 1.2890625)
        assert rel_close(breakdown.node_watts(Node.DC), 47.4413671875)
        assert rel_close(breakdown.total_watts, 93.2981596257716, tol=1e-9)

    def test_oru_placement_total(self):
        topo = build_sweep_topology(100, 10, 4)
        breakdown = evaluate(topo, Node.ORU)
        assert rel_close(breakdown.total_watts, 159.50129369775593, tol=1e-9)

    def test_totals_consistent(self):
        topo = build_sweep_topology(7, 3, 4)
        for placement in Node:
            breakdown = evaluate(topo, placement, policy=ProvisioningPolicy.default())
            assert breakdown.processing_watts == sum(breakdown.nodes)
            assert breakdown.transmission_watts == breakdown.ue_watts + sum(breakdown.segments)
            assert breakdown.total_watts == (
                breakdown.processing_watts + breakdown.transmission_watts)

    @pytest.mark.parametrize("total", ["processing_watts", "transmission_watts", "total_watts"])
    def test_totals_cannot_be_passed(self, total):
        # the totals are derived from the parts, so no inconsistent total can be stored
        with pytest.raises(TypeError, match=total):
            PowerBreakdown(Node.ORU, nodes=(1.0, 0.0, 0.0, 0.0), segments=(0.5, 0.0, 0.0),
                           ue_watts=0.1, **{total: 2.0})

    def test_totals_derived_from_parts(self):
        breakdown = PowerBreakdown(Node.ORU, nodes=(1.0, 0.0, 0.0, 0.0),
                                   segments=(0.5, 0.0, 0.0), ue_watts=0.25)
        assert (breakdown.processing_watts, breakdown.transmission_watts,
                breakdown.total_watts) == (1.0, 0.75, 1.75)

    @pytest.mark.parametrize("placement", ["dc", None, 0, [], Link.FRONTHAUL])
    def test_placement_must_be_a_node(self, placement):
        # branch() reads the placement's depth, which only a Node has
        with pytest.raises(ValueError, match=re.escape(f"unknown BBP placement: {placement!r}")):
            PowerBreakdown(placement, (0.0,) * 4, (0.0,) * 3, 0.0)


class TestRecords:
    """Breakdowns, topologies and sweep records behave as frozen dataclasses."""

    @staticmethod
    def records():
        breakdown = PowerBreakdown(Node.ODU, nodes=(1.0, 2.0, 0.0, 0.0), segments=(0.5, 0.0, 0.0),
                                   ue_watts=0.25)
        topology = Topology(n_ru=8, n_du=2, n_cu=1, n_dc=1, users_per_ru=3, du_fanout_cap=4)
        return breakdown, topology, SweepRecord(8, breakdown)

    @pytest.mark.parametrize("index,name", [
        (0, "placement"), (0, "nodes"), (0, "ue_watts"), (0, "total_watts"),
        (1, "n_ru"), (1, "du_fanout_cap"), (1, "n_users"), (2, "n_ru"), (2, "breakdown"),
    ])
    def test_fields_cannot_be_assigned(self, index, name):
        record = self.records()[index]
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, 1)

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                           lambda record: pickle.loads(pickle.dumps(record))])
    def test_copies_equal_and_hash_alike(self, duplicate):
        for record in self.records():
            twin = duplicate(record)
            assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)

    def test_replace_derives_fields_again(self):
        breakdown, topology, record = self.records()
        assert replace(breakdown, ue_watts=1.0).total_watts == 4.5
        assert replace(topology, n_ru=7).n_users == 21
        assert replace(record, n_ru=9) == SweepRecord(9, breakdown)
        with pytest.raises(TopologyError, match=r"n_ru >= n_du violated \(1 < 2\)"):
            replace(topology, n_ru=1)


class TestReusedConfig:
    """A config evaluated many times gives exactly what a fresh config gives."""

    @staticmethod
    def config(policy=None):
        params = segment_map()
        params.update({
            Link.FRONTHAUL: replace(params[Link.FRONTHAUL], hops_switch=2, hops_wdm=1),
            Link.BACKHAUL: replace(params[Link.BACKHAUL], hops_router=1, sigma=1.7),
            Node.ODU: replace(params[Node.ODU], alpha=2.5),
        })
        if policy is None:
            policy = ProvisioningPolicy(
                servers=ClassPolicy.quantize(),
                switches=ClassPolicy.quantize(minimum_units=1),
                routers=ClassPolicy.quantize(unit_capacity_gbps=100.0),
            )
        return ModelConfig(catalog=default_catalog(), params=params,
                           traffic=TrafficModel(monthly_gb_per_user=25.0), policy=policy,
                           provision_to_cap=False)

    def test_shuffled_repeated_cells_match_fresh_configs(self):
        topologies = [build_sweep_topology(n_ru, users, cap)
                      for n_ru in (1, 3, 4, 5, 17, 100) for users, cap in ((1, 1), (10, 4), (7, 6))]
        topologies += [from_fanout_case(case, 40, 10) for case in FANOUT_CASES.values()]
        topologies.append(Topology(n_ru=12, n_du=5, n_cu=2, n_dc=1, users_per_ru=3))
        cells = [(topology, placement) for topology in topologies for placement in Node] * 2
        random.Random(4).shuffle(cells)
        shared = self.config()
        for topology, placement in cells:
            assert shared.evaluate(topology, placement) == self.config().evaluate(topology, placement)

    def test_evaluating_changes_neither_equality_nor_replace(self):
        used, fresh = self.config(), self.config()
        topology = build_sweep_topology(9, 10, 4)
        for placement in Node:
            used.evaluate(topology, placement)
        assert used == fresh
        assert replace(used) == used
        linear = ProvisioningPolicy.all_linear()
        replaced = replace(used, policy=linear)
        assert replaced == replace(fresh, policy=linear) == self.config(policy=linear)
        for placement in Node:
            assert (replaced.evaluate(topology, placement)
                    == self.config(policy=linear).evaluate(topology, placement))
        assert ([replaced.evaluate(topology, placement) for placement in Node]
                != [used.evaluate(topology, placement) for placement in Node])

    def test_params_are_a_read_only_copy(self):
        params = segment_map()
        config = ModelConfig(catalog=default_catalog(), params=params, traffic=TrafficModel(),
                             policy=ProvisioningPolicy.default())
        topology = build_sweep_topology(9, 10, 4)
        before = config.evaluate(topology, Node.DC)
        params[Node.DC] = replace(params[Node.DC], sigma=4.0)
        assert config.evaluate(topology, Node.DC) == before
        with pytest.raises(TypeError):
            config.params[Node.DC] = params[Node.DC]

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                           lambda config: pickle.loads(pickle.dumps(config))])
    def test_copies_and_pickles_of_a_used_config(self, duplicate):
        config = self.config()
        topology = build_sweep_topology(9, 10, 4)
        expected = [config.evaluate(topology, placement) for placement in Node]
        twin = duplicate(config)
        assert twin == config
        assert [twin.evaluate(topology, placement) for placement in Node] == expected
