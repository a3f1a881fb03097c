"""Closed-form power model: rates, loads, branch selection, and policy modes.

Expected values are frozen from independent arithmetic on the default
ratings (written out inline), not from the functions under test. Every
per-node and per-segment term is read from ``ModelConfig.evaluate``.
"""

import copy
import functools
import math
import pickle
import random
import re

import pytest

from oranpower.catalog import default_catalog, energy_per_capacity
from oranpower.configfile import TopologyCounts
from oranpower.powermodel import (
    ClassPolicy,
    ModelConfig,
    PowerBreakdown,
    PowerOverflowError,
    ProvisioningPolicy,
    TrafficModel,
    provision_units,
    segment_branch,
)
from oranpower.topology import (
    FANOUT_CASES,
    LINK_ORDER,
    NODE_ORDER,
    Link,
    Node,
    SegmentParams,
    Topology,
    TopologyError,
    build_sweep_topology,
    from_fanout_case,
    segment_map,
)

from model_helpers import equipment_power, evaluate_parts, replace

# Derived once from 10 GB/month * 8e9 bit/GB / (30*24*3600 s), in Gbps.
USER_RATE_10GB = 3.08641975308642e-05

# Per-Gbps transport brackets: switch + WDM link (+ router on backhaul).
FRONTHAUL_BRACKET = 86.7 / 480 + 4265 / 9600          # 0.6248958333...
MIDHAUL_BRACKET = 3000 / 25600 + 4265 / 9600          # 0.5614583333...
BACKHAUL_BRACKET = MIDHAUL_BRACKET + 172 / 3200       # 0.6152083333...
# What PowerBreakdown(...) and replace of a breakdown raise.
ONLY_EVALUATE = r"^only ModelConfig\.evaluate builds a PowerBreakdown$"
# repr(ModelConfig.default()) as printed when the records were frozen dataclasses.
DEFAULT_CONFIG_REPR = (
    "ModelConfig(catalog=EquipmentCatalog(radio=EquipmentSpec(name='radio'"
    ', rated_power_w=110.0, capacity_gbps=22.0)'
    ", access_switch=EquipmentSpec(name='access_switch', rated_power_w=86.7"
    ", capacity_gbps=480.0), core_switch=EquipmentSpec(name='core_switch'"
    ', rated_power_w=3000.0, capacity_gbps=25600.0)'
    ", wdm_link=EquipmentSpec(name='wdm_link', rated_power_w=4265.0"
    ", capacity_gbps=9600.0), router=EquipmentSpec(name='router', rated_power_w=172.0"
    ', capacity_gbps=3200.0), edge_server=ServerSpec(cores=4, per_core_power_w=6.0'
    ', per_core_capacity_gbps=0.25, server_capacity_gbps=1.0)'
    ', dc_server=ServerSpec(cores=20, per_core_power_w=5.5, per_core_capacity_gbps=0.25'
    ', server_capacity_gbps=5.0), ue_energy_j_per_bit=2.5e-08)'
    ", params=mappingproxy({<Node.ORU: 'oru'>: SegmentParams(segment=<Node.ORU: 'oru'>"
    ', sigma=1.0, alpha=5.0, hops_switch=0, hops_wdm=0, hops_router=0, gamma=0)'
    ", <Node.ODU: 'odu'>: SegmentParams(segment=<Node.ODU: 'odu'>, sigma=2.0, alpha=5.0"
    ', hops_switch=0, hops_wdm=0, hops_router=0, gamma=0)'
    ", <Node.OCU: 'ocu'>: SegmentParams(segment=<Node.OCU: 'ocu'>, sigma=2.0, alpha=5.0"
    ', hops_switch=0, hops_wdm=0, hops_router=0, gamma=0)'
    ", <Node.DC: 'dc'>: SegmentParams(segment=<Node.DC: 'dc'>, sigma=1.5, alpha=1.3"
    ', hops_switch=0, hops_wdm=0, hops_router=0, gamma=0)'
    ", <Link.FRONTHAUL: 'fronthaul'>: SegmentParams(segment=<Link.FRONTHAUL: 'fronthaul'>"
    ', sigma=2.0, alpha=5.0, hops_switch=0, hops_wdm=0, hops_router=0, gamma=0)'
    ", <Link.MIDHAUL: 'midhaul'>: SegmentParams(segment=<Link.MIDHAUL: 'midhaul'>"
    ', sigma=2.0, alpha=5.0, hops_switch=0, hops_wdm=0, hops_router=0, gamma=0)'
    ", <Link.BACKHAUL: 'backhaul'>: SegmentParams(segment=<Link.BACKHAUL: 'backhaul'>"
    ', sigma=1.5, alpha=2.0, hops_switch=0, hops_wdm=0, hops_router=0, gamma=1)})'
    ', traffic=TrafficModel(monthly_gb_per_user=10.0, ecpri_per_ru_gbps=11.0)'
    ', policy=ProvisioningPolicy(servers=ClassPolicy(quantized=True'
    ', unit_capacity_gbps=None, minimum_units=0)'
    ', node_interface=ClassPolicy(quantized=False, unit_capacity_gbps=None'
    ', minimum_units=0), switches=ClassPolicy(quantized=False, unit_capacity_gbps=None'
    ', minimum_units=0), links=ClassPolicy(quantized=False, unit_capacity_gbps=None'
    ', minimum_units=0), routers=ClassPolicy(quantized=False, unit_capacity_gbps=None'
    ', minimum_units=0)), provision_to_cap=True)'
)


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


def user_rate(monthly_gb):
    return TrafficModel(monthly_gb_per_user=monthly_gb).user_rate_gbps


class TestUserBasebandRate:
    def test_ten_gb_per_month(self):
        assert rel_close(user_rate(10), USER_RATE_10GB)

    def test_zero(self):
        assert user_rate(0) == 0.0

    def test_linear_scaling(self):
        assert rel_close(user_rate(1), USER_RATE_10GB / 10)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="monthly_gb_per_user"):
            user_rate(-1)


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

    @pytest.mark.parametrize("load,unit", [(1e300, 1e-10), (math.inf, 1.0)])
    def test_overflowing_ratio_is_inf(self, load, unit):
        # a count beyond a float makes its term infinite, which the row check rejects
        assert provision_units(load, unit, minimum_units=3) == math.inf


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["monthly_gb_per_user", "ecpri_per_ru_gbps"])
    def test_traffic_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrafficModel(**{field: value})

    def test_infinite_unit_capacity_rejected(self):
        with pytest.raises(ValueError, match="unit_capacity_gbps"):
            ClassPolicy.quantize(unit_capacity_gbps=math.inf)

    @pytest.mark.parametrize("minimum", [2**53 + 1, 10**400], ids=["2**53+1", "10**400"])
    def test_minimum_units_beyond_max_count_rejected(self, minimum):
        with pytest.raises(ValueError, match=r"^minimum_units must be an integer >= 0 and "
                                             rf"<= 2\*\*53, got {minimum}$"):
            ClassPolicy.quantize(minimum_units=minimum)
        policy = ProvisioningPolicy(servers=ClassPolicy.quantize(minimum_units=2**53))
        breakdown = ModelConfig.default(policy).evaluate(build_sweep_topology(4, 1), Node.ODU)
        assert math.isfinite(breakdown.total_watts)

    def test_overflowing_product_of_finite_inputs(self):
        config = ModelConfig.default()
        config = replace(config, params={**config.params,
                                         Node.DC: replace(config.params[Node.DC], sigma=1e307)})
        topology = build_sweep_topology(4, 1, 4)
        assert config.evaluate(topology, Node.ORU).total_watts > 0
        with pytest.raises(PowerOverflowError, match="BBP at dc and n_ru=4 .* dc = inf"):
            config.evaluate(topology, Node.DC)

    def test_nan_node_power_rejected(self):
        with pytest.raises(PowerOverflowError, match="BBP at oru and n_ru=1 .*: oru = nan, "):
            evaluate_parts((math.nan, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0)

    @pytest.mark.parametrize("index,name", list(enumerate(
        [segment.value for segment in NODE_ORDER + LINK_ORDER] + ["ue"])))
    def test_negative_part_rejected_naming_it(self, index, name):
        # No part the model prices is negative, but the row check rejects one, not returns it.
        parts = [0.0] * 8
        parts[index] = -1.0
        with pytest.raises(PowerOverflowError, match=f"(: |, ){name} = -1(, |$)"):
            evaluate_parts(tuple(parts[:4]), tuple(parts[4:7]), parts[7])

    @pytest.mark.parametrize("nodes,segments", [
        ((0.0, 1e308, 1e308, 0.0), (0.0, 0.0, 0.0)),
        ((0.0, 0.0, 0.0, 0.0), (1e308, 0.0, 1e308)),
        ((1e308, 0.0, 0.0, 0.0), (1e308, 0.0, 0.0)),
    ], ids=["processing", "transmission", "only-total"])
    def test_overflowing_total_rejected(self, nodes, segments):
        # every part is finite: only a sum of them overflows
        names = [segment.value for segment in NODE_ORDER + LINK_ORDER] + ["ue"]
        named = ", ".join(f"{name} = {watts:.6g}"
                          for name, watts in zip(names, (*nodes, *segments, 0.0)))
        with pytest.raises(PowerOverflowError, match=re.escape(f"overflows a float: {named}")):
            evaluate_parts(nodes, segments, 0.0)

    def test_nan_part_from_overflow_is_overflow_error(self):
        # After the BBP node the DC tier prices an infinite alpha * sigma * rate times
        # its core switch's W/Gbps ratio, which underflows to 0.0: a NaN DC term.
        catalog = replace(default_catalog(), core_switch=replace(
            default_catalog().core_switch, rated_power_w=5e-324, capacity_gbps=1e300))
        params = {**segment_map(), Node.DC: SegmentParams(Node.DC, sigma=1e308, alpha=1.0)}
        config = ModelConfig(catalog, params, TrafficModel(monthly_gb_per_user=1e7),
                             ProvisioningPolicy())
        with pytest.raises(PowerOverflowError, match="BBP at oru and n_ru=4 .* dc = nan"):
            config.evaluate(build_sweep_topology(4, 1, 4), Node.ORU)


class TestNegativeZero:
    """-0.0 is a valid zero input; it is stored as 0.0, so no watts figure is -0.0."""

    def test_stored_as_positive_zero(self):
        traffic = TrafficModel(monthly_gb_per_user=-0.0, ecpri_per_ru_gbps=-0.0)
        catalog = replace(default_catalog(), ue_energy_j_per_bit=-0.0)
        for value in (traffic.monthly_gb_per_user, traffic.ecpri_per_ru_gbps,
                      catalog.ue_energy_j_per_bit):
            assert math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("policy", [None, ProvisioningPolicy.default()])
    @pytest.mark.parametrize("placement", NODE_ORDER)
    def test_no_part_has_its_sign_bit_set(self, placement, policy):
        topology = build_sweep_topology(4, 2, 4)
        for traffic, catalog in ((TrafficModel(-0.0, -0.0), default_catalog()),
                                 (TrafficModel(), replace(default_catalog(),
                                                          ue_energy_j_per_bit=-0.0))):
            breakdown = evaluate(topology, placement, policy, traffic, catalog)
            parts = (*breakdown.nodes, *breakdown.segments, breakdown.ue_watts,
                     breakdown.processing_watts, breakdown.transmission_watts,
                     breakdown.total_watts)
            assert all(math.copysign(1.0, part) == 1.0 for part in parts), parts


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
            branches = [segment_branch(node, breakdown.placement) for node in NODE_ORDER]
            assert branches.count("bbp") == 1
            depth = placement.depth
            assert branches == ["before"] * depth + ["bbp"] + ["after"] * (3 - depth)
            links = [segment_branch(link, breakdown.placement) for link in LINK_ORDER]
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

    @pytest.mark.parametrize("placement", ["dc", None, 0, [], Link.FRONTHAUL], ids=repr)
    def test_unknown_placement_named_before_and_after_each_node_is_evaluated(self, placement):
        config = ModelConfig.default()
        topo = build_sweep_topology(4, 10, 4)
        message = re.escape(f"unknown BBP placement: {placement!r}")
        with pytest.raises(ValueError, match=message):
            config.evaluate(topo, placement)
        for node in NODE_ORDER:  # the O-RU's depth is 0, yet 0 is no placement
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
        assert [segment_branch(link, result.placement) for link in LINK_ORDER] == ["after"] * 3

    def test_bbp_at_dc_small_topology(self):
        # every segment carries 1.1 Gbps of provisioned eCPRI per user
        topo = build_sweep_topology(4, 10, 4)
        result = evaluate(topo, Node.DC)
        by_link = dict(zip(LINK_ORDER, result.segments))
        assert rel_close(by_link[Link.FRONTHAUL], 10 * 1.1 * FRONTHAUL_BRACKET)
        assert rel_close(by_link[Link.MIDHAUL], 10 * 1.1 * MIDHAUL_BRACKET)
        assert rel_close(by_link[Link.BACKHAUL], 3 * 1.1 * BACKHAUL_BRACKET)
        assert [segment_branch(link, result.placement) for link in LINK_ORDER] == ["before"] * 3

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
            # P_T = P_pr + P_tr exactly, each sum taken left to right as documented: since
            # Python 3.12, sum() of floats compensates its rounding.
            n0, n1, n2, n3 = breakdown.nodes
            l0, l1, l2 = breakdown.segments
            assert breakdown.processing_watts == 0.0 + n0 + n1 + n2 + n3
            assert breakdown.transmission_watts == breakdown.ue_watts + (0.0 + l0 + l1 + l2)
            assert breakdown.total_watts == (
                breakdown.processing_watts + breakdown.transmission_watts)

    def test_totals_derived_from_parts(self):
        breakdown = evaluate_parts((1.0, 0.0, 0.0, 0.0), (0.5, 0.0, 0.0), 0.25)
        assert (breakdown.nodes, breakdown.segments, breakdown.ue_watts) == (
            (1.0, 0.0, 0.0, 0.0), (0.5, 0.0, 0.0), 0.25)
        assert (breakdown.processing_watts, breakdown.transmission_watts,
                breakdown.total_watts) == (1.0, 0.75, 1.75)

    @pytest.mark.parametrize("total", ["processing_watts", "transmission_watts", "total_watts"])
    def test_totals_cannot_be_passed(self, total):
        # the totals are derived from the parts, so no inconsistent total can be stored
        breakdown = evaluate_parts((1.0, 0.0, 0.0, 0.0), (0.5, 0.0, 0.0), 0.25)
        for build in (PowerBreakdown, functools.partial(replace, breakdown)):
            with pytest.raises(TypeError, match=ONLY_EVALUATE):
                build(**{total: 2.0})
        with pytest.raises(AttributeError, match=total):
            setattr(breakdown, total, 2.0)
        assert breakdown.total_watts == 1.75

    @pytest.mark.parametrize("args, kwargs", [
        ((Node.ORU,), dict(nodes=(1.0, 0.0, 0.0, 0.0), segments=(0.5, 0.0, 0.0), ue_watts=0.25)),
        ((), {}),
    ], ids=["parts", "no-arguments"])
    def test_only_evaluate_builds_a_breakdown(self, args, kwargs):
        # The totals come from the row loop's sums, so there is no constructor to pass parts to.
        # copy and pickle create a breakdown without __init__ (TestRecords copies one).
        with pytest.raises(TypeError, match=ONLY_EVALUATE):
            PowerBreakdown(*args, **kwargs)


class TestRecords:
    """Breakdowns and topologies behave as frozen records."""

    @staticmethod
    def records():
        topology = Topology(n_ru=8, n_du=2, n_cu=1, n_dc=1, users_per_ru=3, du_fanout_cap=4)
        return ModelConfig.default().evaluate(topology, Node.ODU), topology

    @pytest.mark.parametrize("index,name", [
        (0, "placement"), (0, "nodes"), (0, "ue_watts"), (0, "total_watts"),
        (1, "n_ru"), (1, "du_fanout_cap"), (1, "n_users"),
    ])
    def test_fields_cannot_be_assigned(self, index, name):
        record = self.records()[index]
        with pytest.raises(AttributeError):
            setattr(record, name, 1)

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                           lambda record: pickle.loads(pickle.dumps(record))])
    def test_copies_equal_and_hash_alike(self, duplicate):
        for record in self.records():
            twin = duplicate(record)
            assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)

    def test_replace_derives_fields_again(self):
        breakdown, topology = self.records()
        # a breakdown has no constructor to derive them
        with pytest.raises(TypeError, match=ONLY_EVALUATE):
            replace(breakdown, ue_watts=1.0)
        assert replace(topology, n_ru=7).n_users == 21
        with pytest.raises(TopologyError, match=r"n_ru >= n_du violated \(1 < 2\)"):
            replace(topology, n_ru=1)

    def test_derived_field_cannot_be_replaced(self):
        with pytest.raises(TypeError, match="n_users"):
            replace(self.records()[1], n_users=5)

    def test_repr_and_hash_match_the_frozen_dataclasses(self):
        # Literals captured when the records were frozen dataclasses; the hash is that of the
        # tuple of the fields on a 64-bit build.
        topology = Topology(8, 2, 1, 1, 3, 4)
        assert repr(ModelConfig.default()) == DEFAULT_CONFIG_REPR
        assert repr(topology) == ("Topology(n_ru=8, n_du=2, n_cu=1, n_dc=1, users_per_ru=3, "
                                  "du_fanout_cap=4, n_users=24)")
        assert repr(TopologyCounts()) == (
            "TopologyCounts(n_ru=None, users_per_ru=None, du_fanout_cap=None)")
        assert hash(topology) == -2122284510447695186
        with pytest.raises(AttributeError, match="^cannot delete field 'n_ru'$"):
            del topology.n_ru


class TestConfigParams:
    """A config holds the parameters of every tier and link, each under its own segment."""

    @staticmethod
    def build(params):
        return ModelConfig(default_catalog(), params, TrafficModel(), ProvisioningPolicy())

    def test_empty_params_rejected_naming_the_first_segment(self):
        with pytest.raises(TopologyError, match=r"^params\[oru\] must be the SegmentParams of oru"):
            self.build({})

    @pytest.mark.parametrize("segment", list(NODE_ORDER + LINK_ORDER))
    def test_missing_segment_rejected_naming_it(self, segment):
        params = segment_map()
        del params[segment]
        with pytest.raises(TopologyError, match=rf"^params\[{segment.value}\] .* got None$"):
            self.build(params)

    def test_entry_under_another_segment_rejected(self):
        params = segment_map()
        params[Node.ORU] = SegmentParams(Link.BACKHAUL, 3.0, 3.0)
        with pytest.raises(TopologyError, match=r"^params\[oru\] must be the SegmentParams of "
                                                r"oru, got SegmentParams\(segment=<Link.BACKHAUL"):
            self.build(params)

    @pytest.mark.parametrize("entry", [None, (1.0, 5.0), "oru"])
    def test_entry_that_is_not_segment_params_rejected(self, entry):
        params = {**segment_map(), Node.ORU: entry}
        with pytest.raises(TopologyError, match=r"^params\[oru\] must be the SegmentParams"):
            self.build(params)

    @pytest.mark.parametrize("key", ["oru", 7, None])
    def test_unknown_key_rejected(self, key):
        with pytest.raises(TopologyError, match=re.escape(f"unknown segments: [{key!r}]")):
            self.build({**segment_map(), key: segment_map()[Node.ORU]})

    def test_every_config_from_the_default_map_accepted(self):
        config = self.build(segment_map())
        assert config.params == segment_map()
        assert replace(config, provision_to_cap=False).params == segment_map()

    def test_map_out_of_plan_order_accepted(self):
        config = self.build(dict(reversed(segment_map().items())))
        assert config == self.build(segment_map())

    @pytest.mark.parametrize("value", ["no", 1, 0, None])
    def test_flags_must_be_bools(self, value):
        # Either flag reads as its truth value, so "no" would size quantized or to the cap.
        with pytest.raises(ValueError, match=f"^quantized must be True or False, got {value!r}$"):
            ClassPolicy(quantized=value)
        with pytest.raises(ValueError,
                           match=f"^provision_to_cap must be True or False, got {value!r}$"):
            replace(ModelConfig.default(), provision_to_cap=value)


class TestComponents:
    """A config and a policy hold components of their own types; another fails when built,
    not at its first evaluate."""

    @pytest.mark.parametrize("field,kind", [("catalog", "EquipmentCatalog"),
                                            ("traffic", "TrafficModel"),
                                            ("policy", "ProvisioningPolicy")])
    @pytest.mark.parametrize("value", [None, "default"])
    def test_config_components_checked(self, field, kind, value):
        with pytest.raises(ValueError, match=f"^{field} must be of type {kind}, got {value!r}$"):
            replace(ModelConfig.default(), **{field: value})

    @pytest.mark.parametrize("field", ["servers", "node_interface", "switches", "links",
                                       "routers"])
    @pytest.mark.parametrize("value", [None, True])
    def test_policy_classes_checked(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be of type ClassPolicy, got {value}$"):
            ProvisioningPolicy(**{field: value})


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
