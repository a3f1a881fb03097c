"""Topology builders, segment parameter defaults, and structural validation."""

import copy
import math
import pickle
import re
from fractions import Fraction

import pytest

from oranpower.catalog import (
    CatalogError,
    EquipmentSpec,
    ServerSpec,
    default_catalog,
    energy_per_capacity,
)
from oranpower.experiments import sweep_orus
from oranpower.powermodel import ClassPolicy, ModelConfig, ProvisioningPolicy, TrafficModel
from oranpower.topology import (
    FANOUT_CASES,
    LINK_ORDER,
    NODE_ORDER,
    FanoutCase,
    Link,
    Node,
    SegmentParams,
    Topology,
    TopologyError,
    build_sweep_topology,
    fanout_case,
    from_fanout_case,
    segment_map,
)


class TestDefaultSegmentParams:
    def test_seven_entries(self):
        assert len(segment_map()) == 7

    def test_table_values(self):
        params = segment_map()
        assert (params[Node.ORU].sigma, params[Node.ORU].alpha) == (1.0, 5.0)
        assert (params[Node.ODU].sigma, params[Node.ODU].alpha) == (2.0, 5.0)
        assert (params[Node.OCU].sigma, params[Node.OCU].alpha) == (2.0, 5.0)
        assert (params[Node.DC].sigma, params[Node.DC].alpha) == (1.5, 1.3)
        assert (params[Link.FRONTHAUL].sigma, params[Link.FRONTHAUL].alpha) == (2.0, 5.0)
        assert (params[Link.MIDHAUL].sigma, params[Link.MIDHAUL].alpha) == (2.0, 5.0)
        assert (params[Link.BACKHAUL].sigma, params[Link.BACKHAUL].alpha) == (1.5, 2.0)

    def test_router_only_on_backhaul(self):
        params = segment_map()
        assert params[Link.BACKHAUL].gamma == 1
        assert all(params[seg].gamma == 0 for seg in params if seg is not Link.BACKHAUL)

    def test_coverage_numerators(self):
        # tier i and link i share each instance of tier i among the users
        topology = Topology(n_ru=40, n_du=10, n_cu=5, n_dc=1, users_per_ru=3)
        counts = (topology.n_ru, topology.n_du, topology.n_cu, topology.n_dc)
        for node in NODE_ORDER:
            assert rel_close(coverage_factor(topology, node), counts[node.depth] / 120)
        for link in LINK_ORDER:
            assert rel_close(link_coverage_factor(topology, link), counts[link.depth] / 120)

    def test_default_hops_are_zero(self):
        for entry in segment_map().values():
            assert (entry.hops_switch, entry.hops_wdm, entry.hops_router) == (0, 0, 0)

    def test_each_call_returns_a_new_container(self):
        params = segment_map()
        params[Node.ORU] = SegmentParams(Node.ORU, sigma=3.0, alpha=3.0)
        del params[Link.BACKHAUL]
        assert segment_map()[Node.ORU].sigma == 1.0 and Link.BACKHAUL in segment_map()


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda member: pickle.loads(pickle.dumps(member))])
def test_segments_found_by_their_copies(duplicate):
    params = segment_map()
    for segment in NODE_ORDER + LINK_ORDER:
        twin = duplicate(segment)
        assert twin is segment and hash(twin) == hash(segment)
        assert params[twin].segment is segment
    assert pickle.loads(pickle.dumps(params)) == params


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(abs(a), abs(b))


def coverage_factor(topology, node):
    """ρ of a node tier, read back from its per-user watts as the BBP node under linear sizing.

    With O-DUs sized for the attached O-RUs, one instance of a tier with
    ``count`` instances carries ``n_ru / count`` O-RUs of eCPRI.
    """
    catalog, params, traffic = default_catalog(), segment_map(), TrafficModel()
    config = ModelConfig(catalog, params, traffic, ProvisioningPolicy.all_linear(),
                         provision_to_cap=False)
    count = {Node.ORU: topology.n_ru, Node.ODU: topology.n_du,
             Node.OCU: topology.n_cu, Node.DC: topology.n_dc}[node]
    chassis = {Node.ORU: catalog.radio, Node.ODU: catalog.access_switch,
               Node.OCU: catalog.core_switch, Node.DC: catalog.core_switch}[node]
    server = catalog.dc_server if node is Node.DC else catalog.edge_server
    load = topology.n_ru / count * traffic.ecpri_per_ru_gbps
    per_gbps = energy_per_capacity(chassis) + energy_per_capacity(server)
    watts = config.evaluate(topology, node).node_watts(node)
    return watts / (params[node].alpha * params[node].sigma * load * per_gbps)


def link_coverage_factor(topology, link):
    """ρ of a link, read back from its per-user watts with BBP at the DC under linear sizing.

    Link i carries the eCPRI of one tier-i instance, ``n_ru / count`` O-RUs,
    through its switch, WDM link and router.
    """
    catalog, params, traffic = default_catalog(), segment_map(), TrafficModel()
    config = ModelConfig(catalog, params, traffic, ProvisioningPolicy.all_linear(),
                         provision_to_cap=False)
    count = (topology.n_ru, topology.n_du, topology.n_cu)[link.depth]
    switch = catalog.access_switch if link is Link.FRONTHAUL else catalog.core_switch
    seg = params[link]
    load = topology.n_ru / count * traffic.ecpri_per_ru_gbps
    per_gbps = ((seg.hops_switch + 1) * energy_per_capacity(switch)
                + (seg.hops_wdm + 1) * energy_per_capacity(catalog.wdm_link)
                + seg.gamma * (seg.hops_router + 1) * energy_per_capacity(catalog.router))
    watts = config.evaluate(topology, Node.DC).segments[link.depth]
    return watts / (seg.alpha * seg.sigma * load * per_gbps)


class TestCoverageFactor:
    def test_oru_segment(self):
        topo = build_sweep_topology(10, 10)
        assert rel_close(coverage_factor(topo, Node.ORU), 0.1)

    def test_dc_segment(self):
        topo = build_sweep_topology(100, 10)
        assert rel_close(coverage_factor(topo, Node.DC), 0.001)

    def test_one_user_per_ru(self):
        topo = build_sweep_topology(7, 1)
        assert rel_close(coverage_factor(topo, Node.ORU), 1.0)

    def test_monotone_along_hierarchy(self):
        for n_ru in (1, 4, 5, 40, 97):
            topo = build_sweep_topology(n_ru, 10)
            factors = [coverage_factor(topo, node) for node in Node]
            assert all(0 < f <= 1 + 1e-12 for f in factors)
            assert all(deep <= shallow * (1 + 1e-12)
                       for shallow, deep in zip(factors, factors[1:]))


class TestBuildSweepTopology:
    def test_partial_du(self):
        topo = build_sweep_topology(5, 10, 4)
        assert (topo.n_du, topo.n_cu, topo.n_dc, topo.n_users) == (2, 1, 1, 50)

    def test_exact_multiple(self):
        assert build_sweep_topology(4, 10, 4).n_du == 1

    def test_large(self):
        topo = build_sweep_topology(100, 10, 4)
        assert (topo.n_du, topo.n_users) == (25, 1000)

    def test_records_cap(self):
        assert build_sweep_topology(5, 10, 4).du_fanout_cap == 4

    def test_du_count_steps_by_one_at_multiples(self):
        previous = build_sweep_topology(1, 10, 4).n_du
        for n_ru in range(2, 201):
            current = build_sweep_topology(n_ru, 10, 4).n_du
            assert current >= previous
            assert current - previous == (1 if n_ru % 4 == 1 else 0)
            previous = current

    def test_rejects_bad_counts(self):
        with pytest.raises(TopologyError):
            build_sweep_topology(0, 10, 4)


class TestFromFanoutCase:
    def test_c2(self):
        topo = from_fanout_case(FANOUT_CASES["C-2"], 20, 10)
        assert (topo.n_du, topo.n_cu, topo.n_dc) == (20, 2, 2)

    def test_c5(self):
        topo = from_fanout_case(FANOUT_CASES["C-5"], 8, 10)
        assert (topo.n_du, topo.n_cu, topo.n_dc) == (4, 2, 1)

    def test_divisibility_error_names_level(self):
        with pytest.raises(TopologyError, match="O-DU"):
            from_fanout_case(FANOUT_CASES["C-4"], 7, 10)

    def test_remainder_below_float_resolution_rejected(self):
        # (3 * 2**31 + 1) / 2**31 is within 1e-9 of 3, but one O-RU is left over
        with pytest.raises(TopologyError, match="not divisible by O-DU fanout"):
            from_fanout_case(FanoutCase("wide", 2**31, 1, 1), 3 * 2**31 + 1, 1)

    @pytest.mark.parametrize("fanout", [2.5, 2.0, 0, 2**53 + 1])
    def test_fanout_must_be_a_count(self, fanout):
        with pytest.raises(TopologyError, match="x: du_fanout must be an integer >= 1"):
            FanoutCase("x", fanout, 1, 1)

    def test_fanouts_reproduced_exactly(self):
        for case in FANOUT_CASES.values():
            topo = from_fanout_case(case, 40, 10)
            assert topo.n_ru / topo.n_du == case.du_fanout
            assert topo.n_du / topo.n_cu == case.cu_fanout
            assert topo.n_cu / topo.n_dc == case.dc_fanout

    def test_builtin_case_values(self):
        assert (FANOUT_CASES["C-1"].du_fanout, FANOUT_CASES["C-1"].cu_fanout,
                FANOUT_CASES["C-1"].dc_fanout) == (1, 1, 1)
        assert (FANOUT_CASES["C-2"].du_fanout, FANOUT_CASES["C-2"].cu_fanout,
                FANOUT_CASES["C-2"].dc_fanout) == (1, 10, 1)
        assert (FANOUT_CASES["C-3"].du_fanout, FANOUT_CASES["C-3"].cu_fanout,
                FANOUT_CASES["C-3"].dc_fanout) == (1, 1, 10)
        assert (FANOUT_CASES["C-4"].du_fanout, FANOUT_CASES["C-4"].cu_fanout,
                FANOUT_CASES["C-4"].dc_fanout) == (10, 1, 1)
        assert (FANOUT_CASES["C-5"].du_fanout, FANOUT_CASES["C-5"].cu_fanout,
                FANOUT_CASES["C-5"].dc_fanout) == (2, 2, 2)

    def test_unknown_label(self):
        with pytest.raises(TopologyError, match="C-9"):
            fanout_case("C-9")


class TestValidate:
    def test_valid_topology(self):
        topo = Topology(n_ru=4, n_du=1, n_cu=1, n_dc=1, users_per_ru=10)
        assert (topo.n_ru, topo.n_du, topo.n_cu, topo.n_dc) == (4, 1, 1, 1)

    def test_inverted_hierarchy(self):
        with pytest.raises(TopologyError, match="n_ru >= n_du"):
            Topology(n_ru=2, n_du=4, n_cu=1, n_dc=1, users_per_ru=10)

    def test_stored_user_count_mismatch(self):
        # n_users is derived from n_ru * users_per_ru, so no other count can be stored
        with pytest.raises(TypeError, match="n_users"):
            Topology(n_ru=10, n_du=5, n_cu=1, n_dc=1, users_per_ru=10, n_users=99)

    def test_derived_user_count(self):
        assert Topology(n_ru=10, n_du=5, n_cu=1, n_dc=1, users_per_ru=10).n_users == 100

    def test_every_violation_in_one_error(self):
        with pytest.raises(TopologyError) as info:
            Topology(n_ru=2, n_du=5, n_cu=0, n_dc=1, users_per_ru=10)
        assert "n_ru >= n_du" in str(info.value)
        assert "n_cu must be an integer >= 1" in str(info.value)

    @pytest.mark.parametrize("n_ru", [2**53 + 1, 10**400], ids=["2**53+1", "10**400"])
    def test_count_above_2_53_rejected(self, n_ru):
        with pytest.raises(TopologyError, match=r"n_ru must be an integer >= 1 and <= 2\*\*53"):
            Topology(n_ru=n_ru, n_du=1, n_cu=1, n_dc=1, users_per_ru=10)

    @pytest.mark.parametrize("cap", [0.5, math.inf, math.nan, pytest.param(10**400, id="10**400"),
                                     4.0])
    def test_bad_fanout_cap_rejected(self, cap):
        with pytest.raises(TopologyError, match="du_fanout_cap"):
            Topology(n_ru=4, n_du=1, n_cu=1, n_dc=1, users_per_ru=10, du_fanout_cap=cap)

    def test_cap_too_small_for_the_o_dus_to_serve_every_o_ru_rejected(self):
        # 100 O-RUs on one O-DU provisioned for 4 would price the O-DU term at 4% of the
        # consistent tree's; both counts are named, as for an inverted tier pair.
        message = "invalid topology: n_ru <= n_du * du_fanout_cap violated (100 > 1 * 4)"
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            Topology(100, 1, 1, 1, 10, du_fanout_cap=4)
        with pytest.raises(TopologyError, match=re.escape("(101 > 25 * 4)")):
            Topology(101, 25, 1, 1, 10, du_fanout_cap=4)
        with pytest.raises(TopologyError, match=re.escape("(100 > 24 * 4)")):
            build_sweep_topology(100, 10, 4).__replace__(n_du=24)
        assert Topology(100, 25, 1, 1, 10, du_fanout_cap=4).n_du == 25  # the cap binds exactly
        assert Topology(100, 1, 1, 1, 10).du_fanout_cap is None  # O-DUs sized for their O-RUs

    # A bool is an int subclass, but True is no count wherever one is read.
    @pytest.mark.parametrize("build, error, message", [
        pytest.param(lambda: Topology(True, 1, 1, 1, 1), TopologyError,
                     "invalid topology: n_ru must be an integer >= 1", id="topology"),
        pytest.param(lambda: Topology(4, 1, 1, 1, 1, du_fanout_cap=True), TopologyError,
                     "invalid topology: du_fanout_cap must be an integer >= 1", id="cap"),
        pytest.param(lambda: sweep_orus([2, True], 10, [Node.ODU], ModelConfig.default()),
                     TopologyError, "invalid topology: n_ru must be an integer >= 1",
                     id="sweep"),
        # True equals 1, so a set of the counts would merge it with a 1 listed beside it.
        pytest.param(lambda: sweep_orus([2, 1, True], 10, [Node.DC], ModelConfig.default()),
                     TopologyError, "invalid topology: n_ru must be an integer >= 1",
                     id="sweep-beside-1"),
        pytest.param(lambda: FanoutCase("x", 1, True, 1), TopologyError,
                     "x: cu_fanout must be an integer >= 1", id="fanout-case"),
        pytest.param(lambda: from_fanout_case(FanoutCase("x", 1, 1, 1), 4, True), TopologyError,
                     "invalid topology: users_per_ru must be an integer >= 1", id="fanout"),
        pytest.param(lambda: SegmentParams(Link.MIDHAUL, 1.0, 1.0, hops_wdm=True),
                     TopologyError, "midhaul: hops_wdm must be an integer >= 0", id="hops"),
        pytest.param(lambda: ClassPolicy.quantize(minimum_units=True), ValueError,
                     "minimum_units must be an integer >= 0", id="minimum-units"),
        pytest.param(lambda: ServerSpec(True, 1.0, 1.0, 1.0), CatalogError,
                     "server: cores must be an integer >= 1", id="cores"),
    ])
    def test_bool_count_rejected(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)} and <= 2\\*\\*53, got True$"):
            build()

    # An int past Python's limit on digits converted to text (4300 by default) is shown by
    # its size, so that the message itself does not raise.
    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda n: Topology(n, 1, 1, 1, 1),
                     "invalid topology: n_ru must be an integer >= 1", id="topology"),
        pytest.param(lambda n: build_sweep_topology(n, 1),
                     "invalid topology: n_ru must be an integer >= 1", id="sweep"),
        pytest.param(lambda n: from_fanout_case(FANOUT_CASES["C-1"], 4, n),
                     "invalid topology: users_per_ru must be an integer >= 1", id="fanout"),
        pytest.param(lambda n: FanoutCase("x", 1, n, 1),
                     "x: cu_fanout must be an integer >= 1", id="fanout-case"),
        pytest.param(lambda n: SegmentParams(Link.MIDHAUL, 1.0, 1.0, hops_wdm=n),
                     "midhaul: hops_wdm must be an integer >= 0", id="hops"),
    ])
    def test_count_too_long_for_text_shown_by_its_size(self, build, message):
        with pytest.raises(TopologyError, match=f"^{re.escape(message)} and <= 2\\*\\*53, "
                                                "got an int of 16610 bits$"):
            build(10**5000)


class TestSegmentParamsValidation:
    @pytest.mark.parametrize("segment", ["oru", None, 0, Node])
    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    def test_segment_must_be_a_node_or_link(self, segment, sigma):
        # Every other message names the segment by its value, so the segment is checked first.
        message = f"segment must be a Node or a Link, got {segment!r}"
        with pytest.raises(TopologyError, match=f"^{re.escape(message)}$"):
            SegmentParams(segment, sigma, 1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.5])
    @pytest.mark.parametrize("field", ["sigma", "alpha"])
    def test_bad_factor_rejected(self, field, value):
        factors = {"sigma": 1.0, "alpha": 1.0, field: value}
        with pytest.raises(TopologyError, match=field):
            SegmentParams(Node.ORU, **factors)

    def test_overflowing_alpha_sigma_rejected(self):
        with pytest.raises(TopologyError, match=r"alpha \* sigma must be finite"):
            SegmentParams(Node.ORU, sigma=1e308, alpha=5.0)

    def test_alpha_sigma_of_ints_beyond_a_float_rejected(self):
        with pytest.raises(TopologyError, match=r"^oru: alpha \* sigma must be finite, got 1"):
            SegmentParams(Node.ORU, sigma=10**300, alpha=10**300)

    @pytest.mark.parametrize("node", NODE_ORDER)
    @pytest.mark.parametrize("field", ["hops_switch", "hops_wdm", "hops_router", "gamma"])
    def test_tier_takes_only_sigma_and_alpha(self, node, field):
        # A tier's term has no hops or routers: the value would change only equality.
        with pytest.raises(TopologyError, match=f"^{node.value}: {field} must be 0, .* got 1$"):
            SegmentParams(node, 2.0, 5.0, **{field: 1})
        assert SegmentParams(node, 2.0, 5.0, **{field: 0}) == SegmentParams(node, 2.0, 5.0)

    @pytest.mark.parametrize("link", LINK_ORDER)
    def test_link_takes_hops_and_gamma(self, link):
        entry = SegmentParams(link, 2.0, 5.0, hops_switch=7, hops_wdm=2, hops_router=1, gamma=1)
        assert (entry.hops_switch, entry.hops_wdm, entry.hops_router, entry.gamma) == (7, 2, 1, 1)

    @pytest.mark.parametrize("gamma", [True, False, 1.0, 0.0, 2, -1])
    def test_gamma_must_be_the_int_0_or_1(self, gamma):
        # The first four equal 0 or 1, and would be stored as given; the last two are ints.
        with pytest.raises(TopologyError, match=f"^backhaul: gamma must be 0 or 1, got {gamma}$"):
            SegmentParams(Link.BACKHAUL, 1.0, 1.0, gamma=gamma)

    def test_gamma_too_long_for_text_shown_by_its_size(self):
        with pytest.raises(TopologyError, match="^backhaul: gamma must be 0 or 1, "
                                                "got an int of 16610 bits$"):
            SegmentParams(Link.BACKHAUL, 1.0, 1.0, gamma=10**5000)


class Subfloat(float):
    """A float subclass, which a number field accepts as it accepts a float."""


# Each number field of each record: a builder that sets it alone, the record's error type and
# the field's name as its message gives it. Every other field is 1, which each one accepts.
NUMBER_FIELDS = [
    pytest.param(lambda v: SegmentParams(Node.ORU, v, 1.0), TopologyError, "oru: sigma",
                 id="sigma"),
    pytest.param(lambda v: SegmentParams(Node.ORU, 1.0, v), TopologyError, "oru: alpha",
                 id="alpha"),
    pytest.param(lambda v: EquipmentSpec("radio", v, 1.0), CatalogError,
                 "radio: rated_power_w", id="rated_power_w"),
    pytest.param(lambda v: EquipmentSpec("radio", 1.0, v), CatalogError,
                 "radio: capacity_gbps", id="capacity_gbps"),
    pytest.param(lambda v: ServerSpec(1, v, 1.0, 1.0), CatalogError,
                 "server: per_core_power_w", id="per_core_power_w"),
    pytest.param(lambda v: ServerSpec(1, 1.0, v, 1.0), CatalogError,
                 "server: per_core_capacity_gbps", id="per_core_capacity_gbps"),
    pytest.param(lambda v: ServerSpec(1, 1.0, 1.0, v), CatalogError,
                 "server: server_capacity_gbps", id="server_capacity_gbps"),
    pytest.param(lambda v: default_catalog().__replace__(ue_energy_j_per_bit=v), CatalogError,
                 "ue_energy_j_per_bit", id="ue_energy_j_per_bit"),
    pytest.param(lambda v: TrafficModel(v, 1.0), ValueError, "monthly_gb_per_user",
                 id="monthly_gb_per_user"),
    pytest.param(lambda v: TrafficModel(1.0, v), ValueError, "ecpri_per_ru_gbps",
                 id="ecpri_per_ru_gbps"),
    pytest.param(lambda v: ClassPolicy.quantize(v), ValueError, "unit_capacity_gbps",
                 id="unit_capacity_gbps"),
]


class TestNumberFields:
    @pytest.mark.parametrize("value", ["2", None, 1j], ids=["str", "None", "complex"])
    @pytest.mark.parametrize("build, error, field", NUMBER_FIELDS)
    def test_a_value_that_is_no_real_number_is_rejected_naming_the_field(self, build, error,
                                                                         field, value):
        if field == "unit_capacity_gbps" and value is None:  # the device's own capacity
            assert build(value) == ClassPolicy.quantize()
        else:
            with pytest.raises(error, match=f"^{re.escape(field)} must be a finite number"):
                build(value)

    @pytest.mark.parametrize("value", [1, True, Subfloat(1.0), Fraction(1)],
                             ids=["int", "bool", "float-subclass", "Fraction"])
    @pytest.mark.parametrize("build, error, field", NUMBER_FIELDS)
    def test_any_real_number_is_read(self, build, error, field, value):
        assert vars(build(value))[field.split(": ")[-1]] == value

    # An int beyond a float is rejected as any value out of range is, not by the float
    # conversion's OverflowError; past Python's limit on digits converted to text it is
    # shown by its size.
    @pytest.mark.parametrize("value, shown", [(10**400, repr(10**400)), (-10**400, repr(-10**400)),
                                              (10**5000, "an int of 16610 bits")],
                             ids=["10**400", "-10**400", "10**5000"])
    @pytest.mark.parametrize("build, error, field", NUMBER_FIELDS)
    def test_an_int_beyond_a_float_is_rejected_naming_the_field(self, build, error, field,
                                                                 value, shown):
        with pytest.raises(error, match=f"^{re.escape(field)} must be a finite number "
                                        f"[^,]*, got {re.escape(shown)}$"):
            build(value)

    @pytest.mark.parametrize("build, error, field", NUMBER_FIELDS)
    def test_a_string_is_shown_as_a_string(self, build, error, field):
        with pytest.raises(error, match=f"^{re.escape(field)} must be a finite number "
                                        "[^,]*, got '2'$"):
            build("2")
