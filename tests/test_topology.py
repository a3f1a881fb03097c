"""Topology builders, segment parameter defaults, and structural validation."""

import copy
import math
import pickle

import pytest

from oranpower.catalog import default_catalog, energy_per_capacity
from oranpower.powermodel import ModelConfig, ProvisioningPolicy, TrafficModel
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
    default_segment_params,
    fanout_case,
    from_fanout_case,
    segment_map,
)


class TestDefaultSegmentParams:
    def test_seven_entries(self):
        assert len(default_segment_params()) == 7

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
        for entry in default_segment_params():
            assert (entry.hops_switch, entry.hops_wdm, entry.hops_router) == (0, 0, 0)

    def test_each_call_returns_a_new_container(self):
        params = segment_map()
        params[Node.ORU] = SegmentParams(Node.ORU, sigma=3.0, alpha=3.0)
        del params[Link.BACKHAUL]
        assert segment_map()[Node.ORU].sigma == 1.0 and Link.BACKHAUL in segment_map()
        entries = default_segment_params()
        entries.clear()
        assert len(default_segment_params()) == 7


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


class TestSegmentParamsValidation:
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.5])
    @pytest.mark.parametrize("field", ["sigma", "alpha"])
    def test_bad_factor_rejected(self, field, value):
        factors = {"sigma": 1.0, "alpha": 1.0, field: value}
        with pytest.raises(TopologyError, match=field):
            SegmentParams(Node.ORU, **factors)

    def test_overflowing_alpha_sigma_rejected(self):
        with pytest.raises(TopologyError, match=r"alpha \* sigma must be finite"):
            SegmentParams(Node.ORU, sigma=1e308, alpha=5.0)
