"""Property-based tests for model invariants across randomized inputs."""

import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from oranpower.catalog import EquipmentSpec, ServerSpec, default_catalog, dump_catalog, load_catalog
from oranpower.experiments import brute_force_oracle
from oranpower.powermodel import (
    ClassPolicy,
    ModelConfig,
    PowerBreakdown,
    ProvisioningPolicy,
    TrafficModel,
    equipment_power,
)
from oranpower.topology import (
    LINK_ORDER,
    NODE_ORDER,
    Node,
    Topology,
    TopologyError,
    build_sweep_topology,
    check_counts,
    segment_map,
)

PLACEMENTS = list(Node)


def rel_close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


@st.composite
def topologies(draw):
    """Valid aggregation trees built from per-tier multipliers."""
    n_dc = draw(st.integers(1, 3))
    n_cu = n_dc * draw(st.integers(1, 3))
    n_du = n_cu * draw(st.integers(1, 4))
    n_ru = n_du * draw(st.integers(1, 4))
    users_per_ru = draw(st.integers(1, 20))
    cap = draw(st.one_of(st.none(), st.integers(1, 8)))
    return Topology(n_ru=n_ru, n_du=n_du, n_cu=n_cu, n_dc=n_dc,
                    users_per_ru=users_per_ru, du_fanout_cap=cap)


@st.composite
def class_policies(draw):
    if not draw(st.booleans()):
        return ClassPolicy.linear()
    unit = draw(st.one_of(st.none(), st.floats(0.1, 50.0, allow_nan=False)))
    return ClassPolicy.quantize(unit_capacity_gbps=unit,
                                minimum_units=draw(st.integers(0, 2)))


@st.composite
def segment_params(draw):
    """Every settable factor of every node and link: σ and α, hop counts and γ."""
    return {segment: replace(entry, sigma=draw(st.floats(1.0, 10.0)),
                             alpha=draw(st.floats(1.0, 10.0)),
                             hops_switch=draw(st.integers(0, 3)),
                             hops_wdm=draw(st.integers(0, 3)),
                             hops_router=draw(st.integers(0, 3)),
                             gamma=draw(st.sampled_from([0, 1])))
            for segment, entry in segment_map().items()}


@st.composite
def policies(draw):
    return ProvisioningPolicy(
        servers=draw(class_policies()),
        node_interface=draw(class_policies()),
        switches=draw(class_policies()),
        links=draw(class_policies()),
        routers=draw(class_policies()),
    )


class TestQuantizedVersusLinear:
    @given(
        load_units=st.integers(0, 40),
        fraction=st.floats(0.01, 0.99),
        exact=st.booleans(),
        unit=st.floats(0.1, 30.0, allow_nan=False),
        minimum=st.integers(0, 3),
    )
    def test_quantized_never_below_linear(self, load_units, fraction, exact, unit, minimum):
        load = load_units * unit if exact else (load_units + fraction) * unit
        spec = default_catalog().core_switch
        policy = ClassPolicy.quantize(unit_capacity_gbps=unit, minimum_units=minimum)
        quantized = equipment_power(load, spec, policy)
        linear = equipment_power(load, spec, ClassPolicy.linear())
        assert quantized >= linear - 1e-12 * max(linear, 1.0)
        floor_binds = minimum * unit > load + 1e-12 * max(load, 1.0)
        if exact and not floor_binds:
            assert rel_close(quantized, linear, tol=1e-9)
        elif not exact:
            assert quantized > linear * (1 + 1e-12)

    @given(load=st.floats(0.0, 500.0, allow_nan=False), minimum=st.integers(0, 2))
    def test_server_quantized_never_below_linear(self, load, minimum):
        server = default_catalog().dc_server
        quantized = equipment_power(load, server, ClassPolicy.quantize(minimum_units=minimum))
        linear = equipment_power(load, server, ClassPolicy.linear())
        assert quantized >= linear - 1e-12 * max(linear, 1.0)


class TestBreakdownInvariants:
    @given(topology=topologies(), placement=st.sampled_from(PLACEMENTS), policy=policies(),
           provision_to_cap=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_decomposition(self, topology, placement, policy, provision_to_cap):
        # exact: the breakdown derives its totals from its parts in this order
        config = replace(ModelConfig.default(policy=policy), provision_to_cap=provision_to_cap)
        breakdown = config.evaluate(topology, placement)
        assert breakdown.total_watts == breakdown.processing_watts + breakdown.transmission_watts
        assert breakdown.processing_watts == sum(breakdown.nodes)
        assert breakdown.transmission_watts == breakdown.ue_watts + sum(breakdown.segments)

    @given(topology=topologies(), placement=st.sampled_from(PLACEMENTS), policy=policies())
    @settings(max_examples=40, deadline=None)
    def test_branch_assignment(self, topology, placement, policy):
        config = ModelConfig.default(policy=policy)
        breakdown = config.evaluate(topology, placement)
        branches = [breakdown.branch(node) for node in NODE_ORDER]
        assert branches.count("bbp") == 1
        assert branches[placement.depth] == "bbp"
        for link in LINK_ORDER:
            assert (breakdown.branch(link) == "before") == (link.depth < placement.depth)


class TestTransmissionShape:
    @given(n_ru=st.integers(1, 150), users_per_ru=st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_edge_placement_independent_of_ru_count(self, n_ru, users_per_ru):
        config = ModelConfig.default()
        reference = config.evaluate(build_sweep_topology(1, users_per_ru, 4), Node.ORU)
        topo = build_sweep_topology(n_ru, users_per_ru, 4)
        breakdown = config.evaluate(topo, Node.ORU)
        assert breakdown.transmission_watts == reference.transmission_watts

    @given(n_ru=st.integers(1, 150))
    @settings(max_examples=40, deadline=None)
    def test_deeper_placement_never_cheaper_to_transport(self, n_ru):
        config = ModelConfig.default(policy=ProvisioningPolicy.all_linear())
        topo = build_sweep_topology(n_ru, 10, 4)
        series = [config.evaluate(topo, placement).transmission_watts
                  for placement in PLACEMENTS]
        for shallow, deep in zip(series, series[1:]):
            assert shallow <= deep * (1 + 1e-12)


class TestScalingAndZero:
    @given(topology=topologies(), placement=st.sampled_from(PLACEMENTS))
    @settings(max_examples=40, deadline=None)
    def test_doubling_rated_power_doubles_everything_but_ue(self, topology, placement):
        config = ModelConfig.default()
        base = config.evaluate(topology, placement)
        catalog = config.catalog
        doubled = replace(
            catalog,
            radio=replace(catalog.radio, rated_power_w=2 * catalog.radio.rated_power_w),
            access_switch=replace(catalog.access_switch,
                                  rated_power_w=2 * catalog.access_switch.rated_power_w),
            core_switch=replace(catalog.core_switch,
                                rated_power_w=2 * catalog.core_switch.rated_power_w),
            wdm_link=replace(catalog.wdm_link, rated_power_w=2 * catalog.wdm_link.rated_power_w),
            router=replace(catalog.router, rated_power_w=2 * catalog.router.rated_power_w),
            edge_server=replace(catalog.edge_server,
                                per_core_power_w=2 * catalog.edge_server.per_core_power_w),
            dc_server=replace(catalog.dc_server,
                              per_core_power_w=2 * catalog.dc_server.per_core_power_w),
        )
        scaled = ModelConfig(doubled, config.params, config.traffic, config.policy)
        result = scaled.evaluate(topology, placement)
        assert rel_close(result.total_watts - result.ue_watts,
                         2 * (base.total_watts - base.ue_watts))
        assert result.ue_watts == base.ue_watts

    @given(topology=topologies(), placement=st.sampled_from(PLACEMENTS))
    @settings(max_examples=20, deadline=None)
    def test_zero_traffic_zero_power_linear(self, topology, placement):
        config = ModelConfig(
            catalog=default_catalog(),
            params=segment_map(),
            traffic=TrafficModel(monthly_gb_per_user=0, ecpri_per_ru_gbps=0),
            policy=ProvisioningPolicy.all_linear(),
        )
        assert config.evaluate(topology, placement).total_watts == 0.0


class TestOracleAgreement:
    @given(topology=topologies(), placement=st.sampled_from(PLACEMENTS), policy=policies(),
           params=segment_params(), provision_to_cap=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_enumeration_matches_closed_form(self, topology, placement, policy, params,
                                             provision_to_cap):
        config = ModelConfig(default_catalog(), params, TrafficModel(), policy, provision_to_cap)
        oracle = brute_force_oracle(topology, config.traffic, config.catalog, config.params,
                                    placement, config.policy, provision_to_cap)
        closed = config.evaluate(topology, placement).total_watts
        assert rel_close(oracle / topology.n_users, closed)


class TestCatalogRoundTrip:
    @given(
        radio_power=st.floats(1.0, 5000.0, allow_nan=False),
        radio_capacity=st.floats(0.5, 1000.0, allow_nan=False),
        cores=st.integers(1, 64),
        core_power=st.floats(0.5, 50.0, allow_nan=False),
        core_capacity=st.floats(0.05, 5.0, allow_nan=False),
        ue_nj=st.floats(0.0, 1000.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_dump_then_load_is_identity(self, radio_power, radio_capacity, cores,
                                        core_power, core_capacity, ue_nj):
        catalog = replace(
            default_catalog(),
            radio=EquipmentSpec("radio", radio_power, radio_capacity),
            edge_server=ServerSpec(cores=cores, per_core_power_w=core_power,
                                   per_core_capacity_gbps=core_capacity,
                                   server_capacity_gbps=cores * core_capacity),
            ue_energy_j_per_bit=ue_nj * 1e-9,
        )
        reloaded = load_catalog(dump_catalog(catalog))
        assert reloaded.radio == catalog.radio
        assert reloaded.edge_server == catalog.edge_server
        assert rel_close(reloaded.ue_energy_j_per_bit, catalog.ue_energy_j_per_bit, tol=1e-12)


# Reference checks: one test per part or count, in field order, as records
# were checked before they gained a single combined test for valid input.

def per_part_breakdown(nodes, segments, ue_watts):
    """The totals of a breakdown, or the error naming its first bad part."""
    for kind, parts, order in (("node", nodes, NODE_ORDER), ("segment", segments, LINK_ORDER)):
        if len(parts) != len(order):
            raise ValueError(f"{kind}s must hold {len(order)} watts figures, got {len(parts)}")
        for segment, watts in zip(order, parts):
            if not (watts >= 0):
                raise ValueError(f"{kind} power for {segment.value} must be >= 0, got {watts}")
    if not (ue_watts >= 0):
        raise ValueError(f"UE power must be >= 0, got {ue_watts}")
    processing = sum(nodes)
    transmission = ue_watts + sum(segments)
    total = processing + transmission
    if not math.isfinite(total):
        raise ValueError(f"total power must be finite, got {total}")
    return processing, transmission, total


def per_count_errors(counts):
    return {name: f"{name} must be an integer >= 1 and <= 2**53, got {count}"
            for name, count in counts.items()
            if not (isinstance(count, int) and 1 <= count <= 2**53)}


def per_count_check(**counts):
    errors = per_count_errors(counts)
    if errors:
        raise TopologyError("invalid topology: " + "; ".join(errors.values()))


def per_count_topology(n_ru, n_du, n_cu, n_dc, users_per_ru, du_fanout_cap):
    """The fields of a topology, or one error listing every violation."""
    counts = {"n_ru": n_ru, "n_du": n_du, "n_cu": n_cu, "n_dc": n_dc,
              "users_per_ru": users_per_ru}
    if du_fanout_cap is not None:
        counts["du_fanout_cap"] = du_fanout_cap
    bad = per_count_errors(counts)
    violations = list(bad.values())
    for wide, narrow in (("n_ru", "n_du"), ("n_du", "n_cu"), ("n_cu", "n_dc")):
        if not {wide, narrow} & bad.keys() and counts[wide] < counts[narrow]:
            violations.append(f"{wide} >= {narrow} violated ({counts[wide]} < {counts[narrow]})")
    if violations:
        raise TopologyError("invalid topology: " + "; ".join(violations))
    return n_ru, n_du, n_cu, n_dc, users_per_ru, du_fanout_cap, n_ru * users_per_ru


def per_count_sweep_topology(n_ru, users_per_ru, du_fanout_cap):
    per_count_check(n_ru=n_ru, users_per_ru=users_per_ru, du_fanout_cap=du_fanout_cap)
    return per_count_topology(n_ru, -(-n_ru // du_fanout_cap), 1, 1, users_per_ru,
                              du_fanout_cap)


def outcome(build, *args, **kwargs):
    """``("ok", repr(result))``, which tells -0.0 from 0.0, or the error's type and message."""
    try:
        return "ok", repr(build(*args, **kwargs))
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)


def topology_fields(topology):
    return (topology.n_ru, topology.n_du, topology.n_cu, topology.n_dc, topology.users_per_ru,
            topology.du_fanout_cap, topology.n_users)


WATTS = st.one_of(
    st.floats(0.0, 1e3),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, -1e-300, math.nan, math.inf, -math.inf,
                     1e308, 1.7976931348623157e308]),
    st.floats(min_value=1e307),
    st.floats(),
)
SPECIAL_COUNTS = st.sampled_from([True, 4.0, 0, 1, 2**53, 2**53 + 1, 10**400])
COUNTS = st.one_of(st.integers(1, 12), SPECIAL_COUNTS)
CAPS = st.one_of(st.none(), st.integers(1, 12), SPECIAL_COUNTS,
                 st.sampled_from([0.5, 4.0, math.nan, math.inf, -1, "4"]))


@st.composite
def tree_counts(draw):
    """Five counts: a valid tree or an inverted one, either with one count maybe replaced."""
    counts = draw(st.lists(st.integers(1, 12), min_size=5, max_size=5))
    if draw(st.booleans()):
        counts[:4] = sorted(counts[:4], reverse=True)
    if draw(st.booleans()):
        counts[draw(st.integers(0, 4))] = draw(SPECIAL_COUNTS)
    return counts


class TestSinglePassChecksMatchPerFieldChecks:
    """A record accepts exactly what the per-field checks accept, and fails with their error."""

    @given(nodes=st.lists(WATTS, min_size=4, max_size=4) | st.lists(WATTS, max_size=5),
           segments=st.lists(WATTS, min_size=3, max_size=3) | st.lists(WATTS, max_size=5),
           ue_watts=WATTS, placement=st.sampled_from(PLACEMENTS))
    @settings(max_examples=400, deadline=None)
    def test_breakdown(self, nodes, segments, ue_watts, placement):
        nodes, segments = tuple(nodes), tuple(segments)

        def totals():
            breakdown = PowerBreakdown(placement, nodes, segments, ue_watts)
            assert (breakdown.placement, breakdown.nodes, breakdown.segments,
                    breakdown.ue_watts) == (placement, nodes, segments, ue_watts)
            return (breakdown.processing_watts, breakdown.transmission_watts,
                    breakdown.total_watts)

        assert outcome(totals) == outcome(per_part_breakdown, nodes, segments, ue_watts)

    @given(counts=tree_counts(), cap=CAPS)
    @settings(max_examples=400, deadline=None)
    def test_topology(self, counts, cap):
        assert (outcome(lambda: topology_fields(Topology(*counts, du_fanout_cap=cap)))
                == outcome(per_count_topology, *counts, cap))

    @given(n_ru=COUNTS, users_per_ru=COUNTS, cap=CAPS)
    @settings(max_examples=400, deadline=None)
    def test_sweep_topology_and_check_counts(self, n_ru, users_per_ru, cap):
        assert (outcome(lambda: topology_fields(build_sweep_topology(n_ru, users_per_ru, cap)))
                == outcome(per_count_sweep_topology, n_ru, users_per_ru, cap))
        counts = {"n_ru": n_ru, "users_per_ru": users_per_ru, "du_fanout_cap": cap}
        assert outcome(check_counts, **counts) == outcome(per_count_check, **counts)
