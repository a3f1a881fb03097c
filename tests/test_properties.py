"""Property-based tests for model invariants across randomized inputs."""

import math
import sys

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from oranpower.catalog import CatalogError, EquipmentSpec, ServerSpec, default_catalog
from oranpower.configfile import TopologyCounts
from oranpower.powermodel import (
    ClassPolicy,
    ModelConfig,
    PowerOverflowError,
    ProvisioningPolicy,
    TrafficModel,
    segment_branch,
)
from oranpower.topology import (
    FANOUT_CASES,
    LINK_ORDER,
    MAX_COUNT,
    NODE_ORDER,
    FanoutCase,
    Link,
    Node,
    SegmentParams,
    Topology,
    TopologyError,
    build_sweep_topology,
    check_counts,
    from_fanout_case,
    segment_map,
)

import oracle
from model_helpers import equipment_power, evaluate_parts, per_part_breakdown, replace
from test_kernel import catalogs, params, policies, positive, topologies, valid_or

PLACEMENTS = list(Node)


def rel_close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


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
    @given(topology=topologies(False), placement=st.sampled_from(PLACEMENTS),
           policy=policies(False), provision_to_cap=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_decomposition(self, topology, placement, policy, provision_to_cap):
        # exact: the breakdown derives its totals from its parts in this order
        config = replace(ModelConfig.default(policy=policy), provision_to_cap=provision_to_cap)
        breakdown = config.evaluate(topology, placement)
        assert breakdown.total_watts == breakdown.processing_watts + breakdown.transmission_watts
        nodes, segments = breakdown.nodes, breakdown.segments
        assert breakdown.processing_watts == nodes[0] + nodes[1] + nodes[2] + nodes[3]
        assert breakdown.transmission_watts == breakdown.ue_watts + (
            segments[0] + segments[1] + segments[2])

    @given(topology=topologies(False), placement=st.sampled_from(PLACEMENTS),
           policy=policies(False))
    @settings(max_examples=40, deadline=None)
    def test_branch_assignment(self, topology, placement, policy):
        config = ModelConfig.default(policy=policy)
        breakdown = config.evaluate(topology, placement)
        branches = [segment_branch(node, breakdown.placement) for node in NODE_ORDER]
        assert branches.count("bbp") == 1
        assert branches[placement.depth] == "bbp"
        for link in LINK_ORDER:
            assert ((segment_branch(link, breakdown.placement) == "before")
                    == (link.depth < placement.depth))


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
    @given(topology=topologies(False), placement=st.sampled_from(PLACEMENTS))
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

    @given(topology=topologies(False), placement=st.sampled_from(PLACEMENTS))
    @settings(max_examples=20, deadline=None)
    def test_zero_traffic_zero_power_linear(self, topology, placement):
        config = ModelConfig(
            catalog=default_catalog(),
            params=segment_map(),
            traffic=TrafficModel(monthly_gb_per_user=0, ecpri_per_ru_gbps=0),
            policy=ProvisioningPolicy.all_linear(),
        )
        assert config.evaluate(topology, placement).total_watts == 0.0


@st.composite
def wide_topologies(draw):
    """Valid trees with every count, ``users_per_ru`` and the cap anywhere up to 2**53: the
    cap from the least with which the O-DUs serve every O-RU."""
    n_ru = draw(st.integers(1, MAX_COUNT))
    n_du = draw(st.integers(1, n_ru))
    n_cu = draw(st.integers(1, n_du))
    n_dc = draw(st.integers(1, n_cu))
    cap = st.integers(-(-n_ru // n_du), MAX_COUNT)
    return Topology(n_ru=n_ru, n_du=n_du, n_cu=n_cu, n_dc=n_dc,
                    users_per_ru=draw(st.integers(1, MAX_COUNT)),
                    du_fanout_cap=draw(st.one_of(st.none(), cap)))


# Units and server capacities this small give unit counts on both sides of a float's largest.
TINY = st.one_of(st.just(1e-307), st.floats(1e-307, 1e-300))


@st.composite
def tiny_unit_policies(draw):
    """Policies whose quantized classes have units of ``TINY`` Gbps, or the device's own, and
    no minimum: a minimum of ``TINY`` units at no load would be a subnormal term."""
    quantized = st.builds(ClassPolicy.quantize, st.one_of(st.none(), TINY))
    return ProvisioningPolicy(*(draw(st.one_of(st.just(ClassPolicy.linear()), quantized))
                                for _ in range(5)))


@st.composite
def wide_configs(draw):
    """Random configs; in one of four, factors up to 1e300 and traffic up to 1e150, and in
    another, 1-core servers of ``TINY`` Gbps and classes quantized in ``TINY`` units.

    Rates stay 0 or at least 1e-6, so no term is a subnormal float that has lost bits. An
    eCPRI rate of 7 Gbps meets the 0.7 Gbps units of ``class_policies`` in the snap region.
    """
    kind = draw(st.integers(0, 3))
    extreme = kind == 0
    rate = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.just(7.0))
    if extreme:
        rate = st.one_of(rate, st.just(1e150))
    catalog, policy = draw(catalogs(False)), draw(policies(False))
    if kind == 1:
        servers = {}
        for name in ("edge_server", "dc_server"):
            capacity = draw(TINY)
            servers[name] = valid_or(getattr(catalog, name), ServerSpec, 1,
                                     draw(st.one_of(TINY, positive(False))), capacity, capacity)
        catalog, policy = replace(catalog, **servers), draw(tiny_unit_policies())
    return ModelConfig(catalog, draw(params(extreme)), TrafficModel(draw(rate), draw(rate)),
                       policy, draw(st.booleans()))


class TestOracleAgreement:
    @given(config=wide_configs(), topology=wide_topologies(),
           placement=st.sampled_from(PLACEMENTS))
    @settings(max_examples=60, deadline=None)
    def test_enumeration_matches_closed_form(self, config, topology, placement):
        # Outside the snap region every term is within 1e-9 of exact; P_T = P_pr + P_tr;
        # and no term is below that of the same config sized linearly. The model overflows
        # exactly where the exact total is beyond a float, or a figure of one instance of a
        # term priced per cell is (a unit count, a count times its W/Gbps ratio, a device's
        # or the instance's watts), even when the exact total is within.
        terms, _, peak = oracle.reference_terms(config, topology, placement)
        if peak > sys.float_info.max and sum(terms) < sys.float_info.max:
            event("an instance figure beyond a float, the exact total within")
        try:
            breakdown = config.evaluate(topology, placement)
        except PowerOverflowError:
            event("overflows a float")
            assert max(sum(terms), peak) > (1 - 1e-9) * sys.float_info.max
            return
        assert peak < (1 + 1e-9) * sys.float_info.max
        if oracle.agrees(breakdown, config, topology, placement):
            event("a term one unit short in the snap region")
        assert breakdown.total_watts == (breakdown.processing_watts
                                         + breakdown.transmission_watts)
        linear = replace(config, policy=ProvisioningPolicy.all_linear()).evaluate(topology,
                                                                                  placement)
        for watts, linear_watts in zip((*breakdown.nodes, *breakdown.segments),
                                       (*linear.nodes, *linear.segments)):
            assert watts >= linear_watts * (1 - 1e-12)

    def test_a_ratio_just_above_a_whole_number_buys_the_next_unit(self):
        # 2.005 Gbps of eCPRI in 1 Gbps server units needs 3; a snap that reached 1% of a
        # unit would buy 2.
        config = replace(ModelConfig.default(), traffic=TrafficModel(ecpri_per_ru_gbps=2.005))
        topology = build_sweep_topology(1, 1)
        assert not oracle.agrees(config.evaluate(topology, Node.ORU), config, topology,
                                 Node.ORU)

    def test_a_ratio_in_the_snap_region_is_accepted_one_unit_short(self):
        # 2**22 + 2**-30 Gbps is one ULP above 2**22 units: the package snaps to 2**22
        # units, one fewer than the exact ceiling, and the reference counts that.
        config = replace(ModelConfig.default(),
                         traffic=TrafficModel(ecpri_per_ru_gbps=2**22 + 2**-30))
        topology = build_sweep_topology(1, 1)
        assert oracle.agrees(config.evaluate(topology, Node.ORU), config, topology, Node.ORU)


# Reference checks: one test per count, in field order, as records were
# checked before they gained a single combined test for valid input.

def per_count_errors(counts):
    return {name: f"{name} must be an integer >= 1 and <= 2**53, got {count}"
            for name, count in counts.items()
            if not (isinstance(count, int) and not isinstance(count, bool)
                    and 1 <= count <= 2**53)}


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
    if (du_fanout_cap is not None and not {"n_ru", "n_du", "du_fanout_cap"} & bad.keys()
            and n_ru > n_du * du_fanout_cap):
        violations.append(
            f"n_ru <= n_du * du_fanout_cap violated ({n_ru} > {n_du} * {du_fanout_cap})")
    if violations:
        raise TopologyError("invalid topology: " + "; ".join(violations))
    return n_ru, n_du, n_cu, n_dc, users_per_ru, du_fanout_cap, n_ru * users_per_ru


def per_count_sweep_topology(n_ru, users_per_ru, du_fanout_cap):
    per_count_check(n_ru=n_ru, users_per_ru=users_per_ru, du_fanout_cap=du_fanout_cap)
    return per_count_topology(n_ru, -(-n_ru // du_fanout_cap), 1, 1, users_per_ru,
                              du_fanout_cap)


def per_count_fanout_topology(case, n_ru, users_per_ru):
    """Both counts checked first, then each tier's count divided exactly by its fanout."""
    per_count_check(n_ru=n_ru, users_per_ru=users_per_ru)
    counts = [n_ru]
    for level, fanout in (("O-DU", case.du_fanout), ("O-CU", case.cu_fanout),
                          ("DC", case.dc_fanout)):
        quotient, remainder = divmod(counts[-1], fanout)
        if remainder:
            raise TopologyError(f"{case.label}: {counts[-1]} nodes not divisible by {level} "
                                f"fanout {fanout}")
        counts.append(quotient)
    return per_count_topology(*counts, users_per_ru, case.du_fanout)


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
# Counts either side of 1 and of 2**53, and values that are no counts at all.
FANOUT_COUNTS = st.one_of(
    st.integers(-10, 50),
    st.integers(2**53 - 40, 2**53 + 40),
    st.sampled_from([True, False, 10.0, 40.0, 0.5, -0.0, math.nan, math.inf, 10**400, -2**53,
                     None, "40", "a"]),
)
FANOUT_CASE = st.one_of(
    st.sampled_from(list(FANOUT_CASES.values())),
    st.builds(FanoutCase, st.just("x"), st.integers(1, 12), st.integers(1, 12),
              st.integers(1, 12)),
)
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


# The per-field checks of the three config records, written out as references: a record
# must accept what they accept, and reject the rest with their error.

def per_field_segment_params(segment, sigma, alpha, hops_switch, hops_wdm, hops_router, gamma):
    if not isinstance(segment, (Node, Link)):
        raise TopologyError(f"segment must be a Node or a Link, got {segment!r}")
    for name, factor in (("sigma", sigma), ("alpha", alpha)):
        if not (math.isfinite(factor) and factor >= 1):
            raise TopologyError(
                f"{segment.value}: {name} must be a finite number >= 1, got {factor}")
    if not math.isfinite(alpha * sigma):
        raise TopologyError(f"{segment.value}: alpha * sigma must be finite, "
                            f"got {alpha} * {sigma}")
    hops = {"hops_switch": hops_switch, "hops_wdm": hops_wdm, "hops_router": hops_router}
    for name, count in hops.items():
        if not (isinstance(count, int) and not isinstance(count, bool) and 0 <= count <= 2**53):
            raise TopologyError(f"{segment.value}: {name} must be an integer >= 0 and "
                                f"<= 2**53, got {count}")
    if not (isinstance(gamma, int) and not isinstance(gamma, bool) and gamma in (0, 1)):
        raise TopologyError(f"{segment.value}: gamma must be 0 or 1, got {gamma}")
    if isinstance(segment, Node):
        for name, value in {**hops, "gamma": gamma}.items():
            if value:
                raise TopologyError(f"{segment.value}: {name} must be 0, as only links "
                                    f"have hops and routers, got {value}")
    return segment, sigma, alpha, hops_switch, hops_wdm, hops_router, gamma


def per_field_equipment_spec(name, rated_power_w, capacity_gbps):
    for field, value in (("rated_power_w", rated_power_w), ("capacity_gbps", capacity_gbps)):
        if not (math.isfinite(value) and value > 0):
            raise CatalogError(f"{name}: {field} must be a finite number > 0, got {value}")
    if not math.isfinite(rated_power_w / capacity_gbps):
        raise CatalogError(f"{name}: rated_power_w / capacity_gbps must be finite, "
                           f"got {rated_power_w} / {capacity_gbps}")
    return name, rated_power_w, capacity_gbps


def per_field_server_spec(cores, per_core_power_w, per_core_capacity_gbps, server_capacity_gbps):
    if not (isinstance(cores, int) and not isinstance(cores, bool) and 1 <= cores <= 2**53):
        raise CatalogError(f"server: cores must be an integer >= 1 and <= 2**53, got {cores}")
    fields = {"per_core_power_w": per_core_power_w,
              "per_core_capacity_gbps": per_core_capacity_gbps,
              "server_capacity_gbps": server_capacity_gbps}
    for field, value in fields.items():
        if not (math.isfinite(value) and value > 0):
            raise CatalogError(f"server: {field} must be a finite number > 0, got {value}")
    expected = cores * per_core_capacity_gbps
    if not math.isfinite(expected) or abs(server_capacity_gbps - expected) > 1e-12 * expected:
        raise CatalogError(
            "server: server_capacity_gbps must equal cores * per_core_capacity_gbps "
            f"({cores} * {per_core_capacity_gbps} != {server_capacity_gbps})")
    if not math.isfinite(cores * per_core_power_w / server_capacity_gbps):
        raise CatalogError("server: cores * per_core_power_w / server_capacity_gbps must be "
                           f"finite, got {cores} * {per_core_power_w} / {server_capacity_gbps}")
    return cores, per_core_power_w, per_core_capacity_gbps, server_capacity_gbps


def per_field_topology_counts(n_ru, users_per_ru, du_fanout_cap):
    for name, count in (("n_ru", n_ru), ("users_per_ru", users_per_ru),
                        ("du_fanout_cap", du_fanout_cap)):
        if count is not None and not is_count(count, 1):
            raise TopologyError(f"{name} must be an integer >= 1 and <= 2**53, got {count}")
    return n_ru, users_per_ru, du_fanout_cap


# The documented rules of each record, one predicate each.

def is_count(value, low):
    """An int, but no bool, from ``low`` to 2**53."""
    return isinstance(value, int) and not isinstance(value, bool) and low <= value <= 2**53


def segment_params_rules(segment, sigma, alpha, hops_switch, hops_wdm, hops_router, gamma):
    hops = (hops_switch, hops_wdm, hops_router)
    return (isinstance(segment, (Node, Link))
            and math.isfinite(sigma) and sigma >= 1 and math.isfinite(alpha) and alpha >= 1
            and math.isfinite(alpha * sigma)
            and all(is_count(count, 0) for count in hops) and is_count(gamma, 0) and gamma <= 1
            and (isinstance(segment, Link) or hops == (0, 0, 0) and gamma == 0))


def equipment_spec_rules(name, rated_power_w, capacity_gbps):
    return (math.isfinite(rated_power_w) and rated_power_w > 0
            and math.isfinite(capacity_gbps) and capacity_gbps > 0
            and math.isfinite(rated_power_w / capacity_gbps))


def server_spec_rules(cores, per_core_power_w, per_core_capacity_gbps, server_capacity_gbps):
    if not (is_count(cores, 1) and all(math.isfinite(value) and value > 0 for value in (
            per_core_power_w, per_core_capacity_gbps, server_capacity_gbps))):
        return False
    expected = cores * per_core_capacity_gbps
    return (math.isfinite(expected)
            and abs(server_capacity_gbps - expected) <= 1e-12 * expected
            and math.isfinite(cores * per_core_power_w / server_capacity_gbps))


class Subfloat(float):
    """A float subclass, which each record leaves to its per-field checks."""


REALS = st.one_of(
    st.floats(1.0, 64.0),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, 1.0, 1e308,
                     1.7976931348623157e308]),
    st.integers(-1, 64),
    st.booleans(),
    st.floats(0.5, 64.0).map(Subfloat),
)
HOP_COUNT = st.one_of(st.integers(0, 3),
                      st.sampled_from([0, 2**53, 2**53 + 1, -1, True, False, 1.0, 0.0]))
# Hop counts and gamma: often all 0, as a tier's must be.
LINK_COUNTS = st.one_of(
    st.just((0, 0, 0, 0)),
    st.tuples(HOP_COUNT, HOP_COUNT, HOP_COUNT,
              st.sampled_from([0, 1, 2, -1, True, False, 1.0, 0.0, Subfloat(1.0)])))


@st.composite
def server_fields(draw):
    """Cores and three reals, the server capacity often cores times the per-core capacity."""
    cores = draw(st.one_of(st.integers(1, 64),
                           st.sampled_from([0, -1, 2**53, 2**53 + 1, True, 4.0])))
    power, capacity = draw(REALS), draw(REALS)
    if draw(st.booleans()):
        total = cores * capacity * draw(st.sampled_from([1, 1.0, 1 + 1e-13, 1 + 1e-11]))
    else:
        total = draw(REALS)
    return cores, power, capacity, total


def fields_of(record):
    return tuple(vars(record).values())


class TestSinglePassChecksMatchPerFieldChecks:
    """A record accepts exactly what the per-field checks accept, and fails with their error."""

    @given(nodes=st.tuples(WATTS, WATTS, WATTS, WATTS), segments=st.tuples(WATTS, WATTS, WATTS),
           ue_watts=WATTS)
    @settings(max_examples=400, deadline=None)
    def test_breakdown(self, nodes, segments, ue_watts):
        # The row loop's check accepts the cells the per-part checks accept, with their totals;
        # evaluate reports any other cell as overflowed.
        def totals():
            breakdown = evaluate_parts(nodes, segments, ue_watts)
            assert repr((breakdown.nodes, breakdown.segments, breakdown.ue_watts)) == repr(
                (nodes, segments, ue_watts))
            return (breakdown.processing_watts, breakdown.transmission_watts,
                    breakdown.total_watts)

        expected = outcome(per_part_breakdown, nodes, segments, ue_watts)
        if expected[0] == "ok":
            assert outcome(totals) == expected
        else:
            assert outcome(totals)[0] is PowerOverflowError

    @given(counts=tree_counts(), cap=CAPS)
    @example(counts=[8, 2, 1, 1, 10], cap=4)  # O-DUs that hold their O-RUs exactly
    @example(counts=[9, 2, 1, 1, 10], cap=4)  # and one O-RU more than they hold
    @example(counts=[9, 2, 3, 1, 10], cap=4)  # that, with an inverted tier pair
    @settings(max_examples=400, deadline=None)
    def test_topology(self, counts, cap):
        assert (outcome(lambda: topology_fields(Topology(*counts, du_fanout_cap=cap)))
                == outcome(per_count_topology, *counts, cap))

    @given(n_ru=COUNTS, users_per_ru=COUNTS, cap=CAPS)
    @example(n_ru=0, users_per_ru=10, cap=4)  # a bad count named, not the n_du derived from it
    @example(n_ru="a", users_per_ru=10, cap=4)
    @settings(max_examples=400, deadline=None)
    def test_sweep_topology_and_check_counts(self, n_ru, users_per_ru, cap):
        assert (outcome(lambda: topology_fields(build_sweep_topology(n_ru, users_per_ru, cap)))
                == outcome(per_count_sweep_topology, n_ru, users_per_ru, cap))
        counts = {"n_ru": n_ru, "users_per_ru": users_per_ru, "du_fanout_cap": cap}
        assert outcome(check_counts, **counts) == outcome(per_count_check, **counts)

    @given(case=FANOUT_CASE, n_ru=FANOUT_COUNTS, users_per_ru=FANOUT_COUNTS)
    @example(case=FANOUT_CASES["C-5"], n_ru=0, users_per_ru=10)  # as for a sweep topology
    @example(case=FANOUT_CASES["C-1"], n_ru="a", users_per_ru=10)
    @settings(max_examples=400, deadline=None)
    def test_fanout_topology(self, case, n_ru, users_per_ru):
        assert (outcome(lambda: topology_fields(from_fanout_case(case, n_ru, users_per_ru)))
                == outcome(per_count_fanout_topology, case, n_ru, users_per_ru))

    @given(segment=st.one_of(st.sampled_from(NODE_ORDER + LINK_ORDER),
                             st.sampled_from(["oru", None, 0, Node])),
           sigma=REALS, alpha=REALS, counts=LINK_COUNTS)
    @settings(max_examples=400, deadline=None)
    def test_segment_params(self, segment, sigma, alpha, counts):
        got = outcome(lambda: fields_of(SegmentParams(segment, sigma, alpha, *counts)))
        assert got == outcome(per_field_segment_params, segment, sigma, alpha, *counts)
        accepted = segment_params_rules(segment, sigma, alpha, *counts)
        event(f"accepted: {accepted}")
        assert (got[0] == "ok") is accepted

    @given(rated_power_w=REALS, capacity_gbps=REALS)
    @settings(max_examples=400, deadline=None)
    def test_equipment_spec(self, rated_power_w, capacity_gbps):
        got = outcome(lambda: fields_of(EquipmentSpec("radio", rated_power_w, capacity_gbps)))
        assert got == outcome(per_field_equipment_spec, "radio", rated_power_w, capacity_gbps)
        accepted = equipment_spec_rules("radio", rated_power_w, capacity_gbps)
        event(f"accepted: {accepted}")
        assert (got[0] == "ok") is accepted

    @given(fields=server_fields())
    @settings(max_examples=400, deadline=None)
    def test_server_spec(self, fields):
        got = outcome(lambda: fields_of(ServerSpec(*fields)))
        assert got == outcome(per_field_server_spec, *fields)
        accepted = server_spec_rules(*fields)
        event(f"accepted: {accepted}")
        assert (got[0] == "ok") is accepted

    @given(counts=st.tuples(*[st.one_of(st.none(), FANOUT_COUNTS)] * 3))
    @example(counts=(0, "a", -1))  # the first bad count is named
    @settings(max_examples=400, deadline=None)
    def test_topology_counts(self, counts):
        got = outcome(lambda: fields_of(TopologyCounts(*counts)))
        assert got == outcome(per_field_topology_counts, *counts)
        accepted = all(count is None or is_count(count, 1) for count in counts)
        event(f"accepted: {accepted}")
        assert (got[0] == "ok") is accepted
