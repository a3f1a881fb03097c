"""Row loops: the compiled pricing against the plan's term records, and shared factories.

A row loop is compiled once per plan shape and prices every term in straight-
line code; ``evaluate`` runs one on a one-cell input, and the sweep on chunks
of O-RU counts. The reference here is the generic loop over the plan's terms
that the compiled code replaced; every float must match it by ``repr``, so a
sign of zero counts, and every error must match in type and message.
"""

import copy
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oranpower.catalog import (
    CatalogError,
    EquipmentSpec,
    ServerSpec,
    default_catalog,
    energy_per_capacity,
)
from oranpower.powermodel import (
    ClassPolicy,
    ModelConfig,
    PowerOverflowError,
    ProvisioningPolicy,
    TrafficModel,
    provision_units,
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

import oracle
from model_helpers import per_part_breakdown, replace

EXTREME_FLOATS = (5e-324, 1e-300, 1e-12, 1e12, 1e300)
EXTREME_COUNTS = (2**40, 2**53)


def reference_kernel(terms, bbp, config, n_ru, n_du, n_cu, n_dc, n_users, ru_per_du):
    """The generic loop over the plan's terms that ``evaluate`` ran before they were compiled.

    The terms after the BBP node are priced here from the catalog and
    ``params`` alone, not read from the plan: a tier at its chassis W/Gbps,
    link i at ``(h_s+1)·W_switch + (h_w+1)·W_wdm + γ·(h_r+1)·W_router``, its
    switch being tier i + 1's chassis, each times ``α·σ`` and the user rate.
    """
    counts = (n_ru, n_du, n_cu, n_dc)
    ecpri = config.traffic.ecpri_per_ru_gbps
    loads = (ecpri, ru_per_du * ecpri, n_ru / n_cu * ecpri, n_ru / n_dc * ecpri)
    watts = []
    for scale, depth, devices in terms:
        load, per_instance = loads[depth], 0.0
        for multiplier, ratio, unit, minimum_units in devices:
            if unit is None:
                sized = ratio * load
            else:
                sized = provision_units(load, unit, minimum_units) * ratio * unit
            per_instance += multiplier * sized
        watts.append(scale * (counts[depth] / n_users) * per_instance)
    catalog, params = config.catalog, config.params
    chassis = (catalog.radio, catalog.access_switch, catalog.core_switch, catalog.core_switch)

    def baseband(segment, watts_per_gbps):
        seg = params[segment]
        return seg.alpha * seg.sigma * config.traffic.user_rate_gbps * watts_per_gbps

    tiers_after = [baseband(node, energy_per_capacity(chassis[depth]))
                   for depth, node in enumerate(NODE_ORDER) if depth > bbp]
    links_after = []
    for depth, link in enumerate(LINK_ORDER):
        seg = params[link]
        if depth >= bbp:
            links_after.append(baseband(link, (
                (seg.hops_switch + 1) * energy_per_capacity(chassis[depth + 1])
                + (seg.hops_wdm + 1) * energy_per_capacity(catalog.wdm_link)
                + seg.gamma * (seg.hops_router + 1) * energy_per_capacity(catalog.router))))
    return (*watts[:bbp + 1], *tiers_after), (*watts[bbp + 1:], *links_after)


def outcome(call, *args):
    """``repr`` of what ``call`` returns, or the type and message of what it raises."""
    try:
        return repr(call(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def kernel_args(config, topology):
    if config.provision_to_cap and topology.du_fanout_cap is not None:
        ru_per_du = topology.du_fanout_cap
    else:
        ru_per_du = topology.n_ru / topology.n_du
    return (topology.n_ru, topology.n_du, topology.n_cu, topology.n_dc, topology.n_users,
            ru_per_du)


def positive(extreme):
    values = st.floats(0.01, 1e4)
    return st.one_of(values, st.sampled_from(EXTREME_FLOATS)) if extreme else values


def counts(low, high, extreme):
    values = st.integers(low, high)
    return st.one_of(values, st.sampled_from(EXTREME_COUNTS)) if extreme else values


def valid_or(default, build, *args, **kwargs):
    """``build(*args, **kwargs)``, or ``default`` where those values are rejected."""
    try:
        return build(*args, **kwargs)
    except (CatalogError, TopologyError, ValueError):
        return default


@st.composite
def catalogs(draw, extreme):
    catalog = default_catalog()
    entries = {}
    for name in ("radio", "access_switch", "core_switch", "wdm_link", "router"):
        default = getattr(catalog, name)
        entries[name] = valid_or(default, EquipmentSpec, default.name,
                                 draw(positive(extreme)), draw(positive(extreme)))
    for name in ("edge_server", "dc_server"):
        cores, per_core_gbps = draw(st.integers(1, 64)), draw(positive(extreme))
        entries[name] = valid_or(getattr(catalog, name), ServerSpec, cores,
                                 draw(positive(extreme)), per_core_gbps, cores * per_core_gbps)
    return replace(catalog, **entries)


@st.composite
def params(draw, extreme):
    factor = st.floats(1.0, 10.0)
    if extreme:
        factor = st.one_of(factor, st.sampled_from((1e150, 1e300)))
    result = {}
    for segment, entry in segment_map().items():
        # Hop counts and gamma are a link's alone.
        links_only = (draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3)),
                      draw(st.sampled_from((0, 1)))) if isinstance(segment, Link) else ()
        result[segment] = valid_or(entry, SegmentParams, segment, draw(factor), draw(factor),
                                   *links_only)
    return result


@st.composite
def class_policies(draw, extreme):
    if not draw(st.booleans()):
        return ClassPolicy.linear()
    minimum = draw(st.one_of(st.integers(0, 3), st.sampled_from(EXTREME_COUNTS))
                   if extreme else st.integers(0, 3))
    # 0.7 is a float just below 7/10, so a 7 Gbps load is just above a whole number of units.
    return ClassPolicy.quantize(draw(st.one_of(st.none(), positive(extreme), st.just(0.7))),
                                minimum)


@st.composite
def policies(draw, extreme):
    return ProvisioningPolicy(*(draw(class_policies(extreme)) for _ in range(5)))


@st.composite
def configs(draw, extreme):
    policy = draw(policies(extreme))
    rate = st.floats(0.0, 1e3)
    if extreme:
        rate = st.one_of(rate, st.sampled_from((0.0, 5e-324) + EXTREME_FLOATS))
    traffic = valid_or(TrafficModel(), TrafficModel, draw(rate), draw(rate))
    return ModelConfig(draw(catalogs(extreme)), draw(params(extreme)), traffic, policy,
                       draw(st.booleans()))


@st.composite
def topologies(draw, extreme):
    """Sweep, fanout and hand-built trees."""
    users_per_ru = draw(counts(1, 50, extreme))
    kind = draw(st.sampled_from(("sweep", "fanout", "tree")))
    if kind == "sweep":
        return build_sweep_topology(draw(counts(1, 2000, extreme)), users_per_ru,
                                    draw(st.integers(1, 16)))
    if kind == "fanout":
        case = draw(st.sampled_from(sorted(FANOUT_CASES.values(), key=lambda case: case.label)))
        per_dc = case.du_fanout * case.cu_fanout * case.dc_fanout
        return from_fanout_case(case, per_dc * draw(st.integers(1, 50)), users_per_ru)
    n_dc = draw(st.integers(1, 3))
    n_cu = n_dc * draw(st.integers(1, 3))
    n_du = n_cu * draw(st.integers(1, 4))
    n_ru = n_du * draw(st.integers(1, 4))
    if extreme and draw(st.booleans()):
        n_ru = draw(st.sampled_from(EXTREME_COUNTS))
    # A cap too small for the O-DUs to hold every O-RU is raised to the least that does, so
    # caps that bind exactly, at n_ru = n_du * cap, are drawn too.
    cap = draw(st.one_of(st.none(), counts(1, 8, extreme)))
    return Topology(n_ru, n_du, n_cu, n_dc, users_per_ru,
                    cap if cap is None else max(cap, -(-n_ru // n_du)))


def breakdown_fields(config, topology, placement):
    breakdown = config.evaluate(topology, placement)
    return (breakdown.placement, breakdown.nodes, breakdown.segments, breakdown.ue_watts,
            breakdown.processing_watts, breakdown.transmission_watts, breakdown.total_watts)


def check_kernel_matches_reference(config, topology, placement):
    """The one-cell row loop ``evaluate`` runs, and ``evaluate`` itself, price the cell as
    ``reference_kernel`` does: the loop's row, or the parts of a cell it rejects, and
    ``evaluate``'s fields, by ``repr``, or ``evaluate``'s error."""
    evaluated = outcome(breakdown_fields, config, topology, placement)
    terms, _, ue_watts, _ = config._plan(placement)
    loop = config._loop(placement, topology.du_fanout_cap is not None, False)  # evaluate's
    args = kernel_args(config, topology)
    expected = outcome(reference_kernel, terms, placement.depth, config, *args)
    rows = []
    looped = outcome(loop, (topology.n_ru,), (topology.n_du,), topology.users_per_ru,
                     topology.du_fanout_cap, topology.n_cu, topology.n_dc, rows)
    if isinstance(expected, tuple):  # the reference raised, and the loop and evaluate the same
        assert looped == evaluated == expected
        return
    nodes, segments = reference_kernel(terms, placement.depth, config, *args)
    parts = (*nodes, *segments, ue_watts)
    try:
        totals = per_part_breakdown(nodes, segments, ue_watts)
    except ValueError:  # rejected as overflowed, naming every part
        assert looped == repr(parts) and rows == []
        names = [segment.value for segment in NODE_ORDER + LINK_ORDER] + ["ue"]
        named = ", ".join(f"{name} = {value:.6g}" for name, value in zip(names, parts))
        assert evaluated == (PowerOverflowError.__name__, (
            f"per-user power with BBP at {placement.value} and n_ru={topology.n_ru} overflows "
            f"a float: {named}"))
    else:
        assert looped == repr(None)
        assert repr(rows) == repr([(topology.n_ru, placement, (*totals, *parts))])
        assert evaluated == repr((placement, nodes, segments, ue_watts, *totals))


class TestKernelMatchesTermRecords:
    @given(config=configs(extreme=False), topology=topologies(extreme=False),
           placement=st.sampled_from(NODE_ORDER))
    @settings(max_examples=100, deadline=None)
    def test_random_inputs(self, config, topology, placement):
        check_kernel_matches_reference(config, topology, placement)

    @given(config=configs(extreme=True), topology=topologies(extreme=True),
           placement=st.sampled_from(NODE_ORDER))
    @settings(max_examples=100, deadline=None)
    def test_extreme_inputs(self, config, topology, placement):
        check_kernel_matches_reference(config, topology, placement)


class TestOneWayToFail:
    @pytest.mark.parametrize("placement, named", [
        pytest.param(Node.ODU, "oru = 27.5, odu = inf, ocu = 3.6169e-05, dc = 7.05295e-06, "
                     "fronthaul = inf, midhaul = 0.00017329, backhaul = 5.69637e-05, "
                     "ue = 0.000771605", id="odu"),
        pytest.param(Node.OCU, "oru = 27.5, odu = 1.98688, ocu = inf, dc = 7.05295e-06, "
                     "fronthaul = inf, midhaul = inf, backhaul = 5.69637e-05, "
                     "ue = 0.000771605", id="ocu"),
        pytest.param(Node.DC, "oru = 27.5, odu = 1.98688, ocu = 1.28906, dc = inf, "
                     "fronthaul = inf, midhaul = inf, backhaul = inf, ue = 0.000771605", id="dc"),
    ])
    def test_unit_counts_beyond_a_float_fail_the_row_check(self, placement, named):
        # The BBP servers' load over 1e-307 Gbps units, and each link's load before the BBP
        # node over 1e-308 Gbps WDM units, need more units than a float holds: those terms are
        # infinite, whether priced per cell or once, and the row check rejects the cell.
        policy = ProvisioningPolicy(servers=ClassPolicy.quantize(1e-307),
                                    links=ClassPolicy.quantize(1e-308))
        message = f"per-user power with BBP at {placement.value} and n_ru=8 overflows a float: "
        with pytest.raises(PowerOverflowError, match=f"^{re.escape(message + named)}$"):
            ModelConfig.default(policy).evaluate(build_sweep_topology(8, 10), placement)
        # The sweep's loop of a fresh config returns the same parts, with no evaluate before it.
        rows = []
        parts = ModelConfig.default(policy)._loop(placement, True, False)(
            [8], [2], 10, 4, 1, 1, rows)
        names = [segment.value for segment in NODE_ORDER + LINK_ORDER] + ["ue"]
        assert rows == []
        assert ", ".join(f"{name} = {watts:.6g}" for name, watts in zip(names, parts)) == named


def same_shape_configs():
    """Two configs whose plans differ in every value but share every shape."""
    base = ModelConfig.default()
    catalog = base.catalog
    other = replace(catalog, radio=replace(catalog.radio, rated_power_w=123.0),
                    core_switch=replace(catalog.core_switch, capacity_gbps=777.0),
                    dc_server=replace(catalog.dc_server, per_core_power_w=9.5))
    params = {segment: replace(entry, sigma=entry.sigma + 0.25, alpha=entry.alpha * 1.5)
              for segment, entry in base.params.items()}
    traffic = TrafficModel(monthly_gb_per_user=37.0, ecpri_per_ru_gbps=9.0)
    policy = ProvisioningPolicy(servers=ClassPolicy.quantize(unit_capacity_gbps=2.5,
                                                             minimum_units=1))
    return base, ModelConfig(other, params, traffic, policy)


def breakdown_floats(breakdown):
    return repr((breakdown.nodes, breakdown.segments, breakdown.ue_watts,
                 breakdown.total_watts))


class TestSharedFactories:
    def test_same_shape_shares_code_but_not_constants(self):
        rng = random.Random(7)
        cells = [(build_sweep_topology(rng.randint(1, 300), rng.randint(1, 20),
                                       rng.randint(1, 8)), rng.choice(NODE_ORDER))
                 for _ in range(200)]
        first, second = same_shape_configs()
        alone = [[breakdown_floats(config.evaluate(*cell)) for cell in cells]
                 for config in same_shape_configs()]
        interleaved = [[], []]
        for cell in cells:
            for side, config in enumerate((first, second)):
                interleaved[side].append(breakdown_floats(config.evaluate(*cell)))
        assert interleaved == alone
        assert alone[0] != alone[1]
        for placement in NODE_ORDER:
            # Every value of the config is bound in the closure and every value of the tree is
            # an argument, none in the code, which reads only the totals' 0.0 and the one-O-RU
            # cell's count of 1 as constants: for evaluate's rows and the CSV lines, for trees
            # with and without a cap.
            for csv in (False, True):
                for has_cap in (False, True):
                    loops = [config._loop(placement, has_cap, csv) for config in (first, second)]
                    assert loops[0].__code__ is loops[1].__code__
                    assert loops[0].__code__.co_filename.startswith("<oranpower row loop")
                    assert {value for value in loops[0].__code__.co_consts
                            if isinstance(value, (int, float)) and not isinstance(value, bool)
                            } <= {0.0, 1}
        for config in (first, second):
            for topology, placement in cells[:40]:
                assert not oracle.agrees(config.evaluate(topology, placement), config, topology,
                                         placement)

    def test_copies_rebuild_their_plans(self):
        config = same_shape_configs()[1]
        topology = build_sweep_topology(37, 6, 5)
        expected = [breakdown_floats(config.evaluate(topology, node)) for node in NODE_ORDER]
        for clone in (copy.copy(config), copy.deepcopy(config),
                      pickle.loads(pickle.dumps(config))):
            assert clone == config
            assert [breakdown_floats(clone.evaluate(topology, node))
                    for node in NODE_ORDER] == expected
            for node in NODE_ORDER:
                # A new loop, bound to a new plan of equal values, over the same code.
                loop, original = clone._loop(node, True, False), config._loop(node, True, False)
                assert loop is not original and loop.__code__ is original.__code__
                assert ([cell.cell_contents for cell in loop.__closure__]
                        == [cell.cell_contents for cell in original.__closure__])
