"""An exact reference for the per-user power model, written apart from the package.

It prices the eight per-user terms, four tiers, three links and the UE, as
exact fractions of the data fields of a config and a topology. It derives
the per-instance loads, the coverage factors ρ, the user rate, the W/Gbps
ratios and the unit counts, exact ceilings of load over unit, itself. From
``oranpower`` it reads only data fields and the ``Node`` and ``Link`` enums.

The package takes a float load/unit ratio within min(4 ULPs, 2**-20 of a
unit) of a whole number as that number. Where the exact ratio lies that
little above a whole number, widened by the few ULPs of rounding in the
package's load and division, the package buys one unit fewer than the exact
ceiling. ``agrees`` accepts exactly that shortfall there and nothing else.
"""

import math
import sys
from fractions import Fraction
from itertools import combinations

from oranpower.topology import Link, Node

NAMES = tuple(segment.value for segment in (*Node, *Link)) + ("ue",)
# Gbps of a decimal gigabyte a month: 8e9 bits over a 30-day month, over 1e9 bit/s.
_GBPS_PER_MONTHLY_GB = Fraction(8, 30 * 24 * 3600)
_SNAP_ULPS, _SNAP_UNITS, _ROUNDING_ULPS = 4, Fraction(1, 2**20), 4
_FLOAT_MAX = Fraction(sys.float_info.max)


def _sized(multiplier, power_w, capacity_gbps, policy, load):
    """Exact watts of ``multiplier`` devices at one instance's load, the watts that the
    package leaves out when their ratio is in the snap region (else 0), and the largest
    figure on the way to the watts: the load, the unit count, the count times the W/Gbps
    ratio, or the watts themselves."""
    ratio = power_w / capacity_gbps
    if not policy.quantized:
        watts = multiplier * ratio * load
        return watts, 0, max(load, watts)
    unit = Fraction(policy.unit_capacity_gbps or capacity_gbps)
    exact = load / unit
    units = max(policy.minimum_units, math.ceil(exact))
    above = exact - math.floor(exact)
    short = 0
    # A count beyond a float is inf units in the package, never one unit short.
    if above and units > policy.minimum_units and exact < _FLOAT_MAX:
        ulp = Fraction(math.ulp(float(exact)))
        if above <= min(_SNAP_ULPS * ulp, _SNAP_UNITS) + _ROUNDING_ULPS * ulp:
            short = multiplier * ratio * unit
    watts = multiplier * units * ratio * unit
    return watts, short, max(load, units, units * ratio, watts)


def reference_terms(config, topology, placement):
    """The exact per-user watts of each term in ``NAMES`` order; for each term the per-user
    watts of each device that the package may buy one unit short; and the largest exact
    figure of one instance of a term priced per cell (see ``_sized``), its watts summed
    over its devices included, or 0 when there is none."""
    catalog, params, policy, traffic = config.catalog, config.params, config.policy, config.traffic
    rate = Fraction(traffic.monthly_gb_per_user) * _GBPS_PER_MONTHLY_GB
    ecpri = Fraction(traffic.ecpri_per_ru_gbps)
    n_ru, n_users = topology.n_ru, topology.n_users
    counts = (n_ru, topology.n_du, topology.n_cu, topology.n_dc)
    # An O-DU carries the O-RUs of the fanout cap when provisioned to it; every other
    # instance carries the O-RUs beneath it.
    capped = config.provision_to_cap and topology.du_fanout_cap is not None
    rus = [1, topology.du_fanout_cap if capped else Fraction(n_ru, counts[1]),
           Fraction(n_ru, counts[2]), Fraction(n_ru, counts[3])]

    def spec(device):
        return Fraction(device.rated_power_w), Fraction(device.capacity_gbps)

    chassis = [spec(device) for device in (catalog.radio, catalog.access_switch,
                                           catalog.core_switch, catalog.core_switch)]
    server = catalog.dc_server if placement is Node.DC else catalog.edge_server
    bbp = list(Node).index(placement)
    # Tier i: its chassis, and the servers at the BBP node. Link i: switches, WDM links
    # and routers, its switch being tier i + 1's chassis.
    rows = [(node, depth, [(1, *chassis[depth], policy.node_interface)])
            for depth, node in enumerate(Node)]
    rows[bbp][2].append((1, server.cores * Fraction(server.per_core_power_w),
                         Fraction(server.server_capacity_gbps), policy.servers))
    for depth, link in enumerate(Link):
        seg = params[link]
        rows.append((link, depth, [
            (seg.hops_switch + 1, *chassis[depth + 1], policy.switches),
            (seg.hops_wdm + 1, *spec(catalog.wdm_link), policy.links),
            (seg.gamma * (seg.hops_router + 1), *spec(catalog.router), policy.routers)]))

    terms, shortfalls, peak = [], [], 0
    for segment, depth, devices in rows:
        scale = Fraction(params[segment].alpha) * Fraction(params[segment].sigma)
        if depth < bbp or segment is placement:  # eCPRI: an instance's watts times ρ
            rho = Fraction(counts[depth], n_users)
            sized = [_sized(*device, rus[depth] * ecpri) for device in devices]
            instance = sum(watts for watts, _, _ in sized)
            terms.append(scale * rho * instance)
            shortfalls.append([scale * rho * short for _, short, _ in sized if short])
            peak = max(peak, instance, *(figure for _, _, figure in sized))
        else:  # baseband: each user's own rate, with no coverage weighting
            terms.append(scale * rate * sum(m * power / capacity
                                            for m, power, capacity, _ in devices))
            shortfalls.append([])
    terms.append(rate * 10**9 * Fraction(catalog.ue_energy_j_per_bit))
    return terms, shortfalls + [[]], peak


def _close(watts, exact, tol):
    return abs(Fraction(watts) - exact) <= Fraction(tol) * exact


def agrees(breakdown, config, topology, placement, tol=1e-9):
    """Assert that every term of ``breakdown`` is within ``tol`` of exact, naming any that
    is not; return whether some term was accepted one unit short in the snap region."""
    terms, shortfalls, _ = reference_terms(config, topology, placement)
    model = (*breakdown.nodes, *breakdown.segments, breakdown.ue_watts)
    snapped = False
    for name, watts, exact, shorts in zip(NAMES, model, terms, shortfalls):
        if not _close(watts, exact, tol):
            lowered = (exact - sum(chosen) for size in range(1, len(shorts) + 1)
                       for chosen in combinations(shorts, size))
            assert any(_close(watts, value, tol) for value in lowered), (
                f"{name}: model {watts!r} W, exact {float(exact)!r} W")
            snapped = True
    return snapped
