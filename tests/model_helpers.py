"""Reference helpers that only the tests use, built on the package's sizing primitives."""

import math
from dataclasses import replace

from oranpower.catalog import energy_per_capacity
from oranpower.powermodel import ModelConfig, TrafficModel, _Plan, _Term, provision_units
from oranpower.topology import LINK_ORDER, NODE_ORDER, Node, Topology


def equipment_power(load_gbps, spec, policy):
    """Watts one device class draws for a per-instance load, under the class policy.

    Linear mode scales the device's W/Gbps ratio by the load; quantized mode
    buys whole devices (or ``unit_capacity_gbps`` slices of one). These are
    the float operations of the row loop's device terms.
    """
    ratio = energy_per_capacity(spec)
    if not policy.quantized:
        return ratio * load_gbps
    unit = policy.unit_capacity_gbps if policy.unit_capacity_gbps is not None else spec.capacity_gbps
    return provision_units(load_gbps, unit, policy.minimum_units) * ratio * unit


def total_reduction(baseline, other):
    """Fractional total-power reduction of breakdown ``other`` relative to ``baseline``."""
    return 1 - other.total_watts / baseline.total_watts


def per_part_breakdown(nodes, segments, ue_watts):
    """A cell's processing, transmission and total watts, or the error naming its first bad part.

    Each part must be >= 0 and the total finite; the sums are taken left to
    right, as the package documents.
    """
    for kind, parts, order in (("node", nodes, NODE_ORDER), ("segment", segments, LINK_ORDER)):
        for segment, watts in zip(order, parts):
            if not (watts >= 0):
                raise ValueError(f"{kind} power for {segment.value} must be >= 0, got {watts}")
    if not (ue_watts >= 0):
        raise ValueError(f"UE power must be >= 0, got {ue_watts}")
    processing = 0.0 + nodes[0] + nodes[1] + nodes[2] + nodes[3]
    transmission = ue_watts + (0.0 + segments[0] + segments[1] + segments[2])
    total = processing + transmission
    if not math.isfinite(total):
        raise ValueError(f"total power must be finite, got {total}")
    return processing, transmission, total


def evaluate_parts(nodes, segments, ue_watts):
    """``evaluate`` of a cell whose row loop prices exactly the given parts.

    The cell has one user and its BBP at the O-RU. Its plan is replaced: the
    O-RU term has the scale ``nodes[0]`` and one linear device of ratio 1.0
    at an eCPRI load of 1.0, so it prices ``nodes[0] * 1.0 * 1.0``, and every
    other part is a constant of the plan. The parts then pass through the
    row loop's own sums and check.
    """
    config = replace(ModelConfig.default(), traffic=TrafficModel(ecpri_per_ru_gbps=1.0))
    config._plans[Node.ORU] = _Plan((_Term(nodes[0], 0, ((1, 1.0, None, 0),)),),
                                    (*nodes[1:], *segments), ue_watts, (0, ((False,),)), {})
    return config.evaluate(Topology(n_ru=1, n_du=1, n_cu=1, n_dc=1, users_per_ru=1), Node.ORU)
