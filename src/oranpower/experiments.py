"""Experiment harnesses: the O-RU count sweep, the nodal fanout study, and a
brute-force network enumeration used to cross-check the closed-form model."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

from .catalog import EquipmentCatalog, ServerSpec
from .powermodel import (
    GBPS_TO_BITS_PER_S,
    ClassPolicy,
    ModelConfig,
    PowerBreakdown,
    ProvisioningPolicy,
    TrafficModel,
    provision_units,
)
from .topology import (
    DEFAULT_DU_FANOUT_CAP,
    LINK_ORDER,
    NODE_ORDER,
    FanoutCase,
    Link,
    Node,
    Segment,
    SegmentParams,
    Topology,
    build_sweep_topology,
    from_fanout_case,
)

# Smallest O-RU count divisible by every built-in fanout chain (C-2/C-3/C-4
# need 10, C-5 needs 8).
DEFAULT_FANOUT_N_RU = 40
DEFAULT_USERS_PER_RU = 10


@dataclass(frozen=True, init=False)
class SweepRecord:
    """One evaluated (O-RU count, BBP placement) cell of the sweep."""

    n_ru: int
    breakdown: PowerBreakdown

    def __init__(self, n_ru: int, breakdown: PowerBreakdown):
        self.__dict__.update(n_ru=n_ru, breakdown=breakdown)


@dataclass(frozen=True)
class FanoutStudyRecord:
    """One evaluated (fanout case, BBP placement) cell of the fanout study."""

    case: str
    breakdown: PowerBreakdown


def _ordered_placements(placements: Iterable[Node]) -> list[Node]:
    """The distinct placements in depth order; an unknown one is rejected as ``evaluate`` does."""
    wanted = list(placements)
    for placement in wanted:
        if placement not in NODE_ORDER:
            raise ValueError(f"unknown BBP placement: {placement!r}")
    return [node for node in NODE_ORDER if node in wanted]


def sweep_orus(n_ru_range: Iterable[int], users_per_ru: int,
               placements: Iterable[Node], config: ModelConfig,
               du_fanout_cap: int = DEFAULT_DU_FANOUT_CAP) -> Iterator[SweepRecord]:
    """Evaluate every (n_ru, placement) pair over sweep topologies, yielding records lazily.

    Records are ordered by (n_ru, placement depth) regardless of the input
    iteration order, so identical inputs produce identical streams; a
    ``range`` with a positive step is already in that order and is iterated
    as it is, without being held in memory. The call
    itself raises on an empty range and evaluates every placement at the
    first O-RU count, so a bad ``users_per_ru`` or ``du_fanout_cap``, or a
    config that fails for some placement, is raised before any record.
    """
    if isinstance(n_ru_range, range) and n_ru_range.step > 0:
        counts = n_ru_range
    else:
        counts = sorted(set(n_ru_range))
    if not counts:
        raise ValueError("n_ru_range must be non-empty")
    ordered = _ordered_placements(placements)
    first = build_sweep_topology(counts[0], users_per_ru, du_fanout_cap)
    head = [SweepRecord(first.n_ru, config.evaluate(first, placement))
            for placement in ordered]
    rest = (build_sweep_topology(n_ru, users_per_ru, du_fanout_cap) for n_ru in counts[1:])
    tail = (SweepRecord(topology.n_ru, config.evaluate(topology, placement))
            for topology in rest for placement in ordered)
    return chain(head, tail)


def fanout_study(cases: Sequence[FanoutCase], n_ru: int, users_per_ru: int,
                 placements: Iterable[Node], config: ModelConfig) -> list[FanoutStudyRecord]:
    """Evaluate every (fanout case, placement) pair at a fixed O-RU count.

    The O-RU placement is included for completeness; its breakdown carries no
    coverage-weighted term beyond the O-RU itself, so it repeats identically
    across cases.
    """
    ordered = _ordered_placements(placements)
    records = []
    for case in cases:
        topology = from_fanout_case(case, n_ru, users_per_ru)
        for placement in ordered:
            records.append(FanoutStudyRecord(case.label, config.evaluate(topology, placement)))
    return records


def _device_watts(load_gbps: float, rated_power_w: float, capacity_gbps: float,
                  policy: ClassPolicy) -> float:
    # Deliberately re-derived here, not taken from powermodel's plan, so the
    # enumeration stays an independent check of the closed form.
    if not policy.quantized:
        return load_gbps * rated_power_w / capacity_gbps
    unit = policy.unit_capacity_gbps if policy.unit_capacity_gbps is not None else capacity_gbps
    units = provision_units(load_gbps, unit, policy.minimum_units)
    return units * (rated_power_w / capacity_gbps) * unit


def _server_watts(load_gbps: float, server: ServerSpec, policy: ClassPolicy) -> float:
    total_power = server.cores * server.per_core_power_w
    return _device_watts(load_gbps, total_power, server.server_capacity_gbps, policy)


def brute_force_oracle(topology: Topology, traffic: TrafficModel,
                       catalog: EquipmentCatalog,
                       params: Mapping[Segment, SegmentParams],
                       placement: Node, policy: ProvisioningPolicy,
                       provision_to_cap: bool = True) -> float:
    """Network-total watts by explicit enumeration of every device and user.

    Walks each physical node instance, each transport device on each link
    instance (including every extra hop device), each user's share of the
    multiplexed downstream equipment, and each UE, without using the
    closed-form per-user expressions. Loads, instance counts, equipment and
    the side of the BBP node are derived here, not taken from ``powermodel``.
    Dividing the result by the user count must reproduce
    ``ModelConfig.evaluate(...).total_watts``.
    """
    n_users = topology.n_users
    user_rate = traffic.user_rate_gbps
    ecpri = traffic.ecpri_per_ru_gbps
    instances = {Node.ORU: topology.n_ru, Node.ODU: topology.n_du,
                 Node.OCU: topology.n_cu, Node.DC: topology.n_dc}
    # O-DUs are sized for the fanout cap when set; every other instance
    # processes the eCPRI of all O-RUs beneath it.
    if provision_to_cap and topology.du_fanout_cap is not None:
        odu_rus = topology.du_fanout_cap
    else:
        odu_rus = topology.n_ru / topology.n_du
    load = {Node.ORU: ecpri, Node.ODU: odu_rus * ecpri,
            Node.OCU: topology.n_ru / topology.n_cu * ecpri,
            Node.DC: topology.n_ru / topology.n_dc * ecpri}
    interface = {Node.ORU: catalog.radio, Node.ODU: catalog.access_switch,
                 Node.OCU: catalog.core_switch, Node.DC: catalog.core_switch}
    bbp_depth = NODE_ORDER.index(placement)
    total = 0.0

    for depth, node in enumerate(NODE_ORDER):
        seg = params[node]
        scale = seg.alpha * seg.sigma
        chassis = interface[node]
        if depth > bbp_depth:
            share = scale * user_rate * chassis.rated_power_w / chassis.capacity_gbps
            for _ in range(n_users):
                total += share
            continue
        instance_watts = _device_watts(load[node], chassis.rated_power_w,
                                       chassis.capacity_gbps, policy.node_interface)
        if depth == bbp_depth:
            server = catalog.dc_server if node is Node.DC else catalog.edge_server
            instance_watts += _server_watts(load[node], server, policy.servers)
        for _ in range(instances[node]):
            total += scale * instance_watts

    wdm = catalog.wdm_link
    router = catalog.router
    # Each link runs from one tier (which sets its load and instance count)
    # to the next; it still carries eCPRI while that next tier is at or
    # before the BBP node.
    for link, upstream, downstream in zip(LINK_ORDER, NODE_ORDER, NODE_ORDER[1:]):
        seg = params[link]
        scale = seg.alpha * seg.sigma
        switch = catalog.access_switch if link is Link.FRONTHAUL else catalog.core_switch
        if NODE_ORDER.index(downstream) <= bbp_depth:
            link_load = load[upstream]
            for _ in range(instances[upstream]):
                for _ in range(seg.hops_switch + 1):
                    total += scale * _device_watts(link_load, switch.rated_power_w,
                                                   switch.capacity_gbps, policy.switches)
                for _ in range(seg.hops_wdm + 1):
                    total += scale * _device_watts(link_load, wdm.rated_power_w,
                                                   wdm.capacity_gbps, policy.links)
                if seg.gamma:
                    for _ in range(seg.hops_router + 1):
                        total += scale * _device_watts(link_load, router.rated_power_w,
                                                       router.capacity_gbps, policy.routers)
        else:
            for _ in range(n_users):
                for _ in range(seg.hops_switch + 1):
                    total += scale * user_rate * switch.rated_power_w / switch.capacity_gbps
                for _ in range(seg.hops_wdm + 1):
                    total += scale * user_rate * wdm.rated_power_w / wdm.capacity_gbps
                if seg.gamma:
                    for _ in range(seg.hops_router + 1):
                        total += scale * user_rate * router.rated_power_w / router.capacity_gbps

    ue_watts = user_rate * GBPS_TO_BITS_PER_S * catalog.ue_energy_j_per_bit
    for _ in range(n_users):
        total += ue_watts
    return total
