"""Per-user processing and transmission power for a chosen baseband-processing node.

Traffic upstream of the baseband-processing (BBP) node is provisioned
radio-rate eCPRI, attributed per user through the coverage factor of each
node and link; once processed to baseband it is multiplexed packet traffic,
attributed at the plain user data rate with no coverage weighting. Every
evaluation here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from operator import mul
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .catalog import EquipmentCatalog, EquipmentSpec, ServerSpec, default_catalog, energy_per_capacity
from .topology import (
    LINK_ORDER,
    NODE_ORDER,
    Node,
    Segment,
    SegmentParams,
    Topology,
    segment_map,
)

SECONDS_PER_MONTH = 30 * 24 * 3600  # 30-day month
BITS_PER_GIGABYTE = 8e9  # decimal units
GBPS_TO_BITS_PER_S = 1e9

# A load/unit ratio within this many ULPs of a whole number is that number:
# loads that are exact unit multiples up to float rounding buy no extra unit.
# The snap spans at most _SNAP_UNITS of a unit, a bound that binds only from
# 2**31 units up; without it, 4 ULPs reach half a unit at 2**49 units.
_SNAP_ULPS = 4
_SNAP_UNITS = 2**-20


class PowerOverflowError(ValueError):
    """Valid inputs whose per-user power is too large for a float."""


def user_baseband_rate(monthly_gb: float) -> float:
    """Mean user data rate in Gbps for a monthly consumption in decimal GB."""
    if monthly_gb < 0:
        raise ValueError(f"monthly consumption must be >= 0, got {monthly_gb}")
    bits_per_second = monthly_gb * BITS_PER_GIGABYTE / SECONDS_PER_MONTH
    return bits_per_second / GBPS_TO_BITS_PER_S


@dataclass(frozen=True)
class TrafficModel:
    """Per-user demand: mean monthly volume plus the provisioned eCPRI rate per O-RU."""

    monthly_gb_per_user: float = 10.0
    ecpri_per_ru_gbps: float = 11.0

    def __post_init__(self):
        for name in ("monthly_gb_per_user", "ecpri_per_ru_gbps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value}")

    @property
    def user_rate_gbps(self) -> float:
        return user_baseband_rate(self.monthly_gb_per_user)


@dataclass(frozen=True)
class ClassPolicy:
    """How one equipment class is sized against load.

    Linear mode attributes power pro rata (load times the device's W/Gbps).
    Quantized mode buys whole units of ``unit_capacity_gbps`` (the device's
    own capacity when ``None``), never fewer than ``minimum_units``.
    """

    quantized: bool = False
    unit_capacity_gbps: float | None = None
    minimum_units: int = 0

    def __post_init__(self):
        unit = self.unit_capacity_gbps
        if unit is not None and not (math.isfinite(unit) and unit > 0):
            raise ValueError(f"unit_capacity_gbps must be a finite number > 0, got {unit}")
        if not (isinstance(self.minimum_units, int) and self.minimum_units >= 0):
            raise ValueError(f"minimum_units must be an integer >= 0, got {self.minimum_units}")

    @classmethod
    def linear(cls) -> "ClassPolicy":
        return cls()

    @classmethod
    def quantize(cls, unit_capacity_gbps: float | None = None, minimum_units: int = 0) -> "ClassPolicy":
        return cls(quantized=True, unit_capacity_gbps=unit_capacity_gbps,
                   minimum_units=minimum_units)


@dataclass(frozen=True)
class ProvisioningPolicy:
    """Per-class sizing modes for servers and the four transport classes."""

    servers: ClassPolicy = field(default_factory=ClassPolicy)
    node_interface: ClassPolicy = field(default_factory=ClassPolicy)
    switches: ClassPolicy = field(default_factory=ClassPolicy)
    links: ClassPolicy = field(default_factory=ClassPolicy)
    routers: ClassPolicy = field(default_factory=ClassPolicy)

    @classmethod
    def all_linear(cls) -> "ProvisioningPolicy":
        return cls()

    @classmethod
    def default(cls) -> "ProvisioningPolicy":
        """Whole dedicated servers per node, shared transport sized linearly."""
        return cls(servers=ClassPolicy.quantize())


def provision_units(load_gbps: float, unit_capacity_gbps: float, minimum_units: int = 0) -> int:
    """Number of capacity units needed for a load: max(minimum, ceil(load/unit))."""
    if unit_capacity_gbps <= 0:
        raise ValueError(f"unit_capacity_gbps must be > 0, got {unit_capacity_gbps}")
    if load_gbps < 0:
        raise ValueError(f"load_gbps must be >= 0, got {load_gbps}")
    ratio = load_gbps / unit_capacity_gbps
    if not math.isfinite(ratio):
        raise PowerOverflowError(f"{load_gbps} Gbps of load in units of {unit_capacity_gbps} "
                                 "Gbps needs more units than a float holds")
    nearest = round(ratio)
    distance = abs(ratio - nearest)
    if distance <= _SNAP_UNITS and distance <= _SNAP_ULPS * math.ulp(ratio):
        return max(minimum_units, nearest)
    return max(minimum_units, math.ceil(ratio))


def equipment_power(load_gbps: float, spec: EquipmentSpec | ServerSpec,
                    policy: ClassPolicy) -> float:
    """Watts one device class draws for a per-instance load, under the class policy.

    Linear mode scales the device's W/Gbps ratio by the load; quantized mode
    buys whole devices (or ``unit_capacity_gbps`` slices of one).
    """
    return _sizer(spec, policy)(load_gbps)


def _sizer(spec: EquipmentSpec | ServerSpec, policy: ClassPolicy) -> Callable[[float], float]:
    """``equipment_power`` of one device class as a function of the per-instance load."""
    ratio = energy_per_capacity(spec)
    if not policy.quantized:
        return partial(mul, ratio)  # ratio * load, which is exactly load * ratio
    unit = policy.unit_capacity_gbps if policy.unit_capacity_gbps is not None else spec.capacity_gbps
    minimum_units = policy.minimum_units
    return lambda load_gbps: provision_units(load_gbps, unit, minimum_units) * ratio * unit


class _Term(NamedTuple):
    """A node or segment at or before the BBP node, less its per-cell factors.

    Its per-user watts are ``scale · ρ · (per_instance + Σ multiplier · sized(load))``
    over ``devices``, where ρ is tier ``depth``'s instance count over the user
    count and the load is that tier's per-instance eCPRI load.
    """

    scale: float  # alpha * sigma
    depth: int
    per_instance: float  # watts of the devices already priced
    devices: tuple[tuple[int, Callable[[float], float]], ...]  # (multiplier, _sizer)


def _term(scale: float, depth: int, devices: tuple, ecpri: float) -> _Term:
    """A plan term; at depth 0, whose load is the constant ``ecpri``, its devices are priced now."""
    if depth:
        return _Term(scale, depth, 0.0, devices)
    per_instance = 0.0
    try:
        for multiplier, sized in devices:
            per_instance += multiplier * sized(ecpri)
    except PowerOverflowError:  # left for evaluate, which raises it after any earlier term's error
        return _Term(scale, depth, 0.0, devices)
    return _Term(scale, depth, per_instance, ())


class _Plan(NamedTuple):
    """Everything about one (config, placement) that does not depend on the topology."""

    terms: tuple[_Term, ...]  # the node terms, then the segment terms
    nodes_after: tuple[float, ...]
    segments_after: tuple[float, ...]
    ue_watts: float


@dataclass(frozen=True, init=False)
class PowerBreakdown:
    """Per-user power of one BBP placement, split by node tier, link, and UE.

    ``nodes`` holds one watts figure per tier in NODE_ORDER and ``segments``
    one per link in LINK_ORDER. The totals are derived from the parts, so
    P_T = P_pr + P_tr holds exactly: processing is the sum of the node terms,
    transmission the UE plus the sum of the segment terms. Every part must
    be >= 0 and the total finite.
    """

    placement: Node
    nodes: tuple[float, ...]
    segments: tuple[float, ...]
    ue_watts: float
    processing_watts: float = field(init=False)
    transmission_watts: float = field(init=False)
    total_watts: float = field(init=False)

    def __init__(self, placement: Node, nodes: tuple[float, ...], segments: tuple[float, ...],
                 ue_watts: float):
        processing = sum(nodes)
        transmission = ue_watts + sum(segments)
        total = processing + transmission
        # One test passes every valid breakdown; the per-part checks name a failure.
        if not (type(placement) is Node
                and len(nodes) == len(NODE_ORDER) and len(segments) == len(LINK_ORDER)
                and min(*nodes, *segments, ue_watts) >= 0 and math.isfinite(total)):
            if type(placement) is not Node:
                raise ValueError(f"unknown BBP placement: {placement!r}")
            for kind, parts, order in (("node", nodes, NODE_ORDER),
                                       ("segment", segments, LINK_ORDER)):
                if len(parts) != len(order):
                    raise ValueError(
                        f"{kind}s must hold {len(order)} watts figures, got {len(parts)}")
                for segment, watts in zip(order, parts):
                    if not (watts >= 0):
                        raise ValueError(
                            f"{kind} power for {segment.value} must be >= 0, got {watts}")
            if not (ue_watts >= 0):
                raise ValueError(f"UE power must be >= 0, got {ue_watts}")
            if not math.isfinite(total):
                raise ValueError(f"total power must be finite, got {total}")
        self.__dict__.update(placement=placement, nodes=nodes, segments=segments,
                             ue_watts=ue_watts, processing_watts=processing,
                             transmission_watts=transmission, total_watts=total)

    def node_watts(self, node: Node) -> float:
        return self.nodes[node.depth]

    def branch(self, segment: Segment) -> str:
        """Where a tier or link sits: ``"before"``, ``"bbp"`` or ``"after"`` the BBP node.

        Link i ends in tier i + 1, so it is before the BBP node, and carries
        eCPRI, while tier i + 1 is at or before it.
        """
        depth, bbp = segment.depth, self.placement.depth
        if depth < bbp:
            return "before"
        return "bbp" if depth == bbp and isinstance(segment, Node) else "after"


@dataclass(frozen=True)
class ModelConfig:
    """Everything an evaluation needs except the topology and BBP placement.

    ``params`` is stored as a read-only copy. ``evaluate`` builds one plan
    per placement the first time it sees it and keeps it on the config; the
    plan cache takes no part in equality, ``repr`` or ``dataclasses.replace``.
    """

    catalog: EquipmentCatalog
    params: Mapping[Segment, SegmentParams]
    traffic: TrafficModel
    policy: ProvisioningPolicy
    provision_to_cap: bool = True
    _plans: dict[int, _Plan] = field(init=False, compare=False, repr=False,
                                     default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    def __reduce__(self):
        # Copies and pickles are rebuilt through __init__: a mappingproxy cannot
        # be pickled, and plans hold closures that are rebuilt on demand.
        return type(self), (self.catalog, dict(self.params), self.traffic, self.policy,
                            self.provision_to_cap)

    @classmethod
    def default(cls, policy: ProvisioningPolicy | None = None) -> "ModelConfig":
        return cls(
            catalog=default_catalog(),
            params=segment_map(),
            traffic=TrafficModel(),
            policy=policy if policy is not None else ProvisioningPolicy.default(),
        )

    def _plan(self, bbp: int) -> _Plan:
        """The topology-independent factors of every term for the BBP node at depth ``bbp``.

        Node tier i, and link i that joins it to tier i + 1, carry one
        instance's provisioned eCPRI up to the BBP node, weighted by the
        coverage factor; the BBP node adds its servers. Beyond the BBP node
        they carry the per-user baseband rate with no coverage weighting, so
        their watts are fixed here. Link i ends in tier i + 1's chassis,
        which is also its switch.
        """
        catalog, params, policy = self.catalog, self.params, self.policy
        user_rate = self.traffic.user_rate_gbps
        ecpri = self.traffic.ecpri_per_ru_gbps
        chassis = (catalog.radio, catalog.access_switch, catalog.core_switch, catalog.core_switch)

        terms, nodes_after = [], []
        for depth, node in enumerate(NODE_ORDER):
            seg = params[node]
            scale = seg.alpha * seg.sigma
            if depth > bbp:
                nodes_after.append(scale * user_rate * energy_per_capacity(chassis[depth]))
                continue
            devices = [(1, _sizer(chassis[depth], policy.node_interface))]
            if depth == bbp:
                server = catalog.dc_server if node is Node.DC else catalog.edge_server
                devices.append((1, _sizer(server, policy.servers)))
            terms.append(_term(scale, depth, tuple(devices), ecpri))

        segments_after = []
        wdm, router = catalog.wdm_link, catalog.router
        for depth, link in enumerate(LINK_ORDER):
            seg = params[link]
            scale = seg.alpha * seg.sigma
            switch = chassis[depth + 1]
            multipliers = (seg.hops_switch + 1, seg.hops_wdm + 1,
                           seg.gamma * (seg.hops_router + 1))
            if depth < bbp:
                # A zero multiplier (no router) adds exactly 0.0, so it is left out.
                devices = tuple((multiplier, _sizer(spec, class_policy))
                                for multiplier, spec, class_policy in zip(
                                    multipliers, (switch, wdm, router),
                                    (policy.switches, policy.links, policy.routers))
                                if multiplier)
                terms.append(_term(scale, depth, devices, ecpri))
            else:
                bracket = (
                    multipliers[0] * energy_per_capacity(switch)
                    + multipliers[1] * energy_per_capacity(wdm)
                    + multipliers[2] * energy_per_capacity(router)
                )
                segments_after.append(scale * user_rate * bracket)

        ue_watts = user_rate * GBPS_TO_BITS_PER_S * catalog.ue_energy_j_per_bit
        return _Plan(tuple(terms), tuple(nodes_after), tuple(segments_after), ue_watts)

    def evaluate(self, topology: Topology, placement: Node) -> PowerBreakdown:
        """Per-user breakdown of ``topology`` with baseband processing at ``placement``.

        Only the per-instance loads and the coverage factors depend on the
        topology; every other factor comes from the placement's plan.
        """
        try:
            bbp = NODE_ORDER.index(placement)
        except ValueError:
            raise ValueError(f"unknown BBP placement: {placement!r}") from None
        plan = self._plans.get(bbp)
        if plan is None:
            plan = self._plans[bbp] = self._plan(bbp)
        n_ru, n_users = topology.n_ru, topology.n_users
        counts = (n_ru, topology.n_du, topology.n_cu, topology.n_dc)
        ecpri = self.traffic.ecpri_per_ru_gbps
        # Per-instance eCPRI load of each tier: an O-DU is sized for the fanout
        # cap when asked to; every other instance carries all O-RUs beneath it.
        if self.provision_to_cap and topology.du_fanout_cap is not None:
            ru_per_du = topology.du_fanout_cap
        else:
            ru_per_du = n_ru / topology.n_du
        loads = (ecpri, ru_per_du * ecpri, n_ru / topology.n_cu * ecpri,
                 n_ru / topology.n_dc * ecpri)
        watts = []
        for scale, depth, per_instance, devices in plan.terms:
            load = loads[depth]
            for multiplier, sized in devices:
                per_instance += multiplier * sized(load)
            watts.append(scale * (counts[depth] / n_users) * per_instance)
        # The plan prices tiers 0 to bbp, then links 0 to bbp - 1.
        nodes = (*watts[:bbp + 1], *plan.nodes_after)
        segments = (*watts[bbp + 1:], *plan.segments_after)
        try:
            return PowerBreakdown(placement, nodes, segments, plan.ue_watts)
        except ValueError:
            # No part computed here is negative: a part rejected as NaN (an
            # infinite factor times zero) or an infinite total has overflowed.
            names = [segment.value for segment in NODE_ORDER + LINK_ORDER] + ["ue"]
            terms = zip(names, nodes + segments + (plan.ue_watts,))
            raise PowerOverflowError(
                f"per-user power with BBP at {placement.value} and n_ru={n_ru} overflows a "
                "float: " + ", ".join(f"{name} = {watts:.6g}" for name, watts in terms)) from None
