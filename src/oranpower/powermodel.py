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
            object.__setattr__(self, name, abs(value))  # -0.0 as 0.0, so no watts print as -0

    @property
    def user_rate_gbps(self) -> float:
        """Mean user data rate in Gbps for the monthly volume in decimal GB."""
        return self.monthly_gb_per_user * BITS_PER_GIGABYTE / SECONDS_PER_MONTH / GBPS_TO_BITS_PER_S


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
    units = round(ratio)
    distance = abs(ratio - units)
    if not (distance <= _SNAP_UNITS and distance <= _SNAP_ULPS * math.ulp(ratio)):
        units = math.ceil(ratio)
    # max(minimum_units, units), without max's per-call keyword parsing
    return units if units > minimum_units else minimum_units


def _sizing(spec: EquipmentSpec | ServerSpec,
            policy: ClassPolicy) -> tuple[float, float | None, int]:
    """A device class's W/Gbps ratio, unit capacity (``None`` when linear) and minimum units."""
    ratio = energy_per_capacity(spec)
    if not policy.quantized:
        return ratio, None, 0
    unit = policy.unit_capacity_gbps if policy.unit_capacity_gbps is not None else spec.capacity_gbps
    return ratio, unit, policy.minimum_units


class _Term(NamedTuple):
    """A node or segment at or before the BBP node, less its per-cell factors.

    Its per-user watts are ``scale · ρ · Σ multiplier · sized(load)`` over
    ``devices``, where ρ is tier ``depth``'s instance count over the user
    count, the load is that tier's per-instance eCPRI load, and ``sized`` is
    ``ratio · load`` when linear, else ``provision_units(load, unit, minimum) · ratio · unit``.
    """

    scale: float  # alpha * sigma
    depth: int
    devices: tuple[tuple[int, float, float | None, int], ...]  # (multiplier, *_sizing)


# Compiled kernel factories by plan shape, shared by every config in the process.
_FACTORIES: dict[tuple[int, ...], Callable] = {}
# The per-instance eCPRI load and the instance count of each tier, by depth.
_LOADS = ("ecpri", "ru_per_du * ecpri", "n_ru / n_cu * ecpri", "n_ru / n_dc * ecpri")
_COUNTS = ("n_ru", "n_du", "n_cu", "n_dc")


def _factory_source(shape: tuple[int, ...]) -> str:
    """Python source of the kernel factory for plans of one shape.

    ``shape`` is the BBP depth, then for each term its number of devices
    and whether each one is quantized. The source holds only fixed names and
    small integers; every value of a config reaches the kernel as an
    argument of the factory.
    """
    bbp, rest = shape[0], iter(shape[1:])
    params, loads, terms = ["ecpri"], {}, []
    # The plan prices tiers 0 to bbp, then links 0 to bbp - 1; link i carries tier i's load.
    for i, depth in enumerate([*range(bbp + 1), *range(bbp)]):
        params.append(f"s{i}")
        load = f"load{depth}" if depth else "ecpri"
        devices = []
        for j in range(next(rest)):
            if depth:
                loads[load] = f"        {load} = {_LOADS[depth]}\n"
            m, r, u, k = (f"{name}{i}_{j}" for name in "mruk")
            params += m, r, u, k
            devices.append(f"{m} * (provision_units({load}, {u}, {k}) * {r} * {u})"
                           if next(rest) else f"{m} * ({r} * {load})")
        terms.append(f"s{i} * ({_COUNTS[depth]} / n_users) * ({' + '.join(devices)})")
    nodes_after = [f"a{k}" for k in range(len(NODE_ORDER) - 1 - bbp)]
    segments_after = [f"b{k}" for k in range(len(LINK_ORDER) - bbp)]
    nodes = terms[:bbp + 1] + nodes_after
    segments = terms[bbp + 1:] + segments_after
    return (f"def factory({', '.join(params + nodes_after + segments_after)}):\n"
            "    def kernel(n_ru, n_du, n_cu, n_dc, n_users, ru_per_du):\n"
            + "".join(loads.values())
            + f"        return ({', '.join(nodes)}), ({', '.join(segments)})\n"
            "    return kernel\n")


def _kernel(bbp: int, terms: tuple[_Term, ...], ecpri: float,
            nodes_after: tuple[float, ...], segments_after: tuple[float, ...]) -> Callable:
    """The function from a topology's counts to the ``(nodes, segments)`` watts of a plan.

    It evaluates each term in order as ``scale * (count / n_users) * (d1 + d2 + ...)``,
    summing its devices' ``multiplier * sized(load)`` left to right. Its factory
    is compiled once per shape; the plan's values are bound by calling it.
    """
    shape, values = [bbp], [ecpri]
    for term in terms:
        shape.append(len(term.devices))
        values.append(term.scale)
        for device in term.devices:
            shape.append(device[2] is not None)
            values += device
    shape = tuple(shape)
    factory = _FACTORIES.get(shape)
    if factory is None:
        namespace = {}
        # The module's globals, so the kernel calls provision_units by its module name.
        exec(compile(_factory_source(shape), f"<oranpower kernel {shape}>", "exec"),
             globals(), namespace)
        factory = _FACTORIES[shape] = namespace["factory"]
    return factory(*values, *nodes_after, *segments_after)


class _Plan(NamedTuple):
    """Everything about one (config, placement) that does not depend on the topology."""

    terms: tuple[_Term, ...]  # the node terms, then the segment terms
    nodes_after: tuple[float, ...]
    segments_after: tuple[float, ...]
    ue_watts: float
    kernel: Callable  # (n_ru, n_du, n_cu, n_dc, n_users, ru_per_du) -> (nodes, segments)


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
        # One test passes every valid breakdown; the per-part checks name a failure. The
        # parts are compared one by one: min() parses keywords on each call, which costs
        # more than the eight comparisons.
        if not (type(placement) is Node and len(nodes) == 4 and len(segments) == 3
                and nodes[0] >= 0.0 and nodes[1] >= 0.0 and nodes[2] >= 0.0 and nodes[3] >= 0.0
                and segments[0] >= 0.0 and segments[1] >= 0.0 and segments[2] >= 0.0
                and ue_watts >= 0.0 and math.isfinite(total)):
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
    _plans: dict[Node, _Plan] = field(init=False, compare=False, repr=False,
                                      default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    def __reduce__(self):
        # Copies and pickles are rebuilt through __init__: a mappingproxy cannot
        # be pickled, and plans hold kernels that are rebuilt on demand.
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

    def _plan(self, placement: Node) -> _Plan:
        """The topology-independent factors of every term for the BBP node ``placement``.

        Node tier i, and link i that joins it to tier i + 1, carry one
        instance's provisioned eCPRI up to the BBP node, weighted by the
        coverage factor; the BBP node adds its servers. Beyond the BBP node
        they carry the per-user baseband rate with no coverage weighting, so
        their watts are fixed here. Link i ends in tier i + 1's chassis,
        which is also its switch.
        """
        if type(placement) is not Node:  # evaluate's failed cache lookup is no part of the error
            raise ValueError(f"unknown BBP placement: {placement!r}") from None
        bbp = placement.depth
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
            devices = [(1, *_sizing(chassis[depth], policy.node_interface))]
            if depth == bbp:
                server = catalog.dc_server if node is Node.DC else catalog.edge_server
                devices.append((1, *_sizing(server, policy.servers)))
            terms.append(_Term(scale, depth, tuple(devices)))

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
                devices = tuple((multiplier, *_sizing(spec, class_policy))
                                for multiplier, spec, class_policy in zip(
                                    multipliers, (switch, wdm, router),
                                    (policy.switches, policy.links, policy.routers))
                                if multiplier)
                terms.append(_Term(scale, depth, devices))
            else:
                bracket = (
                    multipliers[0] * energy_per_capacity(switch)
                    + multipliers[1] * energy_per_capacity(wdm)
                    + multipliers[2] * energy_per_capacity(router)
                )
                segments_after.append(scale * user_rate * bracket)

        ue_watts = user_rate * GBPS_TO_BITS_PER_S * catalog.ue_energy_j_per_bit
        terms, nodes_after, segments_after = tuple(terms), tuple(nodes_after), tuple(segments_after)
        return _Plan(terms, nodes_after, segments_after, ue_watts,
                     _kernel(bbp, terms, ecpri, nodes_after, segments_after))

    def evaluate(self, topology: Topology, placement: Node) -> PowerBreakdown:
        """Per-user breakdown of ``topology`` with baseband processing at ``placement``.

        Only the per-instance loads and the coverage factors depend on the
        topology; the placement's plan prices every term with its kernel.
        """
        try:
            plan = self._plans[placement]
        except (KeyError, TypeError):  # a new placement, or one that cannot be a dict key
            plan = self._plans[placement] = self._plan(placement)
        n_ru = topology.n_ru
        # An O-DU is sized for the fanout cap when asked to; every other
        # instance carries all O-RUs beneath it.
        if self.provision_to_cap and topology.du_fanout_cap is not None:
            ru_per_du = topology.du_fanout_cap
        else:
            ru_per_du = n_ru / topology.n_du
        nodes, segments = plan.kernel(n_ru, topology.n_du, topology.n_cu, topology.n_dc,
                                      topology.n_users, ru_per_du)
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
