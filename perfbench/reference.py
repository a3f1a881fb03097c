"""The benchmark's own reference for per-user power, independent of the package.

Written from the model as README.md describes it and imports nothing from
``oranpower``. Per-user watts are a sum of terms σ·α·ρ·W over the four node
tiers and the three transport segments, plus the UE term:

- σ is a segment's overhead factor and α its overprovisioning factor.
- ρ is the instance count of the segment's coverage node over the user count.
- W is the watts one instance draws for its provisioned eCPRI load: the
  load times the device's W/Gbps ratio (linear), or whole units of capacity
  times the ratio (quantized).

Upstream of the baseband-processing (BBP) node, traffic is radio-rate eCPRI
(11 Gbps per O-RU); the BBP node adds its servers. Downstream, each user
pays σ·α times its own mean rate times the W/Gbps ratios, with no ρ.

Quantized unit counts are exact ceilings over rationals, so the reference
does not share the package's floating-point guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

NODES = ("oru", "odu", "ocu", "dc")
LINKS = ("fronthaul", "midhaul", "backhaul")
DEPTH = {node: depth for depth, node in enumerate(NODES)}

SECONDS_PER_MONTH = 30 * 24 * 3600
BITS_PER_GB = 8e9
ECPRI_PER_RU_GBPS = 11.0
MONTHLY_GB_PER_USER = 10.0

# (rated power W, capacity Gbps)
DEFAULT_EQUIPMENT = {
    "radio": (110.0, 22.0),
    "access_switch": (86.7, 480.0),
    "core_switch": (3000.0, 25600.0),
    "wdm_link": (4265.0, 9600.0),
    "router": (172.0, 3200.0),
}
# (cores, per-core power W, per-core capacity Gbps, server capacity Gbps)
DEFAULT_SERVERS = {
    "edge_server": (4, 6.0, 0.25, 1.0),
    "dc_server": (20, 5.5, 0.25, 5.0),
}
DEFAULT_UE_NJ_PER_BIT = 25.0
# (sigma, alpha)
DEFAULT_SIGMA_ALPHA = {
    "oru": (1.0, 5.0), "odu": (2.0, 5.0), "ocu": (2.0, 5.0), "dc": (1.5, 1.3),
    "fronthaul": (2.0, 5.0), "midhaul": (2.0, 5.0), "backhaul": (1.5, 2.0),
}
COVERAGE_NODE = {
    "oru": "oru", "odu": "odu", "ocu": "ocu", "dc": "dc",
    "fronthaul": "oru", "midhaul": "odu", "backhaul": "ocu",
}
INTERFACE = {"oru": "radio", "odu": "access_switch", "ocu": "core_switch", "dc": "core_switch"}
SERVER = {"oru": "edge_server", "odu": "edge_server", "ocu": "edge_server", "dc": "dc_server"}
SWITCH = {"fronthaul": "access_switch", "midhaul": "core_switch", "backhaul": "core_switch"}
LINK_LOAD_NODE = {"fronthaul": "oru", "midhaul": "odu", "backhaul": "ocu"}
LINK_DOWNSTREAM = {"fronthaul": "odu", "midhaul": "ocu", "backhaul": "dc"}
ROUTER_GAMMA = {"fronthaul": 0, "midhaul": 0, "backhaul": 1}
# O-DU / O-CU / DC fanouts of the built-in cases.
FANOUT_CASES = {
    "C-1": (1, 1, 1), "C-2": (1, 10, 1), "C-3": (1, 1, 10), "C-4": (10, 1, 1), "C-5": (2, 2, 2),
}
POLICY_CLASSES = ("servers", "node_interface", "switches", "links", "routers")


@dataclass(frozen=True)
class Sizing:
    """One equipment class's sizing: linear, or whole units with a floor."""

    quantized: bool = False
    unit_capacity_gbps: float | None = None
    minimum_units: int = 0


@dataclass(frozen=True)
class Topo:
    n_ru: int
    n_du: int
    n_cu: int
    n_dc: int
    users_per_ru: int
    du_fanout_cap: float | None

    @property
    def n_users(self) -> int:
        return self.n_ru * self.users_per_ru

    def count(self, node: str) -> int:
        return {"oru": self.n_ru, "odu": self.n_du, "ocu": self.n_cu, "dc": self.n_dc}[node]


def sweep_topo(n_ru: int, users_per_ru: int, du_fanout_cap: int) -> Topo:
    """One O-DU per ``du_fanout_cap`` O-RUs, one O-CU, one DC."""
    return Topo(n_ru, -(-n_ru // du_fanout_cap), 1, 1, users_per_ru, du_fanout_cap)


def fanout_topo(case: str, n_ru: int, users_per_ru: int) -> Topo:
    du, cu, dc = FANOUT_CASES[case]
    n_du = n_ru // du
    n_cu = n_du // cu
    n_dc = n_cu // dc
    if n_du * du != n_ru or n_cu * cu != n_du or n_dc * dc != n_cu or n_dc < 1:
        raise ValueError(f"{case}: {n_ru} O-RUs do not divide by its fanouts")
    return Topo(n_ru, n_du, n_cu, n_dc, users_per_ru, du)


@dataclass
class Model:
    """Equipment, segment factors and sizing: everything but topology and placement."""

    equipment: dict = field(default_factory=lambda: dict(DEFAULT_EQUIPMENT))
    servers: dict = field(default_factory=lambda: dict(DEFAULT_SERVERS))
    ue_nj_per_bit: float = DEFAULT_UE_NJ_PER_BIT
    sigma_alpha: dict = field(default_factory=lambda: dict(DEFAULT_SIGMA_ALPHA))
    # link -> (hops_switch, hops_wdm, hops_router)
    hops: dict = field(default_factory=lambda: {link: (0, 0, 0) for link in LINKS})
    sizing: dict = field(default_factory=lambda: {name: Sizing() for name in POLICY_CLASSES})
    provision_to_cap: bool = True


@dataclass(frozen=True)
class Result:
    """Per-user watts by node tier, segment and UE, with totals."""

    nodes: dict
    branches: dict
    segments: dict
    ecpri_segments: dict
    ue: float

    @property
    def processing(self) -> float:
        return sum(self.nodes.values())

    @property
    def transmission(self) -> float:
        return self.ue + sum(self.segments.values())

    @property
    def total(self) -> float:
        return self.processing + self.transmission


def user_rate_gbps() -> float:
    return MONTHLY_GB_PER_USER * BITS_PER_GB / SECONDS_PER_MONTH / 1e9


def _load(model: Model, topo: Topo, node: str) -> Fraction:
    """Exact per-instance eCPRI load of a node tier, in Gbps."""
    ecpri = Fraction(ECPRI_PER_RU_GBPS)
    if node == "oru":
        return ecpri
    if node == "odu" and model.provision_to_cap and topo.du_fanout_cap is not None:
        return Fraction(topo.du_fanout_cap) * ecpri
    return Fraction(topo.n_ru, topo.count(node)) * ecpri


def _sized_watts(load: Fraction, power_w: float, capacity_gbps: float, sizing: Sizing) -> float:
    ratio = power_w / capacity_gbps
    if not sizing.quantized:
        return float(load) * ratio
    unit = sizing.unit_capacity_gbps if sizing.unit_capacity_gbps is not None else capacity_gbps
    units = max(sizing.minimum_units, math.ceil(load / Fraction(unit)))
    return units * ratio * unit


def per_user(model: Model, topo: Topo, placement: str) -> Result:
    """Per-user watts for a BBP placement, term by term."""
    bbp = DEPTH[placement]
    rate = user_rate_gbps()
    n_users = topo.n_users
    nodes, branches = {}, {}
    for node in NODES:
        sigma, alpha = model.sigma_alpha[node]
        power_w, capacity = model.equipment[INTERFACE[node]]
        if DEPTH[node] > bbp:
            branches[node] = "after"
            nodes[node] = sigma * alpha * rate * power_w / capacity
            continue
        branches[node] = "bbp" if DEPTH[node] == bbp else "before"
        load = _load(model, topo, node)
        watts = _sized_watts(load, power_w, capacity, model.sizing["node_interface"])
        if DEPTH[node] == bbp:
            cores, core_w, _, server_capacity = model.servers[SERVER[node]]
            watts += _sized_watts(load, cores * core_w, server_capacity, model.sizing["servers"])
        rho = topo.count(COVERAGE_NODE[node]) / n_users
        nodes[node] = sigma * alpha * rho * watts

    segments, ecpri_segments = {}, {}
    for link in LINKS:
        sigma, alpha = model.sigma_alpha[link]
        hops_switch, hops_wdm, hops_router = model.hops[link]
        devices = (
            (hops_switch + 1, model.equipment[SWITCH[link]], model.sizing["switches"]),
            (hops_wdm + 1, model.equipment["wdm_link"], model.sizing["links"]),
            (ROUTER_GAMMA[link] * (hops_router + 1), model.equipment["router"],
             model.sizing["routers"]),
        )
        ecpri = DEPTH[LINK_DOWNSTREAM[link]] <= bbp
        ecpri_segments[link] = ecpri
        if ecpri:
            load = _load(model, topo, LINK_LOAD_NODE[link])
            rho = topo.count(COVERAGE_NODE[link]) / n_users
            per_instance = sum(count * _sized_watts(load, power_w, capacity, sizing)
                               for count, (power_w, capacity), sizing in devices)
            segments[link] = sigma * alpha * rho * per_instance
        else:
            bracket = sum(count * power_w / capacity for count, (power_w, capacity), _ in devices)
            segments[link] = sigma * alpha * rate * bracket
    ue = rate * 1e9 * model.ue_nj_per_bit * 1e-9
    return Result(nodes, branches, segments, ecpri_segments, ue)
