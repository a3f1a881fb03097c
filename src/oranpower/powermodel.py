"""Per-user processing and transmission power for a chosen baseband-processing node.

Traffic upstream of the baseband-processing (BBP) node is provisioned
radio-rate eCPRI, attributed per user through the coverage factor of each
node and link; once processed to baseband it is multiplexed packet traffic,
attributed at the plain user data rate with no coverage weighting. Every
evaluation here is a pure function of immutable inputs.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType
from itertools import chain
from typing import Callable, Mapping, Sequence

from .catalog import EquipmentCatalog, EquipmentSpec, ServerSpec, default_catalog, energy_per_capacity
from .topology import (
    LINK_ORDER,
    NODE_ORDER,
    Node,
    Record,
    Segment,
    SegmentParams,
    Topology,
    TopologyError,
    count_error,
    is_finite,
    segment_map,
    shown,
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


class TrafficModel(Record):
    """Per-user demand: mean monthly volume plus the provisioned eCPRI rate per O-RU."""

    def __init__(self, monthly_gb_per_user: float = 10.0, ecpri_per_ru_gbps: float = 11.0):
        fields = {"monthly_gb_per_user": monthly_gb_per_user,
                  "ecpri_per_ru_gbps": ecpri_per_ru_gbps}
        for name, value in fields.items():
            if not (is_finite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {shown(value)}")
            fields[name] = abs(value)  # -0.0 as 0.0, so no watts print as -0
        self.__dict__.update(fields)

    @property
    def user_rate_gbps(self) -> float:
        """Mean user data rate in Gbps for the monthly volume in decimal GB."""
        volume = self.monthly_gb_per_user
        if volume * BITS_PER_GIGABYTE == math.inf:  # above about 2.2e298 GB; the rate fits
            return volume * (BITS_PER_GIGABYTE / SECONDS_PER_MONTH / GBPS_TO_BITS_PER_S)
        return volume * BITS_PER_GIGABYTE / SECONDS_PER_MONTH / GBPS_TO_BITS_PER_S


class ClassPolicy(Record):
    """How one equipment class is sized against load.

    Linear mode attributes power pro rata (load times the device's W/Gbps).
    Quantized mode buys whole units of ``unit_capacity_gbps`` (the device's
    own capacity when ``None``), never fewer than ``minimum_units``.
    """

    def __init__(self, quantized: bool = False, unit_capacity_gbps: float | None = None,
                 minimum_units: int = 0):
        if type(quantized) is not bool:
            raise ValueError(f"quantized must be True or False, got {quantized!r}")
        unit = unit_capacity_gbps
        if unit is not None and not (is_finite(unit) and unit > 0):
            raise ValueError(f"unit_capacity_gbps must be a finite number > 0, got {shown(unit)}")
        if error := count_error("minimum_units", minimum_units, 0):
            raise ValueError(error)
        self.__dict__.update(quantized=quantized, unit_capacity_gbps=unit,
                             minimum_units=minimum_units)

    @classmethod
    def linear(cls) -> "ClassPolicy":
        return cls()

    @classmethod
    def quantize(cls, unit_capacity_gbps: float | None = None, minimum_units: int = 0) -> "ClassPolicy":
        return cls(quantized=True, unit_capacity_gbps=unit_capacity_gbps,
                   minimum_units=minimum_units)


_LINEAR = ClassPolicy()  # frozen, so every default class policy is this one


class ProvisioningPolicy(Record):
    """Per-class sizing modes for servers and the four transport classes."""

    def __init__(self, servers: ClassPolicy = _LINEAR, node_interface: ClassPolicy = _LINEAR,
                 switches: ClassPolicy = _LINEAR, links: ClassPolicy = _LINEAR,
                 routers: ClassPolicy = _LINEAR):
        classes = {"servers": servers, "node_interface": node_interface, "switches": switches,
                   "links": links, "routers": routers}
        for name, policy in classes.items():
            if not isinstance(policy, ClassPolicy):
                raise ValueError(f"{name} must be of type ClassPolicy, got {policy!r}")
        self.__dict__.update(classes)

    @classmethod
    def all_linear(cls) -> "ProvisioningPolicy":
        return cls()

    @classmethod
    def default(cls) -> "ProvisioningPolicy":
        """Whole dedicated servers per node, shared transport sized linearly."""
        return cls(servers=ClassPolicy.quantize())


def provision_units(load_gbps: float, unit_capacity_gbps: float, minimum_units: int = 0) -> float:
    """Units for a load >= 0 in units > 0: max(minimum, ceil(load/unit)), or ``inf`` for a
    count beyond a float, which makes its term's watts infinite and fails the row check."""
    ratio = load_gbps / unit_capacity_gbps
    if ratio == math.inf:
        return ratio
    units = round(ratio)
    distance = abs(ratio - units)
    if not (distance <= _SNAP_UNITS and distance <= _SNAP_ULPS * math.ulp(ratio)):
        units = math.ceil(ratio)
    # max(minimum_units, units), without max's per-call keyword parsing
    return units if units > minimum_units else minimum_units


def _sizing(multiplier: int, spec: EquipmentSpec | ServerSpec,
            policy: ClassPolicy) -> tuple[int, float, float | None, int]:
    """A device's multiplier, W/Gbps ratio, unit (``None`` when linear) and minimum units."""
    ratio = energy_per_capacity(spec)
    if not policy.quantized:
        return multiplier, ratio, None, 0
    unit = policy.unit_capacity_gbps if policy.unit_capacity_gbps is not None else spec.capacity_gbps
    return multiplier, ratio, unit, policy.minimum_units


# The per-instance eCPRI load and the instance count of each tier, by depth.
_LOADS = ("ecpri", "ru_per_du * ecpri", "n_ru / n_cu * ecpri", "n_ru / n_dc * ecpri")
_COUNTS = ("n_ru", "n_du", "n_cu", "n_dc")
# Every term in plan order, the tiers and then the links, with its depth.
_SEGMENTS: tuple[tuple[Segment, int], ...] = tuple(
    (segment, segment.depth) for segment in NODE_ORDER + LINK_ORDER)
# The names of a cell's parts in compiled source: the tiers, the links, then the UE.
_PARTS = ("node0", "node1", "node2", "node3", "link0", "link1", "link2", "ue_watts")
# The 11 per-user figures of a cell, and their CSV columns, in one order.
_WATTS = ("processing", "transmission", "total", *_PARTS)
CSV_COLUMNS = ("p_processing_w", "p_transmission_w", "p_total_w",
               *[f"p_node_{node.value}_w" for node in NODE_ORDER],
               *[f"p_seg_{link.value}_w" for link in LINK_ORDER], "p_ue_w")
# FIGURE renders every watts figure printed. A cell's CSV line: n_ru, the placement, the _WATTS.
FIGURE = "%.6g"
CSV_HEADER = ",".join(("n_ru", "placement", *CSV_COLUMNS))
_CSV_LINE = ",".join(("%s", "%s", *[FIGURE] * len(_WATTS))) + "\n"
# A cell's totals and validity test, as source over _PARTS: the one statement of both, which
# every row loop is compiled from. Each sum is taken left to right from 0.0, as sum() adds
# floats up to Python 3.11; since 3.12 it compensates its rounding, which would move a total
# by an ULP between Pythons. Each part is compared on its own, as min() parses keywords on
# each call; with no part NaN or negative, the total is finite exactly when it is below
# infinity. A cell that fails returns its parts.
_SUMS = ("processing = 0.0 + node0 + node1 + node2 + node3",
         "transmission = ue_watts + (0.0 + link0 + link1 + link2)",
         "total = processing + transmission")
_CHECK = f"""\
if not (node0 >= 0.0 and node1 >= 0.0 and node2 >= 0.0 and node3 >= 0.0 and link0 >= 0.0
        and link1 >= 0.0 and link2 >= 0.0 and ue_watts >= 0.0 and total < math.inf):
    return {', '.join(_PARTS)}
"""


def _compile(source: str, name: str, label: str) -> Callable:
    """The function ``name`` that ``source`` defines, compiled as ``<oranpower label>``."""
    namespace = {}
    # The module's globals, so compiled code calls provision_units by its module name.
    exec(compile(source, f"<oranpower {label}>", "exec"), globals(), namespace)
    return namespace[name]


def _indent(source: str, spaces: int) -> str:
    return "".join(" " * spaces + line + "\n" for line in source.splitlines())


@functools.cache
def _loop_factory(shape: tuple[int, tuple[tuple[bool, ...] | None, ...]], capped: bool,
                  csv: bool) -> Callable:
    """The row-loop factory for plans of one shape, compiled once per process and shared.

    ``shape`` is the BBP depth and, for each term in ``_SEGMENTS`` order, its
    devices' quantized flags, or ``None`` for a term whose watts the plan
    fixed; ``capped`` says whether O-DUs are provisioned to the fanout cap.
    ``loop(counts, n_dus, users_per_ru, cap, n_cu, n_dc, rows)`` prices the
    cells of a tree of ``n_cu`` O-CUs and ``n_dc`` DCs, one for each O-RU
    count and its O-DU count (unread at BBP depth 0), with ``n_ru *
    users_per_ru`` users. A term at or before the BBP node has the watts
    ``s * (count / n_users) * (d1 + d2 + ...)``: its tier's count, and each
    device's ``multiplier * sized(load)`` summed left to right. The loop
    then takes the totals of ``_SUMS`` and the check of ``_CHECK`` and
    appends each row to ``rows``: ``(n_ru, placement, <the 11 _WATTS>)``, or
    with ``csv`` the row's CSV line, figures to 6 significant digits. At a
    cell that fails the check it returns the cell's ``_PARTS``: that is the
    one way a cell fails, a unit count beyond a float included.

    Before its first cell a loop prices, with the one-O-RU cell's
    expressions, what else cannot change between cells: each depth-0 term,
    as n_ru / n_users rounds to 1 / users_per_ru at every count, and, when
    capped, the O-DU load and each depth-1 device sum; then each total that
    reads no figure priced per cell, and with ``csv`` the line that holds
    every such figure already rendered. Every value of a config reaches the
    loop as a factory argument, and every value of a tree as a loop
    argument; the source holds only fixed names and small integers.
    """
    bbp, flags = shape
    # The deepest tier whose device sums are priced once: O-DUs provisioned to the cap carry
    # the cap's load at every count.
    hoisted = 1 if capped else 0
    once = ["n_ru = n_du = 1", "n_users = users_per_ru"]
    each = []
    if bbp:
        each.append("n_users = n_ru * users_per_ru")
        (once if hoisted else each).extend(
            ["ru_per_du = cap" if capped else "ru_per_du = n_ru / n_du", f"load1 = {_LOADS[1]}"])
        each += [f"load{depth} = {_LOADS[depth]}" for depth in range(2, bbp + 1)]
    records, after = [], []
    for (_, depth), name, quantized in zip(_SEGMENTS, _PARTS, flags):
        if quantized is None:
            after.append(f"{name}, ")
            continue
        i = len(records)
        load = f"load{depth}" if depth else "ecpri"
        fields, devices = [], []
        for j, unit_sized in enumerate(quantized):
            m, r, u, k = (f"{letter}{i}_{j}" for letter in "mruk")
            fields.append(f"({m}, {r}, {u}, {k}), ")
            devices.append(f"{m} * (provision_units({load}, {u}, {k}) * {r} * {u})"
                           if unit_sized else f"{m} * ({r} * {load})")
        records.append(f"(s{i}, _, ({''.join(fields)})), ")
        factor, devices = f"s{i} * ({_COUNTS[depth]} / n_users) * ", f"({' + '.join(devices)})"
        if depth > hoisted:
            each.append(f"{name} = {factor}{devices}")
        elif depth:
            once.append(f"{name}_devices = {devices}")
            each.append(f"{name} = {factor}{name}_devices")
        else:
            once.append(f"{name} = {factor}{devices}")
    # A total is priced per cell when it reads a figure that is.
    varying = {statement.partition(" = ")[0] for statement in each}
    for statement in _SUMS:
        name, _, expression = statement.partition(" = ")
        if varying.isdisjoint(compile(expression, "<sum>", "eval").co_names):
            once.append(statement)
        else:
            each.append(statement)
            varying.add(name)
    if csv:  # the figures priced once are rendered once, into the line each row fills in
        figures = "".join(f'"{FIGURE}", ' if name in varying else f'"{FIGURE}" % {name}, '
                          for name in _WATTS)
        once.append(f'line = ",".join(("%s", placement.value, {figures})) + "\\n"')
        row = f"line % (n_ru, {''.join(name + ', ' for name in _WATTS if name in varying)})"
    else:
        row = f"(n_ru, placement, ({', '.join(_WATTS)}))"
    return _compile(
        "def factory(ecpri, terms, after, ue_watts, placement):\n"
        f"    ({''.join(records)}) = terms\n"
        f"    ({''.join(after)}) = after\n"
        "    def loop(counts, n_dus, users_per_ru, cap, n_cu, n_dc, rows):\n"
        "        append = rows.append\n"
        + _indent("\n".join(once), 8)
        + ("        for n_ru, n_du in zip(counts, n_dus):\n" if bbp else
           "        for n_ru in counts:\n")
        + _indent("\n".join(each), 12)
        + _indent(_CHECK, 12)
        + f"            append({row})\n"
        "    return loop\n", "factory", f"row loop {shape} {capped} {csv}")


def segment_branch(segment: Segment, placement: Node) -> str:
    """Where a tier or link sits: ``"before"``, ``"bbp"`` or ``"after"`` BBP node ``placement``.

    Link i ends in tier i + 1, so it is before the BBP node, and carries
    eCPRI, while tier i + 1 is at or before it.
    """
    depth, bbp = segment.depth, placement.depth
    if depth < bbp:
        return "before"
    return "bbp" if depth == bbp and isinstance(segment, Node) else "after"


class PowerBreakdown(Record):
    """Per-user power of one BBP placement, split by node tier, link, and UE.

    ``nodes`` holds one watts figure per tier in NODE_ORDER and ``segments``
    one per link in LINK_ORDER. Only ``ModelConfig.evaluate`` builds one, from
    a row that passed ``_CHECK``: every part is >= 0, the total is finite, and
    the totals are those of ``_SUMS``, so P_T = P_pr + P_tr holds exactly.
    Its fields are ``placement``, ``nodes``, ``segments``, ``ue_watts``,
    ``processing_watts``, ``transmission_watts`` and ``total_watts``.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("only ModelConfig.evaluate builds a PowerBreakdown")

    def node_watts(self, node: Node) -> float:
        return self.nodes[node.depth]

    def csv_line(self, n_ru: int) -> str:
        """The cell's CSV line at ``n_ru`` O-RUs, byte for byte as a csv row loop renders it."""
        return _CSV_LINE % (n_ru, self.placement.value, self.processing_watts,
                            self.transmission_watts, self.total_watts, *self.nodes,
                            *self.segments, self.ue_watts)


class ModelConfig(Record):
    """Everything an evaluation needs except the topology and BBP placement.

    ``params`` must hold the ``SegmentParams`` of every tier and link, each
    under its own segment, and is stored as a read-only copy. The config
    holds nothing else: each row loop is bound again whenever one is asked for.
    """

    def __init__(self, catalog: EquipmentCatalog, params: Mapping[Segment, SegmentParams],
                 traffic: TrafficModel, policy: ProvisioningPolicy, provision_to_cap: bool = True):
        for name, value, kind in zip(("catalog", "traffic", "policy"), (catalog, traffic, policy),
                                     (EquipmentCatalog, TrafficModel, ProvisioningPolicy)):
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
        if type(provision_to_cap) is not bool:
            raise ValueError(f"provision_to_cap must be True or False, got {provision_to_cap!r}")
        params = dict(params)
        # Each term reads its own segment's entry, so each must be there, under its own key.
        for segment, _ in _SEGMENTS:
            if getattr(params.get(segment), "segment", None) is not segment:
                raise TopologyError(f"params[{segment.value}] must be the SegmentParams of "
                                    f"{segment.value}, got {params.get(segment)!r}")
        if len(params) != len(_SEGMENTS):
            unknown = [key for key in params if key not in NODE_ORDER + LINK_ORDER]
            raise TopologyError(f"params holds unknown segments: {unknown!r}")
        self.__dict__.update(catalog=catalog, params=MappingProxyType(params), traffic=traffic,
                             policy=policy, provision_to_cap=provision_to_cap)

    def __reduce__(self):
        # Copies and pickles are rebuilt through __init__: a mappingproxy cannot be pickled.
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

    def _plan(self, placement: Node) -> tuple:
        """The topology-independent factors of every term for the BBP node ``placement``: the
        terms priced per cell, the other terms' watts, the UE watts and the plan's shape.

        One walk over ``_SEGMENTS`` sizes each term's devices once, with
        ``_sizing``: tier i's chassis, with the servers at the BBP node, and
        link i's switches, WDM links and routers, its switch being tier i + 1's
        chassis. A tier or link before the BBP node, and the BBP tier, carries
        one instance's provisioned eCPRI, weighted by the coverage factor: it
        becomes a ``(scale, depth, devices)`` term, which the row loop prices
        per cell, and its devices' quantized flags go into the shape. Every
        other term carries the per-user baseband rate with no coverage
        weighting, so its watts are fixed here from the same rows, and its
        flags are ``None``.
        """
        if type(placement) is not Node:
            raise ValueError(f"unknown BBP placement: {placement!r}")
        bbp = placement.depth
        catalog, params, policy = self.catalog, self.params, self.policy
        user_rate = self.traffic.user_rate_gbps
        chassis = (catalog.radio, catalog.access_switch, catalog.core_switch, catalog.core_switch)
        server = catalog.dc_server if placement is Node.DC else catalog.edge_server

        terms, after, flags = [], [], []
        for segment, depth in _SEGMENTS:
            seg = params[segment]
            if type(segment) is Node:
                devices = [_sizing(1, chassis[depth], policy.node_interface)]
                if segment is placement:
                    devices.append(_sizing(1, server, policy.servers))
            else:
                devices = [_sizing(seg.hops_switch + 1, chassis[depth + 1], policy.switches),
                           _sizing(seg.hops_wdm + 1, catalog.wdm_link, policy.links)]
                # Routers sit on a link where gamma = 1; elsewhere their multiplier
                # gamma * (hops_router + 1) is 0, which adds exactly 0.0, so they are left out.
                if seg.gamma:
                    devices.append(_sizing(seg.hops_router + 1, catalog.router, policy.routers))
            scale = seg.alpha * seg.sigma
            if depth < bbp or segment is placement:
                terms.append((scale, depth, tuple(devices)))
                flags.append(tuple(unit is not None for _, _, unit, _ in devices))
            else:
                watts_per_gbps = 0.0
                for multiplier, ratio, _, _ in devices:
                    watts_per_gbps += multiplier * ratio
                after.append(scale * user_rate * watts_per_gbps)
                flags.append(None)

        bits_per_s = user_rate * GBPS_TO_BITS_PER_S
        ue_watts = (bits_per_s * catalog.ue_energy_j_per_bit if bits_per_s < math.inf
                    else user_rate * (GBPS_TO_BITS_PER_S * catalog.ue_energy_j_per_bit))
        return tuple(terms), tuple(after), ue_watts, (bbp, tuple(flags))

    def _loop(self, placement: Node, has_cap: bool, csv: bool) -> Callable:
        """The row loop (see ``_loop_factory``) of this config for ``placement``, for trees with
        a fanout cap or without one, bound to a new plan on each call."""
        terms, after, ue_watts, shape = self._plan(placement)
        return _loop_factory(shape, self.provision_to_cap and has_cap, csv)(
            self.traffic.ecpri_per_ru_gbps, terms, after, ue_watts, placement)

    def evaluate(self, topology: Topology, placement: Node) -> PowerBreakdown:
        """Per-user breakdown of ``topology`` with baseband processing at ``placement``, priced
        by ``run_loops``; a cell that fails the row check raises its ``PowerOverflowError``."""
        cap = topology.du_fanout_cap
        rows, error = run_loops(
            [self._loop(placement, cap is not None, False)], [placement], (topology.n_ru,),
            (topology.n_du,), topology.users_per_ru, cap, topology.n_cu, topology.n_dc)
        if error:
            raise error
        watts = rows[0][2]
        breakdown = object.__new__(PowerBreakdown)
        breakdown.__dict__.update(
            placement=placement, nodes=watts[3:7], segments=watts[7:10], ue_watts=watts[10],
            processing_watts=watts[0], transmission_watts=watts[1], total_watts=watts[2])
        return breakdown


def run_loops(loops: Sequence[Callable], placements: Sequence[Node], counts: Sequence[int],
              n_dus: Sequence[int], users_per_ru: int, cap: int | None, n_cu: int, n_dc: int
              ) -> tuple[list, PowerOverflowError | None]:
    """Price one tree's O-RU ``counts``, each with its O-DU count, through the bound row loop
    of each of ``placements``, in depth order: the rows in (n_ru, depth) order up to the first
    cell that fails its row check, and that cell's error, or ``None``. Every cell is priced here."""
    done = [[] for _ in loops]
    parts = [loop(counts, n_dus, users_per_ru, cap, n_cu, n_dc, rows)
             for loop, rows in zip(loops, done)]
    stop = min(map(len, done), default=len(counts))  # no loop stops: no rows, no error
    rows = [*chain.from_iterable(zip(*done))]  # every row of the counts before `stop`
    if stop == len(counts):
        return rows, None
    stopped = [len(placed) for placed in done].index(stop)  # the first placement to stop there
    rows += [placed[stop] for placed in done[:stopped]]
    # As no part is negative, a part rejected as NaN (an infinite factor times zero) or an
    # infinite total has overflowed.
    names = [segment.value for segment, _ in _SEGMENTS] + ["ue"]
    return rows, PowerOverflowError(
        f"per-user power with BBP at {placements[stopped].value} and n_ru={counts[stop]} "
        "overflows a float: "
        + ", ".join(f"{name} = {watts:.6g}" for name, watts in zip(names, parts[stopped])))
