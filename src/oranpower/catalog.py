"""Equipment and server specifications: rated powers, capacities and the built-in defaults.

All capacities are stored in Gbps and all powers in watts. Data volumes use
decimal units (1 GB = 8e9 bits), matching the Gbps convention of the
equipment ratings.
"""

from __future__ import annotations

import functools
import math

from .topology import Record, count_error, is_finite, shown

# Relative tolerance for the cores x per-core-capacity consistency check.
_REL_TOL = 1e-12


class CatalogError(ValueError):
    """An equipment or server spec violates one of its constraints."""


class EquipmentSpec(Record):
    """A transport or radio device, modeled by rated power and capacity.

    The device draws ``rated_power_w`` regardless of load; per-flow power is
    attributed pro rata via the watts-per-Gbps ratio.
    """

    def __init__(self, name: str, rated_power_w: float, capacity_gbps: float):
        for field, value in (("rated_power_w", rated_power_w), ("capacity_gbps", capacity_gbps)):
            if not (is_finite(value) and value > 0):
                raise CatalogError(f"{name}: {field} must be a finite number > 0, "
                                   f"got {shown(value)}")
        if not math.isfinite(rated_power_w / capacity_gbps):
            raise CatalogError(f"{name}: rated_power_w / capacity_gbps must be finite, "
                               f"got {rated_power_w} / {capacity_gbps}")
        self.__dict__.update(name=name, rated_power_w=rated_power_w, capacity_gbps=capacity_gbps)


def energy_per_capacity(spec: EquipmentSpec | ServerSpec) -> float:
    """Watts per Gbps of capacity of one device or server: finite for any valid spec."""
    return spec.rated_power_w / spec.capacity_gbps


class ServerSpec(Record):
    """A baseband-processing server: identical cores, each with its own power and capacity.

    ``server_capacity_gbps`` must equal ``cores * per_core_capacity_gbps``, so
    the server-level watts-per-Gbps ratio equals the per-core ratio. The
    ``rated_power_w`` and ``capacity_gbps`` properties give a server the shape
    of an ``EquipmentSpec``, so the same sizing code serves both.
    """

    def __init__(self, cores: int, per_core_power_w: float, per_core_capacity_gbps: float,
                 server_capacity_gbps: float):
        if error := count_error("cores", cores):
            raise CatalogError(f"server: {error}")
        fields = {"per_core_power_w": per_core_power_w,
                  "per_core_capacity_gbps": per_core_capacity_gbps,
                  "server_capacity_gbps": server_capacity_gbps}
        for field, value in fields.items():
            if not (is_finite(value) and value > 0):
                raise CatalogError(f"server: {field} must be a finite number > 0, "
                                   f"got {shown(value)}")
        expected = cores * per_core_capacity_gbps
        if (not is_finite(expected)
                or abs(server_capacity_gbps - expected) > _REL_TOL * expected):
            raise CatalogError(
                "server: server_capacity_gbps must equal cores * per_core_capacity_gbps "
                f"({cores} * {per_core_capacity_gbps} != {server_capacity_gbps})"
            )
        if not math.isfinite(cores * per_core_power_w / server_capacity_gbps):
            raise CatalogError("server: cores * per_core_power_w / server_capacity_gbps must "
                               f"be finite, got {cores} * {per_core_power_w} / "
                               f"{server_capacity_gbps}")
        self.__dict__.update(cores=cores, per_core_power_w=per_core_power_w,
                             per_core_capacity_gbps=per_core_capacity_gbps,
                             server_capacity_gbps=server_capacity_gbps)

    @property
    def rated_power_w(self) -> float:
        """Rated power of the whole server with every core active."""
        return self.cores * self.per_core_power_w

    @property
    def capacity_gbps(self) -> float:
        """Baseband-processing capacity of the whole server."""
        return self.server_capacity_gbps


class EquipmentCatalog(Record):
    """Full equipment set for one evaluation, plus the UE energy per bit."""

    def __init__(self, radio: EquipmentSpec, access_switch: EquipmentSpec,
                 core_switch: EquipmentSpec, wdm_link: EquipmentSpec, router: EquipmentSpec,
                 edge_server: ServerSpec, dc_server: ServerSpec, ue_energy_j_per_bit: float):
        specs = {"radio": radio, "access_switch": access_switch, "core_switch": core_switch,
                 "wdm_link": wdm_link, "router": router, "edge_server": edge_server,
                 "dc_server": dc_server}
        for field, spec in specs.items():
            kind = ServerSpec if field.endswith("_server") else EquipmentSpec
            if not isinstance(spec, kind):
                raise CatalogError(f"{field} must be of type {kind.__name__}, got {spec!r}")
        if not (is_finite(ue_energy_j_per_bit) and ue_energy_j_per_bit >= 0):
            raise CatalogError("ue_energy_j_per_bit must be a finite number >= 0, "
                               f"got {shown(ue_energy_j_per_bit)}")
        # abs() of a value >= 0 changes only -0.0, stored as 0.0 so no watts print as -0.
        self.__dict__.update(specs, ue_energy_j_per_bit=abs(ue_energy_j_per_bit))


@functools.cache
def default_catalog() -> EquipmentCatalog:
    """Built-in equipment set: commercial transport gear plus edge and DC servers.

    Edge servers (used at O-RU, O-DU, and O-CU) run 4 cores of 6 W for 1 Gbps
    of total capacity; DC servers run 20 cores of 5.5 W for 5 Gbps. The UE
    spends 25 nJ per transmitted bit. The catalog is frozen, so one is shared.
    """
    return EquipmentCatalog(
        radio=EquipmentSpec("radio", 110.0, 22.0),
        access_switch=EquipmentSpec("access_switch", 86.7, 480.0),
        core_switch=EquipmentSpec("core_switch", 3000.0, 25600.0),
        wdm_link=EquipmentSpec("wdm_link", 4265.0, 9600.0),
        router=EquipmentSpec("router", 172.0, 3200.0),
        edge_server=ServerSpec(cores=4, per_core_power_w=6.0,
                               per_core_capacity_gbps=0.25, server_capacity_gbps=1.0),
        dc_server=ServerSpec(cores=20, per_core_power_w=5.5,
                             per_core_capacity_gbps=0.25, server_capacity_gbps=5.0),
        ue_energy_j_per_bit=25e-9,
    )

