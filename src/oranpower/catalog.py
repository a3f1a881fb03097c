"""Equipment and server specifications: rated powers, capacities, defaults, config I/O.

All capacities are stored in Gbps and all powers in watts. Data volumes use
decimal units (1 GB = 8e9 bits), matching the Gbps convention of the
equipment ratings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

from .configfile import ConfigEntry, ConfigError, float_value, int_value, parse_config_text

# Relative tolerance for the cores x per-core-capacity consistency check.
_REL_TOL = 1e-12


class CatalogError(ValueError):
    """An equipment or server spec violates one of its constraints."""


@dataclass(frozen=True)
class EquipmentSpec:
    """A transport or radio device, modeled by rated power and capacity.

    The device draws ``rated_power_w`` regardless of load; per-flow power is
    attributed pro rata via the watts-per-Gbps ratio.
    """

    name: str
    rated_power_w: float
    capacity_gbps: float

    def __post_init__(self):
        for field in ("rated_power_w", "capacity_gbps"):
            value = getattr(self, field)
            if not (math.isfinite(value) and value > 0):
                raise CatalogError(f"{self.name}: {field} must be a finite number > 0, got {value}")
        if not math.isfinite(self.rated_power_w / self.capacity_gbps):
            raise CatalogError(f"{self.name}: rated_power_w / capacity_gbps must be finite, "
                               f"got {self.rated_power_w} / {self.capacity_gbps}")


def energy_per_capacity(spec: EquipmentSpec | ServerSpec) -> float:
    """Watts drawn per Gbps of provisioned capacity for one device or server."""
    if spec.capacity_gbps <= 0:
        raise CatalogError(
            f"capacity must be positive to form a W/Gbps ratio, got {spec.capacity_gbps}")
    return spec.rated_power_w / spec.capacity_gbps


@dataclass(frozen=True)
class ServerSpec:
    """A baseband-processing server: identical cores, each with its own power and capacity.

    ``server_capacity_gbps`` must equal ``cores * per_core_capacity_gbps``, so
    the server-level watts-per-Gbps ratio equals the per-core ratio. The
    ``rated_power_w`` and ``capacity_gbps`` properties give a server the shape
    of an ``EquipmentSpec``, so the same sizing code serves both.
    """

    cores: int
    per_core_power_w: float
    per_core_capacity_gbps: float
    server_capacity_gbps: float

    def __post_init__(self):
        if not (isinstance(self.cores, int) and self.cores >= 1):
            raise CatalogError(f"server: cores must be an integer >= 1, got {self.cores}")
        for field in ("per_core_power_w", "per_core_capacity_gbps", "server_capacity_gbps"):
            value = getattr(self, field)
            if not (math.isfinite(value) and value > 0):
                raise CatalogError(f"server: {field} must be a finite number > 0, got {value}")
        expected = self.cores * self.per_core_capacity_gbps
        if (not math.isfinite(expected)
                or abs(self.server_capacity_gbps - expected) > _REL_TOL * expected):
            raise CatalogError(
                "server: server_capacity_gbps must equal cores * per_core_capacity_gbps "
                f"({self.cores} * {self.per_core_capacity_gbps} != {self.server_capacity_gbps})"
            )
        if not math.isfinite(self.rated_power_w / self.capacity_gbps):
            raise CatalogError("server: cores * per_core_power_w / server_capacity_gbps must be "
                               f"finite, got {self.cores} * {self.per_core_power_w} / "
                               f"{self.server_capacity_gbps}")

    @property
    def rated_power_w(self) -> float:
        """Rated power of the whole server with every core active."""
        return self.cores * self.per_core_power_w

    @property
    def capacity_gbps(self) -> float:
        """Baseband-processing capacity of the whole server."""
        return self.server_capacity_gbps


@dataclass(frozen=True)
class EquipmentCatalog:
    """Full equipment set for one evaluation, plus the UE energy per bit."""

    radio: EquipmentSpec
    access_switch: EquipmentSpec
    core_switch: EquipmentSpec
    wdm_link: EquipmentSpec
    router: EquipmentSpec
    edge_server: ServerSpec
    dc_server: ServerSpec
    ue_energy_j_per_bit: float

    def __post_init__(self):
        if not (math.isfinite(self.ue_energy_j_per_bit) and self.ue_energy_j_per_bit >= 0):
            raise CatalogError(
                f"ue_energy_j_per_bit must be a finite number >= 0, got {self.ue_energy_j_per_bit}"
            )


def default_catalog() -> EquipmentCatalog:
    """Built-in equipment set: commercial transport gear plus edge and DC servers.

    Edge servers (used at O-RU, O-DU, and O-CU) run 4 cores of 6 W for 1 Gbps
    of total capacity; DC servers run 20 cores of 5.5 W for 5 Gbps. The UE
    spends 25 nJ per transmitted bit.
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


_EQUIPMENT_SECTIONS = ("router", "core_switch", "access_switch", "wdm_link", "radio")
_EQUIPMENT_KEYS = ("power_w", "capacity_gbps")
_SERVER_SECTIONS = ("edge_server", "dc_server")
_SERVER_KEYS = ("cores", "per_core_power_w", "per_core_capacity_gbps", "server_capacity_gbps")
_UE_KEY = "ue.energy_nj_per_bit"

CATALOG_KEYS = frozenset(
    [f"{sec}.{key}" for sec in _EQUIPMENT_SECTIONS for key in _EQUIPMENT_KEYS]
    + [f"{sec}.{key}" for sec in _SERVER_SECTIONS for key in _SERVER_KEYS]
    + [_UE_KEY]
)


def _replaced(spec, updates: dict, section: str, entries: Mapping[str, ConfigEntry]):
    """``replace(spec, **updates)``; a rejected value names the section's config keys."""
    try:
        return replace(spec, **updates)
    except CatalogError as exc:
        where = "; ".join(f"line {entry.lineno}: {key} = {entry.value}"
                          for key, entry in entries.items() if key.startswith(section + "."))
        raise CatalogError(f"{where}: {exc}") from None


def catalog_from_entries(entries: Mapping[str, ConfigEntry]) -> EquipmentCatalog:
    """Build a catalog from parsed config entries; absent keys keep defaults."""
    for key in entries:
        if key not in CATALOG_KEYS:
            raise ConfigError(f"unknown catalog key {key!r}")
    catalog = default_catalog()

    for section in _EQUIPMENT_SECTIONS:
        spec: EquipmentSpec = getattr(catalog, section)
        updates = {}
        entry = entries.get(f"{section}.power_w")
        if entry is not None:
            updates["rated_power_w"] = float_value(f"{section}.power_w", entry)
        entry = entries.get(f"{section}.capacity_gbps")
        if entry is not None:
            updates["capacity_gbps"] = float_value(f"{section}.capacity_gbps", entry)
        if updates:
            catalog = replace(catalog, **{section: _replaced(spec, updates, section, entries)})

    for section in _SERVER_SECTIONS:
        server: ServerSpec = getattr(catalog, section)
        updates = {}
        entry = entries.get(f"{section}.cores")
        if entry is not None:
            updates["cores"] = int_value(f"{section}.cores", entry)
        for field in ("per_core_power_w", "per_core_capacity_gbps", "server_capacity_gbps"):
            entry = entries.get(f"{section}.{field}")
            if entry is not None:
                updates[field] = float_value(f"{section}.{field}", entry)
        if updates:
            catalog = replace(catalog, **{section: _replaced(server, updates, section, entries)})

    entry = entries.get(_UE_KEY)
    if entry is not None:
        catalog = _replaced(catalog, {"ue_energy_j_per_bit": float_value(_UE_KEY, entry) * 1e-9},
                            "ue", entries)
    return catalog


def load_catalog(config_text: str) -> EquipmentCatalog:
    """Parse catalog config text and return the defaults with overrides applied.

    Every key present overrides the matching default; unknown keys and
    non-numeric values are rejected, and the resulting catalog is re-validated.
    """
    return catalog_from_entries(parse_config_text(config_text))


def dump_catalog(catalog: EquipmentCatalog) -> str:
    """Serialize a catalog to config text that ``load_catalog`` accepts."""
    lines = []
    for section in _EQUIPMENT_SECTIONS:
        spec: EquipmentSpec = getattr(catalog, section)
        lines.append(f"{section}.power_w = {spec.rated_power_w!r}")
        lines.append(f"{section}.capacity_gbps = {spec.capacity_gbps!r}")
    for section in _SERVER_SECTIONS:
        server: ServerSpec = getattr(catalog, section)
        lines.append(f"{section}.cores = {server.cores}")
        lines.append(f"{section}.per_core_power_w = {server.per_core_power_w!r}")
        lines.append(f"{section}.per_core_capacity_gbps = {server.per_core_capacity_gbps!r}")
        lines.append(f"{section}.server_capacity_gbps = {server.server_capacity_gbps!r}")
    lines.append(f"{_UE_KEY} = {catalog.ue_energy_j_per_bit * 1e9!r}")
    return "\n".join(lines) + "\n"
