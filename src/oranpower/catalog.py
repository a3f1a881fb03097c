"""Equipment and server specifications: rated powers, capacities, defaults, config I/O.

All capacities are stored in Gbps and all powers in watts. Data volumes use
decimal units (1 GB = 8e9 bits), matching the Gbps convention of the
equipment ratings.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

from .configfile import CONFIG_KEYS, NJ_PER_J, SPEC_SECTIONS, apply_entries, parse_config_text
from .topology import MAX_COUNT

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
        if not (isinstance(self.cores, int) and 1 <= self.cores <= MAX_COUNT):
            raise CatalogError(f"server: cores must be an integer >= 1 and <= 2**53, "
                               f"got {self.cores}")
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


def catalog_sections(catalog: EquipmentCatalog) -> dict[str, object]:
    """The catalog's config sections: each spec by name, and ``ue`` for the catalog itself."""
    return {"ue": catalog, **{name: getattr(catalog, name) for name in SPEC_SECTIONS}}


def catalog_from_sections(sections: Mapping[str, object]) -> EquipmentCatalog:
    """Reassemble sections laid out as by ``catalog_sections``: the ``ue`` catalog with each spec."""
    return EquipmentCatalog(**{name: sections[name] for name in SPEC_SECTIONS},
                            ue_energy_j_per_bit=sections["ue"].ue_energy_j_per_bit)


def load_catalog(config_text: str) -> EquipmentCatalog:
    """Parse catalog config text and return the defaults with overrides applied.

    Every key present overrides the matching default; unknown keys and
    non-numeric values are rejected, and the resulting catalog is re-validated.
    """
    entries = parse_config_text(config_text)
    return catalog_from_sections(apply_entries(entries, catalog_sections(default_catalog())))


def dump_catalog(catalog: EquipmentCatalog) -> str:
    """Serialize a catalog to config text that ``load_catalog`` accepts."""
    sections = catalog_sections(catalog)
    lines = []
    for key, (section, field, _) in CONFIG_KEYS.items():
        if section in sections:
            value = getattr(sections[section], field)
            lines.append(f"{key} = {value * NJ_PER_J if section == 'ue' else value!r}")
    return "\n".join(lines) + "\n"
