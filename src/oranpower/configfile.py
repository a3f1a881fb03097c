"""Flat ``section.key = value`` config files: the parser and the one table of accepted keys."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping

from .topology import LINK_ORDER, MAX_COUNT, NODE_ORDER


class ConfigError(ValueError):
    """Malformed config text, an unknown key, or a value its key cannot take."""


@dataclass(frozen=True)
class ConfigEntry:
    value: str
    lineno: int


def parse_config_text(text: str) -> dict[str, ConfigEntry]:
    """Parse UTF-8 key-value config text into ``{key: ConfigEntry}``.

    One ``section.key = value`` per line; ``#`` starts a comment; blank
    lines are skipped; whitespace around ``=`` is ignored. A key given twice
    is an error that names both lines.
    """
    entries: dict[str, ConfigEntry] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or "." not in key:
            raise ConfigError(f"line {lineno}: key must look like 'section.key', got {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}, "
                              f"already set on line {entries[key].lineno}")
        entries[key] = ConfigEntry(value=value, lineno=lineno)
    return entries


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError("not a number") from None


def _int(text: str) -> int:
    """An integer literal exactly; else a number without a fraction, such as ``4.0`` or ``1e3``."""
    try:
        return int(text)
    except ValueError:
        pass
    number = _float(text)
    if not number.is_integer():
        raise ConfigError("not an integer")
    return int(number)


def _count(text: str) -> int:
    count = _int(text)
    if not 1 <= count <= MAX_COUNT:
        raise ConfigError("must be an integer >= 1 and <= 2**53")
    return count


# ue.energy_nj_per_bit is written in nJ per bit and stored in J per bit.
NJ_PER_J = 1e9


def _nanojoules(text: str) -> float:
    return _float(text) * 1e-9


_EQUIPMENT = ("router", "core_switch", "access_switch", "wdm_link", "radio")
_SERVERS = ("edge_server", "dc_server")
SPEC_SECTIONS = _EQUIPMENT + _SERVERS

# Every accepted key: (section, dataclass field, reader). Sections are the
# seven catalog specs, ``ue`` (the catalog's own field), the seven segments
# (keyed by their Node or Link) and ``topology``. Hop counts exist only for
# links, the only segments whose terms use them.
CONFIG_KEYS: dict[str, tuple[Any, str, Callable[[str], Any]]] = {
    **{f"{section}.{key}": (section, field, _float) for section in _EQUIPMENT
       for key, field in (("power_w", "rated_power_w"), ("capacity_gbps", "capacity_gbps"))},
    **{f"{section}.{field}": (section, field, _int if field == "cores" else _float)
       for section in _SERVERS
       for field in ("cores", "per_core_power_w", "per_core_capacity_gbps",
                     "server_capacity_gbps")},
    "ue.energy_nj_per_bit": ("ue", "ue_energy_j_per_bit", _nanojoules),
    **{f"segment.{segment.value}.{field}": (segment, field, _float)
       for segment in NODE_ORDER + LINK_ORDER for field in ("sigma", "alpha")},
    **{f"segment.{link.value}.{field}": (link, field, _int)
       for link in LINK_ORDER for field in ("hops_switch", "hops_wdm", "hops_router")},
    **{f"topology.{field}": ("topology", field, _count)
       for field in ("n_ru", "users_per_ru", "du_fanout_cap")},
}


def _where(entries: Mapping[str, ConfigEntry]) -> str:
    return "; ".join(f"line {entry.lineno}: {key} = {entry.value}" for key, entry in entries.items())


def apply_entries(entries: Mapping[str, ConfigEntry], sections: Mapping[Any, Any]) -> dict[Any, Any]:
    """Apply config entries to ``sections``, a map from section to dataclass value.

    Each entry is read by its ``CONFIG_KEYS`` reader and applied to its
    section with ``dataclasses.replace``, so the section's own checks run. A
    key whose section is not in ``sections`` is unknown here. Every error
    names its key and line: a value that cannot be read is a ``ConfigError``,
    and a section's rejection keeps its type, prefixed with that section's
    ``line N: key = value`` pairs.
    """
    grouped: dict[Any, dict[str, ConfigEntry]] = {}
    for key, entry in entries.items():
        section = CONFIG_KEYS[key][0] if key in CONFIG_KEYS else None
        if section not in sections:
            raise ConfigError(f"line {entry.lineno}: unknown config key {key!r}")
        grouped.setdefault(section, {})[key] = entry
    applied = dict(sections)
    for section, section_entries in grouped.items():
        values = {}
        for key, entry in section_entries.items():
            _, field, reader = CONFIG_KEYS[key]
            try:
                values[field] = reader(entry.value)
            except ConfigError as exc:
                raise ConfigError(f"{_where({key: entry})}: {exc}") from None
        try:
            applied[section] = replace(sections[section], **values)
        except ValueError as exc:  # the section's own error type, such as CatalogError
            raise type(exc)(f"{_where(section_entries)}: {exc}") from None
    return applied
