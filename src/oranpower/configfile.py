"""Flat ``section.key = value`` config files: the parser, the table of keys and ``load_config``."""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping

from .powermodel import ModelConfig
from .topology import LINK_ORDER, NODE_ORDER, Record, TopologyError, count_error


class ConfigError(ValueError):
    """Malformed config text, an unknown key, or a value its key cannot take."""


def parse_config_text(text: str) -> dict[str, tuple[str, int]]:
    """Parse UTF-8 key-value config text into ``{key: (value, line number)}``.

    One ``section.key = value`` per line; ``#`` starts a comment; blank
    lines are skipped; whitespace around ``=`` is ignored. A key given twice
    is an error that names both lines.
    """
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key, equals, value = raw.split("#", 1)[0].partition("=")
        if not equals:
            if not key.strip():  # a blank or comment line
                continue
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw.strip()!r}")
        key = key.strip()
        value = value.strip()
        if not key or "." not in key:
            raise ConfigError(f"line {lineno}: key must look like 'section.key', got {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}, "
                              f"already set on line {entries[key][1]}")
        entries[key] = value, lineno
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


def _nanojoules(text: str) -> float:
    """``ue.energy_nj_per_bit`` is written in nJ per bit and stored in J per bit, read exactly:
    the written digits, their exponent lowered by 9, rounded once to the nearest double."""
    value = _float(text)
    if not value or not math.isfinite(value):
        return value
    # A finite non-zero number's only letter is the e of its exponent. That exponent is far
    # below 2**53, so float() reads it exactly, even past int()'s 4300-digit limit.
    mantissa, _, exponent = text.strip().replace("E", "e").partition("e")
    return float(f"{mantissa}e{int(float(exponent or 0)) - 9}")


_EQUIPMENT = ("router", "core_switch", "access_switch", "wdm_link", "radio")
_SERVERS = ("edge_server", "dc_server")
_SPECS = _EQUIPMENT + _SERVERS

# Every accepted key: (section, record field, reader). Sections are the
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
    **{f"topology.{field}": ("topology", field, _int)
       for field in ("n_ru", "users_per_ru", "du_fanout_cap")},
}


def _where(entries: Mapping[str, tuple[str, int]]) -> str:
    return "; ".join(f"line {line}: {key} = {value}" for key, (value, line) in entries.items())


class TopologyCounts(Record):
    """A config file's ``topology.*`` counts, ``None`` where it sets none, else a checked count."""

    def __init__(self, n_ru: int | None = None, users_per_ru: int | None = None,
                 du_fanout_cap: int | None = None):
        counts = {"n_ru": n_ru, "users_per_ru": users_per_ru, "du_fanout_cap": du_fanout_cap}
        for name, count in counts.items():
            if count is not None and (error := count_error(name, count)):
                raise TopologyError(error)
        self.__dict__.update(counts)


_NO_COUNTS = TopologyCounts()


def load_config(text: str, config: ModelConfig) -> tuple[ModelConfig, TopologyCounts]:
    """Apply config text to ``config``'s catalog and segments, and read its ``topology.*`` counts.

    Entries are grouped by ``CONFIG_KEYS`` section. Every section starts from its record in
    ``config``, and ``topology`` from no counts. In order of first appearance, each section's
    values are read and the section is built once by its ``__replace__``, which runs its
    constructor, so its checks run. The result is a new ``ModelConfig`` whose catalog is the
    ``ue`` section with the seven spec sections, and whose segments are the segment sections.
    Every error names its key and line: an unknown key or a value that cannot be read is a
    ``ConfigError``, and a section's rejection keeps its type, prefixed with that section's
    ``line N: key = value`` pairs. ``config`` is unchanged.
    """
    grouped: dict[Any, dict[str, tuple[str, int]]] = {}
    for key, (value, line) in parse_config_text(text).items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {line}: unknown config key {key!r}")
        grouped.setdefault(CONFIG_KEYS[key][0], {})[key] = value, line
    # Each section's base record, under its CONFIG_KEYS section (and ue_energy_j_per_bit).
    sections = config.params.copy()
    sections.update(vars(config.catalog), ue=config.catalog, topology=_NO_COUNTS)
    for section, section_entries in grouped.items():
        values = {}
        for key, (value, line) in section_entries.items():
            _, field, reader = CONFIG_KEYS[key]
            try:
                values[field] = reader(value)
            except ConfigError as exc:
                raise ConfigError(f"{_where({key: (value, line)})}: {exc}") from None
        try:
            sections[section] = sections[section].__replace__(**values)
        except ValueError as exc:  # the section's own error type, such as CatalogError
            raise type(exc)(f"{_where(section_entries)}: {exc}") from None
    catalog = sections["ue"].__replace__(**{name: sections[name] for name in _SPECS})
    params = {segment: sections[segment] for segment in config.params}
    loaded = ModelConfig(catalog, params, config.traffic, config.policy, config.provision_to_cap)
    return loaded, sections["topology"]
