"""Reference helpers that only the tests use, built on the package's sizing primitives."""

import math
from typing import NamedTuple

from oranpower.catalog import energy_per_capacity
from oranpower.configfile import (
    _SPECS,
    CONFIG_KEYS,
    ConfigError,
    TopologyCounts,
    _where,
)
from oranpower.powermodel import ModelConfig, _loop_factory, provision_units
from oranpower.topology import LINK_ORDER, NODE_ORDER, Node, Topology


def replace(record, /, **changes):
    """``record`` with ``changes``, built again by its constructor, as ``copy.replace`` does
    from Python 3.13."""
    return record.__replace__(**changes)


def equipment_power(load_gbps, spec, policy):
    """Watts one device class draws for a per-instance load, under the class policy.

    Linear mode scales the device's W/Gbps ratio by the load; quantized mode
    buys whole devices (or ``unit_capacity_gbps`` slices of one). These are
    the float operations of the row loop's device terms.
    """
    ratio = energy_per_capacity(spec)
    if not policy.quantized:
        return ratio * load_gbps
    unit = policy.unit_capacity_gbps if policy.unit_capacity_gbps is not None else spec.capacity_gbps
    return provision_units(load_gbps, unit, policy.minimum_units) * ratio * unit


def total_reduction(baseline, other):
    """Fractional total-power reduction of breakdown ``other`` relative to ``baseline``."""
    return 1 - other.total_watts / baseline.total_watts


def per_part_breakdown(nodes, segments, ue_watts):
    """A cell's processing, transmission and total watts, or the error naming its first bad part.

    Each part must be >= 0 and the total finite; the sums are taken left to
    right, as the package documents.
    """
    for kind, parts, order in (("node", nodes, NODE_ORDER), ("segment", segments, LINK_ORDER)):
        for segment, watts in zip(order, parts):
            if not (watts >= 0):
                raise ValueError(f"{kind} power for {segment.value} must be >= 0, got {watts}")
    if not (ue_watts >= 0):
        raise ValueError(f"UE power must be >= 0, got {ue_watts}")
    processing = 0.0 + nodes[0] + nodes[1] + nodes[2] + nodes[3]
    transmission = ue_watts + (0.0 + segments[0] + segments[1] + segments[2])
    total = processing + transmission
    if not math.isfinite(total):
        raise ValueError(f"total power must be finite, got {total}")
    return processing, transmission, total


def evaluate_parts(nodes, segments, ue_watts):
    """``evaluate`` of a cell whose row loop prices exactly the given parts.

    The cell has one user, no fanout cap and its BBP at the O-RU. Its config
    binds, in place of its own row loop, one bound to a plan in which the
    O-RU term has the scale ``nodes[0]`` and one linear device of ratio 1.0
    at an eCPRI load of 1.0, so it prices ``nodes[0] * 1.0 * 1.0``, and
    every other part is a constant of the plan. The parts then pass through
    the row loop's own sums and check.
    """
    loop = _loop_factory((0, ((False,), *[None] * 6)), False, False)(
        1.0, ((nodes[0], 0, ((1, 1.0, None, 0),)),), (*nodes[1:], *segments), ue_watts, Node.ORU)

    class Fixed(ModelConfig):
        def _loop(self, placement, has_cap, csv):
            return loop

    return Fixed.default().evaluate(Topology(n_ru=1, n_du=1, n_cu=1, n_dc=1, users_per_ru=1),
                                    Node.ORU)


class Entry(NamedTuple):
    """A config line's value and line number: the pair ``configfile.parse_config_text`` gives
    for a key, with names, so the reference below reads its fields by name."""

    value: str
    lineno: int


def reference_parse_config_text(text):
    """``configfile.parse_config_text`` with the comment-free line stripped before it is split."""
    entries: dict[str, Entry] = {}
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
        entries[key] = Entry(value=value, lineno=lineno)
    return entries


def reference_load_config(text, config):
    """``configfile.load_config`` as one ``replace`` per section over a map of all
    17 sections, then of the catalog and the ``ModelConfig``: the loader's results and errors,
    built the slow way."""
    grouped: dict[object, dict[str, Entry]] = {}
    for key, entry in reference_parse_config_text(text).items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {entry.lineno}: unknown config key {key!r}")
        grouped.setdefault(CONFIG_KEYS[key][0], {})[key] = entry
    sections = {"ue": config.catalog, **{name: getattr(config.catalog, name) for name in _SPECS},
                **config.params, "topology": TopologyCounts()}
    for section, section_entries in grouped.items():
        values = {}
        for key, entry in section_entries.items():
            _, field, reader = CONFIG_KEYS[key]
            try:
                values[field] = reader(entry.value)
            except ConfigError as exc:
                raise ConfigError(f"{_where({key: entry})}: {exc}") from None
        try:
            sections[section] = replace(sections[section], **values)
        except ValueError as exc:  # the section's own error type, such as CatalogError
            raise type(exc)(f"{_where(section_entries)}: {exc}") from None
    catalog = replace(sections["ue"], **{name: sections[name] for name in _SPECS})
    params = {segment: sections[segment] for segment in config.params}
    return replace(config, catalog=catalog, params=params), sections["topology"]
