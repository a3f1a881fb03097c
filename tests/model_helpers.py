"""Reference helpers that only the tests use, built on the package's sizing primitives."""

from oranpower.catalog import energy_per_capacity
from oranpower.powermodel import provision_units


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
