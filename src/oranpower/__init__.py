"""Transaction-based per-user power model for centralized O-RAN deployments.

Computes per-user processing and transmission power for any
baseband-processing placement along the O-RU / O-DU / O-CU / DC hierarchy,
for configurable equipment catalogs, topologies, and provisioning policies.
"""

from .catalog import (
    CatalogError,
    EquipmentCatalog,
    EquipmentSpec,
    ServerSpec,
    default_catalog,
    dump_catalog,
    energy_per_capacity,
    load_catalog,
)
from .configfile import ConfigError, parse_config_text
from .experiments import (
    FanoutStudyRecord,
    SweepRecord,
    brute_force_oracle,
    fanout_study,
    reduction_ratio,
    sweep_orus,
)
from .powermodel import (
    ClassPolicy,
    ModelConfig,
    PowerBreakdown,
    PowerOverflowError,
    ProvisioningPolicy,
    TrafficModel,
    equipment_power,
    provision_units,
    user_baseband_rate,
)
from .topology import (
    FANOUT_CASES,
    FanoutCase,
    Link,
    Node,
    SegmentParams,
    Topology,
    TopologyError,
    build_sweep_topology,
    default_segment_params,
    fanout_case,
    from_fanout_case,
    segment_map,
)

__version__ = "0.1.0"
