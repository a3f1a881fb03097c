"""Transaction-based per-user power model for centralized O-RAN deployments.

Computes per-user processing and transmission power for any
baseband-processing placement along the O-RU / O-DU / O-CU / DC hierarchy,
for configurable equipment catalogs, topologies, and provisioning policies.
"""

from .catalog import CatalogError
from .configfile import ConfigError
from .experiments import brute_force_oracle, sweep_orus
from .powermodel import (
    ClassPolicy,
    ModelConfig,
    PowerBreakdown,
    PowerOverflowError,
    ProvisioningPolicy,
    TrafficModel,
)
from .topology import (
    Link,
    Node,
    SegmentParams,
    Topology,
    TopologyError,
    build_sweep_topology,
    from_fanout_case,
)

__version__ = "0.1.0"
