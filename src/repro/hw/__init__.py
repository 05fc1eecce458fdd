"""Hardware models: GPUs, HBM, fabric, NICs, clusters, and the pluggable
platform catalog (:mod:`repro.hw.platform`).

Names resolve on first access (:mod:`repro.utils.lazy`): declaring a sweep
needs only the platform catalog, not the device models behind it (the HBM
model imports numpy).
"""

from ..utils.lazy import lazy_exports

_EXPORTS = {
    "Fabric": "fabric",
    "Gpu": "gpu",
    "KernelResources": "gpu",
    "OccupancyInfo": "gpu",
    "WgCost": "gpu",
    "occupancy_for": "gpu",
    "HbmModel": "memory",
    "Network": "network",
    "Nic": "nic",
    "CATALOG": "platform",
    "DEFAULT_PLATFORM": "platform",
    "Platform": "platform",
    "derived_baseline_resources": "platform",
    "derived_fused_resources": "platform",
    "generic": "platform",
    "get_platform": "platform",
    "list_platforms": "platform",
    "register_platform": "platform",
    "IB_NIC": "specs",
    "IF_LINK": "specs",
    "MI210": "specs",
    "ClusterSpec": "specs",
    "GpuSpec": "specs",
    "LinkSpec": "specs",
    "NicSpec": "specs",
    "NodeSpec": "specs",
    "mi210_node_spec": "specs",
    "two_node_cluster_spec": "specs",
    "Cluster": "topology",
    "Node": "topology",
    "build_cluster": "topology",
    "build_node": "topology",
    "from_cluster_spec": "topology",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
