"""Ray-like distributed runtime for multi-node inference.

vLLM "relies on Ray ... to implement multi-node inference.  Users first
instantiate a Ray cluster on top of their underlying computing resources,
and then start up vLLM inside the Ray cluster" (Section 3.5).  This package
models exactly that control flow: a head node with a GCS registry, workers
that join it, and placement groups that reserve GPU bundles across nodes.
vLLM's server creates its placement group (one bundle of TP GPUs per
pipeline stage) when it starts inside the cluster; see
:mod:`repro.vllm.multinode`.
"""

from .cluster import PlacementGroup, RayCluster, RayNode

__all__ = ["PlacementGroup", "RayCluster", "RayNode"]
