"""Fleet placement asks the deployer for free slots on both platform kinds.

A Kubernetes node serving one replica keeps GPUs free but not the
replica's service port; the fleet must count it as full, as it counts a
busy HPC node, and refuse a further replica before anything is deployed
rather than wait for a pod that can never start.
"""

from __future__ import annotations

import pytest

from repro.campaign import ScenarioSpec, SiteSpec
from repro.errors import StateError
from repro.fleet import Fleet


@pytest.mark.parametrize("platform", ["cee", "hops"])
def test_add_replicas_refuses_a_node_with_a_busy_port(platform):
    spec = ScenarioSpec(
        platforms=(platform,), horizon=60.0,
        site=SiteSpec(hops_nodes=1, eldorado_nodes=1, goodall_nodes=0,
                      cee_nodes=1))
    fleet = Fleet(spec)
    site, kernel = fleet.site, fleet.kernel

    def start(env):
        yield from fleet.start()

    kernel.run(until=kernel.spawn(start(kernel)))
    (node,) = (site.hops.nodes if platform == "hops"
               else [kn.node for kn in site.cee.cluster.nodes])
    assert node.gpus_free >= spec.tensor_parallel_size
    before = kernel.now

    def grow(env):
        yield from fleet.add_replicas(1)

    with pytest.raises(StateError, match="no capacity"):
        kernel.run(until=kernel.spawn(grow(kernel)))
    assert kernel.now == before
    assert len(fleet.replicas) == 1
