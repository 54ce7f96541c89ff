"""Tests for the Ray-like cluster and its Slurm-launched bootstrap."""

from __future__ import annotations

import pytest

from repro.errors import CapacityError, StateError
from repro.hardware import Node, NodeSpec, gpu_spec
from repro.rayclu import RayCluster
from repro.units import GiB
from repro.wlm import SlurmManager


def _nodes(n=4):
    spec = NodeSpec(name="hops-node", cpus=96, memory_bytes=768 * GiB,
                    gpus=tuple([gpu_spec("H100-SXM-80G")] * 4))
    return [Node(f"hops{i:02d}", spec) for i in range(1, n + 1)]


def test_head_then_workers_join(kernel):
    nodes = _nodes()
    ray = RayCluster(kernel)

    def boot(env):
        yield from ray.start_head(nodes[0])
        for node in nodes[1:]:
            yield from ray.join_worker(node)
        return len(ray.nodes)

    p = kernel.spawn(boot(kernel))
    assert kernel.run(until=p) == 4
    assert ray.head.node is nodes[0]


def test_workers_wait_for_head(kernel):
    """Workers started before the head retry until GCS answers."""
    nodes = _nodes(2)
    ray = RayCluster(kernel)

    def worker(env):
        yield from ray.join_worker(nodes[1])
        return env.now

    def head_later(env):
        yield env.timeout(10.0)
        yield from ray.start_head(nodes[0])

    w = kernel.spawn(worker(kernel))
    kernel.spawn(head_later(kernel))
    t = kernel.run(until=w)
    assert t > 10.0


def test_double_head_rejected(kernel):
    nodes = _nodes(2)
    ray = RayCluster(kernel)

    def boot(env):
        yield from ray.start_head(nodes[0])
        yield from ray.start_head(nodes[1])

    p = kernel.spawn(boot(kernel))
    with pytest.raises(StateError):
        kernel.run(until=p)


def test_placement_group_reserves_spread_bundles(kernel):
    nodes = _nodes(4)
    ray = RayCluster(kernel)

    def boot(env):
        yield from ray.start_head(nodes[0])
        for node in nodes[1:]:
            yield from ray.join_worker(node)

    kernel.run(until=kernel.spawn(boot(kernel)))
    group = ray.create_placement_group(gpus_per_bundle=4, n_bundles=4)
    assert len(group.nodes) == 4
    assert len({n.hostname for n in group.nodes}) == 4
    with pytest.raises(CapacityError):
        ray.create_placement_group(gpus_per_bundle=1, n_bundles=1)


def test_slurm_launched_ray_cluster_matches_figure11(kernel):
    """The paper's Figure 11 flow: srun head task + N-1 worker tasks."""
    nodes = _nodes(4)
    slurm = SlurmManager(kernel, nodes, platform="hops")
    ray = RayCluster(kernel)

    def job_script(ctx):
        head = ctx.head_node

        def head_task(node):
            yield from ray.start_head(node)

        def worker_task(node):
            yield from ray.join_worker(node)

        ctx.launch(head, head_task)
        ctx.launch_on_all(worker_task, exclude=[head])
        yield from ray.wait_for_size(len(ctx.nodes))
        return [rn.node.hostname for rn in ray.nodes]

    job = slurm.sbatch("ray-cluster", nodes=4, time_limit=3600.0,
                       script=job_script)
    hostnames = kernel.run(until=job.finished)
    assert len(hostnames) == 4
    assert ray.head is not None


def test_shutdown_refuses_placement_groups(kernel):
    nodes = _nodes(2)
    ray = RayCluster(kernel)

    def boot(env):
        yield from ray.start_head(nodes[0])
        yield from ray.join_worker(nodes[1])

    kernel.run(until=kernel.spawn(boot(kernel)))
    ray.create_placement_group(4, 1)
    ray.shutdown()
    assert ray.stopped.triggered and ray.nodes == []
    with pytest.raises(StateError):
        ray.create_placement_group(1, 1)
