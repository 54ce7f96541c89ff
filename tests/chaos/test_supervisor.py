"""The replica supervisor: replace, rebind, and deficit retry."""

from __future__ import annotations

import pytest

from repro.campaign import ScenarioSpec
from repro.chaos import ReplicaSupervisor
from repro.core import build_sandia_site
from repro.errors import ConfigurationError
from repro.fleet import AutoscalerConfig, Fleet

QUANT = "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16"


def test_supervisor_config_validation():
    with pytest.raises(ConfigurationError):
        ScenarioSpec(supervisor_interval=0.0)
    with pytest.raises(ConfigurationError):
        ScenarioSpec(probe_interval=0.0)


def _hpc_fleet(seed=7):
    site = build_sandia_site(seed=seed, hops_nodes=5, eldorado_nodes=2,
                             goodall_nodes=2, cee_nodes=1)
    fleet = Fleet(site, ScenarioSpec(
        model=QUANT, tensor_parallel_size=2, platforms=("hops",),
        autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=3),
        supervisor_interval=20.0))
    return site, fleet


def test_sweeps_follow_the_spec_interval():
    site = build_sandia_site(seed=7, hops_nodes=5, eldorado_nodes=2,
                             goodall_nodes=2, cee_nodes=1)
    # Stepping, so every tick runs and the sweep times are the cadence.
    fleet = Fleet(site, ScenarioSpec(
        model=QUANT, supervisor_interval=20.0, fast_forward=False))
    supervisor = ReplicaSupervisor(fleet)
    kernel = site.kernel
    sweeps = []

    def sweep():
        sweeps.append(kernel.now)
        yield from ()

    supervisor._sweep = sweep

    def scenario(env):
        yield from fleet.start(initial_replicas=1)
        start = env.now
        stop = env.event()
        env.spawn(supervisor.run(stop), name="sup")
        yield env.timeout(110.0)
        stop.succeed()
        return start

    start = kernel.run(until=kernel.spawn(scenario(kernel)))
    assert [round(t - start, 6) for t in sweeps] == [20, 40, 60, 80, 100]


def _run_with_supervisor(site, fleet, wound, settle=3600.0):
    """Start a 2-replica fleet, apply ``wound``, wait for wholeness."""
    kernel = site.kernel
    supervisor = ReplicaSupervisor(fleet)

    def scenario(env):
        yield from fleet.start(initial_replicas=2)
        stop = env.event()
        env.spawn(supervisor.run(stop), name="sup")
        wound(fleet)
        deadline = env.now + settle
        while env.now < deadline:
            yield env.timeout(30.0)
            whole = (len(fleet.replicas) == 2
                     and supervisor.deficit == 0
                     and all(fleet.replica_status(r)[0] == "ok"
                             for r in fleet.replicas))
            if whole:
                break
        stop.succeed()
        return supervisor

    kernel.run(until=kernel.spawn(scenario(kernel)))
    return supervisor


def test_dead_replica_is_replaced():
    site, fleet = _hpc_fleet()
    names_before = []

    def wound(fleet):
        victim = fleet.replicas[0]
        names_before.extend(r.name for r in fleet.replicas)
        victim.deployment.container.stop()

    supervisor = _run_with_supervisor(site, fleet, wound)
    assert len(fleet.replicas) == 2
    assert all(fleet.replica_status(r)[0] == "ok"
               for r in fleet.replicas)
    actions = [e.action for e in supervisor.events]
    assert "replace" in actions and "replaced" in actions
    # A successor with a fresh name joined, registered with the router.
    assert {r.name for r in fleet.replicas} != set(names_before)
    router = fleet.router_app
    assert router.healthy_backends == len(router.backends) == 2


def test_replace_failure_leaves_deficit_then_retries():
    site, fleet = _hpc_fleet(seed=11)
    registry = site.hops.podman.registry

    def wound(fleet):
        victim = fleet.replicas[0]
        image_ref = fleet.wf.package.variant_for("cuda").image_ref
        registry.set_available(False)
        for cache in site.hops.podman.caches.values():
            cache.evict(image_ref)
        victim.deployment.container.stop()
        # Registry heals later than several supervisor sweeps.
        def heal(env):
            yield env.timeout(300.0)
            registry.set_available(True)
        site.kernel.spawn(heal(site.kernel))

    supervisor = _run_with_supervisor(site, fleet, wound)
    actions = [e.action for e in supervisor.events]
    assert "replace_failed" in actions       # pull failed mid-outage
    assert "redeploy" in actions             # deficit worked off later
    assert supervisor.deficit == 0
    assert len(fleet.replicas) == 2
    assert all(fleet.replica_status(r)[0] == "ok"
               for r in fleet.replicas)


def test_k8s_pod_move_is_rebound():
    site = build_sandia_site(seed=13, hops_nodes=4, eldorado_nodes=2,
                             goodall_nodes=5, cee_nodes=1)
    fleet = Fleet(site, ScenarioSpec(
        model=QUANT, tensor_parallel_size=2, platforms=("goodall",),
        autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=3),
        supervisor_interval=20.0))

    def wound(fleet):
        victim = fleet.replicas[0]
        site.goodall.cluster.drain(victim.backend_host)

    supervisor = _run_with_supervisor(site, fleet, wound)
    actions = [e.action for e in supervisor.events]
    assert "rebind" in actions
    router = fleet.router_app
    assert router.healthy_backends == 2
    # The router backend now points at the pod's new node.
    backend_hosts = {b.host for b in router.backends}
    assert backend_hosts == {r.backend_host for r in fleet.replicas}
