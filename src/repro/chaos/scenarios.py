"""The chaos scenario catalog: one fault per layer of the converged stack.

Every scenario is a named, deterministic fault injector.  Injectors run
at a scheduled simulated time against a live fleet, mutate exactly one
layer (engine, hardware, network, registry, WLM, Kubernetes), schedule
their own heal where the fault is transient, and return a detail dict
for the resilience scorecard.  Victim selection draws from a named RNG
stream (``chaos.<scenario>``), so a seed fully determines every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from ..cluster.platform import HPCPlatform
from ..errors import StateError
from ..vllm import faults

if TYPE_CHECKING:  # pragma: no cover
    from ..core.site import ConvergedSite
    from ..fleet.fleet import Fleet, Replica
    from ..hardware.node import Node
    from ..simkernel import SimKernel
    from ..vllm.engine import LLMEngine


@dataclass
class ChaosContext:
    """What an injector sees: the site, the fleet, and its RNG stream."""

    site: ConvergedSite
    fleet: Fleet
    platform_name: str
    fault_duration: float
    rng: np.random.Generator

    @property
    def kernel(self) -> SimKernel:
        return self.site.kernel

    def platform(self):
        return self.site.platform(self.platform_name)

    @property
    def is_hpc(self) -> bool:
        return isinstance(self.platform(), HPCPlatform)

    def victim(self) -> Replica:
        """Pick one replica deterministically from the scenario stream.

        Replicas on the context's platform are preferred — a mixed-fleet
        game day targeting ``goodall`` must not hand a Slurm replica to a
        Kubernetes injector.
        """
        candidates = sorted(
            (r for r in self.fleet.replicas
             if r.platform_name == self.platform_name),
            key=lambda r: r.name) or sorted(self.fleet.replicas,
                                            key=lambda r: r.name)
        if not candidates:
            raise StateError("chaos: fleet has no replicas to target")
        return candidates[int(self.rng.integers(len(candidates)))]

    def node_of(self, hostname: str) -> Node:
        for node in self.platform().nodes:
            if node.hostname == hostname:
                return node
        raise StateError(f"chaos: no node {hostname!r} on "
                         f"{self.platform_name!r}")

    def after(self, delay: float, action: Callable[[], None],
              name: str) -> None:
        """Schedule a heal action on the simkernel event loop."""
        kernel = self.kernel

        def heal(env):
            yield delay
            action()
            env.trace.emit("chaos.heal", action=name)

        kernel.spawn(heal(kernel), name=f"chaos:heal:{name}")


# -- layer access helpers ---------------------------------------------------------


def engine_of(fleet: Fleet, replica: Replica) -> LLMEngine:
    """The live vLLM engine backing a replica, on either platform kind."""
    engine = getattr(container_of(fleet, replica).app, "engine", None)
    if engine is None:                # an HPC container without one
        raise StateError(f"chaos: replica {replica.name!r} has no engine")
    return engine


def container_of(fleet: Fleet, replica: Replica):
    """The running main container backing a replica: the podman
    container on HPC, the live pod container serving an engine on
    Kubernetes."""
    deployment = replica.deployment
    if deployment.container is not None:
        return deployment.container
    platform = fleet.site.platform(replica.platform_name)
    for container in platform.cluster.cri.containers:
        if (container.running
                and container.opts.name.startswith(f"{replica.name}-")
                and getattr(container.app, "engine", None) is not None):
            return container
    raise StateError(f"chaos: no live container for {replica.name!r}")


def _pod_of(platform, replica: Replica):
    from ..k8s.objects import PodPhase
    for pod in platform.cluster.api.list("Pod",
                                         selector={"app": replica.name}):
        if pod.phase in (PodPhase.PENDING, PodPhase.RUNNING):
            return pod
    raise StateError(f"chaos: no pod for release {replica.name!r}")


def _stop_containers_on(platform: HPCPlatform, hostname: str) -> list[str]:
    stopped = []
    for runtime in (platform.podman, platform.apptainer):
        for container in list(runtime.containers):
            if container.running and container.node.hostname == hostname:
                container.stop()
                stopped.append(container.name)
    return stopped


# -- injectors --------------------------------------------------------------------


def _inject_engine_oom(ctx: ChaosContext) -> dict:
    victim = ctx.victim()
    faults.attach(engine_of(ctx.fleet, victim), faults.CrashAtTime(
        ctx.kernel.now, reason="memory leak: engine OOM"))
    return {"victim": victim.name, "node": victim.backend_host}


def _inject_nccl_timeout(ctx: ChaosContext) -> dict:
    from ..bench.sharegpt import ShareGptSampler
    victim = ctx.victim()
    threshold = 2
    faults.attach(engine_of(ctx.fleet, victim), faults.CrashOnConcurrency(
        threshold, reason="NCCL collective timeout"))
    # A concurrent microburst makes sure a batch actually forms on the
    # victim (collective timeouts need collectives in flight).
    burst = 4 * len(ctx.fleet.replicas)
    sampler = ShareGptSampler(ctx.rng, max_total_tokens=2048)
    for sample in sampler.sample(burst):
        ctx.fleet.submit("chaos-burst", sample)
    return {"victim": victim.name, "node": victim.backend_host,
            "threshold": threshold, "burst": burst}


def _inject_node_crash(ctx: ChaosContext) -> dict:
    victim = ctx.victim()
    host = victim.backend_host
    platform = ctx.platform()
    if ctx.is_hpc:
        platform.wlm.fail_node(host)
        stopped = _stop_containers_on(platform, host)
        ctx.after(ctx.fault_duration,
                  lambda: platform.wlm.restore_node(host),
                  name=f"restore:{host}")
    else:
        platform.cluster.drain(host)
        stopped = []
        ctx.after(ctx.fault_duration,
                  lambda: platform.cluster.uncordon(host),
                  name=f"uncordon:{host}")
    return {"victim": victim.name, "node": host,
            "containers_stopped": sorted(stopped),
            "heal_after_s": ctx.fault_duration}


def _inject_gpu_ecc(ctx: ChaosContext) -> dict:
    victim = ctx.victim()
    host = victim.backend_host
    node = ctx.node_of(host)
    platform = ctx.platform()
    if ctx.is_hpc:
        container = victim.deployment.container
        index = node.fail_gpu(
            container.ctx.gpu_indices[0] if container.ctx.gpu_indices
            else None)
        faults.attach(engine_of(ctx.fleet, victim), faults.CrashAtTime(
            ctx.kernel.now,
            reason=f"uncorrectable ECC error on GPU {index}"))
    else:
        # The device plugin fails the GPU out of the allocatable pool and
        # the pod is evicted; the scheduler must place the replacement on
        # a node that still has enough healthy devices.
        index = node.fail_gpu()
        pod = _pod_of(platform, victim)
        platform.cluster.api.delete("Pod", pod.meta.name,
                                    pod.meta.namespace)
    ctx.after(ctx.fault_duration, lambda: node.repair_gpu(index),
              name=f"repair:{host}:gpu{index}")
    return {"victim": victim.name, "node": host, "gpu": index,
            "heal_after_s": ctx.fault_duration}


def _inject_network_partition(ctx: ChaosContext) -> dict:
    victim = ctx.victim()
    host = victim.backend_host
    fabric = ctx.site.fabric
    fabric.partition_host(host)
    ctx.after(ctx.fault_duration, lambda: fabric.heal_host(host),
              name=f"heal:{host}")
    return {"victim": victim.name, "node": host,
            "heal_after_s": ctx.fault_duration}


def _inject_latency_spike(ctx: ChaosContext) -> dict:
    factor = 100000.0  # 0.2 ms/hop -> 20 s/hop: e2e blows the SLO
    fabric = ctx.site.fabric
    fabric.set_latency_factor(factor)
    ctx.after(ctx.fault_duration, lambda: fabric.set_latency_factor(1.0),
              name="latency:restore")
    return {"factor": factor, "heal_after_s": ctx.fault_duration}


def _inject_registry_outage(ctx: ChaosContext) -> dict:
    victim = ctx.victim()
    platform = ctx.platform()
    runtime = (platform.runtime() if ctx.is_hpc else platform.cluster.cri)
    registry = runtime.registry
    registry.set_available(False)
    # Concurrent cache GC (node reimage): the serving image must be
    # re-pulled, so recovery blocks on the registry coming back.
    image_ref = ctx.fleet.wf.package.variant_for(
        platform.gpu_variant).image_ref
    evicted = sum(cache.evict(image_ref)
                  for cache in runtime.caches.values())
    container_of(ctx.fleet, victim).stop()
    ctx.after(ctx.fault_duration, lambda: registry.set_available(True),
              name=f"registry:{registry.name}")
    return {"victim": victim.name, "registry": registry.name,
            "image": image_ref, "caches_evicted": int(evicted),
            "heal_after_s": ctx.fault_duration}


def _inject_wlm_preemption(ctx: ChaosContext) -> dict:
    victim = ctx.victim()
    host = victim.backend_host
    platform = ctx.platform()
    wlm = platform.wlm
    # An emergency maintenance reservation lands on the replica's node:
    # the WLM kills jobs there (paper Fig. 12 run 3) and operators stop
    # user services for the window.
    wlm.add_reservation(start=ctx.kernel.now, duration=ctx.fault_duration,
                        reason="emergency maintenance (chaos)",
                        nodes=[host])
    wlm.fail_node(host)
    stopped = _stop_containers_on(platform, host)
    ctx.after(ctx.fault_duration, lambda: wlm.restore_node(host),
              name=f"unreserve:{host}")
    return {"victim": victim.name, "node": host, "wlm": wlm.name,
            "containers_stopped": sorted(stopped),
            "heal_after_s": ctx.fault_duration}


def _inject_pod_eviction(ctx: ChaosContext) -> dict:
    victim = ctx.victim()
    platform = ctx.platform()
    pod = _pod_of(platform, victim)
    platform.cluster.api.delete("Pod", pod.meta.name, pod.meta.namespace)
    return {"victim": victim.name, "pod": pod.meta.name,
            "node": pod.node_name}


# -- the catalog ------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosScenario:
    """One named fault: which layer it attacks and how to inject it."""

    name: str
    layer: str
    description: str
    inject: Callable[[ChaosContext], dict]
    platforms: tuple[str, ...] = ("hpc", "k8s")


CATALOG: tuple[ChaosScenario, ...] = (
    ChaosScenario(
        "engine_oom", "vllm",
        "memory-leak OOM kills a replica engine (Fig. 12 run 1)",
        _inject_engine_oom),
    ChaosScenario(
        "nccl_timeout", "vllm",
        "NCCL collective timeout once the running batch reaches a "
        "threshold", _inject_nccl_timeout),
    ChaosScenario(
        "node_crash", "hardware",
        "a compute node hosting a replica goes down, then returns",
        _inject_node_crash),
    ChaosScenario(
        "gpu_ecc", "hardware",
        "an uncorrectable GPU ECC error fails one device out of the "
        "allocatable pool", _inject_gpu_ecc),
    ChaosScenario(
        "network_partition", "net",
        "a replica's node is partitioned from the site fabric",
        _inject_network_partition),
    ChaosScenario(
        "latency_spike", "net",
        "site-wide per-hop latency multiplies during the fault window",
        _inject_latency_spike),
    ChaosScenario(
        "registry_outage", "containers",
        "the platform's registry goes down while a replica needs a "
        "cold-cache restart", _inject_registry_outage),
    ChaosScenario(
        "wlm_preemption", "wlm",
        "an emergency maintenance reservation preempts the replica's "
        "node through the workload manager", _inject_wlm_preemption,
        platforms=("hpc",)),
    ChaosScenario(
        "pod_eviction", "k8s",
        "the replica's pod is evicted; the Deployment controller must "
        "replace it", _inject_pod_eviction,
        platforms=("k8s",)),
)


def catalog(platform_kind: str | None = None,
            names: list[str] | None = None) -> list[ChaosScenario]:
    """The catalog filtered by platform kind ('hpc'/'k8s') and names."""
    out = list(CATALOG)
    if platform_kind is not None:
        out = [s for s in out if platform_kind in s.platforms]
    if names is not None:
        unknown = set(names) - {s.name for s in CATALOG}
        if unknown:
            raise StateError(f"unknown chaos scenarios: {sorted(unknown)}")
        out = [s for s in out if s.name in names]
    return out
