"""Pod scheduler: resource-fit placement with namespace GPU quotas."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .api import WatchEvent
from .objects import Pod, PodPhase, ResourceQuota

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import KNode, KubernetesCluster


class PodScheduler:
    """Assigns pending pods to nodes.

    Placement: filter by node selector and :meth:`fits` (free GPUs,
    counting those already *committed* to scheduled-but-not-yet-terminal
    pods, and a free host port), then spread across the least-committed
    node.  Namespace ResourceQuota GPU limits are enforced before
    placement.
    """

    def __init__(self, cluster: KubernetesCluster):
        self.cluster = cluster
        self.api = cluster.api
        self.api.watch("Pod", self._on_pod_event)
        self.api.watch("ResourceQuota", lambda ev: self._kick())

    def _on_pod_event(self, event: WatchEvent) -> None:
        self._kick()

    def _kick(self) -> None:
        for pod in self.api.list("Pod"):
            if (pod.phase is PodPhase.PENDING and pod.node_name is None
                    and not pod.deleted):
                self._try_schedule(pod)

    def _committed(self, node_name: str) -> list[Pod]:
        """Pods scheduled to ``node_name`` and not yet terminal."""
        return [p for p in self.api.list("Pod")
                if p.node_name == node_name and not p.deleted
                and p.phase in (PodPhase.PENDING, PodPhase.RUNNING)]

    def _committed_gpus(self, node_name: str) -> int:
        return sum(p.spec.total_gpus for p in self._committed(node_name))

    def _namespace_gpus_in_use(self, namespace: str) -> int:
        return sum(
            p.spec.total_gpus for p in self.api.list("Pod", namespace)
            if not p.deleted and p.node_name is not None
            and p.phase in (PodPhase.PENDING, PodPhase.RUNNING))

    def _quota_allows(self, pod: Pod) -> bool:
        quotas: list[ResourceQuota] = self.api.list(
            "ResourceQuota", pod.meta.namespace)
        if not quotas:
            return True
        in_use = self._namespace_gpus_in_use(pod.meta.namespace)
        limit = min(q.gpu_limit for q in quotas)
        return in_use + pod.spec.total_gpus <= limit

    def fits(self, knode: KNode, gpus: int, port: int | None) -> bool:
        """The node filter: ``knode`` is up, has ``gpus`` GPUs beyond those
        committed to its pending and running pods, and none of them
        claims ``port`` (pod servers bind on the node's hostname)."""
        pods = self._committed(knode.node.hostname)
        # allocatable = spec GPUs minus devices failed out (ECC) — what
        # the device plugin would report.
        free = knode.node.available_gpu_count - sum(
            p.spec.total_gpus for p in pods)
        return knode.node.up and free >= gpus and (port is None or all(
            c.port != port for p in pods for c in p.spec.containers))

    def _try_schedule(self, pod: Pod) -> None:
        if not self._quota_allows(pod):
            pod.message = ("FailedScheduling: namespace GPU quota exceeded")
            return
        port = pod.spec.main.port
        candidates: list[tuple[int, "KNode"]] = [
            (self._committed_gpus(knode.node.hostname), knode)
            for knode in self.cluster.nodes
            if all(knode.labels.get(k) == v
                   for k, v in pod.spec.node_selector.items())
            and self.fits(knode, pod.spec.total_gpus, port)]
        if not candidates:
            pod.message = (f"FailedScheduling: 0/{len(self.cluster.nodes)} "
                           "nodes have enough free GPUs"
                           + (f" and port {port} free" if port else ""))
            return
        candidates.sort(key=lambda pair: (pair[0], pair[1].node.hostname))
        chosen = candidates[0][1]
        pod.node_name = chosen.node.hostname
        pod.message = f"Scheduled to {pod.node_name}"
        self.api.update(pod)
        self.cluster.kernel.trace.emit("k8s.schedule", pod=pod.meta.name,
                                       node=pod.node_name)
