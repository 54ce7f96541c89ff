"""Kubelet: runs pods assigned to its node via the CRI runtime.

Implements init containers, crash-loop backoff restarts, image-pull and
resource backoff (``ImagePullBackOff`` during a registry outage, GPU
exhaustion after device faults), and pod teardown.  The backoff schedule
(10 s doubling, capped at 5 min) mirrors Kubernetes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..containers import RunOpts
from ..errors import CapacityError, ImagePullError
from ..simkernel import Interrupted
from .api import WatchEvent
from .objects import KContainerSpec, Pod, PodPhase

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import KNode, KubernetesCluster

BACKOFF_BASE = 10.0
BACKOFF_CAP = 300.0


class Kubelet:
    """One per node; starts/stops containers for pods bound to the node."""

    def __init__(self, cluster: KubernetesCluster, knode: KNode):
        self.cluster = cluster
        self.kernel = cluster.kernel
        self.knode = knode
        self.active: dict[str, object] = {}  # pod uid -> lifecycle process
        self.containers: dict[str, object] = {}  # pod uid -> main Container
        cluster.api.watch("Pod", self._on_pod_event)

    # -- watch plumbing -----------------------------------------------------------

    def _on_pod_event(self, event: WatchEvent) -> None:
        pod = event.obj
        if not isinstance(pod, Pod):
            return
        if event.type == "DELETED":
            self._teardown(pod)
            return
        if pod.node_name != self.knode.node.hostname:
            return
        if pod.deleted or pod.meta.uid in self.active:
            return
        if pod.phase is not PodPhase.PENDING:
            return
        proc = self.kernel.spawn(self._pod_lifecycle(pod),
                                 name=f"kubelet:{pod.meta.name}")
        self.active[pod.meta.uid] = proc

    def _teardown(self, pod: Pod) -> None:
        container = self.containers.pop(pod.meta.uid, None)
        if container is not None and getattr(container, "running", False):
            container.stop()
        proc = self.active.pop(pod.meta.uid, None)
        if proc is not None and getattr(proc, "is_alive", False):
            proc.interrupt("pod deleted")

    # -- pod lifecycle ---------------------------------------------------------------

    def _opts_for(self, pod: Pod, cspec: KContainerSpec) -> RunOpts:
        mounts = {}
        for claim, path in cspec.volume_mounts.items():
            mounts[path] = self.cluster.volume_for(pod.meta.namespace, claim)
        # Simulation-side extras (perf profiles, fault plans) ride on the
        # pod template; see Deployer.deploy_k8s.
        extras = dict(getattr(pod.spec, "_extras", {}) or {})
        return RunOpts(
            name=f"{pod.meta.name}/{cspec.name}",
            env=dict(cspec.env),
            command=tuple(cspec.command),
            gpus=cspec.gpus if cspec.gpus else None,
            mounts=mounts,
            extras=extras,
        )

    def _start_container(self, pod: Pod, cspec: KContainerSpec):
        """Generator: start one container, holding the pod in backoff when
        the image cannot be pulled (registry outage) or node resources are
        exhausted (e.g. a GPU lost to an ECC fault) instead of wedging the
        lifecycle process."""
        runtime = self.cluster.cri
        node = self.knode.node
        attempts = 0
        while True:
            try:
                container = yield from runtime.run(
                    node, cspec.image, self._opts_for(pod, cspec))
                return container
            except (ImagePullError, CapacityError) as exc:
                attempts += 1
                kind = ("ImagePullBackOff"
                        if isinstance(exc, ImagePullError) else "OutOfGpu")
                pod.message = f"{kind}: {exc}"
                self.cluster.api.update(pod)
                self.kernel.trace.emit("k8s.start_backoff",
                                       pod=pod.meta.name, kind=kind,
                                       attempts=attempts)
                yield self._backoff(attempts)

    def _pod_lifecycle(self, pod: Pod):
        try:
            # Init containers run to completion, in order.
            for init in pod.spec.init_containers:
                while True:
                    container = yield from self._start_container(pod, init)
                    code = yield container.exited
                    if code == 0:
                        break
                    pod.restarts += 1
                    pod.termination_message = container.exit_reason
                    pod.message = (f"Init:CrashLoopBackOff "
                                   f"({init.name} exit {code})")
                    self.cluster.api.update(pod)
                    if pod.spec.restart_policy == "Never":
                        pod.phase = PodPhase.FAILED
                        self.cluster.api.update(pod)
                        return
                    yield self._backoff(pod.restarts)

            # Main container with restart policy.
            while True:
                cspec = pod.spec.main
                container = yield from self._start_container(pod, cspec)
                self.containers[pod.meta.uid] = container
                pod.phase = PodPhase.RUNNING
                pod.message = "Started"
                self.cluster.api.update(pod)
                ready_or_exit = self.kernel.any_of(
                    [container.ready, container.exited])
                try:
                    yield ready_or_exit
                except Exception:
                    pass  # startup crash: exit path below handles it
                if container.ready.triggered and container.ready.ok and \
                        not container.exited.triggered:
                    pod.ready = True
                    self.cluster.api.update(pod)
                code = yield container.exited
                pod.ready = False
                pod.termination_message = container.exit_reason
                if pod.deleted:
                    return
                if code == 0 and pod.spec.restart_policy != "Always":
                    pod.phase = PodPhase.SUCCEEDED
                    pod.message = "Completed"
                    self.cluster.api.update(pod)
                    return
                if code != 0 and pod.spec.restart_policy == "Never":
                    pod.phase = PodPhase.FAILED
                    pod.message = f"Error (exit {code})"
                    self.cluster.api.update(pod)
                    return
                pod.restarts += 1
                pod.phase = PodPhase.PENDING
                pod.message = f"CrashLoopBackOff (exit {code})" if code else \
                    "Restarting"
                self.cluster.api.update(pod)
                self.kernel.trace.emit("k8s.restart", pod=pod.meta.name,
                                       restarts=pod.restarts, code=code)
                yield self._backoff(pod.restarts)
        except Interrupted:
            container = self.containers.get(pod.meta.uid)
            if container is not None and getattr(container, "running", False):
                container.stop()
        finally:
            self.active.pop(pod.meta.uid, None)

    @staticmethod
    def _backoff(restarts: int) -> float:
        return min(BACKOFF_BASE * (2 ** max(0, restarts - 1)), BACKOFF_CAP)
