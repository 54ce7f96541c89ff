"""Kubernetes API object model (the subset the paper's deployments use)."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from ..errors import ConfigurationError


@dataclass
class ObjectMeta:
    name: str
    namespace: str = "default"
    labels: dict[str, str] = field(default_factory=dict)
    uid: str = ""
    resource_version: int = 0
    created_at: float = 0.0

    def key(self) -> tuple[str, str]:
        return (self.namespace, self.name)


class KObject:
    """Base for API objects; ``kind`` is the API kind string."""

    kind = "Object"

    def __init__(self, meta: ObjectMeta):
        self.meta = meta

    def matches(self, selector: dict[str, str]) -> bool:
        return all(self.meta.labels.get(k) == v for k, v in selector.items())

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{self.kind} {self.meta.namespace}/{self.meta.name}>"


@dataclass
class KContainerSpec:
    """Container section of a pod template."""

    name: str
    image: str
    command: tuple[str, ...] = ()
    env: dict[str, str] = field(default_factory=dict)
    gpus: int = 0
    memory_bytes: int = 0
    volume_mounts: dict[str, str] = field(default_factory=dict)  # claim -> path
    port: int | None = None


@dataclass
class PodSpec:
    containers: list[KContainerSpec] = field(default_factory=list)
    init_containers: list[KContainerSpec] = field(default_factory=list)
    node_selector: dict[str, str] = field(default_factory=dict)
    restart_policy: str = "Always"  # Always | OnFailure | Never

    def __post_init__(self):
        if not self.containers:
            raise ConfigurationError("pod needs at least one container")
        if self.restart_policy not in ("Always", "OnFailure", "Never"):
            raise ConfigurationError(
                f"bad restartPolicy {self.restart_policy!r}")

    @property
    def main(self) -> KContainerSpec:
        return self.containers[0]

    @property
    def total_gpus(self) -> int:
        return sum(c.gpus for c in self.containers)


class PodPhase(enum.Enum):
    PENDING = "Pending"
    RUNNING = "Running"
    SUCCEEDED = "Succeeded"
    FAILED = "Failed"


class Pod(KObject):
    kind = "Pod"
    _ids = itertools.count(1)

    def __init__(self, meta: ObjectMeta, spec: PodSpec):
        super().__init__(meta)
        self.spec = spec
        self.phase = PodPhase.PENDING
        self.node_name: str | None = None
        self.restarts = 0
        self.message = ""
        #: why the main or an init container last exited (Kubernetes'
        #: ``lastState.terminated.message``)
        self.termination_message = ""
        self.ready = False
        self.owner: str | None = None  # owning Deployment name
        self.deleted = False

    @property
    def serving(self) -> bool:
        """Running and ready: an endpoint its service can route to."""
        return (self.phase is PodPhase.RUNNING and self.ready
                and not self.deleted)


class Deployment(KObject):
    kind = "Deployment"

    def __init__(self, meta: ObjectMeta, replicas: int, template: PodSpec,
                 selector: dict[str, str] | None = None):
        super().__init__(meta)
        if replicas < 0:
            raise ConfigurationError("negative replicas")
        self.replicas = replicas
        self.template = template
        self.selector = selector or dict(meta.labels) or {"app": meta.name}


class Service(KObject):
    kind = "Service"

    def __init__(self, meta: ObjectMeta, selector: dict[str, str],
                 port: int, target_port: int | None = None):
        super().__init__(meta)
        self.selector = selector
        self.port = port
        self.target_port = target_port if target_port is not None else port


class Ingress(KObject):
    kind = "Ingress"

    def __init__(self, meta: ObjectMeta, host: str, service_name: str,
                 service_port: int, path: str = "/", tls: bool = True):
        super().__init__(meta)
        self.host = host
        self.service_name = service_name
        self.service_port = service_port
        self.path = path
        self.tls = tls


class PersistentVolumeClaim(KObject):
    kind = "PersistentVolumeClaim"

    def __init__(self, meta: ObjectMeta, size_bytes: int,
                 storage_class: str = "ceph-block"):
        super().__init__(meta)
        if size_bytes <= 0:
            raise ConfigurationError("PVC needs a positive size")
        self.size_bytes = size_bytes
        self.storage_class = storage_class
        self.bound = False
        self.volume_name: str | None = None


class Namespace(KObject):
    kind = "Namespace"

    def __init__(self, meta: ObjectMeta):
        super().__init__(meta)


class ResourceQuota(KObject):
    """Multi-tenant GPU quota per namespace (Sandia's clusters are
    multi-tenant; quotas are how sharing is enforced)."""

    kind = "ResourceQuota"

    def __init__(self, meta: ObjectMeta, gpu_limit: int):
        super().__init__(meta)
        self.gpu_limit = gpu_limit
