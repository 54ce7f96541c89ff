"""Compute node model.

A :class:`NodeSpec` describes a node type (GPUs, memory, NICs); a
:class:`Node` is a named instance living on a platform, tracking allocatable
resources (GPUs in use, memory, running containers' footprints).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CapacityError, ConfigurationError
from .gpu import GpuSpec


@dataclass(frozen=True)
class NicSpec:
    """A network interface on a node.

    ``fabric`` names the network the NIC attaches to (e.g. ``"hops-hsn"``,
    ``"campus"``) — used by the network layer to build per-node access links.
    """

    name: str
    bandwidth: float  # bytes/second
    fabric: str


@dataclass(frozen=True)
class NodeSpec:
    """Static description of a node type."""

    name: str
    cpus: int
    memory_bytes: int
    gpus: tuple[GpuSpec, ...] = ()
    nics: tuple[NicSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.cpus < 1:
            raise ConfigurationError("node needs at least one CPU")
        if self.memory_bytes <= 0:
            raise ConfigurationError("node needs positive memory")

    @property
    def gpu_count(self) -> int:
        return len(self.gpus)


class Node:
    """A concrete node instance with allocatable resources.

    GPU allocation hands out *indices* so callers can model affinity
    (e.g. the two NVL GPUs on Goodall are a bridged pair).
    """

    def __init__(self, hostname: str, spec: NodeSpec):
        self.hostname = hostname
        self.spec = spec
        self._gpu_free = list(range(spec.gpu_count))
        self._gpu_used: set[int] = set()
        self._gpu_failed: set[int] = set()
        self.memory_used = 0
        self.labels: dict[str, str] = {}
        self.up = True

    # -- GPU allocation -------------------------------------------------------

    @property
    def gpus_free(self) -> int:
        return len(self._gpu_free)

    @property
    def gpus_used(self) -> int:
        return len(self._gpu_used)

    @property
    def gpus_failed(self) -> int:
        return len(self._gpu_failed)

    @property
    def available_gpu_count(self) -> int:
        """GPUs the node can offer at all: spec count minus failed devices
        (what a device plugin reports as allocatable)."""
        return self.spec.gpu_count - len(self._gpu_failed)

    def allocate_gpus(self, count: int) -> list[int]:
        """Reserve ``count`` GPUs, returning their device indices."""
        if count < 0:
            raise ConfigurationError(f"negative GPU count {count}")
        if count > len(self._gpu_free):
            raise CapacityError(
                f"{self.hostname}: requested {count} GPUs, "
                f"{len(self._gpu_free)} free of {self.spec.gpu_count}")
        taken = self._gpu_free[:count]
        del self._gpu_free[:count]
        self._gpu_used.update(taken)
        return taken

    def release_gpus(self, indices: list[int]) -> None:
        for idx in indices:
            if idx not in self._gpu_used:
                raise ConfigurationError(
                    f"{self.hostname}: GPU {idx} was not allocated")
            self._gpu_used.remove(idx)
            # A device that failed while allocated does not rejoin the
            # free pool until repaired.
            if idx not in self._gpu_failed:
                self._gpu_free.append(idx)
        self._gpu_free.sort()

    # -- device faults (ECC) ----------------------------------------------------

    def fail_gpu(self, index: int | None = None) -> int:
        """Mark one GPU failed (uncorrectable ECC); returns its index.

        Without ``index``, prefers an allocated device (faults under load
        are the interesting case), else the lowest free one.  Failed
        devices leave the allocatable pool until :meth:`repair_gpu`.
        """
        if index is None:
            if self._gpu_used:
                index = min(self._gpu_used)
            elif self._gpu_free:
                index = self._gpu_free[0]
            else:
                raise ConfigurationError(
                    f"{self.hostname}: no GPU left to fail")
        if index in self._gpu_failed:
            raise ConfigurationError(
                f"{self.hostname}: GPU {index} already failed")
        if index not in self._gpu_used and index not in self._gpu_free:
            raise ConfigurationError(
                f"{self.hostname}: no GPU {index}")
        self._gpu_failed.add(index)
        if index in self._gpu_free:
            self._gpu_free.remove(index)
        return index

    def repair_gpu(self, index: int) -> None:
        if index not in self._gpu_failed:
            raise ConfigurationError(
                f"{self.hostname}: GPU {index} is not failed")
        self._gpu_failed.remove(index)
        if index not in self._gpu_used and index not in self._gpu_free:
            self._gpu_free.append(index)
            self._gpu_free.sort()

    # -- host memory ------------------------------------------------------------

    def allocate_memory(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ConfigurationError("negative memory allocation")
        if self.memory_used + nbytes > self.spec.memory_bytes:
            raise CapacityError(
                f"{self.hostname}: memory exhausted "
                f"({self.memory_used + nbytes} > {self.spec.memory_bytes})")
        self.memory_used += nbytes

    def release_memory(self, nbytes: int) -> None:
        if nbytes > self.memory_used:
            raise ConfigurationError(
                f"{self.hostname}: releasing more memory than allocated")
        self.memory_used -= nbytes

    def nic(self, fabric: str) -> NicSpec:
        """The NIC attached to ``fabric``; raises if the node lacks one."""
        for nic in self.spec.nics:
            if nic.fabric == fabric:
                return nic
        raise ConfigurationError(
            f"{self.hostname} has no NIC on fabric {fabric!r}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Node {self.hostname} spec={self.spec.name} "
                f"gpus={self.gpus_used}/{self.spec.gpu_count}>")


def make_nodes(prefix: str, count: int, spec: NodeSpec,
               start: int = 1, width: int = 2) -> list[Node]:
    """Create ``count`` nodes named like ``hops01..hopsNN``."""
    return [Node(f"{prefix}{i:0{width}d}", spec)
            for i in range(start, start + count)]
