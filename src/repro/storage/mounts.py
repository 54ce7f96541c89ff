"""Mount handles: how containers see data, independent of the platform.

The same vLLM container reads its model directory from a parallel
filesystem on HPC (``--volume ./models:/vllm-workspace/models``), from a
Kubernetes persistent volume (the Helm chart's ``/data``), or from a local
disk on a user system.  A mount handle abstracts "list files + move the
bytes to the node" so apps are written once.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING

from ..errors import NotFoundError
from ..net.topology import Fabric
from .filesystem import ParallelFilesystem

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel import SimKernel


class MountHandle:
    """Protocol: a directory visible inside a container."""

    def listdir(self) -> dict[str, int]:  # pragma: no cover - interface
        raise NotImplementedError

    def total_bytes(self, prefix: str = "") -> int:
        return sum(size for path, size in self.listdir().items()
                   if path.startswith(prefix))

    def read_all(self, node_host: str, prefix: str = "") -> Generator:
        """Generator: move all bytes under ``prefix`` to the node."""
        raise NotImplementedError

    def read_bytes(self, node_host: str, nbytes: int) -> Generator:
        """Generator: move ``nbytes`` (a shard) to the node — used when a
        node loads only its pipeline-parallel slice of the weights."""
        raise NotImplementedError

    def write(self, node_host: str, path: str, size: int) -> Generator:
        raise NotImplementedError


class PfsMount(MountHandle):
    """A parallel-filesystem directory bind-mounted into the container."""

    def __init__(self, fs: ParallelFilesystem, prefix: str):
        self.fs = fs
        self.prefix = prefix.rstrip("/") + "/"

    def listdir(self) -> dict[str, int]:
        return {p[len(self.prefix):]: s
                for p, s in self.fs.listdir(self.prefix).items()}

    def read_all(self, node_host: str, prefix: str = ""):
        total = 0
        for rel, size in sorted(self.listdir().items()):
            if not rel.startswith(prefix):
                continue
            yield from self.fs.read(node_host, self.prefix + rel)
            total += size
        return total

    def read_bytes(self, node_host: str, nbytes: int):
        result = yield from self.fs.read(node_host, self.prefix, nbytes)
        return result

    def write(self, node_host: str, path: str, size: int):
        result = yield from self.fs.write(node_host, self.prefix + path, size)
        return result


class VolumeMount(MountHandle):
    """A Kubernetes persistent volume backed by a storage service host."""

    def __init__(self, fabric: Fabric, backend_host: str, name: str,
                 files: dict[str, int] | None = None):
        self.fabric = fabric
        self.backend_host = backend_host
        self.name = name
        self.files: dict[str, int] = files if files is not None else {}

    def listdir(self) -> dict[str, int]:
        return dict(self.files)

    def read_all(self, node_host: str, prefix: str = ""):
        total = sum(s for p, s in self.files.items() if p.startswith(prefix))
        if total == 0 and prefix and not any(
                p.startswith(prefix) for p in self.files):
            raise NotFoundError(
                f"volume {self.name!r} has nothing under {prefix!r}")
        if total > 0:
            flow = self.fabric.start_transfer(
                self.backend_host, node_host, total,
                name=f"pv-read:{self.name}")
            yield flow.done
        return total

    def read_bytes(self, node_host: str, nbytes: int):
        flow = self.fabric.start_transfer(self.backend_host, node_host,
                                          nbytes, name=f"pv-shard:{self.name}")
        yield flow.done
        return nbytes

    def write(self, node_host: str, path: str, size: int):
        flow = self.fabric.start_transfer(node_host, self.backend_host, size,
                                          name=f"pv-write:{self.name}")
        yield flow.done
        self.files[path] = size
        return size


class LocalDirMount(MountHandle):
    """A node-local directory (NVMe); reads cost size/rate seconds."""

    def __init__(self, kernel: SimKernel, files: dict[str, int] | None = None,
                 read_rate: float = 3e9):
        self.kernel = kernel
        self.files: dict[str, int] = files if files is not None else {}
        self.read_rate = read_rate

    def listdir(self) -> dict[str, int]:
        return dict(self.files)

    def read_all(self, node_host: str, prefix: str = ""):
        total = sum(s for p, s in self.files.items() if p.startswith(prefix))
        if total > 0:
            yield total / self.read_rate
        return total

    def read_bytes(self, node_host: str, nbytes: int):
        yield nbytes / self.read_rate
        return nbytes

    def write(self, node_host: str, path: str, size: int):
        yield size / self.read_rate
        self.files[path] = size
        return size
