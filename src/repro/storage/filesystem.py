"""Parallel filesystem model (Lustre-like).

Key properties from the paper:

* mounted only on its own platform(s) — "these are generally not mounted
  externally due to security concerns";
* high aggregate bandwidth for on-platform access (model weights load fast
  once staged);
* goes down for maintenance — "ensures the models remain available when HPC
  filesystems are down for maintenance" is why models also live in S3.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from ..errors import ConfigurationError, NotFoundError, SimulatedFailure
from ..net.topology import Fabric

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel import SimKernel


class FilesystemDown(SimulatedFailure):
    """I/O attempted during a maintenance window."""


class ParallelFilesystem:
    """A platform-attached parallel filesystem.

    The filesystem appears as a fabric host (its OSS/MDS frontend); on-
    platform reads/writes are flows between the node and that host over the
    platform's high-speed network.
    """

    def __init__(self, kernel: SimKernel, fabric: Fabric, name: str,
                 host: str, mounted_platforms: Iterable[str]):
        if host not in fabric.hosts:
            raise ConfigurationError(f"filesystem host {host!r} not on fabric")
        self.kernel = kernel
        self.fabric = fabric
        self.name = name
        self.host = host
        self.mounted_platforms = set(mounted_platforms)
        self.files: dict[str, int] = {}
        self._down_windows: list[tuple[float, float]] = []

    # -- mount policy ---------------------------------------------------------

    def is_mounted_on(self, platform: str) -> bool:
        return platform in self.mounted_platforms

    def require_mounted(self, platform: str) -> None:
        if not self.is_mounted_on(platform):
            raise ConfigurationError(
                f"filesystem {self.name!r} is not mounted on platform "
                f"{platform!r} (HPC filesystems are not exported off-platform)")

    # -- maintenance ---------------------------------------------------------------

    def schedule_downtime(self, start: float, duration: float) -> None:
        self._down_windows.append((start, start + duration))
        self.kernel.trace.emit("pfs.downtime.scheduled", fs=self.name,
                               start=start, end=start + duration)

    def is_down(self, at: float | None = None) -> bool:
        t = self.kernel.now if at is None else at
        return any(s <= t < e for s, e in self._down_windows)

    def _check_up(self) -> None:
        if self.is_down():
            raise FilesystemDown(
                f"filesystem {self.name} is down for maintenance",
                sim_time=self.kernel.now)

    # -- namespace -------------------------------------------------------------------

    def write_meta(self, path: str, size: int) -> None:
        """Create/replace a file entry without moving bytes (local staging)."""
        self._check_up()
        if size < 0:
            raise ConfigurationError("negative file size")
        self.files[path] = size

    def stat(self, path: str) -> int:
        self._check_up()
        try:
            return self.files[path]
        except KeyError:
            raise NotFoundError(f"{self.name}:{path} does not exist") from None

    def exists(self, path: str) -> bool:
        return path in self.files

    def listdir(self, prefix: str) -> dict[str, int]:
        self._check_up()
        return {p: s for p, s in self.files.items() if p.startswith(prefix)}

    def delete(self, path: str) -> None:
        self.files.pop(path, None)

    @property
    def used_bytes(self) -> int:
        return sum(self.files.values())

    # -- data plane (generators) ----------------------------------------------------

    def write(self, node_host: str, path: str, size: int):
        """Write a file from a node: bytes flow node -> fs frontend."""
        self._check_up()
        flow = self.fabric.start_transfer(node_host, self.host, size,
                                          name=f"pfs-write:{path}")
        yield flow.done
        self._check_up()
        self.files[path] = size
        self.kernel.trace.emit("pfs.write", fs=self.name, path=path, size=size)
        return size

    def read(self, node_host: str, path: str, size: int | None = None):
        """Read a file to a node: bytes flow fs frontend -> node.  Given
        ``size``, read that many bytes from under ``path`` instead (one
        node's pipeline-parallel shard of a model directory)."""
        self._check_up()
        if size is None:
            size = self.stat(path)
        flow = self.fabric.start_transfer(self.host, node_host, size,
                                          name=f"pfs-read:{path}")
        yield flow.done
        self._check_up()
        self.kernel.trace.emit("pfs.read", fs=self.name, path=path, size=size)
        return size
