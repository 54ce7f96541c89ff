"""Container registries and node-side image caches.

Registries are fabric hosts; pulls transfer only the layers a node does not
already cache (OCI layer dedup).  When many nodes start a multi-node service
at once, their pulls share the registry frontend link — the Section 2.3
bottleneck, measured in ``benchmarks/bench_registry_pull_storm.py``.

Quay-like extras: security scanning on push and cross-registry mirroring,
matching Sandia's GitLab -> Quay promotion flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ImagePullError, NotFoundError
from ..net.topology import Fabric
from .image import ImageManifest, parse_ref

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel import SimKernel


@dataclass
class ScanResult:
    image_digest: str
    findings: int
    scanned_at: float


class ImageCache:
    """Per-node layer cache (containers/storage or apptainer cache dir)."""

    def __init__(self, node_host: str):
        self.node_host = node_host
        self.layers: set[str] = set()
        self.images: dict[str, ImageManifest] = {}

    def has_image(self, ref: str) -> bool:
        return ref in self.images

    def missing_bytes(self, manifest: ImageManifest) -> int:
        return sum(layer.size for layer in manifest.layers
                   if layer.digest not in self.layers)

    def admit(self, manifest: ImageManifest) -> None:
        for layer in manifest.layers:
            self.layers.add(layer.digest)
        self.images[manifest.ref] = manifest

    def evict(self, ref: str) -> bool:
        """Drop an image from the cache (GC / node reimage); layers still
        referenced by other cached images are kept."""
        manifest = self.images.pop(ref, None)
        if manifest is None:
            return False
        still_needed = {layer.digest for image in self.images.values()
                        for layer in image.layers}
        for layer in manifest.layers:
            if layer.digest not in still_needed:
                self.layers.discard(layer.digest)
        return True


class Registry:
    """A container registry bound to a fabric host.

    ``scan_on_push`` models Quay's automatic security scanning;
    ``mirrors_to`` replicates pushed images to another registry after a lag
    (Quay's cross-environment mirroring in the paper).
    """

    def __init__(self, kernel: SimKernel, fabric: Fabric, name: str,
                 host: str, scan_on_push: bool = False,
                 scan_duration: float = 45.0):
        self.kernel = kernel
        self.fabric = fabric
        self.name = name
        self.host = host
        self.scan_on_push = scan_on_push
        self.scan_duration = scan_duration
        self.images: dict[str, ImageManifest] = {}
        self.scans: dict[str, ScanResult] = {}
        self.mirrors_to: list[tuple["Registry", float]] = []
        self.pull_count: dict[str, int] = {}
        self.available = True

    # -- control plane ---------------------------------------------------------

    def add_mirror(self, target: Registry, lag: float = 60.0) -> None:
        self.mirrors_to.append((target, lag))

    def set_available(self, up: bool) -> None:
        """Chaos control: a registry in outage fails every pull."""
        self.available = bool(up)
        self.kernel.trace.emit(
            "registry.restored" if up else "registry.outage",
            registry=self.name)

    def resolve(self, ref: str) -> ImageManifest:
        repo, tag = parse_ref(ref)
        manifest = self.images.get(f"{repo}:{tag}")
        if manifest is None:
            raise NotFoundError(
                f"image {ref!r} not found in registry {self.name!r}")
        return manifest

    def has(self, ref: str) -> bool:
        try:
            self.resolve(ref)
            return True
        except NotFoundError:
            return False

    # -- push ------------------------------------------------------------------------

    def push(self, manifest: ImageManifest, from_host: str | None = None):
        """Push an image (generator).  From a host: bytes move; from
        ``None`` the image appears administratively (seeded content)."""
        if from_host is not None:
            flow = self.fabric.start_transfer(
                from_host, self.host, manifest.size,
                name=f"push:{manifest.ref}")
            yield flow.done
        self.images[manifest.ref] = manifest
        self.kernel.trace.emit("registry.push", registry=self.name,
                               ref=manifest.ref, size=manifest.size)
        if self.scan_on_push:
            yield self.scan_duration
            findings = int(self.kernel.rng.stream(
                "registry.scan").integers(0, 12))
            self.scans[manifest.digest] = ScanResult(
                manifest.digest, findings, self.kernel.now)
            self.kernel.trace.emit("registry.scan", registry=self.name,
                                   ref=manifest.ref, findings=findings)
        for target, lag in self.mirrors_to:
            self._mirror(manifest, target, lag)
        return manifest

    def seed(self, manifest: ImageManifest) -> ImageManifest:
        """Administratively add an image (initial site content, no I/O)."""
        self.images[manifest.ref] = manifest
        return manifest

    def _mirror(self, manifest: ImageManifest, target: Registry,
                lag: float) -> None:
        def mirror_proc(env):
            yield lag
            flow = self.fabric.start_transfer(
                self.host, target.host, manifest.size,
                name=f"mirror:{manifest.ref}")
            yield flow.done
            target.images[manifest.ref] = manifest
            env.trace.emit("registry.mirrored", src=self.name,
                           dst=target.name, ref=manifest.ref)
        self.kernel.spawn(mirror_proc(self.kernel),
                          name=f"mirror:{manifest.ref}")

    # -- pull -------------------------------------------------------------------------

    def pull(self, cache: ImageCache, ref: str):
        """Pull ``ref`` into a node's cache (generator).

        Transfers only missing layer bytes; concurrent pulls contend on the
        registry's access link via the flow network.
        """
        if not self.available:
            raise ImagePullError(
                f"registry {self.name!r} is unavailable (outage)",
                sim_time=self.kernel.now)
        try:
            manifest = self.resolve(ref)
        except NotFoundError as exc:
            raise ImagePullError(str(exc), sim_time=self.kernel.now) from exc
        self.pull_count[manifest.ref] = self.pull_count.get(manifest.ref, 0) + 1
        missing = cache.missing_bytes(manifest)
        if missing > 0:
            flow = self.fabric.start_transfer(
                self.host, cache.node_host, missing,
                name=f"pull:{ref}->{cache.node_host}")
            yield flow.done
        cache.admit(manifest)
        self.kernel.trace.emit("registry.pull", registry=self.name, ref=ref,
                               node=cache.node_host, bytes=missing)
        return manifest
