"""S3-like object storage with multi-site replication.

Objects are metadata-only (key, size, etag) — the simulation moves *bytes
over the network*, not contents.  An :class:`ObjectStore` spans one or more
:class:`S3Site` frontends (Albuquerque / Livermore in the paper); writes land
at one site and replicate asynchronously; reads are served from the nearest
site holding the object.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import ConfigurationError, NotFoundError
from ..net.topology import Fabric

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel import SimKernel


@dataclass(frozen=True)
class ObjectMeta:
    """One stored object version."""

    key: str
    size: int
    etag: str
    stored_at: float


def compute_etag(key: str, size: int) -> str:
    """Deterministic pseudo-etag from (key, size).

    Real S3 etags hash contents; we have no contents, so identity is
    (key, size) — enough for sync change-detection semantics.
    """
    return hashlib.md5(f"{key}:{size}".encode()).hexdigest()


class Bucket:
    """A flat key->object namespace."""

    def __init__(self, name: str):
        self.name = name
        self.objects: dict[str, ObjectMeta] = {}

    def put(self, key: str, size: int, now: float) -> ObjectMeta:
        meta = ObjectMeta(key=key, size=size,
                          etag=compute_etag(key, size), stored_at=now)
        self.objects[key] = meta
        return meta

    def get(self, key: str) -> ObjectMeta:
        try:
            return self.objects[key]
        except KeyError:
            raise NotFoundError(f"NoSuchKey: s3://{self.name}/{key}") from None

    def list(self, prefix: str = "") -> list[ObjectMeta]:
        return sorted((m for k, m in self.objects.items()
                       if k.startswith(prefix)), key=lambda m: m.key)

    def delete(self, key: str) -> None:
        self.objects.pop(key, None)

    @property
    def total_bytes(self) -> int:
        return sum(m.size for m in self.objects.values())


@dataclass
class S3Site:
    """One site's S3 frontend: a fabric host plus capacity bookkeeping.

    The host's access link(s) in the fabric model the "16 x 25 Gbps"
    aggregate frontend bandwidth.
    """

    name: str
    host: str
    capacity_bytes: float = 30e15 / 2  # half of ~30 PB per site
    buckets: dict[str, Bucket] = field(default_factory=dict)

    def bucket(self, name: str, create: bool = False) -> Bucket:
        b = self.buckets.get(name)
        if b is None:
            if not create:
                raise NotFoundError(f"NoSuchBucket: {name}")
            b = Bucket(name)
            self.buckets[name] = b
        return b

    @property
    def used_bytes(self) -> int:
        return sum(b.total_bytes for b in self.buckets.values())


class ObjectStore:
    """Site-wide S3 service.

    ``endpoint`` is the logical service name clients must configure
    (``AWS_ENDPOINT_URL`` in the paper's Figure 3).

    ``supports_new_checksums``: recent aws-cli versions compute CRC-based
    request checksums that some S3-compatible implementations reject unless
    the client sets ``AWS_REQUEST_CHECKSUM_CALCULATION=when_required`` —
    the exact nuance the paper highlights as hard for users.
    """

    def __init__(self, kernel: SimKernel, fabric: Fabric,
                 endpoint: str = "s3.site.example",
                 replication_lag: float = 30.0,
                 supports_new_checksums: bool = False):
        self.kernel = kernel
        self.fabric = fabric
        self.endpoint = endpoint
        self.replication_lag = replication_lag
        self.supports_new_checksums = supports_new_checksums
        self.sites: list[S3Site] = []
        self.credentials: dict[str, str] = {}  # access_key -> secret
        # Register on the fabric so containerized clients (aws-cli app)
        # can resolve the endpoint by name.
        stores = getattr(fabric, "object_stores", None)
        if stores is None:
            stores = {}
            fabric.object_stores = stores  # type: ignore[attr-defined]
        stores[endpoint] = self

    # -- setup ------------------------------------------------------------------

    def add_site(self, name: str, host: str,
                 capacity_bytes: float = 15e15) -> S3Site:
        if host not in self.fabric.hosts:
            raise ConfigurationError(f"S3 site host {host!r} not on fabric")
        site = S3Site(name=name, host=host, capacity_bytes=capacity_bytes)
        self.sites.append(site)
        return site

    def add_credentials(self, access_key: str, secret: str) -> None:
        self.credentials[access_key] = secret

    def check_credentials(self, access_key: str | None,
                          secret: str | None) -> bool:
        if access_key is None or secret is None:
            return False
        return self.credentials.get(access_key) == secret

    # -- site selection ------------------------------------------------------------

    def primary(self) -> S3Site:
        if not self.sites:
            raise ConfigurationError("object store has no sites")
        return self.sites[0]

    def nearest_site_with(self, client_host: str, bucket: str,
                          key: str) -> S3Site:
        """Closest (fewest hops) site holding the object."""
        holders = []
        for site in self.sites:
            b = site.buckets.get(bucket)
            if b is not None and key in b.objects:
                holders.append(site)
        if not holders:
            raise NotFoundError(f"NoSuchKey: s3://{bucket}/{key}")
        return min(holders, key=lambda s: len(
            self.fabric.vertex_path(client_host, s.host)))

    # -- data plane (generators: drive from sim processes) -------------------------

    def put_object(self, client_host: str, bucket: str, key: str, size: int):
        """Upload: bytes flow client -> primary site; async replication."""
        site = self.primary()
        flow = self.fabric.start_transfer(client_host, site.host, size,
                                          name=f"s3put:{bucket}/{key}")
        yield flow.done
        meta = site.bucket(bucket, create=True).put(key, size, self.kernel.now)
        self.kernel.trace.emit("s3.put", bucket=bucket, key=key, size=size,
                               site=site.name)
        self._start_replication(bucket, key, size)
        return meta

    def get_object(self, client_host: str, bucket: str, key: str):
        """Download from the nearest replica; returns ObjectMeta."""
        site = self.nearest_site_with(client_host, bucket, key)
        meta = site.bucket(bucket).get(key)
        flow = self.fabric.start_transfer(site.host, client_host, meta.size,
                                          name=f"s3get:{bucket}/{key}")
        yield flow.done
        self.kernel.trace.emit("s3.get", bucket=bucket, key=key,
                               size=meta.size, site=site.name)
        return meta

    def list_objects(self, bucket: str, prefix: str = "") -> list[ObjectMeta]:
        try:
            return self.primary().bucket(bucket).list(prefix)
        except NotFoundError:
            return []

    # -- replication -----------------------------------------------------------------

    def _start_replication(self, bucket: str, key: str, size: int) -> None:
        if len(self.sites) < 2:
            return
        primary = self.primary()

        def replicate(env):
            yield self.replication_lag
            for site in self.sites[1:]:
                flow = self.fabric.start_transfer(
                    primary.host, site.host, size,
                    name=f"s3repl:{bucket}/{key}->{site.name}")
                yield flow.done
                site.bucket(bucket, create=True).put(key, size, env.now)
                env.trace.emit("s3.replicated", bucket=bucket, key=key,
                               site=site.name)

        self.kernel.spawn(replicate(self.kernel), name=f"repl:{key}")
