"""aws-cli-style S3 client with the configuration nuances from the paper.

Figure 3 of the paper shows the real command and notes: *"whether the
AWS_REQUEST_CHECKSUM_CALCULATION environment variable setting is required
depends on the version of the AWS client container and the S3 service
implementation"*.  We model exactly that: a client version >= 2.23 computes
new-style checksums by default and fails against a service that does not
support them unless the env var is set to ``when_required``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from collections.abc import Iterable
from typing import TYPE_CHECKING

from ..errors import APIError
from .object_store import ObjectStore

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel import SimKernel

#: aws-cli versions from 2.23 on enable CRC request checksums by default.
NEW_CHECKSUM_DEFAULT_SINCE = (2, 23)


@dataclass
class S3ClientConfig:
    """Environment-variable driven configuration (paper Figure 3)."""

    access_key_id: str | None = None
    secret_access_key: str | None = None
    endpoint_url: str | None = None
    request_checksum_calculation: str = "when_supported"  # aws default
    max_attempts: int = 1
    client_version: tuple[int, int] = (2, 27)

    @classmethod
    def from_env(cls, env: dict[str, str],
                 client_version: tuple[int, int] = (2, 27)) -> S3ClientConfig:
        return cls(
            access_key_id=env.get("AWS_ACCESS_KEY_ID"),
            secret_access_key=env.get("AWS_SECRET_ACCESS_KEY"),
            endpoint_url=env.get("AWS_ENDPOINT_URL"),
            request_checksum_calculation=env.get(
                "AWS_REQUEST_CHECKSUM_CALCULATION", "when_supported"),
            max_attempts=int(env.get("AWS_MAX_ATTEMPTS", "1")),
            client_version=client_version,
        )


class S3Client:
    """A client bound to a host, talking to a (simulated) ObjectStore."""

    def __init__(self, kernel: SimKernel, store: ObjectStore, host: str,
                 config: S3ClientConfig):
        self.kernel = kernel
        self.store = store
        self.host = host
        self.config = config

    # -- validation -------------------------------------------------------------

    def _preflight(self) -> None:
        cfg = self.config
        if cfg.endpoint_url is None:
            # Without AWS_ENDPOINT_URL the client would try to reach
            # aws.amazon.com — unreachable in an air-gapped site.
            raise APIError(
                0, "could not connect to AWS: no AWS_ENDPOINT_URL set and "
                   "the site is disconnected from the internet")
        if cfg.endpoint_url not in (self.store.endpoint,
                                    f"https://{self.store.endpoint}",
                                    f"http://{self.store.endpoint}"):
            raise APIError(0, f"could not resolve endpoint {cfg.endpoint_url!r}")
        if not self.store.check_credentials(cfg.access_key_id,
                                            cfg.secret_access_key):
            raise APIError(403, "InvalidAccessKeyId or SignatureDoesNotMatch")
        if (cfg.client_version >= NEW_CHECKSUM_DEFAULT_SINCE
                and not self.store.supports_new_checksums
                and cfg.request_checksum_calculation != "when_required"):
            raise APIError(
                400, "XAmzContentSHA256Mismatch: service rejected CRC "
                     "request checksum; set "
                     "AWS_REQUEST_CHECKSUM_CALCULATION=when_required")

    # -- operations (generators) ---------------------------------------------------

    def put_object(self, bucket: str, key: str, size: int):
        self._preflight()
        attempts = 0
        while True:
            attempts += 1
            try:
                meta = yield from self.store.put_object(
                    self.host, bucket, key, size)
                return meta
            except APIError:
                if attempts >= self.config.max_attempts:
                    raise
                yield min(2.0 ** attempts, 30.0)

    def get_object(self, bucket: str, key: str):
        self._preflight()
        meta = yield from self.store.get_object(self.host, bucket, key)
        return meta

    def list_objects(self, bucket: str, prefix: str = ""):
        self._preflight()
        return self.store.list_objects(bucket, prefix)

    def sync(self, files: dict[str, int], bucket: str, prefix: str = "",
             exclude: Iterable[str] = ()):
        """``aws s3 sync``: upload files missing or changed at the target.

        ``files`` maps relative paths to sizes (the simulated local
        directory).  Returns the list of keys actually uploaded.  The
        paper's command excludes ``.git*`` — pass ``exclude=(".git*",)``.
        """
        self._preflight()
        uploaded: list[str] = []
        existing = {m.key: m for m in self.store.list_objects(bucket, prefix)}
        for rel, size in sorted(files.items()):
            if any(fnmatch(rel, pat) or rel.startswith(pat.rstrip("*"))
                   for pat in exclude):
                continue
            key = f"{prefix}{rel}" if not prefix or prefix.endswith("/") \
                else f"{prefix}/{rel}"
            old = existing.get(key)
            if old is not None and old.size == size:
                continue  # unchanged: sync skips it
            yield from self.store.put_object(self.host, bucket, key, size)
            uploaded.append(key)
        return uploaded
