"""A Milvus-like vector database service (containerized).

Supports collections of fixed-dimension vectors with insert and top-k
cosine search — enough to compose RAG-style stacks with the inference
server in examples, exercising the same deploy/ingress machinery as vLLM.
Vector math is real (numpy), so search results are exact.
"""

from __future__ import annotations

import numpy as np

from ..containers.image import (ExecutionExpectations, ImageManifest,
                                make_layers, register_app)
from ..containers.runtime import ContainerApp, ContainerContext
from ..errors import APIError
from ..net.http import HttpResponse, HttpService
from ..units import GiB


def vectordb_image(tag: str = "v2.4") -> ImageManifest:
    return ImageManifest(
        repository="milvusdb/milvus", tag=tag,
        layers=make_layers(f"milvus:{tag}", 2 * GiB, count=5),
        app="vectordb",
        expectations=ExecutionExpectations(run_as_root=True,
                                           writable_rootfs=True,
                                           host_network=True),
        entrypoint="milvus")


class _Collection:
    def __init__(self, dim: int):
        self.dim = dim
        self.vectors = np.empty((0, dim), dtype=np.float32)
        self.payloads: list[dict] = []

    def insert(self, vectors: np.ndarray, payloads: list[dict]) -> None:
        self.vectors = np.vstack([self.vectors, vectors.astype(np.float32)])
        self.payloads.extend(payloads)

    def search(self, query: np.ndarray, k: int) -> list[dict]:
        if len(self.payloads) == 0:
            return []
        q = query / (np.linalg.norm(query) + 1e-12)
        norms = np.linalg.norm(self.vectors, axis=1) + 1e-12
        scores = (self.vectors @ q) / norms
        top = np.argsort(-scores)[:k]
        return [{"score": float(scores[i]), **self.payloads[i]} for i in top]


@register_app("vectordb")
class VectorDbService(ContainerApp):
    """HTTP API: /collections (PUT), /insert, /search, /health."""

    STARTUP_SECONDS = 20.0

    def __init__(self):
        self.collections: dict[str, _Collection] = {}
        self.service: HttpService | None = None

    def startup(self, ctx: ContainerContext):
        ctx.check_expectations()
        yield self.STARTUP_SECONDS
        port = int(ctx.env.get("MILVUS_PORT", "19530"))
        self.service = HttpService(ctx.fabric, ctx.hostname, port,
                                   self._handle, name="milvus")

    def run(self, ctx: ContainerContext):
        yield ctx.stop_event

    def shutdown(self, ctx: ContainerContext) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    # -- handlers --------------------------------------------------------------------

    def _handle(self, request) -> HttpResponse:
        body = request.json or {}
        if request.path == "/health":
            return HttpResponse(200, json={"status": "ok"})
        if request.path == "/collections":
            name = body.get("name")
            dim = int(body.get("dim", 0))
            if not name or dim < 1:
                raise APIError(400, "need collection name and dim >= 1")
            if name not in self.collections:
                self.collections[name] = _Collection(dim)
            return HttpResponse(200, json={"created": name, "dim": dim})
        if request.path == "/insert":
            coll = self._collection(body)
            vectors = np.asarray(body.get("vectors", []), dtype=np.float32)
            payloads = body.get("payloads", [])
            if vectors.ndim != 2 or vectors.shape[1] != coll.dim:
                raise APIError(400, f"vectors must be (n, {coll.dim})")
            if len(payloads) != vectors.shape[0]:
                raise APIError(400, "payloads/vectors length mismatch")
            coll.insert(vectors, payloads)
            return HttpResponse(200, json={"inserted": int(vectors.shape[0])})
        if request.path == "/search":
            coll = self._collection(body)
            query = np.asarray(body.get("query", []), dtype=np.float32)
            if query.shape != (coll.dim,):
                raise APIError(400, f"query must have dim {coll.dim}")
            hits = coll.search(query, int(body.get("k", 5)))
            return HttpResponse(200, json={"hits": hits})
        return HttpResponse(404, json={"error": f"no route {request.path}"})

    def _collection(self, body: dict) -> _Collection:
        name = body.get("collection")
        coll = self.collections.get(name)
        if coll is None:
            raise APIError(404, f"collection {name!r} not found")
        return coll
