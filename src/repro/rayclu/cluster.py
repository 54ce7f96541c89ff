"""Ray cluster: head/worker bootstrap, GCS, placement groups."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import CapacityError, StateError
from ..hardware.node import Node
from ..simkernel import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel import SimKernel

#: Worker registration handshake time (GCS heartbeat interval-ish).
JOIN_DELAY = 2.0
#: Head bootstrap (GCS + dashboard + raylet startup).
HEAD_BOOT_DELAY = 5.0


@dataclass
class RayNode:
    """One raylet: a node contributing GPUs to the cluster."""

    node: Node
    is_head: bool = False
    joined_at: float = 0.0
    gpus_reserved: int = 0

    @property
    def gpus_total(self) -> int:
        return self.node.spec.gpu_count

    @property
    def gpus_available(self) -> int:
        return self.gpus_total - self.gpus_reserved


@dataclass
class PlacementGroup:
    """A reservation of GPU bundles across raylets (STRICT_SPREAD-ish:
    one bundle per node, as vLLM uses for pipeline stages)."""

    bundles: list[tuple[RayNode, int]] = field(default_factory=list)

    @property
    def nodes(self) -> list[Node]:
        return [rn.node for rn, _ in self.bundles]


class RayCluster:
    """A Ray cluster over a set of hardware nodes."""

    def __init__(self, kernel: SimKernel):
        self.kernel = kernel
        self.head: RayNode | None = None
        self.workers: list[RayNode] = []
        #: fires once, at :meth:`shutdown`; every raylet exits on it
        self.stopped: Event = kernel.event()

    # -- bootstrap (paper Figure 11 flow) ----------------------------------------

    @property
    def nodes(self) -> list[RayNode]:
        return ([self.head] if self.head else []) + self.workers

    def start_head(self, node: Node):
        """``ray start --head`` on a node (generator)."""
        if self.head is not None:
            raise StateError("head already started")
        yield HEAD_BOOT_DELAY
        self.head = RayNode(node=node, is_head=True,
                            joined_at=self.kernel.now)
        self.kernel.trace.emit("ray.head.up", node=node.hostname)
        return self.head

    def join_worker(self, node: Node):
        """``ray start --address=<head>`` on a worker node (generator)."""
        if self.head is None:
            # Workers retry until the head's GCS answers.
            while self.head is None:
                yield 1.0
        yield JOIN_DELAY
        worker = RayNode(node=node, joined_at=self.kernel.now)
        self.workers.append(worker)
        self.kernel.trace.emit("ray.worker.join", node=node.hostname,
                               cluster_size=len(self.nodes))
        return worker

    def wait_for_size(self, n: int):
        """Block until the cluster has ``n`` raylets (generator)."""
        while len(self.nodes) < n:
            yield 1.0
        return self

    # -- resources ---------------------------------------------------------------------

    def create_placement_group(self, gpus_per_bundle: int,
                               n_bundles: int) -> PlacementGroup:
        """Reserve one GPU bundle on each of ``n_bundles`` distinct nodes."""
        if self.stopped.triggered:
            raise StateError("ray cluster is shut down")
        eligible = [rn for rn in self.nodes
                    if rn.gpus_available >= gpus_per_bundle]
        if len(eligible) < n_bundles:
            raise CapacityError(
                f"placement group wants {n_bundles} bundles of "
                f"{gpus_per_bundle} GPUs; only {len(eligible)} nodes "
                "have capacity")
        group = PlacementGroup()
        for rn in eligible[:n_bundles]:
            rn.gpus_reserved += gpus_per_bundle
            group.bundles.append((rn, gpus_per_bundle))
        self.kernel.trace.emit("ray.pg.ready", bundles=n_bundles,
                               gpus_per_bundle=gpus_per_bundle)
        return group

    def shutdown(self) -> None:
        """``ray stop`` on the head: the GCS goes, and every raylet with
        it.  Idempotent."""
        if self.stopped.triggered:
            return
        self.head = None
        self.workers.clear()
        self.stopped.succeed(self)
        self.kernel.trace.emit("ray.shutdown")
