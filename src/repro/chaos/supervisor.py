"""Replica supervisor: the paper's "cron job" half of HPC resilience.

The paper notes HPC users can recreate Kubernetes-style resilience "with
techniques like using cron jobs and deploying their own request
routers".  PR 1 built the router; this is the cron job: a control loop
that inspects every fleet replica, replaces dead ones through the
unified deployer, re-points the router when a Kubernetes pod resurfaces
on a different node, and keeps retrying when a deploy fails mid-outage
(no capacity, registry down).  Every action lands in an event log the
chaos orchestrator mines for reaction times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ReproError, StateError

if TYPE_CHECKING:  # pragma: no cover
    from ..fleet.fleet import Fleet
    from ..simkernel import Event

#: How long a K8s replica may sit not-ready (CrashLoopBackOff,
#: ImagePullBackOff, rescheduling) before the supervisor gives up on
#: self-healing and redeploys the release.
REPLACE_AFTER = 1200.0


@dataclass
class RepairEvent:
    """One supervisor action, for the resilience report."""

    time: float
    replica: str
    action: str        # replace | replaced | replace_failed | rebind
                       # | redeploy | redeploy_failed
    detail: str = ""

    def row(self) -> dict:
        return {"t": round(self.time, 1), "replica": self.replica,
                "action": self.action, "detail": self.detail}


class ReplicaSupervisor:
    """Periodic health sweep over a fleet's replicas, every
    ``fleet.spec.supervisor_interval`` simulated seconds."""

    def __init__(self, fleet: Fleet):
        self.fleet = fleet
        self.kernel = fleet.kernel
        self.events: list[RepairEvent] = []
        self.deficit = 0      # replicas discarded but not yet replaced
        self.replacing = 0    # replacements deploying right now
        self._unhealthy_since: dict[str, float] = {}

    def reset(self) -> None:
        self.events = []
        self.deficit = 0
        self._unhealthy_since = {}

    def _note(self, replica: str, action: str, detail: str = "") -> None:
        self.events.append(RepairEvent(self.kernel.now, replica, action,
                                       detail))
        self.kernel.trace.emit("chaos.repair", replica=replica,
                               action=action, detail=detail)

    # -- control loop -----------------------------------------------------------

    def run(self, stop_event: Event):
        """Generator process: sweep every ``supervisor_interval`` until
        stopped; a sweep quiet-play skips has an empty body (all
        replicas ok)."""
        while (yield from self.fleet.ff.wait_tick(
                self.fleet.spec.supervisor_interval, stop_event)):
            yield from self._sweep()

    def _sweep(self):
        yield from self._work_off_deficit()
        for replica in list(self.fleet.replicas):
            status, detail = self.fleet.replica_status(replica)
            if status == "ok":
                self._unhealthy_since.pop(replica.name, None)
                continue
            if status == "moved":
                self.fleet.rebind_replica(replica, detail)
                self._unhealthy_since.pop(replica.name, None)
                self._note(replica.name, "rebind", detail)
                continue
            first = self._unhealthy_since.setdefault(replica.name,
                                                     self.kernel.now)
            if status == "dead":
                yield from self._replace(replica, detail)
            elif self.kernel.now - first >= REPLACE_AFTER:
                yield from self._replace(
                    replica, f"not ready for "
                    f"{self.kernel.now - first:.0f}s ({detail})")

    def _work_off_deficit(self):
        while self.deficit > 0:
            try:
                added = yield from self.fleet.add_replicas(1)
            except (ReproError, StateError) as exc:
                self._note("-", "redeploy_failed", str(exc))
                return
            self.deficit -= 1
            self._note(added[0].name, "redeploy",
                       f"deficit now {self.deficit}")

    def _replace(self, replica, detail: str):
        self._note(replica.name, "replace", detail)
        self._unhealthy_since.pop(replica.name, None)
        self.replacing += 1
        try:
            successor = yield from self.fleet.replace_replica(replica)
        except (ReproError, StateError) as exc:
            # The dead replica is already deregistered; remember the
            # deficit and redeploy on a later sweep.
            self.deficit += 1
            self._note(replica.name, "replace_failed", str(exc))
            return
        finally:
            self.replacing -= 1
        self._note(successor.name, "replaced",
                   f"for {replica.name} on {successor.platform_name}")
