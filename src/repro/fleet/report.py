"""The scorecard of one fleet scenario: :class:`FleetReport`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..simkernel.ticks import TickLog

if TYPE_CHECKING:  # pragma: no cover
    from ..chaos.orchestrator import ResilienceReport
    from .autoscaler import ScaleEvent


@dataclass
class FleetReport:
    """Scorecard of one scenario run."""

    label: str
    duration: float
    arrivals: int
    slo: object                      # SloReport
    scale_events: list[ScaleEvent]
    replica_timeline: list[tuple[float, int]]
    #: SLO monitor rows as stored: one row per live tick or quiet
    #: window (see :attr:`snapshots`)
    monitor: TickLog[dict] = field(default_factory=TickLog)
    #: chaos-orchestrator resilience scorecard (None outside chaos runs)
    resilience: dict | None = None
    #: the typed per-fault reports behind ``resilience``, one per
    #: injection window (not serialized)
    faults: list[ResilienceReport] = field(default_factory=list)
    #: session-workload accounting (None for single-shot scenarios);
    #: when set, ``arrivals`` counts session *starts*, not requests.
    sessions: dict | None = None
    #: observability scorecard: span/metrics/scrape digests and counts
    #: (None when the scenario ran with observability fully off).
    obs: dict | None = None
    _snapshots: list[dict] | None = field(default=None, init=False,
                                          repr=False, compare=False)

    @property
    def snapshots(self) -> list[dict]:
        """The SLO monitor rows, one per tick, in time order.

        Expanded from :attr:`monitor` on first read and cached: each
        stored row once per tick, with that tick's time.
        """
        if self._snapshots is None:
            self._snapshots = [{**row, "t": round(t, 1)}
                               for row, t in self.monitor.expand()]
        return self._snapshots

    @property
    def peak_replicas(self) -> int:
        return max((n for _, n in self.replica_timeline), default=0)

    @property
    def final_replicas(self) -> int:
        return self.replica_timeline[-1][1] if self.replica_timeline else 0

    @property
    def replica_seconds(self) -> float:
        """Integral of replica count over the scenario: the cost metric.

        Campaign aggregates divide goodput by this to price resilience
        (how much extra capacity a chaos policy burns).
        """
        if not self.replica_timeline:
            return 0.0
        end = self.replica_timeline[0][0] + self.duration
        total = 0.0
        for i, (t, n) in enumerate(self.replica_timeline):
            t_next = (self.replica_timeline[i + 1][0]
                      if i + 1 < len(self.replica_timeline) else end)
            total += n * max(0.0, min(t_next, end) - t)
        return total

    def summary(self) -> str:
        hours = self.duration / 3600.0
        lines = [f"fleet scenario {self.label!r}: {self.arrivals} arrivals "
                 f"over {hours:.1f} h, replicas peak={self.peak_replicas} "
                 f"final={self.final_replicas}",
                 self.slo.summary(),
                 "  scale events:"]
        if not self.scale_events:
            lines.append("    (none)")
        for event in self.scale_events:
            lines.append(
                f"    [{event.time / 3600.0:6.2f} h] {event.action:9s} "
                f"{event.replicas_before}->{event.replicas_after}  "
                f"({event.reason})")
        return "\n".join(lines)

    def to_json(self) -> dict:
        out = {
            "label": self.label,
            "duration_s": round(self.duration, 1),
            "arrivals": self.arrivals,
            "peak_replicas": self.peak_replicas,
            "final_replicas": self.final_replicas,
            "replica_seconds": round(self.replica_seconds, 1),
            "slo": self.slo.to_json(),
            "scale_events": [e.row() for e in self.scale_events],
            "replica_timeline": [(round(t, 1), n)
                                 for t, n in self.replica_timeline],
            "snapshots": self.snapshots,
        }
        if self.resilience is not None:
            out["resilience"] = self.resilience
        if self.sessions is not None:
            out["sessions"] = self.sessions
        if self.obs is not None:
            out["obs"] = self.obs
        return out
