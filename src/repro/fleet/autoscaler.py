"""Elastic replica autoscaler: the K8s-style control loop, site-wide.

The paper notes HPC users can recreate Kubernetes-style resilience "with
techniques like using cron jobs and deploying their own request routers";
this is the scaling half of that story.  A control loop samples the
router's per-backend outstanding-request counts (the same signal a
horizontal pod autoscaler reads from metrics), computes a desired replica
count, and converges the fleet toward it through the unified
:class:`~repro.core.deployer.Deployer` — so one autoscaler grows and
shrinks capacity across Slurm, Flux, *and* OpenShift platforms at once.

Scaling up is slow on purpose: a new vLLM replica pays image pull, weight
streaming, and engine init (minutes of simulated time), which is exactly
why the loop scales by up to ``max_step_up`` replicas per decision and
holds a cooldown before reconsidering.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigurationError, ReproError, StateError
from ..simkernel.ticks import TickRun, chain_blocks, ticks_until

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel import Event
    from .fleet import Fleet


@dataclass(frozen=True)
class AutoscalerConfig:
    """Control-loop tuning.

    ``target_outstanding`` is the per-replica in-flight budget: the loop
    aims for ``ceil(total_outstanding / target_outstanding)`` replicas,
    clamped to ``[min_replicas, max_replicas]``.
    """

    min_replicas: int = 1
    max_replicas: int = 4
    target_outstanding: float = 8.0
    scale_down_threshold: float = 1.0   # per-replica outstanding
    low_streak: int = 5                 # consecutive low samples to go down
    interval: float = 30.0
    up_cooldown: float = 120.0
    down_cooldown: float = 600.0
    max_step_up: int = 2
    drain_timeout: float = 180.0

    def __post_init__(self):
        # Validate every knob ScenarioSpec can reach: a degenerate
        # config must fail at construction, not as a ZeroDivisionError
        # (target_outstanding=0) or a silently stuck loop (max_step_up=0,
        # negative cooldowns) deep inside a campaign cell.
        if not (1 <= self.min_replicas <= self.max_replicas):
            raise ConfigurationError(
                "need 1 <= min_replicas <= max_replicas")
        if self.target_outstanding <= 0 or self.interval <= 0:
            raise ConfigurationError(
                "target_outstanding and interval must be positive")
        if self.scale_down_threshold >= self.target_outstanding:
            raise ConfigurationError(
                "scale_down_threshold must be below target_outstanding")
        if self.max_step_up < 1:
            raise ConfigurationError("max_step_up must be >= 1")
        if self.up_cooldown < 0 or self.down_cooldown < 0:
            raise ConfigurationError("cooldowns must be >= 0")
        if self.low_streak < 1:
            raise ConfigurationError("low_streak must be >= 1")
        if self.drain_timeout < 0:
            raise ConfigurationError("drain_timeout must be >= 0")


@dataclass
class ScaleEvent:
    """One autoscaler action, for the scenario report."""

    time: float
    action: str                 # "up" | "down" | "up_failed"
    replicas_before: int
    replicas_after: int
    outstanding: float
    reason: str = ""

    def row(self) -> dict:
        return {"t": round(self.time, 1), "action": self.action,
                "replicas": f"{self.replicas_before}->{self.replicas_after}",
                "outstanding": round(self.outstanding, 1),
                "reason": self.reason}


#: one tick's (time, replicas, outstanding, healthy), as folded into
#: :meth:`Autoscaler.digest`.
_SAMPLE = struct.Struct("<dqqq")
#: :data:`_SAMPLE` as a numpy record: a run's samples, packed alike
_SAMPLES = np.dtype([("t", "<f8"), ("replicas", "<i8"),
                     ("outstanding", "<i8"), ("healthy", "<i8")])


class Autoscaler:
    """The control loop bound to one :class:`~repro.fleet.fleet.Fleet`."""

    def __init__(self, fleet: Fleet, config: AutoscalerConfig):
        self.fleet = fleet
        self.config = config
        self.kernel = fleet.kernel
        self.events: list[ScaleEvent] = []
        #: running SHA-256 over every tick's load sample, live and
        #: closed-form alike (see :meth:`digest`).
        self._samples = hashlib.sha256()
        self._scaling = False
        self._last_up = -math.inf
        self._last_down = -math.inf
        self._low_streak = 0
        #: time of the last tick played, live or closed-form: the
        #: anchor of this loop's stepped tick chain.
        self._tick = 0.0

    def reset(self) -> None:
        """Fresh accounting for a new scenario, cooldowns included.

        Cooldowns are *scenario-relative* rate limiters, not fleet
        history: a scenario that ends right after a scale event must not
        leak a stale ``_last_up``/``_last_down`` into the next scenario
        on the same fleet, silently blocking its first scale decision
        for up to ``down_cooldown`` simulated seconds.
        """
        self.events = []
        self._samples = hashlib.sha256()
        self._low_streak = 0
        self._last_up = -math.inf
        self._last_down = -math.inf

    # -- signal -----------------------------------------------------------------

    def desired_replicas(self, outstanding: float) -> int:
        cfg = self.config
        want = math.ceil(outstanding / cfg.target_outstanding)
        return max(cfg.min_replicas, min(cfg.max_replicas, want))

    def digest(self) -> str:
        """SHA-256 over every tick's ``(time, replicas, outstanding,
        healthy)`` since the last :meth:`reset`: the witness that
        closed-form ticks sample what stepped ticks would."""
        return self._samples.hexdigest()

    def _fold(self, t: float, replicas: int, outstanding: int,
              healthy: int) -> None:
        self._samples.update(_SAMPLE.pack(t, replicas, outstanding, healthy))

    # -- control loop -----------------------------------------------------------

    def next_decision_tick(self, bound: float) -> float:
        """First tick on this loop's chain, before ``bound``, at which a
        zero-load sample could change the fleet (+inf when none).

        The autoscaler's share of the fleet's quiet-window edge (see
        :meth:`~repro.fleet.governor.FleetFastForward.edge`).  With zero
        load the only possible decisions are a scale-up back to
        ``min_replicas`` and a scale-down once the low streak and both
        cooldowns allow it, all fixed by the state of the last tick
        played and the tick chain itself.
        """
        cfg = self.config
        n = len(self.fleet.replicas)
        t = self._tick + cfg.interval
        if n < cfg.min_replicas:
            return t
        if n == cfg.min_replicas or cfg.scale_down_threshold <= 0:
            return math.inf
        # Every condition, once met on the chain, stays met: the first
        # tick that meets all three is the decision tick.
        need = cfg.low_streak - self._low_streak - 1
        seen = 0
        steps = (cfg.interval,)
        blocks = chain_blocks(t, steps, ticks_until(t, steps, bound))
        while True:
            ticks = next(blocks)
            ok = ((ticks - self._last_down >= cfg.down_cooldown)
                  & (ticks - self._last_up >= cfg.down_cooldown))
            ok[:max(0, need - seen)] = False
            if ok.any():
                hit = float(ticks[ok.argmax()])
                return hit if hit < bound else math.inf
            if ticks[-1] >= bound:
                return math.inf
            seen += len(ticks)

    def _play_idle(self, ticks: TickRun) -> None:
        """Closed-form ticks over an idle fleet: each samples zero load
        and extends the low streak, deciding nothing (they all precede
        :meth:`next_decision_tick`).  The run's samples fold in one
        digest update, packed as :data:`_SAMPLE` packs them one by one."""
        router = self.fleet.router_app
        times = ticks.times()
        samples = np.empty(len(times), _SAMPLES)
        samples["t"] = times
        samples["replicas"] = len(self.fleet.replicas)
        samples["outstanding"] = router.outstanding
        samples["healthy"] = router.healthy_backends
        self._samples.update(samples.tobytes())
        if self.config.scale_down_threshold > 0:
            self._low_streak += len(times)
        else:
            self._low_streak = 0
        self._tick = float(times[-1])

    def run(self, stop_event: Event):
        """Generator process: sample, decide, and converge until stopped."""
        kernel = self.kernel
        cfg = self.config
        ff = self.fleet.ff
        self._tick = kernel.now
        while (yield from ff.wait_tick(cfg.interval, stop_event,
                                       idle=self._play_idle)):
            now = self._tick = kernel.now
            router = self.fleet.router_app
            n = len(self.fleet.replicas)
            outstanding = router.outstanding
            self._fold(now, n, outstanding, router.healthy_backends)
            if self._scaling:
                continue  # a deploy/drain is already converging
            desired = self.desired_replicas(outstanding)
            if outstanding / max(n, 1) < cfg.scale_down_threshold:
                self._low_streak += 1
            else:
                self._low_streak = 0
            # _scaling is raised here, not when the spawned action
            # starts later this instant, so the fleet reads as busy
            # from the decision on.
            if desired > n and now - self._last_up >= cfg.up_cooldown:
                self._low_streak = 0
                self._scaling = True
                step = min(desired - n, cfg.max_step_up)
                kernel.spawn(self._scale_up(step, outstanding),
                             name="autoscaler:up")
            elif (n > cfg.min_replicas
                  and self._low_streak >= cfg.low_streak
                  and now - self._last_down >= cfg.down_cooldown
                  and now - self._last_up >= cfg.down_cooldown):
                self._low_streak = 0
                self._scaling = True
                kernel.spawn(self._scale_down(outstanding),
                             name="autoscaler:down")

    # -- actions ----------------------------------------------------------------

    def _scale_up(self, step: int, outstanding: int):
        kernel = self.kernel
        before = len(self.fleet.replicas)
        reason = (f"outstanding={outstanding} > "
                  f"{self.config.target_outstanding:g}/replica x {before}")
        try:
            added = yield from self.fleet.add_replicas(step)
        except (ReproError, StateError) as exc:
            self.events.append(ScaleEvent(
                kernel.now, "up_failed", before, len(self.fleet.replicas),
                outstanding, reason=str(exc)))
            kernel.trace.emit("fleet.scale_up_failed", error=str(exc))
            return
        finally:
            self._scaling = False
            self._last_up = kernel.now
        after = len(self.fleet.replicas)
        self.events.append(ScaleEvent(
            kernel.now, "up", before, after, outstanding,
            reason=reason))
        kernel.trace.emit("fleet.scale_up", added=len(added),
                          replicas=after)

    def _scale_down(self, outstanding: int):
        kernel = self.kernel
        before = len(self.fleet.replicas)
        try:
            removed = yield from self.fleet.remove_replica(
                drain_timeout=self.config.drain_timeout)
        finally:
            self._scaling = False
            self._last_down = kernel.now
        after = len(self.fleet.replicas)
        if removed is None:
            return
        self.events.append(ScaleEvent(
            kernel.now, "down", before, after, outstanding,
            reason=(f"outstanding/replica = "
                    f"{outstanding / max(before, 1):.2f} < "
                    f"{self.config.scale_down_threshold:g}")))
        kernel.trace.emit("fleet.scale_down", removed=removed.name,
                          replicas=after)
