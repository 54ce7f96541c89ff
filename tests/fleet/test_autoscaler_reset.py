"""Autoscaler cooldown state across back-to-back scenarios.

Cooldowns (``_last_up``/``_last_down``) are scenario-relative rate
limiters.  The regression pinned here: a fleet reused for a second
``run_scenario`` on the same kernel clock used to carry the first
scenario's last scale timestamps into the second, silently vetoing its
first scale decision for up to a full cooldown of simulated time.
"""

import hashlib
import math

from repro.core import build_sandia_site
from repro.fleet import (AutoscalerConfig, Fleet, FleetConfig,
                         FlashCrowdSchedule, PoissonSchedule, SloSpec)

QUANT = "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16"


def test_reset_clears_cooldowns_streak_and_tapes():
    site = build_sandia_site(seed=13, hops_nodes=4, eldorado_nodes=1,
                             goodall_nodes=1, cee_nodes=1)
    fleet = Fleet(site, FleetConfig(model=QUANT, tensor_parallel_size=2,
                                    platforms=("hops",)))
    scaler = fleet.autoscaler
    scaler._last_up = 5000.0
    scaler._last_down = 4000.0
    scaler._low_streak = 3
    empty = scaler.digest()
    scaler.events.append(object())
    scaler._fold(10.0, 1, {"outstanding": 3, "healthy": 1})
    assert scaler.digest() != empty
    scaler.reset()
    assert scaler._last_up == -math.inf
    assert scaler._last_down == -math.inf
    assert scaler._low_streak == 0
    assert scaler.events == [] and scaler.digest() == empty
    assert empty == hashlib.sha256().hexdigest()


def test_second_scenario_can_scale_despite_huge_cooldown():
    """With a cooldown longer than the whole campaign, only a reset
    between scenarios lets scenario 2 take its scale-up — stale
    ``_last_up`` from scenario 1 would veto it for the entire horizon."""
    site = build_sandia_site(seed=31, hops_nodes=6, eldorado_nodes=2,
                             goodall_nodes=3, cee_nodes=1)
    config = FleetConfig(
        model=QUANT, tensor_parallel_size=2, platforms=("hops",),
        slo=SloSpec(ttft_target=10.0, e2e_target=120.0),
        autoscaler=AutoscalerConfig(
            min_replicas=1, max_replicas=3, target_outstanding=8.0,
            up_cooldown=10_000_000.0, down_cooldown=10_000_000.0,
            low_streak=4))
    fleet = Fleet(site, config)

    def _flash(at: float) -> FlashCrowdSchedule:
        # Flash windows are absolute sim time, so scenario 2 needs its
        # own burst placed after the clock has moved on.
        return FlashCrowdSchedule(PoissonSchedule(0.05), start=at + 300.0,
                                  duration=600.0, multiplier=200.0,
                                  ramp=60.0)

    def campaign(env):
        yield from fleet.start(initial_replicas=1)
        first = yield from fleet.run_scenario(_flash(env.now), horizon=2400.0,
                                              label="first")
        while len(fleet.replicas) > 1:     # hand scenario 2 headroom
            yield from fleet.remove_replica()
        second = yield from fleet.run_scenario(_flash(env.now),
                                               horizon=2400.0,
                                               label="second")
        return first, second

    first, second = site.kernel.run(
        until=site.kernel.spawn(campaign(site.kernel)))
    ups_first = [e for e in first.scale_events if e.action == "up"]
    ups_second = [e for e in second.scale_events if e.action == "up"]
    assert ups_first, "scenario 1 never scaled — flash too weak for the test"
    assert ups_second, "stale cooldown leaked into scenario 2"
