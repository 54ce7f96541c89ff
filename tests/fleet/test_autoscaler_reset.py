"""Autoscaler cooldown state across back-to-back scenarios.

Cooldowns (``_last_up``/``_last_down``) are scenario-relative rate
limiters.  The regression pinned here: a fleet reused for a second
``run_scenario`` on the same kernel clock used to carry the first
scenario's last scale timestamps into the second, silently vetoing its
first scale decision for up to a full cooldown of simulated time.
"""

import hashlib
import math

from repro.campaign import ScenarioSpec, ScheduleSpec, SiteSpec
from repro.fleet import AutoscalerConfig, Fleet, SloSpec

QUANT = "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16"


def test_reset_clears_cooldowns_streak_and_tapes():
    fleet = Fleet(ScenarioSpec(
        seed=13, model=QUANT, tensor_parallel_size=2, platforms=("hops",),
        site=SiteSpec(hops_nodes=4, eldorado_nodes=1, goodall_nodes=1,
                      cee_nodes=1)))
    scaler = fleet.autoscaler
    scaler._last_up = 5000.0
    scaler._last_down = 4000.0
    scaler._low_streak = 3
    empty = scaler.digest()
    scaler.events.append(object())
    scaler._fold(10.0, 1, 3, 1)
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
    spec = ScenarioSpec(
        name="cooldown", seed=31, model=QUANT, tensor_parallel_size=2,
        platforms=("hops",), horizon=2400.0,
        site=SiteSpec(hops_nodes=6, eldorado_nodes=2, goodall_nodes=3,
                      cee_nodes=1),
        # 5 rps bursts for the first quarter of every 2700 s: scenario 1
        # starts (after the ~345 s deploy) inside the first burst and
        # scenario 2 (at ~2755 s) inside the second, so each opens with
        # a backlog one replica cannot serve.
        schedule=ScheduleSpec(kind="pulse", rate_rps=5.0, period=2700.0,
                              duty=0.25),
        slo=SloSpec(ttft_target=10.0, e2e_target=120.0),
        autoscaler=AutoscalerConfig(
            min_replicas=1, max_replicas=3, target_outstanding=8.0,
            up_cooldown=10_000_000.0, down_cooldown=10_000_000.0,
            low_streak=4))
    fleet = Fleet(spec)
    kernel = fleet.kernel

    def campaign(env):
        yield from fleet.start()
        first = yield from fleet.run_scenario()
        while len(fleet.replicas) > 1:     # hand scenario 2 headroom
            yield from fleet.remove_replica()
        second = yield from fleet.run_scenario()
        return first, second

    first, second = kernel.run(until=kernel.spawn(campaign(kernel)))
    ups_first = [e for e in first.scale_events if e.action == "up"]
    ups_second = [e for e in second.scale_events if e.action == "up"]
    assert ups_first, "scenario 1 never scaled — burst too weak for the test"
    assert ups_second, "stale cooldown leaked into scenario 2"
