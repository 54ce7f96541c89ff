"""Fleet-level chaos engineering: fault injection + resilience scorecards.

The paper's reliability story is anecdotal — run 1 of Fig. 12 "crashed
with a batch size of 512 queries", and Kubernetes restarted leaky
containers.  This package turns the PR-1 fleet into a resilience
*evaluation* platform: a :class:`ChaosOrchestrator` schedules fault
injections on the simkernel event loop, a scenario catalog spans every
layer of the converged stack (engine, hardware, network, registry, WLM,
Kubernetes), a :class:`ReplicaSupervisor` plays the paper's "cron jobs +
request routers" recovery story, and every run produces a
:class:`ResilienceReport` (MTTR, SLO attainment under fault, requests
lost vs retried, reaction times) merged into the fleet scorecard.
"""

from .orchestrator import ChaosOrchestrator, ResilienceReport
from .runner import (PLATFORM_FLEETS, case_spec, run_case, run_matrix,
                     scorecard_text)
from .scenarios import CATALOG, ChaosContext, ChaosScenario, catalog
from .supervisor import RepairEvent, ReplicaSupervisor

__all__ = [
    "CATALOG",
    "ChaosContext",
    "ChaosOrchestrator",
    "ChaosScenario",
    "PLATFORM_FLEETS",
    "RepairEvent",
    "ReplicaSupervisor",
    "ResilienceReport",
    "case_spec",
    "catalog",
    "run_case",
    "run_matrix",
    "scorecard_text",
]
