"""Fleet subsystem: open-loop traffic, SLO tracking, elastic autoscaling.

The paper's evaluation drives one static deployment per platform with
closed-loop concurrency sweeps.  This package is the production-scale
counterpart: realistic open-loop arrivals (:mod:`~repro.fleet.traffic`),
online SLO accounting (:mod:`~repro.fleet.slo`), an elastic replica
autoscaler spanning the converged site's HPC and Kubernetes platforms
(:mod:`~repro.fleet.autoscaler`), and the :class:`~repro.fleet.fleet.Fleet`
handle that ties them together behind one ``run_scenario()`` call.
"""

from .autoscaler import Autoscaler, AutoscalerConfig, ScaleEvent
from .fleet import (DisaggSpec, Fleet, FleetConfig, FleetReport,
                    Replica, TurnResult)
from .slo import (RequestRecord, SloReport, SloSnapshot, SloSpec,
                  SloTracker, TenantStats)
from .traffic import (ArrivalSchedule, DiurnalSchedule, FlashCrowdSchedule,
                      PoissonSchedule, Tenant, TenantMix, TrafficGenerator)

__all__ = [
    "ArrivalSchedule",
    "Autoscaler",
    "AutoscalerConfig",
    "DisaggSpec",
    "DiurnalSchedule",
    "FlashCrowdSchedule",
    "Fleet",
    "FleetConfig",
    "FleetReport",
    "PoissonSchedule",
    "Replica",
    "RequestRecord",
    "ScaleEvent",
    "SloReport",
    "SloSnapshot",
    "SloSpec",
    "SloTracker",
    "Tenant",
    "TenantMix",
    "TenantStats",
    "TrafficGenerator",
    "TurnResult",
]
