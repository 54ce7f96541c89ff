"""Campaign subsystem: declarative scenario specs + a parallel sweep runner.

A :class:`ScenarioSpec` declares everything one cell needs as a single
validated, hashable value; a :class:`CampaignGrid` sweeps spec fields
over cartesian axes; the :class:`CampaignRunner` fans the cells out
across a process pool and merges one ``campaign_scorecard.json``,
byte-identical for any worker count; and :mod:`.catalogue` names the
built-in scenarios and grids.
"""

from .runner import (SCHEMA, CampaignGrid, CampaignRunner, play, run_cell,
                     scorecard_text)
from .spec import (ChaosEventSpec, ScenarioSpec, ScheduleSpec, SiteSpec,
                   TenantSpec, coerce_chaos, get_path, set_path)

__all__ = [
    "SCHEMA",
    "CampaignGrid",
    "CampaignRunner",
    "ChaosEventSpec",
    "ScenarioSpec",
    "ScheduleSpec",
    "SiteSpec",
    "TenantSpec",
    "coerce_chaos",
    "get_path",
    "play",
    "run_cell",
    "scorecard_text",
    "set_path",
]
