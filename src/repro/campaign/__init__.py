"""Campaign subsystem: declarative scenario specs + a parallel sweep runner.

PR 1 (fleet) and PR 2 (chaos) each run one scenario per process.  This
package turns those bespoke runners into a scenario *engine*: a
:class:`ScenarioSpec` declares everything one cell needs (topology,
platforms, traffic, autoscaling, chaos, horizon, seed) as a single
validated, hashable value; a :class:`CampaignGrid` sweeps spec fields
over cartesian axes; and the :class:`CampaignRunner` fans the cells out
across a process pool and merges per-cell scorecards into one
deterministic ``campaign_scorecard.json`` — byte-identical regardless of
worker count.
"""

from .runner import (SCHEMA, CampaignGrid, CampaignRunner, demo_grid,
                     disagg_grid, play, run_cell, scorecard_text,
                     sessions_grid, smoke_grid)
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
    "demo_grid",
    "disagg_grid",
    "get_path",
    "play",
    "run_cell",
    "scorecard_text",
    "sessions_grid",
    "set_path",
    "smoke_grid",
]
