"""Grid expansion and the parallel campaign runner.

A :class:`CampaignGrid` is a base :class:`ScenarioSpec` plus sweep axes
(dotted field paths mapped to value lists) and optional explicit cells.
``expand()`` takes the cartesian product, so ``2 platforms x 2 schedules
x 2 chaos modes x 3 seeds`` is four lines of config, not 24 scripts.

The :class:`CampaignRunner` fans expanded cells out across a
``multiprocessing`` pool — every cell builds its *own*
:class:`~repro.simkernel.SimKernel` from its spec, so cells are
embarrassingly parallel — then merges per-cell scorecards into one
deterministic ``campaign_scorecard.json``: rows sorted by cell name,
aggregates computed from the sorted rows, and nothing about pool size or
wall-clock in the payload.  ``--workers 1`` and ``--workers 16`` are
byte-identical.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import pathlib
from dataclasses import dataclass, field
from typing import Any

from ..errors import ConfigurationError
from ..experiments.common import canonical_json_text
from ..fleet.fleet import DisaggSpec, Fleet
from .spec import ChaosEventSpec, ScenarioSpec, _load_text, get_path, set_path

#: Scorecard schema tag; bump on any breaking layout change.
SCHEMA = "campaign_scorecard/v1"


# -- grids ----------------------------------------------------------------------

def _render(value: Any) -> str:
    """A short, stable label for one (coerced) axis value."""
    if isinstance(value, ChaosEventSpec):
        return value.scenario
    if isinstance(value, DisaggSpec):
        return str(value.enabled)
    if isinstance(value, tuple):
        return "+".join(_render(v) for v in value) or "none"
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)


@dataclass
class CampaignGrid:
    """A base spec, sweep axes, and explicit extra cells."""

    base: ScenarioSpec
    axes: dict[str, list] = field(default_factory=dict)
    cells: list[dict] = field(default_factory=list)
    name: str = "campaign"

    @classmethod
    def from_dict(cls, data: dict) -> CampaignGrid:
        known = {"name", "base", "axes", "cells"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown campaign keys: {sorted(unknown)} "
                f"(known: {sorted(known)})")
        base = ScenarioSpec.from_dict(data.get("base", {}))
        axes = {str(k): list(v) for k, v in (data.get("axes") or {}).items()}
        cells = list(data.get("cells") or [])
        return cls(base=base, axes=axes, cells=cells,
                   name=str(data.get("name", "campaign")))

    @classmethod
    def from_file(cls, path: str | pathlib.Path) -> CampaignGrid:
        return cls.from_dict(_load_text(pathlib.Path(path)))

    def expand(self) -> list[tuple[ScenarioSpec, dict[str, str]]]:
        """Every cell of the cartesian grid plus the explicit cells.

        Returns ``(spec, axes_map)`` pairs; ``axes_map`` records the
        rendered axis assignment so the scorecard can aggregate per
        axis; a label renders the value the cell's spec holds, so ``1``,
        ``1.0`` and ``"1.0"`` name one cell.  Cell names must be unique —
        duplicate cells would merge silently in the scorecard.
        """
        axis_items = sorted(self.axes.items())
        for path, values in axis_items:
            if not values:
                raise ConfigurationError(f"axis {path!r} has no values")
        out: list[tuple[ScenarioSpec, dict[str, str]]] = []
        if axis_items or not self.cells:
            # No axes and no explicit cells -> the base itself is the
            # single cell; explicit-cells-only grids skip the bare base.
            for combo in itertools.product(*(v for _, v in axis_items)):
                spec = self.base
                axes_map: dict[str, str] = {}
                parts = [self.base.name]
                for (path, _), value in zip(axis_items, combo, strict=True):
                    spec = set_path(spec, path, value)
                    axes_map[path] = _render(get_path(spec, path))
                    parts.append(
                        f"{path.rsplit('.', 1)[-1]}={axes_map[path]}")
                spec = dataclasses.replace(spec, name="/".join(parts))
                out.append((spec, axes_map))
        for overrides in self.cells:
            overrides = dict(overrides)
            if "name" not in overrides:
                raise ConfigurationError("explicit cells need a 'name'")
            spec = self.base
            for key, value in overrides.items():
                spec = set_path(spec, key, value)
            out.append((spec, {}))
        names = [spec.name for spec, _ in out]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(f"duplicate cell names: {dupes}")
        return out


# -- one cell -------------------------------------------------------------------

def play(spec: ScenarioSpec, observability: bool = True):
    """Simulate one spec start to finish: the one scenario driver.

    Builds a fresh site and fleet from the spec, starts the fleet, plays
    the schedule (plainly, through one chaos fault, or through a game
    day when the spec lists several), and shuts the fleet down.
    Returns ``(report, fleet, trace_digest)``; a chaos cell's report
    carries one typed :class:`~repro.chaos.ResilienceReport` per fault
    in ``report.faults``.  The kernel's trace digest is taken *before*
    shutdown, whose Helm uninstalls emit trace records of their own.

    ``observability=False`` runs the identical cell fully dark (no
    registry, spans, or scraper; the report's ``obs`` block is None) —
    the baseline arm of the overhead bench and of instrumentation-cost
    ablations.
    """
    site = spec.build_site()
    kernel = site.kernel
    if not observability:
        kernel.obs.disable()
    fleet = Fleet(site, spec)
    schedule = spec.schedule.build()
    mix = spec.build_mix(kernel)
    sessions = spec.sessions if spec.sessions.enabled else None

    def cell(env):
        yield from fleet.start(initial_replicas=spec.initial_replicas)
        if not spec.chaos:
            report = yield from fleet.run_scenario(
                schedule, spec.horizon, mix=mix, label=spec.name,
                sessions=sessions)
            return report
        # The chaos stack loads only for chaos cells.
        from ..chaos.orchestrator import ChaosOrchestrator
        from ..chaos.scenarios import catalog

        by_name = {s.name: s for s in catalog()}
        orchestrator = ChaosOrchestrator(fleet)
        if len(spec.chaos) == 1:
            event = spec.chaos[0]
            report, _res = yield from orchestrator.run_case(
                by_name[event.scenario], schedule, spec.horizon,
                event.inject_at, fault_duration=event.fault_duration,
                mix=mix, sessions=sessions)
        else:
            plan = [(e.inject_at, by_name[e.scenario], e.fault_duration)
                    for e in spec.chaos]
            report, _windows = yield from orchestrator.run_gameday(
                plan, schedule, spec.horizon, mix=mix, sessions=sessions)
        return report

    report = kernel.run(until=kernel.spawn(cell(kernel), name=spec.name))
    digest = kernel.trace.digest()
    fleet.shutdown()
    return report, fleet, digest


def run_cell(spec: ScenarioSpec, observability: bool = True) -> dict:
    """Play one cell (see :func:`play`) and reduce it to a scorecard row.

    The row is JSON-safe and carries the kernel's trace digest — the
    strongest cheap witness that two processes computed the same
    simulation.  ``observability=False`` leaves the row's ``obs`` block
    None.
    """
    report, _fleet, digest = play(spec, observability)
    slo = report.slo
    row = {
        "cell": spec.name,
        "spec_hash": spec.spec_hash(),
        "seed": spec.seed,
        "platforms": list(spec.platforms),
        "schedule": spec.schedule.kind,
        "chaos": [e.scenario for e in spec.chaos],
        "arrivals": report.arrivals,
        "scheduler_policy": spec.scheduler_policy,
        "disagg": spec.disagg.enabled,
        "completed": slo.completed,
        "errors": slo.errors,
        "attainment": round(slo.attainment, 4),
        "goodput_rps": round(slo.goodput_rps, 3),
        "peak_replicas": report.peak_replicas,
        "final_replicas": report.final_replicas,
        "scale_events": len(report.scale_events),
        "replica_seconds": round(report.replica_seconds, 1),
        "resilience": report.resilience,
        "trace_digest": digest,
        # Span/metrics/scrape digests: like trace_digest, these must be
        # byte-identical whatever the worker count (trace ids are
        # per-kernel counters, never process-global request ids).
        "obs": report.obs,
    }
    if report.sessions is not None:
        # Session cells carry the conversational scorecard: workload
        # accounting plus the per-turn TTFT split and prefix-cache
        # effectiveness the sweep axes (turns x think x cache) act on.
        row["sessions"] = report.sessions
        row["turn_ttft"] = slo.turns
        row["cache"] = slo.cache
    if slo.paths is not None:
        # Disagg cells carry the per-serving-path TTFT split and the
        # KV-handoff transfer cost the unified-vs-disagg axis acts on.
        row["paths"] = slo.paths
    return row


def _run_cell_payload(payload: dict) -> dict:
    """Pool worker entry: rebuild the spec, run the cell, tag the row.

    A cell that dies becomes an ``error`` row rather than killing a
    hundred-cell campaign; the scorecard counts failures explicitly.
    """
    spec = ScenarioSpec.from_dict(payload["spec"])
    try:
        row = run_cell(spec)
    except Exception as exc:  # noqa: BLE001 - scorecard the failure
        row = {"cell": spec.name, "spec_hash": spec.spec_hash(),
               "seed": spec.seed, "error": f"{type(exc).__name__}: {exc}"}
    row["axes"] = payload["axes"]
    return row


# -- the campaign ---------------------------------------------------------------

class CampaignRunner:
    """Expand a grid, fan cells out over workers, merge one scorecard."""

    def __init__(self, grid: CampaignGrid, workers: int = 1):
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.grid = grid
        self.workers = workers

    def run(self, on_cell=None) -> dict:
        expanded = self.grid.expand()
        payloads = [{"spec": spec.to_dict(), "axes": axes}
                    for spec, axes in expanded]
        if self.workers == 1:
            rows = []
            for payload in payloads:
                row = _run_cell_payload(payload)
                rows.append(row)
                if on_cell is not None:
                    on_cell(row)
        else:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn")
            workers = min(self.workers, len(payloads)) or 1
            with ctx.Pool(processes=workers) as pool:
                rows = []
                for row in pool.imap_unordered(_run_cell_payload, payloads):
                    rows.append(row)
                    if on_cell is not None:
                        on_cell(row)
        rows.sort(key=lambda r: r["cell"])
        # Each axis's labels in axis order, as the cells render them.
        labels = {path: list(dict.fromkeys(
            axes[path] for _spec, axes in expanded if axes))
            for path in self.grid.axes}
        return self._scorecard(rows, labels)

    def _scorecard(self, rows: list[dict], labels: dict[str, list]) -> dict:
        ok = [r for r in rows if "error" not in r]
        chaos_rows = [r for r in ok if r["chaos"]]
        mttrs = [r["resilience"]["mttr_s"] for r in chaos_rows
                 if isinstance(r.get("resilience"), dict)
                 and r["resilience"].get("mttr_s") is not None]
        return {
            "schema": SCHEMA,
            "campaign": self.grid.name,
            "base": self.grid.base.to_dict(),
            "axes": {path: labels[path] for path in sorted(labels)},
            "cells": rows,
            "aggregates": {
                path: _axis_aggregate(path, ok)
                for path in sorted(self.grid.axes)},
            "summary": {
                "cells": len(rows),
                "failed": len(rows) - len(ok),
                "arrivals_total": sum(r["arrivals"] for r in ok),
                "errors_total": sum(r["errors"] for r in ok),
                "attainment_mean": _mean([r["attainment"] for r in ok], 4),
                "replica_seconds_total": round(
                    sum(r["replica_seconds"] for r in ok), 1),
                "chaos_cells": len(chaos_rows),
                "recovered": sum(
                    1 for r in chaos_rows
                    if isinstance(r.get("resilience"), dict)
                    and r["resilience"].get("recovery_ok")),
                "mttr_mean_s": _mean(mttrs, 1),
            },
        }


def _mean(values: list[float], digits: int) -> float | None:
    return round(sum(values) / len(values), digits) if values else None


def _axis_aggregate(path: str, rows: list[dict]) -> dict:
    """Per-value stats along one axis: the sweep's marginal curves.

    Reading ``attainment_mean`` along a load axis gives SLO attainment
    vs load; ``mttr_mean_s`` along the chaos axis gives MTTR by fault
    type; ``replica_seconds_mean`` across chaos values is the
    cost-of-resilience curve.
    """
    groups: dict[str, list[dict]] = {}
    for row in rows:
        value = row.get("axes", {}).get(path)
        if value is not None:
            groups.setdefault(value, []).append(row)
    out = {}
    for value in sorted(groups):
        cells = groups[value]
        mttrs = [c["resilience"]["mttr_s"] for c in cells
                 if isinstance(c.get("resilience"), dict)
                 and c["resilience"].get("mttr_s") is not None]
        out[value] = {
            "cells": len(cells),
            "arrivals": sum(c["arrivals"] for c in cells),
            "errors": sum(c["errors"] for c in cells),
            "attainment_mean": _mean([c["attainment"] for c in cells], 4),
            "goodput_rps_mean": _mean([c["goodput_rps"] for c in cells], 3),
            "replica_seconds_mean": _mean(
                [c["replica_seconds"] for c in cells], 1),
            "mttr_mean_s": _mean(mttrs, 1),
        }
        # Session marginals (only for grids that ran session cells):
        # later-turn TTFT vs the axis is the cache-effectiveness curve.
        later = [c["turn_ttft"]["later"]["mean_s"] for c in cells
                 if isinstance(c.get("turn_ttft"), dict)
                 and c["turn_ttft"].get("later", {}).get("n")]
        hit_rates = [c["cache"]["hit_rate"] for c in cells
                     if isinstance(c.get("cache"), dict)]
        if later or hit_rates:
            out[value]["ttft_later_mean_s"] = _mean(later, 4)
            out[value]["cache_hit_rate_mean"] = _mean(hit_rates, 4)
    return out


def scorecard_text(scorecard: dict) -> str:
    """Canonical serialization: byte-identical for identical campaigns."""
    return canonical_json_text(scorecard)


def __getattr__(name: str) -> Any:
    # The built-in grids live in the scenario catalogue, which imports
    # this module; perfbench imports three of them from here.
    if name in ("demo_grid", "smoke_grid", "sessions_grid", "disagg_grid"):
        from . import catalogue
        return getattr(catalogue, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
