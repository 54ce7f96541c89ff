"""Opt-in per-layer profile of the simulator itself.

Spans and metrics measure the *simulated* system; the profiler measures
the *simulator* — which layer burns real wall-clock while a scenario
runs:

    from repro.campaign import play
    from repro.obs import profiler
    profiler.enable()
    play(spec)                        # or any Fleet.run_scenario() run
    profiler.disable()
    print(profiler.report())          # per-layer and per-function rows
    print(profiler.flamegraph())      # collapsed-stack text flamegraph

``enable()`` starts :class:`cProfile.Profile`; ``disable()`` stops it
and folds its statistics into ``totals`` (seconds) and ``counts``
(calls), keyed ``layer`` and ``layer;module:function``.  A ``repro``
function belongs to its module's layer in :data:`LAYERS` (longest prefix
wins; no match is ``python``) and its row is cProfile's own time and
calls.  A layer row adds the stdlib and builtin calls its functions
make, found through cProfile's per-caller edges; a call from anywhere
else is ``python``'s.  So the layer rows add up to the whole profile.
No simulator code reads the profiler: profiling slows a run but cannot
change its path.
"""

from __future__ import annotations

import cProfile
import os
from typing import Any

__all__ = ["LAYERS", "Profiler", "profiler"]

#: Module path under ``repro`` (``/``-separated, no ``.py``) -> layer.
LAYERS: dict[str, str] = {
    "simkernel": "simkernel", "simkernel/tracing": "trace",
    "fleet": "fleet", "fleet/traffic": "traffic", "sessions": "traffic",
    "fleet/slo": "slo", "services/router": "router",
    "vllm": "engine", "vllm/kvcache": "kvcache",
    "obs": "analysis", "obs/metrics": "metrics", "obs/stats": "metrics",
    "obs/scrape": "scrape", "obs/alerts": "alerts", "obs/spans": "spans",
    "net": "net", "chaos": "chaos",
}

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep

#: cProfile's function key: (filename, first line, name).
_Func = tuple[str, int, str]


def _label(func: _Func) -> tuple[str, str] | None:
    """(layer, ``layer;module:function``) of a ``repro`` function."""
    filename, _line, name = func
    if not filename.startswith(_ROOT):
        return None
    parts = filename[len(_ROOT):-len(".py")].split(os.sep)
    prefixes = ("/".join(parts[:i]) for i in range(len(parts), 0, -1))
    layer = next((LAYERS[p] for p in prefixes if p in LAYERS), "python")
    if parts[-1] == "__init__":
        parts.pop()
    return layer, f"{layer};repro.{'.'.join(parts)}:{name}"


class Profiler:
    """cProfile folded into per-layer and per-function rows."""

    __slots__ = ("enabled", "_profile", "totals", "counts")

    def __init__(self):
        self.enabled = False
        self._profile: cProfile.Profile | None = None
        #: collapsed path ("engine;repro.vllm.engine:_loop") -> seconds
        self.totals: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    # -- control ------------------------------------------------------------------

    def enable(self) -> None:
        if self.enabled:
            return
        self._profile = cProfile.Profile()
        self._profile.enable()
        self.enabled = True

    def disable(self) -> None:
        """Stop profiling and fold the run into ``totals``/``counts``."""
        if self._profile is None:
            return
        self._profile.create_stats()
        stats = self._profile.stats  # type: ignore[attr-defined]
        self._profile = None
        self.enabled = False
        self._fold(stats)

    def _fold(self, stats: dict[_Func, Any]) -> None:
        """Add cProfile's ``stats`` (the ``pstats`` layout) to the rows."""
        for func, (_cc, calls, own_s, _cum, callers) in stats.items():
            label = _label(func)
            if label is not None:
                for path in label:
                    self._add(path, own_s, calls)
            elif not callers:
                self._add("python", own_s, calls)
            else:
                for caller, (_c, n, s, _t) in callers.items():
                    owner = _label(caller)
                    self._add(owner[0] if owner else "python", s, n)

    def _add(self, path: str, seconds: float, calls: int) -> None:
        self.totals[path] = self.totals.get(path, 0.0) + seconds
        self.counts[path] = self.counts.get(path, 0) + calls

    def reset(self) -> None:
        self.totals.clear()
        self.counts.clear()

    # -- reporting ----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-path *self* time: total minus its child paths' totals."""
        out = dict(self.totals)
        for path, total in self.totals.items():
            parent = path.rsplit(";", 1)[0] if ";" in path else None
            if parent is not None and parent in out:
                out[parent] -= total
        return out

    def report(self, top: int = 20) -> str:
        """Every layer, hottest first, then the ``top`` functions with the
        most self time."""
        self_times = self.self_times()
        layers = sorted((p for p in self.totals if ";" not in p),
                        key=lambda p: -self.totals[p])
        rows = layers + sorted((p for p in self.totals if ";" in p),
                               key=lambda p: -self_times[p])[:top]
        if not rows:
            return "profiler: no samples (was it enabled?)\n"
        width = max(len(p) for p in rows)
        lines = [f"{'path':<{width}}  {'self_ms':>10}  {'total_ms':>10}  "
                 f"{'calls':>8}"]
        for path in rows:
            lines.append(
                f"{path:<{width}}  {self_times[path] * 1e3:>10.3f}  "
                f"{self.totals[path] * 1e3:>10.3f}  "
                f"{self.counts[path]:>8}")
        return "\n".join(lines) + "\n"

    def flamegraph(self) -> str:
        """Collapsed-stack text (``path µs`` per line, sorted by path).

        Feed to any FlameGraph-compatible tool, or read directly: the
        indentation-free collapsed format sorts hierarchically because
        child paths share their parent's prefix.
        """
        self_times = self.self_times()
        lines = [f"{path} {max(0, round(self_times[path] * 1e6))}"
                 for path in sorted(self_times)]
        return "\n".join(lines) + ("\n" if lines else "")


#: The process-wide profiler instance.
profiler = Profiler()
