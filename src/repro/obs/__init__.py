"""Fleet-wide observability: metrics, spans, scrapes, self-profiling.

The one package *below* every other layer of the stack (it imports only
:mod:`repro.errors`), so the simkernel itself can own an
:class:`~repro.obs.context.Observability` per kernel and every
component above — engines, routers, fleets, session workloads — reports
through the same four primitives:

* :mod:`~repro.obs.metrics` — labeled Counter/Gauge/Histogram registry
  with Prometheus text exposition and the shared test parser;
* :mod:`~repro.obs.spans` — per-request span trees on simulated time,
  digest-stable across campaign worker counts;
* :mod:`~repro.obs.scrape` — a simulated Prometheus: periodic registry
  snapshots into a deterministic time-series;
* :mod:`~repro.obs.profile` / :mod:`~repro.obs.export` — a cProfile
  run folded into per-layer self time and call counts, and
  Chrome-trace/Perfetto JSON export.

On top of that data plane sits the *analysis plane* (PR 10):

* :mod:`~repro.obs.alerts` — declarative threshold / absence /
  burn-rate rules with a pending→firing→resolved lifecycle;
* :mod:`~repro.obs.critical_path` — per-request phase attribution
  aggregated into percentile cohorts;
* :mod:`~repro.obs.incident` — alert + injection + repair events merged
  into deterministic incident timelines.

See ``docs/observability.md`` for the guided tour and overhead numbers.
"""

from .alerts import AlertEvaluator, AlertEvent, AlertRule, default_slo_rules
from .context import Observability
from .critical_path import CriticalPathAnalyzer, CriticalPathReport
from .export import chrome_trace
from .incident import IncidentEvent, IncidentLog
from .metrics import MetricsRegistry, parse_exposition
from .profile import Profiler, profiler
from .scrape import MetricsScraper
from .spans import Span, SpanRecorder
from .stats import QUANTILE_KEYS, LogHistogram

__all__ = [
    "AlertEvaluator",
    "AlertEvent",
    "AlertRule",
    "CriticalPathAnalyzer",
    "CriticalPathReport",
    "IncidentEvent",
    "IncidentLog",
    "LogHistogram",
    "MetricsRegistry",
    "MetricsScraper",
    "Observability",
    "Profiler",
    "QUANTILE_KEYS",
    "Span",
    "SpanRecorder",
    "chrome_trace",
    "default_slo_rules",
    "parse_exposition",
    "profiler",
]
