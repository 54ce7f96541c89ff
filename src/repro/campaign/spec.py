"""Declarative scenario specs: one validated, hashable value per cell.

A :class:`ScenarioSpec` composes everything the stack can already do —
site topology, replica platforms, traffic schedule (Poisson / diurnal /
flash-crowd overlay + tenant mix), autoscaler policy, a list of chaos
injections, horizon, and seed — into a single frozen dataclass.  The
spec is the *only* input a campaign cell needs: ``build_site()`` /
``build_fleet()`` / ``schedule.build()`` turn it into live objects, and
``spec_hash()`` canonically fingerprints it, so two processes holding
equal specs provably simulate the same cell.

Specs round-trip through plain dicts (``to_dict`` / ``from_dict``) and
through YAML or JSON files (``to_file`` / ``from_file``); unknown keys
are rejected rather than silently dropped.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, TypeVar

from ..errors import ConfigurationError
from ..fleet.autoscaler import AutoscalerConfig
from ..fleet.fleet import DisaggSpec
from ..fleet.slo import SloSpec
from ..fleet.traffic import (DAY, ArrivalSchedule, DiurnalSchedule,
                             FlashCrowdSchedule, PoissonSchedule,
                             PulseSchedule, Tenant, TenantMix)
from ..sessions.spec import SessionSpec
from ..vllm.scheduler import SCHEDULER_POLICIES

if TYPE_CHECKING:  # pragma: no cover
    from ..core.site import ConvergedSite
    from ..fleet.fleet import Fleet
    from ..simkernel import SimKernel

_T = TypeVar("_T")

#: The paper's quantized Scout checkpoint, the default serving target.
DEFAULT_MODEL = "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16"


@dataclass(frozen=True)
class SiteSpec:
    """Node counts per converged-site platform (paper Fig. 1 topology)."""

    hops_nodes: int = 6
    eldorado_nodes: int = 2
    goodall_nodes: int = 4
    cee_nodes: int = 1

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ConfigurationError(f"{f.name} must be >= 0")


@dataclass(frozen=True)
class ScheduleSpec:
    """Declarative arrival schedule; ``build()`` yields the live object.

    ``kind`` selects the base process (``poisson``, ``diurnal``, or
    ``pulse`` — on/off bursts of ``rate_rps`` for ``duty`` of each
    ``period``); a ``flash_mult > 1`` wraps it in a
    :class:`FlashCrowdSchedule` overlay, mirroring how the live schedule
    classes compose.
    """

    kind: str = "poisson"
    rate_rps: float = 0.15          # poisson / pulse burst rate
    base_rps: float = 0.05          # diurnal floor
    peak_rps: float = 0.25          # diurnal ceiling
    period: float = DAY
    peak_hour: float = 14.0
    duty: float = 0.0125            # pulse: active fraction of the period
    flash_mult: float = 1.0         # > 1 enables the burst overlay
    flash_start: float = 0.0
    flash_duration: float = 1800.0
    flash_ramp: float = 120.0

    KINDS = ("poisson", "diurnal", "pulse")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ConfigurationError(
                f"schedule kind must be one of {list(self.KINDS)}: "
                f"{self.kind!r}")
        if not (0.0 < self.duty <= 1.0):
            raise ConfigurationError("duty must be in (0, 1]")
        if self.flash_mult < 1.0:
            raise ConfigurationError("flash_mult must be >= 1")

    def build(self) -> ArrivalSchedule:
        if self.kind == "poisson":
            schedule: ArrivalSchedule = PoissonSchedule(self.rate_rps)
        elif self.kind == "pulse":
            schedule = PulseSchedule(rate_rps=self.rate_rps,
                                     period=self.period, duty=self.duty)
        else:
            schedule = DiurnalSchedule(
                base_rps=self.base_rps, peak_rps=self.peak_rps,
                period=self.period, peak_hour=self.peak_hour)
        if self.flash_mult > 1.0:
            schedule = FlashCrowdSchedule(
                schedule, start=self.flash_start,
                duration=self.flash_duration,
                multiplier=self.flash_mult, ramp=self.flash_ramp)
        return schedule


@dataclass(frozen=True)
class TenantSpec:
    """One traffic class of the tenant mix (``repro.fleet.traffic``)."""

    name: str
    weight: float = 1.0
    max_total_tokens: int = 0       # 0 = the sampler default

    def to_tenant(self) -> Tenant:
        kw = ({"max_total_tokens": self.max_total_tokens}
              if self.max_total_tokens else {})
        return Tenant(self.name, self.weight, kw)


@dataclass(frozen=True)
class ChaosEventSpec:
    """One scheduled fault: a catalog scenario name plus its timing."""

    scenario: str
    inject_at: float = 600.0        # seconds after traffic start
    fault_duration: float = 300.0

    def __post_init__(self) -> None:
        if self.inject_at < 0:
            raise ConfigurationError("inject_at must be >= 0")
        if self.fault_duration <= 0:
            raise ConfigurationError("fault_duration must be positive")


def _known_chaos_names() -> set[str]:
    # Deferred: repro.chaos.runner imports this module, so a module-level
    # import of the catalog would be circular.
    from ..chaos.scenarios import CATALOG
    return {s.name for s in CATALOG}


def _make(cls: type[_T], data: dict[str, Any], where: str) -> _T:
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(
            f"unknown {where} keys: {sorted(unknown)} "
            f"(known: {sorted(known)})")
    return cls(**data)


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything one campaign cell needs, as a frozen, hashable value."""

    name: str = "scenario"
    seed: int = 42
    model: str = DEFAULT_MODEL
    tensor_parallel_size: int = 2
    platforms: tuple[str, ...] = ("hops",)
    router_platform: str = "hops"
    policy: str = "least-outstanding"
    initial_replicas: int = 1
    horizon: float = 3600.0
    site: SiteSpec = field(default_factory=SiteSpec)
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    tenants: tuple[TenantSpec, ...] = ()
    slo: SloSpec = field(default_factory=SloSpec)
    autoscaler: AutoscalerConfig = field(default_factory=AutoscalerConfig)
    chaos: tuple[ChaosEventSpec, ...] = ()
    probe_interval: float = 15.0
    supervisor_interval: float = 30.0
    #: simulated seconds between metrics scrapes — also the alert
    #: evaluation cadence (0 disables scraping *and* alerting).  Chaos
    #: matrix cells tighten this so telemetry-driven detection delay is
    #: resolved finer than the fault duration.
    scrape_interval: float = 300.0
    #: Multi-turn conversational workload; when ``sessions.enabled`` the
    #: schedule emits session *starts* and replicas serve with prefix
    #: caching per ``sessions.prefix_caching``.
    sessions: SessionSpec = field(default_factory=SessionSpec)
    #: vLLM's KV-memory knob — the campaign-sweepable "cache size" axis.
    gpu_memory_utilization: float = 0.90
    #: engine scheduler policy every replica runs with (``fcfs``,
    #: ``priority``, or ``chunked``) — the admission-policy sweep axis.
    scheduler_policy: str = "fcfs"
    #: disaggregated prefill/decode serving (the serving-architecture
    #: axis: unified vs split pools).
    disagg: DisaggSpec = field(default_factory=DisaggSpec)
    #: fleet quiet-play: idle periodic ticks are skipped bit-identically
    #: to stepping for open-loop and session traffic and chaos faults
    #: alike, and it switches itself off under armed faults, so the only
    #: reason to flip it off is an A/B arm in an equivalence or perf
    #: study.
    fast_forward: bool = True

    def __post_init__(self) -> None:
        # Forgiving construction: the ergonomic spellings accepted by
        # from_dict / grid axes also work on the constructor directly.
        if isinstance(self.platforms, str):
            object.__setattr__(self, "platforms", (self.platforms,))
        elif not isinstance(self.platforms, tuple):
            object.__setattr__(self, "platforms", tuple(self.platforms))
        object.__setattr__(self, "chaos", coerce_chaos(self.chaos))
        if not isinstance(self.tenants, tuple):
            object.__setattr__(self, "tenants", tuple(self.tenants))
        if isinstance(self.sessions, dict):
            object.__setattr__(self, "sessions",
                               _make(SessionSpec, self.sessions, "sessions"))
        if isinstance(self.disagg, bool):
            object.__setattr__(self, "disagg", DisaggSpec(enabled=self.disagg))
        elif isinstance(self.disagg, dict):
            object.__setattr__(self, "disagg",
                               _make(DisaggSpec, self.disagg, "disagg"))
        if self.scheduler_policy not in SCHEDULER_POLICIES:
            raise ConfigurationError(
                f"unknown scheduler_policy {self.scheduler_policy!r} "
                f"(choices: {', '.join(SCHEDULER_POLICIES)})")
        if not (0.1 <= self.gpu_memory_utilization <= 1.0):
            raise ConfigurationError(
                f"gpu_memory_utilization {self.gpu_memory_utilization} "
                "out of range (0.1..1.0)")
        if not self.name:
            raise ConfigurationError("spec needs a non-empty name")
        if not self.platforms:
            raise ConfigurationError("spec needs at least one platform")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if self.initial_replicas < 1:
            raise ConfigurationError("initial_replicas must be >= 1")
        if self.tensor_parallel_size < 1:
            raise ConfigurationError("tensor_parallel_size must be >= 1")
        if self.probe_interval <= 0 or self.supervisor_interval <= 0:
            raise ConfigurationError(
                "probe_interval and supervisor_interval must be positive")
        if self.scrape_interval < 0:
            raise ConfigurationError("scrape_interval must be >= 0")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate tenant names: {names}")
        known = _known_chaos_names() if self.chaos else set()
        for event in self.chaos:
            if event.scenario not in known:
                raise ConfigurationError(
                    f"unknown chaos scenario {event.scenario!r} "
                    f"(catalog: {sorted(known)})")
            if event.inject_at >= self.horizon:
                raise ConfigurationError(
                    f"chaos {event.scenario!r} injects at "
                    f"{event.inject_at}s, past the {self.horizon}s horizon")

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["platforms"] = list(self.platforms)
        out["tenants"] = [dataclasses.asdict(t) for t in self.tenants]
        out["chaos"] = [dataclasses.asdict(e) for e in self.chaos]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> ScenarioSpec:
        data = dict(data)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown spec keys: {sorted(unknown)} "
                f"(known: {sorted(known)})")
        if "platforms" in data:
            value = data["platforms"]
            data["platforms"] = ((value,) if isinstance(value, str)
                                 else tuple(value))
        if isinstance(data.get("site"), dict):
            data["site"] = _make(SiteSpec, data["site"], "site")
        if isinstance(data.get("schedule"), dict):
            data["schedule"] = _make(ScheduleSpec, data["schedule"],
                                     "schedule")
        if isinstance(data.get("slo"), dict):
            data["slo"] = _make(SloSpec, data["slo"], "slo")
        if isinstance(data.get("autoscaler"), dict):
            data["autoscaler"] = _make(AutoscalerConfig, data["autoscaler"],
                                       "autoscaler")
        if "tenants" in data:
            data["tenants"] = tuple(
                t if isinstance(t, TenantSpec)
                else _make(TenantSpec, t, "tenant")
                for t in data["tenants"])
        if "chaos" in data:
            data["chaos"] = coerce_chaos(data["chaos"])
        if isinstance(data.get("sessions"), dict):
            data["sessions"] = _make(SessionSpec, data["sessions"],
                                     "sessions")
        if isinstance(data.get("disagg"), dict):
            data["disagg"] = _make(DisaggSpec, data["disagg"], "disagg")
        return cls(**data)

    def to_file(self, path: str | pathlib.Path) -> None:
        path = pathlib.Path(path)
        path.write_text(_dump_text(self.to_dict(), path))

    @classmethod
    def from_file(cls, path: str | pathlib.Path) -> ScenarioSpec:
        return cls.from_dict(_load_text(pathlib.Path(path)))

    def spec_hash(self) -> str:
        """Canonical fingerprint: equal specs hash equal, everywhere."""
        text = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    # -- builders ---------------------------------------------------------------

    def build_site(self) -> ConvergedSite:
        from ..core.site import build_sandia_site
        return build_sandia_site(
            seed=self.seed, hops_nodes=self.site.hops_nodes,
            eldorado_nodes=self.site.eldorado_nodes,
            goodall_nodes=self.site.goodall_nodes,
            cee_nodes=self.site.cee_nodes)

    def build_fleet(self, site: ConvergedSite) -> Fleet:
        from ..fleet.fleet import Fleet, FleetConfig
        # Non-default engine knobs only: the rendered `vllm serve`
        # command (and so every deployment artifact) stays byte-stable
        # for specs that do not touch them.
        engine_params: dict = {}
        if self.sessions.enabled and self.sessions.prefix_caching:
            engine_params["enable_prefix_caching"] = True
        if self.gpu_memory_utilization != 0.90:
            engine_params["gpu_memory_utilization"] = \
                self.gpu_memory_utilization
        if self.scheduler_policy != "fcfs":
            engine_params["scheduler_policy"] = self.scheduler_policy
        config = FleetConfig(
            model=self.model,
            tensor_parallel_size=self.tensor_parallel_size,
            platforms=self.platforms,
            router_platform=self.router_platform,
            policy=self.policy,
            slo=self.slo,
            autoscaler=self.autoscaler,
            engine_params=engine_params,
            scrape_interval=self.scrape_interval,
            disagg=self.disagg,
            fast_forward=self.fast_forward)
        return Fleet(site, config)

    def build_mix(self, kernel: SimKernel) -> TenantMix | None:
        """The declared tenant mix, or ``None`` for the fleet default."""
        if not self.tenants:
            return None
        return TenantMix(kernel, [t.to_tenant() for t in self.tenants])


def coerce_chaos(value: Any) -> tuple[ChaosEventSpec, ...]:
    """Normalize the many spellings of a chaos list into event specs.

    Accepts ``None`` / ``"none"`` / ``()`` (no faults), a bare scenario
    name, an event dict, a :class:`ChaosEventSpec`, or a list of any of
    those — the currency of grid axes and YAML files alike.
    """
    if value is None or value == () or value == [] or value == "none":
        return ()
    if isinstance(value, (str, dict, ChaosEventSpec)):
        value = [value]
    out = []
    for item in value:
        if isinstance(item, ChaosEventSpec):
            out.append(item)
        elif isinstance(item, str):
            out.append(ChaosEventSpec(scenario=item))
        elif isinstance(item, dict):
            out.append(_make(ChaosEventSpec, item, "chaos event"))
        else:
            raise ConfigurationError(
                f"cannot interpret chaos entry {item!r}")
    return tuple(out)


# -- dotted-path access (grid axes) ---------------------------------------------

def get_path(spec: Any, path: str) -> Any:
    """``get_path(spec, "schedule.kind")`` → the nested field value."""
    obj = spec
    for part in path.split("."):
        if not dataclasses.is_dataclass(obj) or not hasattr(obj, part):
            raise ConfigurationError(
                f"no spec field {path!r} (failed at {part!r})")
        obj = getattr(obj, part)
    return obj


def set_path(spec: Any, path: str, value: Any) -> Any:
    """A copy of ``spec`` with the dotted-path field replaced.

    Field-aware coercions keep grid axes terse: ``platforms`` accepts a
    bare platform name, ``chaos`` accepts anything
    :func:`coerce_chaos` does.
    """
    head, _, rest = path.partition(".")
    if not dataclasses.is_dataclass(spec) or not hasattr(spec, head):
        raise ConfigurationError(
            f"no spec field {path!r} (failed at {head!r})")
    if rest:
        value = set_path(getattr(spec, head), rest, value)
    elif head == "platforms":
        value = (value,) if isinstance(value, str) else tuple(value)
    elif head == "chaos":
        value = coerce_chaos(value)
    elif head == "sessions" and isinstance(value, dict):
        value = _make(SessionSpec, value, "sessions")
    elif head == "disagg":
        if isinstance(value, bool):
            value = DisaggSpec(enabled=value)
        elif isinstance(value, dict):
            value = _make(DisaggSpec, value, "disagg")
    elif head == "tenants" and not isinstance(value, tuple):
        value = tuple(value)
    return dataclasses.replace(spec, **{head: value})


# -- file formats ---------------------------------------------------------------

def _dump_text(payload: dict, path: pathlib.Path) -> str:
    if path.suffix in (".yaml", ".yml"):
        yaml = _yaml(path)
        return yaml.safe_dump(payload, sort_keys=True)
    from ..experiments.common import canonical_json_text
    return canonical_json_text(payload)


def _load_text(path: pathlib.Path) -> dict:
    if not path.exists():
        raise ConfigurationError(f"no spec file at {path}")
    text = path.read_text()
    if path.suffix in (".yaml", ".yml"):
        data = _yaml(path).safe_load(text)
    else:
        data = json.loads(text)
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path} must hold a mapping, "
                                 f"got {type(data).__name__}")
    return data


def _yaml(path: pathlib.Path) -> Any:
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - env without pyyaml
        raise ConfigurationError(
            f"{path} is YAML but pyyaml is not installed; "
            "use a .json spec instead") from exc
    return yaml
