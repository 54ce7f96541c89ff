"""Declarative scenario specs: one validated, hashable value per cell.

A :class:`ScenarioSpec` composes everything the stack can already do —
site topology, replica platforms, traffic schedule (Poisson / diurnal /
flash-crowd overlay + tenant mix), autoscaler policy, a list of chaos
injections, horizon, and seed — into a single frozen dataclass.  The
spec is the *only* input a campaign cell needs: ``build_site()`` and
``schedule.build()`` turn it into live objects, ``Fleet(site, spec)``
reads its fleet, supervisor and probe settings straight from it, and
``spec_hash()`` canonically fingerprints it, so two processes holding
equal specs provably simulate the same cell.

Specs round-trip through plain dicts (``to_dict`` / ``from_dict``) and
through YAML or JSON files (``to_file`` / ``from_file``); unknown keys
are rejected rather than silently dropped.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import pathlib
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, TypeVar

from ..core.site import GPU_MODEL, GPUS_PER_NODE, PLATFORM_KINDS
from ..core.workflow import MAX_MODEL_LEN
from ..errors import CapacityError, ConfigurationError, NotFoundError
from ..fleet.autoscaler import AutoscalerConfig
from ..fleet.fleet import DisaggSpec
from ..fleet.slo import SloSpec
from ..fleet.traffic import (DAY, ArrivalSchedule, DiurnalSchedule,
                             FlashCrowdSchedule, PoissonSchedule,
                             PulseSchedule, Tenant, TenantMix)
from ..hardware.gpu import gpu_spec
from ..models.catalog import model_card
from ..models.weights import validate_fit
from ..services.router import RouterPolicy
from ..sessions.spec import SessionSpec, _coerce_bool
from ..vllm.config import EngineArgs

if TYPE_CHECKING:  # pragma: no cover
    from ..core.site import ConvergedSite
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


@functools.cache
def _scalar_fields(cls: type) -> dict[str, type]:
    """``{field: bool | int | float}`` for the scalar fields of ``cls``
    (spec modules postpone annotations: a type reads as its name)."""
    kinds = {kind.__name__: kind for kind in (bool, int, float)}
    return {f.name: kinds[f.type] for f in fields(cls) if f.type in kinds}


def _cast(kind: type, name: str, value: Any) -> Any:
    """``value`` as the ``kind`` field ``name`` declares: strings are
    parsed (``"900"``, ``"1e3"``, ``"false"``) and ints and integral
    floats swap, so every spelling of a setting gives one
    ``spec_hash()``.  Anything else raises ConfigurationError."""
    if kind is bool:
        return _coerce_bool(name, value)
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise TypeError
        cast = kind(value)
        if (not isinstance(value, str) and cast != value) \
                or not math.isfinite(cast):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a finite number"
        raise ConfigurationError(
            f"{name} must be {what}, got {value!r}") from None
    return cast


def _typed(cls: type, data: dict[str, Any]) -> dict[str, Any]:
    """``data`` with each scalar field of ``cls`` cast to its type."""
    kinds = _scalar_fields(cls)
    return {k: _cast(kinds[k], k, v) if k in kinds else v
            for k, v in data.items()}


def _recast(spec: Any) -> dict[str, Any]:
    """The scalar fields of ``spec`` that need a cast, cast."""
    return {k: _cast(kind, k, v)
            for k, kind in _scalar_fields(type(spec)).items()
            if type(v := getattr(spec, k)) is not kind
            or kind is float and not math.isfinite(v)}


def _coerced(spec: _T) -> _T:
    """``spec`` rebuilt if any of its scalar fields needed a cast."""
    changed = _recast(spec)
    return dataclasses.replace(spec, **changed) if changed else spec


def _make(cls: type[_T], data: dict[str, Any], where: str) -> _T:
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(
            f"unknown {where} keys: {sorted(unknown)} "
            f"(known: {sorted(known)})")
    return cls(**_typed(cls, data))


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
    #: alike (a fault ends a quiet window only through the fleet state
    #: the governor reads), so the only reason to flip it off is an A/B
    #: arm in an equivalence or perf study.
    fast_forward: bool = True

    def __post_init__(self) -> None:
        # The one coercion point: every ergonomic spelling (a bare
        # platform name, ``hops+goodall``, nested dicts, a chaos name,
        # ``disagg=True``, ``"900"`` for a float) becomes its typed value
        # here, so the constructor, from_dict, set_path and grid axes all
        # accept the same spellings and give equal specs.  Unknown nested
        # keys and unparseable values fail now, never mid-run.
        platforms = self.platforms
        object.__setattr__(self, "platforms", tuple(
            platforms.split("+") if isinstance(platforms, str) else platforms))
        object.__setattr__(self, "chaos", coerce_chaos(self.chaos))
        object.__setattr__(self, "tenants", tuple(
            _make(TenantSpec, t, "tenant") if isinstance(t, dict)
            else _coerced(t) for t in self.tenants))
        if isinstance(self.disagg, (bool, str)):
            object.__setattr__(self, "disagg", DisaggSpec(
                enabled=_coerce_bool("disagg", self.disagg)))
        for name, value in _recast(self).items():
            object.__setattr__(self, name, value)
        for f in fields(self):
            kind, value = f.default_factory, getattr(self, f.name)
            if isinstance(kind, type) and dataclasses.is_dataclass(kind):
                object.__setattr__(self, f.name, (
                    _make(kind, value, f.name) if isinstance(value, dict)
                    else _coerced(value)))
        # Validated, but kept as the plain string: spec_hash() reads it.
        object.__setattr__(self, "policy",
                           RouterPolicy.coerce(self.policy).value)
        unknown = [p for p in self.platforms if p not in PLATFORM_KINDS]
        if unknown:
            raise ConfigurationError(
                f"unknown platforms {unknown} (site has "
                f"{list(PLATFORM_KINDS)})")
        hpc = [p for p, kind in PLATFORM_KINDS.items() if kind == "hpc"]
        if self.router_platform not in hpc:
            raise ConfigurationError(
                f"router_platform {self.router_platform!r} must be one of "
                f"the HPC platforms {hpc}: the router runs podman-side")
        # The engine knobs every replica serves with, checked by the
        # engine's own argument type.
        EngineArgs(model=self.model,
                   tensor_parallel_size=self.tensor_parallel_size,
                   gpu_memory_utilization=self.gpu_memory_utilization,
                   scheduler_policy=self.scheduler_policy)
        if not self.name:
            raise ConfigurationError("spec needs a non-empty name")
        if not self.platforms:
            raise ConfigurationError("spec needs at least one platform")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if self.initial_replicas < 1:
            raise ConfigurationError("initial_replicas must be >= 1")
        if self.probe_interval <= 0 or self.supervisor_interval <= 0:
            raise ConfigurationError(
                "probe_interval and supervisor_interval must be positive")
        if self.scrape_interval < 0:
            raise ConfigurationError("scrape_interval must be >= 0")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate tenant names: {names}")
        self._check_capacity()
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

    def _check_capacity(self) -> None:
        """Refuse a site that cannot be built or hold the initial pool:
        each HPC platform runs a workload manager (one also runs the
        router), and a platform holds one replica per node with at
        least ``tensor_parallel_size`` GPUs (one per service port).
        On every platform that can hold a replica, the model's weights
        and one ``MAX_MODEL_LEN`` sequence of KV must fit the GPUs at
        ``gpu_memory_utilization``, or each replica would crash at
        startup."""
        nodes = {p: getattr(self.site, f"{p}_nodes")
                 for p in PLATFORM_KINDS}
        empty = [p for p, kind in PLATFORM_KINDS.items()
                 if kind == "hpc" and nodes[p] == 0]
        if empty:
            raise ConfigurationError(
                f"HPC platforms {empty} have no nodes; each needs one "
                f"for its workload manager (the router runs on "
                f"{self.router_platform!r})")
        hosts = [p for p in self.platforms
                 if GPUS_PER_NODE[p] >= self.tensor_parallel_size]
        try:
            card = model_card(self.model)
        except NotFoundError as exc:
            raise ConfigurationError(str(exc)) from exc
        for p in hosts:
            try:
                validate_fit(
                    card, gpu_spec(GPU_MODEL[p]), self.tensor_parallel_size,
                    max_model_len=MAX_MODEL_LEN,
                    gpu_memory_utilization=self.gpu_memory_utilization)
            except (CapacityError, ConfigurationError) as exc:
                raise ConfigurationError(
                    f"replicas on {p!r} cannot start: {exc}") from exc
        slots = sum(nodes[p] for p in hosts)
        pool = self.initial_replicas + (self.disagg.prefill_replicas
                                        if self.disagg.enabled else 0)
        if slots < pool:
            raise ConfigurationError(
                f"{list(self.platforms)} hold {slots} replicas of "
                f"tensor_parallel_size={self.tensor_parallel_size} (one "
                f"per node with that many GPUs); the initial pool needs "
                f"{pool}")

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["platforms"] = list(self.platforms)
        out["tenants"] = [dataclasses.asdict(t) for t in self.tenants]
        out["chaos"] = [dataclasses.asdict(e) for e in self.chaos]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> ScenarioSpec:
        return _make(cls, dict(data), "spec")

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

    def build_mix(self, kernel: SimKernel) -> TenantMix | None:
        """The declared tenant mix, or ``None`` for the fleet default."""
        if not self.tenants:
            return None
        return TenantMix(kernel, [t.to_tenant() for t in self.tenants])


def coerce_chaos(value: Any) -> tuple[ChaosEventSpec, ...]:
    """Normalize the many spellings of a chaos list into event specs.

    Accepts ``None`` / ``"none"`` / ``()`` (no faults), a bare scenario
    name, ``+``-joined names, an event dict, a :class:`ChaosEventSpec`,
    or a list of any of those — the currency of grid axes, ``--set`` and
    YAML files alike.
    """
    if value is None or value == () or value == [] or value == "none":
        return ()
    if isinstance(value, str):
        value = value.split("+")
    elif isinstance(value, (dict, ChaosEventSpec)):
        value = [value]
    out = []
    for item in value:
        if isinstance(item, ChaosEventSpec):
            out.append(_coerced(item))
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

    The value may take any spelling the spec's constructor accepts, a
    string included: ``dataclasses.replace`` reruns ``__post_init__``,
    the one coercion point, and a scalar is cast before a nested spec
    validates it.
    """
    head, _, rest = path.partition(".")
    if not dataclasses.is_dataclass(spec) or not hasattr(spec, head):
        raise ConfigurationError(
            f"no spec field {path!r} (failed at {head!r})")
    if rest:
        value = set_path(getattr(spec, head), rest, value)
    return dataclasses.replace(spec, **_typed(type(spec), {head: value}))


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
