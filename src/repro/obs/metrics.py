"""A Prometheus-style metrics registry for the simulated serving stack.

One :class:`MetricsRegistry` lives on every
:class:`~repro.simkernel.SimKernel` (``kernel.obs.registry``), so every
component of a simulation — engines, routers, the fleet control plane,
session workloads — registers *labeled* instruments into the same
namespace and one scrape sees the whole cell:

* :class:`Counter` — monotone event counts (``requests_total``);
* :class:`Gauge` — point-in-time values, either set explicitly or read
  lazily from a callback at collection time (``set_function``), which is
  how per-iteration engine state is exported with **zero** hot-path
  cost;
* :class:`Histogram` — distribution summaries backed by the existing
  :class:`~repro.obs.stats.LogHistogram`, so ``observe()`` stays O(1)
  and allocation-free and quantiles are paid only at collection.

Instruments are families keyed by label names; ``family.labels(...)``
returns a child handle that callers cache once and update with plain
attribute math — the per-request path never touches a dict.

``exposition()`` renders the Prometheus text format (histograms as
summaries with ``quantile`` labels).  It is the one telemetry surface
over HTTP: the vLLM server's ``/metrics`` serves its engine's slice,
the router's ``/router/metrics`` the whole registry and
``/router/stats`` the ``router_`` slice.  :func:`parse_exposition` is
the one parser every test reading them uses.

Determinism: collection order is (metric name, label values) sorted, so
two simulations that took the same path render byte-identical text no
matter how many worker processes the campaign used.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import Any

from ..errors import ConfigurationError
from .stats import LogHistogram

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "Sample", "parse_exposition", "render_label_set"]

#: Quantiles exported for every histogram (summary exposition).
HISTOGRAM_QUANTILES = (0.5, 0.95, 0.99)


def _fmt(value: float) -> str:
    """Canonical sample rendering: ints without a dot, floats via repr."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def render_label_set(names: tuple[str, ...],
                     values: tuple[str, ...]) -> str:
    """``{a="x",b="y"}`` — empty string for the unlabeled child."""
    if not names:
        return ""
    inner = ",".join(f'{n}="{_escape(v)}"'
                      for n, v in zip(names, values, strict=True))
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _unescape(value: str) -> str:
    return (value.replace("\\n", "\n").replace('\\"', '"')
            .replace("\\\\", "\\"))


class Sample:
    """One exposed time-series point: ``name{labels} value``."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...],
                 value: float):
        self.name = name
        self.labels = labels
        self.value = value

    @property
    def key(self) -> str:
        names = tuple(n for n, _ in self.labels)
        values = tuple(v for _, v in self.labels)
        return self.name + render_label_set(names, values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Sample {self.key} {self.value}>"


class _Child:
    """Base child handle: one (family, label values) series."""

    __slots__ = ("_family", "_values")

    def __init__(self, family: _Family, values: tuple[str, ...]):
        self._family = family
        self._values = values


class Counter(_Child):
    """Monotone counter child."""

    __slots__ = ("value",)

    def __init__(self, family: _Family, values: tuple[str, ...]):
        super().__init__(family, values)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up")
        self.value += amount


class Gauge(_Child):
    """Point-in-time value; explicit or callback-backed."""

    __slots__ = ("_value", "_fn")

    def __init__(self, family: _Family, values: tuple[str, ...]):
        super().__init__(family, values)
        self._value = 0.0
        self._fn: Callable[[], float] | None = None

    def set(self, value: float) -> None:
        self._fn = None
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Read the gauge lazily at collection time.

        The way per-iteration engine state (batch size, KV usage,
        iteration count) is exported without touching the hot loop;
        re-registering (a replica redeployed onto the same endpoint)
        simply rebinds the callback.
        """
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Histogram(_Child):
    """Distribution summary backed by :class:`LogHistogram`.

    ``observe`` is O(1); count/sum/quantiles are computed at collection.
    """

    __slots__ = ("hist", "count", "sum")

    def __init__(self, family: _Family, values: tuple[str, ...]):
        super().__init__(family, values)
        self.hist = LogHistogram()
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.hist.add(value)
        self.count += 1
        self.sum += value


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """A named instrument with a fixed label-name schema."""

    __slots__ = ("name", "kind", "help", "label_names", "_children",
                 "_registry")

    def __init__(self, registry: MetricsRegistry, name: str, kind: str,
                 help: str, label_names: tuple[str, ...]):
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self._children: dict[tuple[str, ...], _Child] = {}
        self._registry = registry

    def labels(self, **labels: Any) -> Any:
        """The child for one label-value assignment (created once)."""
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ConfigurationError(
                f"{self.name}: expected labels {list(self.label_names)}, "
                f"got {sorted(labels)}")
        values = tuple(str(labels[n]) for n in self.label_names)
        child = self._children.get(values)
        if child is None:
            child = _KINDS[self.kind](self, values)
            self._children[values] = child
        return child

    def samples(self) -> Iterator[Sample]:
        """Deterministic (label-value sorted) samples of every child."""
        for values in sorted(self._children):
            child = self._children[values]
            labels = tuple(zip(self.label_names, values, strict=True))
            if self.kind == "histogram":
                yield Sample(self.name + "_count", labels,
                             float(child.count))
                yield Sample(self.name + "_sum", labels, child.sum)
                qs = child.hist.quantiles(
                    tuple(q * 100.0 for q in HISTOGRAM_QUANTILES))
                for q, v in zip(HISTOGRAM_QUANTILES, qs, strict=True):
                    yield Sample(self.name, labels + (("quantile",
                                                       _fmt(q)),), v)
            else:
                yield Sample(self.name, labels, float(child.value))


class MetricsRegistry:
    """All instrument families of one simulation, one namespace.

    ``counter``/``gauge``/``histogram`` are idempotent declarations:
    re-declaring the same name with the same kind and label schema
    returns the existing family (components created repeatedly — e.g.
    autoscaled replicas — share it); re-declaring with a different shape
    raises.
    """

    def __init__(self):
        self._families: dict[str, _Family] = {}
        self.enabled = True

    # -- declaration --------------------------------------------------------------

    def _declare(self, name: str, kind: str, help: str,
                 labels: tuple[str, ...]) -> _Family:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ConfigurationError(f"bad metric name {name!r}")
        label_names = tuple(labels)
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != label_names:
                raise ConfigurationError(
                    f"metric {name!r} already registered as {family.kind}"
                    f"{list(family.label_names)}; cannot redeclare as "
                    f"{kind}{list(label_names)}")
            return family
        family = _Family(self, name, kind, help, label_names)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labels: tuple[str, ...] = ()) -> _Family:
        return self._declare(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "",
              labels: tuple[str, ...] = ()) -> _Family:
        return self._declare(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: tuple[str, ...] = ()) -> _Family:
        return self._declare(name, "histogram", help, labels)

    # -- collection ---------------------------------------------------------------

    def collect(self, where: dict[str, str] | None = None,
                prefix: str | None = None
                ) -> Iterator[tuple[_Family, list[Sample]]]:
        """Families (name-sorted) with their samples.

        ``where`` keeps only samples whose label set includes every
        given (name, value) pair — the per-server view of a shared
        registry (e.g. one engine's slice by ``engine=<name>``).
        ``prefix`` keeps only families whose name starts with it (a
        component's slice, e.g. ``router_``).
        """
        for name in sorted(self._families):
            if prefix is not None and not name.startswith(prefix):
                continue
            family = self._families[name]
            samples = list(family.samples())
            if where:
                samples = [s for s in samples
                           if all((k, v) in s.labels
                                  for k, v in where.items())]
            if samples:
                yield family, samples

    def exposition(self, where: dict[str, str] | None = None,
                   prefix: str | None = None) -> str:
        """Prometheus text format, deterministically ordered."""
        lines: list[str] = []
        for family, samples in self.collect(where, prefix):
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            kind = "summary" if family.kind == "histogram" else family.kind
            lines.append(f"# TYPE {family.name} {kind}")
            for sample in samples:
                lines.append(f"{sample.key} {_fmt(sample.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def sample_dict(self, where: dict[str, str] | None = None,
                    round_to: int | None = 9) -> dict[str, float]:
        """Flat ``{rendered-series-key: value}`` (the scraper's unit)."""
        out: dict[str, float] = {}
        for _family, samples in self.collect(where):
            for sample in samples:
                value = sample.value
                if round_to is not None and not float(value).is_integer():
                    value = round(value, round_to)
                out[sample.key] = value
        return out


def parse_exposition(text: str) -> dict[str, dict[tuple[tuple[str, str],
                                                        ...], float]]:
    """Parse Prometheus text exposition into nested dicts.

    Returns ``{metric_name: {((label, value), ...): numeric_value}}`` —
    the one parser shared by every test that reads a ``/metrics``-style
    payload, instead of three hand-rolled dict shapes.
    """
    out: dict[str, dict[tuple[tuple[str, str], ...], float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ConfigurationError(f"bad exposition line: {line!r}")
        labels: tuple[tuple[str, str], ...] = ()
        name = name_part
        if name_part.endswith("}"):
            name, _, label_blob = name_part.partition("{")
            label_blob = label_blob[:-1]
            pairs = []
            for chunk in _split_labels(label_blob):
                key, _, raw = chunk.partition("=")
                pairs.append((key, _unescape(raw.strip('"'))))
            labels = tuple(pairs)
        out.setdefault(name, {})[labels] = float(value_part)
    return out


def _split_labels(blob: str) -> list[str]:
    """Split ``a="x",b="y"`` on commas outside quotes."""
    parts, depth, cur = [], False, []
    i = 0
    while i < len(blob):
        ch = blob[i]
        if ch == '"' and (i == 0 or blob[i - 1] != "\\"):
            depth = not depth
        if ch == "," and not depth:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
        i += 1
    if cur:
        parts.append("".join(cur))
    return parts
