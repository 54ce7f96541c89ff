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
  :class:`~repro.obs.stats.LogHistogram`; ``observe()`` appends the raw
  value, bucketing runs in bulk before a read, and quantiles are paid
  only at collection.

Instruments are families keyed by label names; ``family.labels(...)``
returns a child handle that callers cache once and update with plain
attribute math — the per-request path never touches a dict.  A child's
label values never change, so it renders its series key(s) once, when
it registers, and every read is a walk over ``(key, value)`` pairs.

``exposition()`` renders the Prometheus text format (histograms as
summaries with ``quantile`` labels) and ``sample_dict()`` the
scraper's flat dict, both from the same series.  The exposition is the
one telemetry surface over HTTP: the vLLM server's ``/metrics`` serves
its engine's slice, the router's ``/router/metrics`` the whole registry
and ``/router/stats`` the ``router_`` slice.  :func:`parse_exposition` is
the one parser every test reading them uses.

Determinism: collection order is (metric name, label values) sorted, so
two simulations that took the same path render byte-identical text no
matter how many worker processes the campaign used.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from ..errors import ConfigurationError
from .stats import LogHistogram

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "parse_exposition"]

#: Quantiles exported for every histogram (summary exposition).
HISTOGRAM_QUANTILES = (0.5, 0.95, 0.99)

#: Decimal places ``sample_dict`` keeps of a non-integer value.
_SAMPLE_DIGITS = 9


def _fmt(value: float) -> str:
    """Canonical sample rendering: integral floats without a dot."""
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _key(name: str, label_names: tuple[str, ...],
         values: tuple[str, ...]) -> str:
    """``name{a="x",b="y"}`` — the bare name for the unlabeled child."""
    if not label_names:
        return name
    inner = ",".join(f'{n}="{_escape(v)}"'
                      for n, v in zip(label_names, values, strict=True))
    return name + "{" + inner + "}"


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _unescape(value: str) -> str:
    return (value.replace("\\n", "\n").replace('\\"', '"')
            .replace("\\\\", "\\"))


class _Child:
    """Base child handle: one series, its key rendered at registration."""

    __slots__ = ("key",)

    def __init__(self, name: str, label_names: tuple[str, ...],
                 values: tuple[str, ...]):
        self.key = _key(name, label_names, values)

    def series(self) -> list[tuple[str, float]]:
        return [(self.key, self.value)]


class Counter(_Child):
    """Monotone counter child."""

    __slots__ = ("value",)

    def __init__(self, name: str, label_names: tuple[str, ...],
                 values: tuple[str, ...]):
        super().__init__(name, label_names, values)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up")
        self.value += amount


class Gauge(_Child):
    """Point-in-time value; explicit or callback-backed."""

    __slots__ = ("_value", "_fn")

    def __init__(self, name: str, label_names: tuple[str, ...],
                 values: tuple[str, ...]):
        super().__init__(name, label_names, values)
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


class Histogram:
    """Distribution summary backed by :class:`LogHistogram`.

    ``observe`` only appends the raw value; the values are bucketed in
    one :meth:`LogHistogram.add_many` loop, and summed in arrival
    order, before any read of ``hist``, ``count`` or ``sum``, and
    whenever ``_FOLD_AT`` of them wait, so memory stays bounded with no
    reader.  Count/sum/quantiles are computed at collection.
    """

    __slots__ = ("_keys", "_hist", "_count", "_sum", "_pending")

    #: Raw values that wait before they are bucketed.
    _FOLD_AT = 256

    _PERCENTILES = tuple(q * 100.0 for q in HISTOGRAM_QUANTILES)

    def __init__(self, name: str, label_names: tuple[str, ...],
                 values: tuple[str, ...]):
        self._keys = (
            _key(name + "_count", label_names, values),
            _key(name + "_sum", label_names, values),
            *(_key(name, label_names + ("quantile",), values + (_fmt(q),))
              for q in HISTOGRAM_QUANTILES))
        self._hist = LogHistogram()
        self._count = 0
        self._sum = 0.0
        self._pending: list[float] = []

    def observe(self, value: float) -> None:
        pending = self._pending
        pending.append(value)
        if len(pending) >= self._FOLD_AT:
            self._fold()

    def _fold(self) -> None:
        pending = self._pending
        if pending:
            self._hist.add_many(pending)
            self._count += len(pending)
            total = self._sum
            for value in pending:   # not sum(): 3.12+ compensates
                total += value
            self._sum = total
            pending.clear()

    @property
    def hist(self) -> LogHistogram:
        self._fold()
        return self._hist

    @property
    def count(self) -> int:
        self._fold()
        return self._count

    @property
    def sum(self) -> float:
        self._fold()
        return self._sum

    def series(self) -> list[tuple[str, float]]:
        self._fold()
        return list(zip(self._keys, (
            float(self._count), self._sum,
            *self._hist.quantiles(self._PERCENTILES)), strict=True))


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """A named instrument with a fixed label-name schema."""

    __slots__ = ("name", "kind", "help", "label_names", "_children")

    def __init__(self, name: str, kind: str, help: str,
                 label_names: tuple[str, ...]):
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self._children: dict[tuple[str, ...],
                             Counter | Gauge | Histogram] = {}

    def labels(self, **labels: Any) -> Any:
        """The child for one label-value assignment (created once)."""
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ConfigurationError(
                f"{self.name}: expected labels {list(self.label_names)}, "
                f"got {sorted(labels)}")
        values = tuple(str(labels[n]) for n in self.label_names)
        child = self._children.get(values)
        if child is None:
            child = _KINDS[self.kind](self.name, self.label_names, values)
            self._children[values] = child
        return child

    def series(self, where: dict[str, str] | None = None
               ) -> list[tuple[str, float]]:
        """``(key, value)`` of every child ``where`` admits, in
        label-value order."""
        out: list[tuple[str, float]] = []
        for values in sorted(self._children):
            if where:
                labels = dict(zip(self.label_names, values, strict=True))
                if any(labels.get(k) != v for k, v in where.items()):
                    continue
            out += self._children[values].series()
        return out


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
        family = _Family(name, kind, help, label_names)
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

    def exposition(self, where: dict[str, str] | None = None,
                   prefix: str | None = None) -> str:
        """Prometheus text format, deterministically ordered.

        ``where`` keeps the children whose labels include every given
        (name, value) pair (one engine's slice: ``engine=<name>``);
        ``prefix`` the families whose name starts with it (``router_``).
        """
        lines: list[str] = []
        for name in sorted(self._families):
            if prefix is not None and not name.startswith(prefix):
                continue
            family = self._families[name]
            series = family.series(where)
            if not series:
                continue
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            kind = "summary" if family.kind == "histogram" else family.kind
            lines.append(f"# TYPE {name} {kind}")
            lines += [f"{key} {_fmt(value)}" for key, value in series]
        return "\n".join(lines) + ("\n" if lines else "")

    def sample_dict(self) -> dict[str, float]:
        """Flat ``{series-key: value}`` (the scraper's unit), non-integer
        values rounded to ``_SAMPLE_DIGITS`` places."""
        return {key: value if value.is_integer()
                else round(value, _SAMPLE_DIGITS)
                for name in sorted(self._families)
                for key, value in self._families[name].series()}


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
