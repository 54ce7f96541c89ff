"""Unit helpers: bytes, bandwidth, and time.

The simulation internally uses **bytes**, **bytes/second**, and **seconds**
everywhere.  This module provides readable constructors and parsers so specs
read like the paper ("80 GiB H100", "16 x 25 Gbps", "--max-model-len 65536").

Conventions
-----------
* ``KiB/MiB/GiB/TiB`` are binary (1024-based) — used for memory and storage.
* ``KB/MB/GB/TB`` are decimal (1000-based) — used for weight sizes quoted in
  vendor units and network payloads.
* ``Gbps`` etc. are decimal *bits* per second — network link rates.
"""

from __future__ import annotations

import re

from .errors import ConfigurationError

# --- byte constants ---------------------------------------------------------

KiB = 1024
MiB = 1024**2
GiB = 1024**3
TiB = 1024**4

KB = 1000
MB = 1000**2
GB = 1000**3
TB = 1000**4

# --- bandwidth constructors (return bytes/second) ---------------------------


def gbps(value: float) -> float:
    """Decimal gigabits per second -> bytes per second."""
    return value * 1e9 / 8.0


def mbps(value: float) -> float:
    """Decimal megabits per second -> bytes per second."""
    return value * 1e6 / 8.0


def tBps(value: float) -> float:
    """Decimal teraBYTES per second -> bytes per second (HBM rates)."""
    return value * 1e12


# --- time constructors (seconds) --------------------------------------------

SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0


def minutes(value: float) -> float:
    return value * MINUTE


def hours(value: float) -> float:
    return value * HOUR


_SIZE_RE = re.compile(
    r"^\s*(?P<num>\d+(?:\.\d+)?)\s*(?P<unit>[KMGT]?i?B|B)\s*$", re.IGNORECASE
)

_SIZE_FACTORS = {
    "b": 1,
    "kb": KB, "mb": MB, "gb": GB, "tb": TB,
    "kib": KiB, "mib": MiB, "gib": GiB, "tib": TiB,
}


def parse_size(text: str | int | float) -> int:
    """Parse a human size string ("80 GiB", "200GB", 123) into bytes.

    Raises :class:`ConfigurationError` on malformed input.
    """
    if isinstance(text, (int, float)):
        if text < 0:
            raise ConfigurationError(f"negative size: {text!r}")
        return int(text)
    m = _SIZE_RE.match(text)
    if not m:
        raise ConfigurationError(f"unparseable size: {text!r}")
    num = float(m.group("num"))
    unit = m.group("unit").lower()
    # normalise e.g. "GiB" vs "gib"
    factor = _SIZE_FACTORS.get(unit)
    if factor is None:
        raise ConfigurationError(f"unknown size unit in {text!r}")
    return int(num * factor)


_BW_RE = re.compile(
    r"^\s*(?P<num>\d+(?:\.\d+)?)\s*(?P<unit>[KMGT]bps|[KMGT]B/s)\s*$",
    re.IGNORECASE,
)

_BW_FACTORS = {
    "kbps": 1e3 / 8, "mbps": 1e6 / 8, "gbps": 1e9 / 8, "tbps": 1e12 / 8,
    "kb/s": 1e3, "mb/s": 1e6, "gb/s": 1e9, "tb/s": 1e12,
}


def parse_bandwidth(text: str | int | float) -> float:
    """Parse a bandwidth string ("25 Gbps", "3.35 TB/s") into bytes/second."""
    if isinstance(text, (int, float)):
        if text < 0:
            raise ConfigurationError(f"negative bandwidth: {text!r}")
        return float(text)
    m = _BW_RE.match(text)
    if not m:
        raise ConfigurationError(f"unparseable bandwidth: {text!r}")
    factor = _BW_FACTORS.get(m.group("unit").lower())
    if factor is None:
        raise ConfigurationError(f"unknown bandwidth unit in {text!r}")
    return float(m.group("num")) * factor


def fmt_bytes(n: float) -> str:
    """Human-readable binary-unit formatting for logs and reports."""
    n = float(n)
    for unit, factor in (("TiB", TiB), ("GiB", GiB), ("MiB", MiB), ("KiB", KiB)):
        if abs(n) >= factor:
            return f"{n / factor:.2f} {unit}"
    return f"{n:.0f} B"


def fmt_duration(seconds: float) -> str:
    """Human-readable duration ("1h 02m 03s")."""
    seconds = float(seconds)
    if seconds < 0:
        return f"-{fmt_duration(-seconds)}"
    h, rem = divmod(seconds, 3600)
    m, s = divmod(rem, 60)
    if h >= 1:
        return f"{int(h)}h {int(m):02d}m {s:04.1f}s"
    if m >= 1:
        return f"{int(m)}m {s:04.1f}s"
    return f"{s:.3f}s"
