"""The :class:`Finding` record every lint rule emits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    code: str
    message: str
    path: str          # posix-style, relative to the lint invocation
    line: int          # 1-based
    col: int           # 0-based, as reported by the ast module
    snippet: str       # the stripped source line

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "snippet": self.snippet,
        }

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"
