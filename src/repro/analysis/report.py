"""Finding reporters: human-readable text and machine-readable JSON."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover
    from .runner import LintResult


def render_human(result: LintResult) -> str:
    """Compiler-style report grouped by file."""
    lines: list[str] = []
    last_path = None
    for finding in sorted(result.findings, key=Finding.sort_key):
        if finding.path != last_path:
            if last_path is not None:
                lines.append("")
            lines.append(finding.path)
            last_path = finding.path
        lines.append(f"  {finding.line}:{finding.col + 1} "
                     f"{finding.code} {finding.message}")
        if finding.snippet:
            lines.append(f"      {finding.snippet}")
    if lines:
        lines.append("")
    lines.append(summary_line(result))
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    doc = {
        "version": 1,
        "findings": [f.to_dict()
                     for f in sorted(result.findings, key=Finding.sort_key)],
        "summary": {
            "files": result.files,
            "findings": len(result.findings),
            "suppressed": result.suppressed,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def summary_line(result: LintResult) -> str:
    n = len(result.findings)
    noun = "finding" if n == 1 else "findings"
    return (f"{n} {noun} across {result.files} files "
            f"({result.suppressed} suppressed)")
