"""Lint orchestration: discover files, run rules, filter, report.

``lint_paths`` is the library entry (used by the tests and any future
pre-commit hook); ``main`` is the ``repro lint`` CLI surface.

Exit codes: 0 clean, 1 findings, 2 unparseable input.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

from .context import ModuleContext
from .findings import Finding
from .report import render_human, render_json
from .rules import LintRule, all_rules
from .suppress import apply_suppressions, parse_suppressions

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis"})


@dataclass
class LintResult:
    """Outcome of one lint run (post suppression filtering)."""

    findings: list[Finding] = field(default_factory=list)
    files: int = 0
    suppressed: int = 0
    parse_errors: int = 0

    @property
    def exit_code(self) -> int:
        if self.parse_errors:
            return 2
        return 1 if self.findings else 0


def discover(paths: Iterable[str | pathlib.Path]) -> list[pathlib.Path]:
    """Every ``*.py`` file under ``paths`` (files pass through)."""
    out: list[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_file():
            out.append(path)
            continue
        for sub in sorted(path.rglob("*.py")):
            if not _SKIP_DIRS.intersection(sub.parts):
                out.append(sub)
    return out


def lint_file(path: pathlib.Path,
              rules: Sequence[LintRule]) -> tuple[list[Finding], int]:
    """All unsuppressed findings for one file.

    Returns ``(findings, suppressed_count)``; a syntax error yields a
    single LNT000 finding.
    """
    posix = path.as_posix()
    source = path.read_text()
    try:
        ctx = ModuleContext.build(posix, source)
    except SyntaxError as exc:
        return [Finding(
            code="LNT000",
            message=f"file does not parse: {exc.msg}",
            path=posix, line=exc.lineno or 1, col=(exc.offset or 1) - 1,
            snippet="")], 0
    raw: list[Finding] = []
    for rule in rules:
        if rule.applies_to(posix):
            raw.extend(rule.check(ctx))
    suppressions = parse_suppressions(posix, source)
    return apply_suppressions(raw, suppressions)


def lint_paths(paths: Iterable[str | pathlib.Path], *,
               rules: Sequence[LintRule] | None = None) -> LintResult:
    """Lint every python file under ``paths``."""
    rules = list(rules) if rules is not None else all_rules()
    result = LintResult()
    collected: list[Finding] = []
    for path in discover(paths):
        result.files += 1
        findings, suppressed = lint_file(path, rules)
        result.suppressed += suppressed
        result.parse_errors += sum(1 for f in findings
                                   if f.code == "LNT000")
        collected.extend(findings)
    result.findings = sorted(collected, key=Finding.sort_key)
    return result


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``repro lint`` flag surface (shared with the tests)."""
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=["human", "json"],
                        default="human", dest="fmt",
                        help="report format")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule code and summary, then "
                             "exit")
    parser.add_argument("--select", action="append", metavar="CODE",
                        help="run only these rule codes (repeatable)")


def main(args: argparse.Namespace) -> int:
    """Entry point for the ``repro lint`` subcommand."""
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.summary}")
            if rule.allow_paths:
                print(f"        allowed by design: "
                      f"{', '.join(rule.allow_paths)}")
        return 0
    rules = all_rules()
    if args.select:
        wanted = set(args.select)
        unknown = wanted - {r.code for r in rules}
        if unknown:
            print(f"unknown rule codes: {sorted(unknown)}",
                  file=sys.stderr)
            return 2
        rules = [r for r in rules if r.code in wanted]
    result = lint_paths(args.paths, rules=rules)
    output = render_json(result) if args.fmt == "json" \
        else render_human(result)
    print(output, end="" if output.endswith("\n") else "\n")
    return result.exit_code
