"""Rule base class and registry.

Every rule has a stable ``code`` (``DET...`` determinism hazards,
``SIM...`` simulation discipline, ``LNT...`` lint meta-findings), a
one-line ``summary`` for ``repro lint --list-rules``, and a
``rationale`` documenting the contract it enforces.  ``allow_paths`` carries fnmatch globs for files
that are exempt *by design* (e.g. the wall-clock profiler); everything
else needs an inline ``# repro: allow[CODE] -- reason``.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from collections.abc import Iterator

from .context import ModuleContext
from .findings import Finding

_REGISTRY: dict[str, "LintRule"] = {}


class LintRule:
    """Base class: subclasses set the class attributes and ``check``."""

    code: str = ""
    name: str = ""
    summary: str = ""
    rationale: str = ""
    #: fnmatch globs (posix) of files exempt by design.
    allow_paths: tuple[str, ...] = ()

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover - abstract

    # -- helpers shared by concrete rules ------------------------------------

    def applies_to(self, path: str) -> bool:
        return not any(fnmatch(path, glob) for glob in self.allow_paths)

    def finding(self, ctx: ModuleContext, node: ast.AST,
                message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(code=self.code, message=message, path=ctx.path,
                       line=line, col=col, snippet=ctx.snippet(line))


def register(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator adding a rule (by code) to the global registry."""
    rule = cls()
    if not rule.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return cls


def all_rules() -> list[LintRule]:
    """Every registered rule, ordered by code."""
    _load()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> LintRule:
    _load()
    return _REGISTRY[code]


def _load() -> None:
    # Import the concrete rule modules exactly once; the @register
    # decorators populate the table as a side effect.
    from . import rules_det, rules_sim  # noqa: F401


class _MetaRule(LintRule):
    """Findings the framework emits itself (never via ``check``)."""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())


@register
class SyntaxErrorRule(_MetaRule):
    code = "LNT000"
    name = "unparseable-file"
    summary = "file does not parse"
    rationale = "A file the linter cannot parse cannot be vouched for."


@register
class MissingReasonRule(_MetaRule):
    code = "LNT001"
    name = "suppression-without-reason"
    summary = "inline suppression without a `-- reason`"
    rationale = (
        "Every exemption must document why the hazard is not one; a "
        "bare allow[CODE] is indistinguishable from silencing noise.")


@register
class UnusedSuppressionRule(_MetaRule):
    code = "LNT002"
    name = "unused-suppression"
    summary = "suppression that matches no finding"
    rationale = (
        "Stale allows accumulate and hide future regressions at the "
        "same site; delete them when the hazard goes away.")
