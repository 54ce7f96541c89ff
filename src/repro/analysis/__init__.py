"""Determinism & sim-discipline static analysis (``repro lint``).

The repo's load-bearing correctness contract is *determinism*: the same
seed must produce byte-identical scorecards for any worker count, and
the coalescing/fast-forward paths must stay bit-identical to stepping.
Both nondeterminism bugs shipped so far (the identity-hashed
``FlowNetwork`` set iteration, the stale composite-wait resume) were
found by hand, after they shipped.  This package detects those hazard
classes mechanically, before merge — the role sanitizers and race
detectors play in production serving stacks.

Architecture
------------
* :mod:`findings` — the :class:`Finding` record (rule code, location,
  snippet, stable fingerprint).
* :mod:`context` — per-module parse state shared by every rule: the
  AST, an import alias table, and a module-local set-type inference
  table.
* :mod:`rules` — the rule base class and registry; concrete rules live
  in :mod:`rules_det` and :mod:`rules_sim`.
* :mod:`suppress` — inline ``# repro: allow[CODE] -- reason``
  suppressions (a reason is mandatory; unused suppressions are
  themselves findings).
* :mod:`baseline` — the checked-in grandfather file for pre-existing
  findings (kept empty; the clean pass fixed everything).
* :mod:`report` — human-readable and JSON reporters.
* :mod:`runner` — file discovery and orchestration; the CLI entry.

See ``docs/static-analysis.md`` for the rule reference and the
determinism contract each rule enforces.
"""

from .baseline import Baseline
from .context import ModuleContext
from .findings import Finding
from .report import render_human, render_json
from .rules import LintRule, all_rules, get_rule
from .runner import LintResult, lint_paths, main

__all__ = [
    "Baseline",
    "Finding",
    "LintResult",
    "LintRule",
    "ModuleContext",
    "all_rules",
    "get_rule",
    "lint_paths",
    "main",
    "render_human",
    "render_json",
]
