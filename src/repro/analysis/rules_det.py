"""Determinism rules: DET001-DET004.

These enforce the repo's byte-identical-scorecards contract: simulated
components must derive *everything* observable from the simulated
clock (``kernel.now``) and the named RNG streams
(:mod:`repro.simkernel.rng`), never from the host process.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .context import ModuleContext
from .findings import Finding
from .rules import LintRule, register

#: Host-clock reads.  Anything here in a sim-path module leaks wall
#: time into results that must be a pure function of (spec, seed).
_WALLCLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: numpy / stdlib RNG constructors that *are* the sanctioned way to get
#: a stream — provided they are seeded (called with arguments).
_RNG_CONSTRUCTORS = frozenset({
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.Philox",
})


@register
class WallClockRule(LintRule):
    code = "DET001"
    name = "wall-clock-read"
    summary = "wall-clock read in a sim-path module"
    rationale = (
        "Simulated time is kernel.now; reading the host clock makes "
        "results depend on machine load and breaks same-seed-same-trace.")
    # The self-profiler and the benchmarks measure *host* performance —
    # wall clock is their entire point.
    allow_paths = ("*/obs/profile.py", "*benchmarks/*")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.resolve(node.func)
            if dotted in _WALLCLOCK:
                yield self.finding(
                    ctx, node,
                    f"wall-clock read {dotted}() on a sim path; use "
                    f"kernel.now (simulated seconds) instead")


@register
class GlobalRngRule(LintRule):
    code = "DET002"
    name = "global-rng"
    summary = "module-level RNG instead of a named simkernel stream"
    rationale = (
        "Global RNG state is shared across components and processes; "
        "draws interleave unpredictably.  Every stochastic choice must "
        "come from kernel.rng.stream(name) so adding a new source of "
        "randomness never perturbs existing ones.")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.resolve(node.func)
            if dotted is None:
                continue
            if dotted in _RNG_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx, node,
                        f"unseeded {dotted}() draws entropy from the OS; "
                        f"seed it, or use kernel.rng.stream(name)")
                continue
            if dotted.startswith("random.") \
                    or dotted.startswith("numpy.random."):
                yield self.finding(
                    ctx, node,
                    f"global-RNG call {dotted}(); draw from "
                    f"kernel.rng.stream(name) so streams stay independent "
                    f"and reproducible")


#: Wrapping calls that neutralize set iteration order.  sorted() imposes
#: an order; set/frozenset/any/all/len are order-insensitive sinks.
#: min/max are deliberately NOT here: with a key function, ties break by
#: encounter order — exactly the FlowNetwork bug class.
_ORDER_SAFE_WRAPPERS = frozenset({"sorted", "set", "frozenset",
                                  "any", "all", "len"})


@register
class SetIterationRule(LintRule):
    code = "DET003"
    name = "unordered-set-iteration"
    summary = "iteration over a set without an explicit ordering"
    rationale = (
        "Set iteration order depends on object identity (addresses) or "
        "PYTHONHASHSEED for strings, so it varies across processes — "
        "the FlowNetwork max-min tie-break bug.  Iterate "
        "sorted(s, key=...) or justify why order cannot escape.")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                yield from self._check_iter(ctx, node.iter, node)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp)):
                for comp in node.generators:
                    yield from self._check_iter(ctx, comp.iter, node)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id in ("list", "tuple", "enumerate",
                                         "iter") \
                    and len(node.args) == 1 \
                    and ctx.is_set_expr(node.args[0]):
                yield self._emit(ctx, node.args[0])

    def _check_iter(self, ctx: ModuleContext, iterable: ast.expr,
                    owner: ast.AST) -> Iterator[Finding]:
        if not ctx.is_set_expr(iterable):
            return
        # ``for x in sorted(s)`` never reaches here (the iterable is the
        # sorted() call); this exempts ``sorted(x for x in s)`` and the
        # like, where the comprehension feeds an order-neutralizing call.
        wrapper = ctx.parent_call_name(owner)
        if wrapper in _ORDER_SAFE_WRAPPERS:
            return
        yield self._emit(ctx, iterable)

    def _emit(self, ctx: ModuleContext, iterable: ast.expr) -> Finding:
        try:
            expr = ast.unparse(iterable)
        except Exception:  # pragma: no cover
            expr = "<set>"
        return self.finding(
            ctx, iterable,
            f"iteration over set {expr!r} has identity/hash-seed "
            f"dependent order; iterate sorted({expr}, key=...) or add a "
            f"reasoned allow if order provably cannot escape")


@register
class EnvironReadRule(LintRule):
    code = "DET004"
    name = "environ-read"
    summary = "os.environ read outside the typed-config layer"
    rationale = (
        "Process environment is invisible to the spec hash: two runs of "
        "the same spec could differ because of an ambient variable.  "
        "All configuration flows through typed specs; only the CLI may "
        "touch the environment.")
    allow_paths = ("*/cli.py", "*benchmarks/*")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                dotted = ctx.resolve(node.func)
                if dotted in ("os.getenv", "os.putenv", "os.unsetenv"):
                    yield self.finding(
                        ctx, node,
                        f"{dotted}() bypasses the typed-config layer; "
                        f"plumb the value through a spec/config dataclass")
            elif isinstance(node, ast.Attribute):
                dotted = ctx.resolve(node)
                if dotted in ("os.environ", "os.environb"):
                    yield self.finding(
                        ctx, node,
                        f"{dotted} read outside the typed-config layer; "
                        f"plumb the value through a spec/config dataclass")
