"""Simulation-discipline rules: SIM001-SIM002."""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .context import ModuleContext
from .findings import Finding
from .rules import LintRule, register

#: Private kernel attributes no component outside simkernel/ may touch.
#: The public surface is now/peek()/run()/advance_to()/timeout()/at()/
#: sleep()/spawn()/start()/call_in()/call_at()/event()/rng/trace/obs.
_PRIVATE_KERNEL_ATTRS = frozenset({
    "_heap", "_queue", "_now", "_seq", "_schedule", "_schedule_at",
    "_active_process",
})

#: Receiver spellings conventionally bound to the kernel.  Components
#: hold their kernel as ``kernel``/``env`` (see SimKernel docstring).
_KERNEL_RECEIVERS = frozenset({"kernel", "env", "simkernel", "sim_kernel"})


@register
class BlockingSleepRule(LintRule):
    code = "SIM001"
    name = "blocking-sleep"
    summary = "blocking time.sleep on a sim path"
    rationale = (
        "time.sleep stalls the host process, not simulated time: it "
        "cannot advance the event heap and silently serializes worker "
        "pools.  Processes wait with `yield delay` (simulated seconds).")
    allow_paths = ("*benchmarks/*", "*/obs/profile.py")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) \
                    and ctx.resolve(node.func) == "time.sleep":
                yield self.finding(
                    ctx, node,
                    "blocking time.sleep() on a sim path; use "
                    "`yield delay` (simulated seconds)")


@register
class PrivateKernelStateRule(LintRule):
    code = "SIM002"
    name = "private-kernel-state"
    summary = "direct access to private kernel state outside simkernel/"
    rationale = (
        "kernel._heap and friends are implementation details of the "
        "fast-forward and coalescing machinery; poking them from outside "
        "simkernel/ bypasses the invariants (peek()>now, generation "
        "counters) those paths rely on.  Use the public kernel API.")
    allow_paths = ("*/simkernel/*",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute) \
                    or node.attr not in _PRIVATE_KERNEL_ATTRS:
                continue
            receiver = node.value
            name = None
            if isinstance(receiver, ast.Name):
                name = receiver.id
            elif isinstance(receiver, ast.Attribute):
                name = receiver.attr
            if name in _KERNEL_RECEIVERS:
                yield self.finding(
                    ctx, node,
                    f"access to private kernel state .{node.attr} from "
                    f"outside simkernel/; use the public kernel API "
                    f"(now, peek(), advance_to(), call_in(), ...)")
