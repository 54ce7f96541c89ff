"""Generic container app behaviors (test/support plumbing).

Real application behaviors (vLLM server, git clone, aws-cli sync, vector
DB) live with their subsystems and register themselves under the image
``app`` key via :func:`repro.containers.image.register_app`.
"""

from __future__ import annotations

from .image import register_app
from .runtime import ContainerApp, ContainerContext


@register_app("noop")
class NoopApp(ContainerApp):
    """Starts instantly, exits immediately (exit code 0)."""


@register_app("sleep")
class SleepApp(ContainerApp):
    """Batch app: runs for ``REPRO_SLEEP`` simulated seconds, then exits."""

    def run(self, ctx: ContainerContext):
        duration = float(ctx.env.get("REPRO_SLEEP", "1"))
        yield duration


@register_app("server")
class ServerApp(ContainerApp):
    """Long-running service: validates expectations, then serves until
    stopped.  ``REPRO_STARTUP`` controls simulated startup seconds."""

    def startup(self, ctx: ContainerContext):
        ctx.check_expectations()
        delay = float(ctx.env.get("REPRO_STARTUP", "0"))
        if delay:
            yield delay

    def run(self, ctx: ContainerContext):
        yield ctx.stop_event
