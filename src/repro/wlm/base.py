"""Workload manager core: jobs, allocations, time limits, reservations."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from collections.abc import Callable, Generator, Iterable
from typing import TYPE_CHECKING, Any

from ..errors import ConfigurationError, JobKilled, SchedulingError
from ..hardware.node import Node
from ..simkernel import Event, Interrupted

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel import Process, SimKernel


class JobState(enum.Enum):
    PENDING = "PENDING"
    RUNNING = "RUNNING"
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"
    TIMEOUT = "TIMEOUT"
    NODE_FAIL = "NODE_FAIL"  # killed by maintenance / node down

TERMINAL_STATES = {JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED,
                   JobState.TIMEOUT, JobState.NODE_FAIL}


@dataclass
class JobSpec:
    """A batch job request.

    ``script`` is a callable ``(JobContext) -> generator`` — the job's
    "batch script" as a simulation process.  It may return a value, which
    becomes the job's result.
    """

    name: str
    nodes: int
    time_limit: float
    script: Callable[["JobContext"], Generator]
    user: str = "user"
    partition: str = "batch"

    def __post_init__(self):
        if self.nodes < 1:
            raise ConfigurationError("job needs at least one node")
        if self.time_limit <= 0:
            raise ConfigurationError("job needs a positive time limit")


@dataclass
class MaintenanceReservation:
    """A scheduled downtime window.

    Jobs are not started if their time-limit window would overlap the
    reservation; running jobs on reserved nodes are killed at its start
    (this is what terminates Fig. 12's run 3 in the paper).
    """

    start: float
    end: float
    reason: str = "scheduled maintenance"
    nodes: frozenset[str] | None = None  # None = whole system

    def covers(self, hostname: str) -> bool:
        return self.nodes is None or hostname in self.nodes

    def blocks(self, now: float, time_limit: float, hostname: str) -> bool:
        """Would a job started now (worst case ending at now+limit) on
        ``hostname`` collide with this reservation?"""
        if not self.covers(hostname):
            return False
        return now < self.end and now + time_limit > self.start


class Job:
    """A submitted job instance."""

    _ids = itertools.count(1000)

    def __init__(self, kernel: SimKernel, spec: JobSpec):
        self.id = next(Job._ids)
        self.kernel = kernel
        self.spec = spec
        self.state = JobState.PENDING
        self.allocated: list[Node] = []
        self.submitted_at = kernel.now
        self.started_at: float | None = None
        self.ended_at: float | None = None
        self.result: Any = None
        self.kill_reason: str | None = None
        self.started: Event = kernel.event()
        self.finished: Event = kernel.event()
        self._proc: Process | None = None

    @property
    def hostnames(self) -> list[str]:
        return [n.hostname for n in self.allocated]

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Job {self.id} {self.spec.name!r} {self.state.value}>"


class JobContext:
    """What a job script sees: its allocation plus srun-like helpers."""

    def __init__(self, kernel: SimKernel, job: Job,
                 manager: WorkloadManager):
        self.kernel = kernel
        self.job = job
        self.manager = manager
        self._children: list = []
        self._cleanups: list[Callable[[], None]] = []

    def defer(self, cleanup: Callable[[], None]) -> None:
        """Register a cleanup to run when the job ends for any reason
        (stop containers, release leases...)."""
        self._cleanups.append(cleanup)

    @property
    def nodes(self) -> list[Node]:
        return self.job.allocated

    @property
    def head_node(self) -> Node:
        return self.job.allocated[0]

    def launch(self, node: Node,
               fn: Callable[[Node], Generator], name: str = ""):
        """srun-like: start ``fn(node)`` as a process on one node."""
        if node not in self.job.allocated:
            raise ConfigurationError(
                f"{node.hostname} is not part of job {self.job.id}'s allocation")
        proc = self.kernel.spawn(fn(node),
                                 name=name or f"task@{node.hostname}")
        self._children.append(proc)
        return proc

    def launch_on_all(self, fn: Callable[[Node], Generator],
                      exclude: Iterable[Node] = ()):
        """srun -N: one task per allocated node (minus exclusions)."""
        skip = set(id(n) for n in exclude)
        return [self.launch(n, fn) for n in self.job.allocated
                if id(n) not in skip]

    def sleep(self, seconds: float):
        return self.kernel.timeout(seconds)


class WorkloadManager:
    """Base scheduler: FIFO + conservative backfill over whole nodes.

    Concrete managers (Slurm, Flux) differ in user-facing submission
    syntax and trace labels; the scheduling core is shared.
    """

    name = "wlm"

    def __init__(self, kernel: SimKernel, nodes: list[Node],
                 platform: str = ""):
        if not nodes:
            raise ConfigurationError("workload manager needs nodes")
        self.kernel = kernel
        self.nodes = list(nodes)
        self.platform = platform or self.name
        self.queue: list[Job] = []
        self.running: list[Job] = []
        self.reservations: list[MaintenanceReservation] = []
        self.history: list[Job] = []

    # -- public API ------------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        if spec.nodes > len(self.nodes):
            raise SchedulingError(
                f"job {spec.name!r} wants {spec.nodes} nodes; platform "
                f"{self.platform!r} has {len(self.nodes)}")
        job = Job(self.kernel, spec)
        self.queue.append(job)
        self.kernel.trace.emit(f"{self.name}.submit", job=job.id,
                               name=spec.name, nodes=spec.nodes)
        self._schedule_soon()
        return job

    def cancel(self, job: Job, reason: str = "scancel") -> None:
        if job.terminal:
            return
        if job.state == JobState.PENDING:
            self.queue.remove(job)
            self._end(job, JobState.CANCELLED, reason)
            return
        job.kill_reason = reason
        if job._proc is not None:
            job._proc.interrupt(reason)

    def fail_node(self, hostname: str) -> None:
        """A node dies: mark it down and kill jobs running on it."""
        for node in self.nodes:
            if node.hostname == hostname:
                node.up = False
                break
        else:
            raise ConfigurationError(f"unknown node {hostname!r}")
        for job in list(self.running):
            if hostname in job.hostnames:
                job.kill_reason = f"node failure on {hostname} (maintenance)"
                if job._proc is not None:
                    job._proc.interrupt(job.kill_reason)
        self.kernel.trace.emit(f"{self.name}.node_fail", node=hostname)

    def restore_node(self, hostname: str) -> None:
        for node in self.nodes:
            if node.hostname == hostname:
                node.up = True
                self._schedule_soon()
                return
        raise ConfigurationError(f"unknown node {hostname!r}")

    def add_reservation(self, start: float, duration: float,
                        reason: str = "scheduled maintenance",
                        nodes: Iterable[str] | None = None
                        ) -> MaintenanceReservation:
        res = MaintenanceReservation(
            start=start, end=start + duration, reason=reason,
            nodes=frozenset(nodes) if nodes is not None else None)
        self.reservations.append(res)

        def enforcer(env):
            if env.now < start:
                yield start - env.now
            for job in list(self.running):
                if any(res.covers(h) for h in job.hostnames):
                    job.kill_reason = res.reason
                    if job._proc is not None:
                        job._proc.interrupt(res.reason)
            env.trace.emit(f"{self.name}.maintenance.start", reason=reason)
            # Jobs held for the window become eligible when it ends.
            if env.now < res.end:
                yield res.end - env.now
            self._schedule_pass()
            env.trace.emit(f"{self.name}.maintenance.end", reason=reason)

        self.kernel.spawn(enforcer(self.kernel), name=f"maint@{start}")
        self._schedule_soon()
        return res

    # -- scheduling --------------------------------------------------------------

    def _free_nodes(self) -> list[Node]:
        busy = {id(n) for job in self.running for n in job.allocated}
        return [n for n in self.nodes if id(n) not in busy and n.up]

    def _eligible_nodes(self, spec: JobSpec) -> list[Node]:
        now = self.kernel.now
        out = []
        for node in self._free_nodes():
            if any(r.blocks(now, spec.time_limit, node.hostname)
                   for r in self.reservations):
                continue
            out.append(node)
        return out

    def _schedule_soon(self) -> None:
        ev = self.kernel.event()
        ev.succeed()
        ev.add_callback(lambda _ev: self._schedule_pass())

    def _schedule_pass(self) -> None:
        """FIFO with conservative backfill.

        The head job starts as soon as enough unreserved nodes are free.
        A later job may backfill only if starting it cannot delay the head
        job: it must fit now *and* its time limit must end before the
        head's earliest possible start (estimated from running jobs'
        time limits).
        """
        progressed = True
        while progressed:
            progressed = False
            if not self.queue:
                return
            head = self.queue[0]
            avail = self._eligible_nodes(head.spec)
            if len(avail) >= head.spec.nodes:
                self.queue.pop(0)
                self._start(head, avail[:head.spec.nodes])
                progressed = True
                continue
            shadow = self._head_shadow_time(head)
            for job in self.queue[1:]:
                avail = self._eligible_nodes(job.spec)
                if len(avail) < job.spec.nodes:
                    continue
                if self.kernel.now + job.spec.time_limit <= shadow:
                    self.queue.remove(job)
                    self._start(job, avail[:job.spec.nodes])
                    progressed = True
                    break

    def _head_shadow_time(self, head: Job) -> float:
        """Earliest time the head job could start, assuming running jobs
        run to their full time limits (node-weighted)."""
        free = len(self._free_nodes())
        need = head.spec.nodes - free
        if need <= 0:
            return self.kernel.now
        releases = sorted(
            ((job.started_at or 0) + job.spec.time_limit,
             len(job.allocated))
            for job in self.running)
        freed = 0
        for end, nodes in releases:
            freed += nodes
            if freed >= need:
                return end
        return float("inf")

    # -- execution ------------------------------------------------------------------

    def _start(self, job: Job, nodes: list[Node]) -> None:
        job.allocated = nodes
        job.state = JobState.RUNNING
        job.started_at = self.kernel.now
        self.running.append(job)
        job.started.succeed(job)
        self.kernel.trace.emit(f"{self.name}.start", job=job.id,
                               name=job.spec.name, nodes=job.hostnames)
        job._proc = self.kernel.spawn(self._run_job(job),
                                      name=f"job:{job.spec.name}")

    def _run_job(self, job: Job):
        ctx = JobContext(self.kernel, job, self)
        job._ctx = ctx  # type: ignore[attr-defined]
        limit_timer = self.kernel.timeout(job.spec.time_limit)
        limit_timer.add_callback(self._make_limit_enforcer(job))
        try:
            result = yield from job.spec.script(ctx)
        except Interrupted as intr:
            self._teardown(ctx)
            if intr.cause == "__time_limit__":
                self._end(job, JobState.TIMEOUT, "time limit reached")
            elif job.kill_reason and "maintenance" in str(job.kill_reason):
                self._end(job, JobState.NODE_FAIL, job.kill_reason)
            else:
                self._end(job, JobState.CANCELLED,
                          str(job.kill_reason or intr.cause))
            return
        except Exception as exc:  # job script crashed
            self._teardown(ctx)
            self._end(job, JobState.FAILED, repr(exc))
            return
        self._teardown(ctx)
        job.result = result
        self._end(job, JobState.COMPLETED, "ok")

    @staticmethod
    def _teardown(ctx: JobContext) -> None:
        for proc in ctx._children:
            if proc.is_alive:
                proc.interrupt("job ended")
        for cleanup in reversed(ctx._cleanups):
            cleanup()

    def _make_limit_enforcer(self, job: Job):
        def enforce(_ev) -> None:
            if not job.terminal and job._proc is not None:
                job._proc.interrupt("__time_limit__")
        return enforce

    def _end(self, job: Job, state: JobState, reason: str) -> None:
        job.state = state
        job.ended_at = self.kernel.now
        if job in self.running:
            self.running.remove(job)
        job.allocated = job.allocated  # allocation recorded for history
        self.history.append(job)
        if not job.finished.triggered:
            if state == JobState.COMPLETED:
                job.finished.succeed(job.result)
            else:
                job.finished.fail(JobKilled(
                    f"job {job.spec.name!r} ended {state.value}: {reason}",
                    sim_time=self.kernel.now))
        self.kernel.trace.emit(f"{self.name}.end", job=job.id,
                               state=state.value, reason=reason)
        self._schedule_soon()
