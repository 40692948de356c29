"""Task-scheduler interface and the shared application context.

Both the stock scheduler and RUPAM implement :class:`TaskScheduler`; the
driver is scheduler-agnostic.  :class:`SchedulerContext` carries everything a
scheduler (and the task runner) may consult: the simulator, configuration,
cluster, block/shuffle managers, randomness, and traces.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cluster.cluster import Cluster
from repro.obs.decision import Observability
from repro.simulate.engine import Simulator
from repro.simulate.randomness import RandomSource
from repro.simulate.trace import TraceRecorder
from repro.spark.blocks import BlockManager
from repro.spark.conf import SparkConf
from repro.spark.pools import SchedulingPools
from repro.spark.shuffle import ShuffleManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.spark.driver import Driver
    from repro.spark.executor import Executor
    from repro.spark.runner import TaskRun
    from repro.spark.taskset import TaskSetManager


@dataclass
class SchedulerContext:
    """Shared state of one simulated cluster session.

    One context serves every application submitted to the cluster: the
    simulator, cluster, block/shuffle managers, and observability bundle are
    cluster-scoped, while per-application lifecycle state lives in the
    driver's :class:`~repro.spark.driver.AppHandle` registry.  ``pools``
    carries the cross-application fair-share accounting the task schedulers
    consult each dispatch round.
    """

    sim: Simulator
    conf: SparkConf
    cluster: Cluster
    blocks: BlockManager
    shuffle: ShuffleManager
    rng: RandomSource
    trace: TraceRecorder
    driver_node: str
    driver: "Driver | None" = field(default=None, repr=False)
    obs: Observability = field(default_factory=Observability, repr=False)
    pools: SchedulingPools = field(default_factory=SchedulingPools, repr=False)

    @property
    def now(self) -> float:
        return self.sim.now

    def active_apps(self) -> list[str]:
        """Ids of applications currently sharing the cluster, in submission
        order — the accessor schedulers use instead of an ambient ``_app``."""
        return self.pools.active_ids()


class TaskScheduler(ABC):
    """What the driver needs from a task-level scheduler.

    Lifecycle: the driver calls :meth:`attach` once, then
    :meth:`executor_memory_for` / :meth:`executor_slots_for` while launching
    executors, then feeds events (`submit_taskset`, `on_task_end`,
    `on_executor_added/removed`).  The scheduler launches tasks by calling
    ``ctx.driver.launch_task(...)`` from :meth:`revive`.

    Every taskset/task event carries an explicit ``app_id`` naming the
    application it belongs to (``None`` means "resolve from the taskset/run",
    which unit tests driving a scheduler directly may rely on); schedulers
    must not assume a single ambient application.  The active application set
    is available through :meth:`SchedulerContext.active_apps`, and
    :meth:`on_app_removed` fires once per application at teardown so
    schedulers can release any per-app state (queues, lock indexes).
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self.ctx: SchedulerContext | None = None

    def attach(self, ctx: SchedulerContext) -> None:
        self.ctx = ctx

    # -- executor sizing hooks (stock Spark: one global config value) --------

    def executor_memory_for(self, node_name: str) -> float:
        assert self.ctx is not None
        return self.ctx.conf.executor_memory_mb

    def executor_slots_for(self, node_name: str) -> int:
        assert self.ctx is not None
        node = self.ctx.cluster.node(node_name)
        cores = self.ctx.conf.executor_cores or node.spec.cpu.cores
        return max(1, cores // self.ctx.conf.task_cpus)

    def stop(self) -> None:
        """Called once by the driver when the last active application ends."""

    def resume(self) -> None:
        """Called when a new application arrives after :meth:`stop` (the
        cluster went idle and is waking back up).  Default: no-op."""

    # -- event feed ------------------------------------------------------------

    @abstractmethod
    def submit_taskset(
        self, ts: "TaskSetManager", app_id: str | None = None
    ) -> None:
        """A stage of application ``app_id`` became runnable."""

    @abstractmethod
    def taskset_finished(
        self, ts: "TaskSetManager", app_id: str | None = None
    ) -> None:
        """All of a stage's tasks succeeded."""

    @abstractmethod
    def on_executor_added(
        self, executor: "Executor", app_id: str | None = None
    ) -> None:
        """An executor came up.  Executors are cluster-scoped (shared by all
        applications); ``app_id`` names the application whose failure
        handling triggered a relaunch, or ``None`` at cluster start."""

    @abstractmethod
    def on_executor_removed(self, executor: "Executor") -> None:
        ...

    @abstractmethod
    def on_task_end(self, run: "TaskRun", app_id: str | None = None) -> None:
        """A task attempt of application ``app_id`` ended (success, failure,
        or kill)."""

    def on_app_removed(self, app_id: str) -> None:
        """Application teardown: release any per-app scheduler state (queued
        entries, lock-index entries, taskset lists).  Default: no-op."""

    # -- cluster membership churn (repro.cluster.dynamics) -----------------------

    def on_node_added(self, node_name: str) -> None:
        """A node joined the cluster.  Executor launch follows separately
        through :meth:`on_executor_added`; most schedulers need nothing
        here.  Default: no-op."""

    def on_node_removed(self, node_name: str) -> None:
        """A node left the cluster for good (decommission, preemption, rack
        failure) — distinct from a transient executor death on a node that
        stays.  Schedulers drop any state pinned to the node (e.g. RUPAM's
        optExecutor locks).  Default: no-op."""

    @abstractmethod
    def revive(self) -> None:
        """Try to place pending work on available executors."""

    # -- shared helpers ---------------------------------------------------------

    @staticmethod
    def resolve_app_id(ts: "TaskSetManager", app_id: str | None) -> str:
        """The explicit ``app_id`` if given, else the taskset's own."""
        return app_id if app_id is not None else ts.app_id
