"""The cluster driver: app lifecycles, DAG scheduling, executors, results.

The driver mirrors Spark's DAGScheduler + standalone master duties at the
fidelity the paper's experiments need — and, beyond the paper, it is a
*cluster service*: any number of applications may be submitted at arbitrary
simulated times (``submit``), each tracked by its own :class:`AppHandle`
through pending → running → finished/aborted, sharing one executor fleet.
Cross-app arbitration lives in :class:`~repro.spark.pools.SchedulingPools`
(``conf.scheduler_mode``); the driver feeds it the launch/end demand signal.

Per node the driver launches one executor (sized by the task scheduler's
policy hook), submits each app's jobs sequentially and stages in dependency
order, relaunches executors the OOM model kills, and collects every task
attempt's metrics into per-app :class:`AppResult` s.  Cluster-wide services
(monitor, speculation, the scheduler's periodic machinery) start with the
first live app and stop when the last one ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.cluster.hardware import NodeSpec
from repro.cluster.monitor import ClusterMonitor
from repro.obs.decision import Observability
from repro.obs.span import Span
from repro.spark.application import Application, Job
from repro.spark.executor import Executor
from repro.spark.metrics import TaskMetrics
from repro.spark.locality import Locality
from repro.spark.runner import TaskRun
from repro.spark.scheduler import SchedulerContext, TaskScheduler
from repro.spark.speculation import SpeculationLoop
from repro.spark.pools import validate_share
from repro.spark.stage import Stage
from repro.spark.task import TaskSpec
from repro.spark.taskset import TaskSetAborted, TaskSetManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.dynamics import ClusterDynamics
    from repro.simulate.engine import EventHandle

# Per-task metric names are cached: the f-string builds showed up in the
# observability-overhead gate (two per task attempt across a whole run).
_TASK_METRIC = {
    outcome: f"tasks.{outcome}"
    for outcome in ("succeeded", "oom", "killed", "failed", "launched")
}
_APP_METRIC: dict[tuple[str, str], str] = {}


def _app_metric(app_id: str, outcome: str) -> str:
    name = _APP_METRIC.get((app_id, outcome))
    if name is None:
        name = _APP_METRIC[(app_id, outcome)] = f"app.{app_id}.tasks.{outcome}"
    return name


@dataclass
class AppResult:
    """Everything an experiment needs from one application run.

    AppResult is the experiment harness's *wire form*: instances must stay
    picklable (worker processes ship them back to the parent, and the run
    cache stores them on disk), which every component guarantees — plain
    dataclasses throughout, and :class:`ClusterMonitor` detaches its live
    simulator references on serialization.  ``tests/test_pool_cache.py``
    enforces this.
    """

    app_name: str
    scheduler_name: str
    runtime_s: float
    task_metrics: list[TaskMetrics]
    aborted: bool = False
    oom_task_failures: int = 0
    executor_kills: int = 0
    monitor: ClusterMonitor | None = None
    extras: dict[str, float] = field(default_factory=dict)
    obs: Observability | None = field(default=None, repr=False)
    # Provenance: True when this result was served from the run cache rather
    # than freshly simulated (stamped by RunCache.get, never pickled as True).
    from_cache: bool = False
    # Multi-tenant provenance: which submission this result belongs to and
    # when it entered/left the shared cluster (sim time).
    app_id: str = ""
    pool: str = "default"
    submitted_at: float = 0.0
    finished_at: float = 0.0

    def successful_metrics(self) -> list[TaskMetrics]:
        return [m for m in self.task_metrics if m.succeeded]

    def locality_counts(self) -> dict[str, int]:
        """Launched-task counts per locality level (includes retries, as the
        paper's Table V does)."""
        counts = {lvl.name: 0 for lvl in Locality}
        for m in self.task_metrics:
            counts[m.locality.name] += 1
        return counts

    def breakdown_totals(self) -> dict[str, float]:
        """Figure 7 categories summed over successful tasks."""
        totals = {
            "compute": 0.0,
            "gc": 0.0,
            "shuffle_net": 0.0,
            "shuffle_disk": 0.0,
            "scheduler_delay": 0.0,
        }
        for m in self.successful_metrics():
            for k, v in m.breakdown().items():
                totals[k] += v
        return totals


@dataclass(frozen=True)
class AppRecord:
    """The compact spill form of a finished application under reclamation.

    Service mode cannot afford an :class:`AppResult` per app — that retains
    every task attempt's :class:`TaskMetrics` plus live observability
    references, i.e. O(tasks) memory *forever*.  An :class:`AppRecord` is a
    few scalars: what an open-loop experiment aggregates (throughput,
    latency, failure counts) survives; per-attempt detail is dropped when
    the app's state is reaped.
    """

    app_id: str
    app_name: str
    pool: str
    scheduler_name: str
    submitted_at: float
    finished_at: float
    runtime_s: float
    aborted: bool
    tasks: int
    tasks_succeeded: int
    oom_task_failures: int
    task_time_s: float
    queue_wait_s: float


class AppHandle:
    """One submitted application's lifecycle on the shared cluster.

    States: *pending* (submitted for a future sim time), *running*
    (activated: pools entry registered, first job submitted), *done* or
    *aborted* (terminal; pools entry deactivated, scheduler state released).
    """

    def __init__(
        self,
        driver: "Driver",
        app: Application,
        app_id: str,
        pool: str = "default",
        weight: float = 1.0,
        min_share: int = 0,
    ):
        self._driver = driver
        self.app = app
        self.app_id = app_id
        self.pool = pool
        self.weight = weight
        self.min_share = min_share
        self.submitted = False           # activated (vs scheduled for later)
        self.submit_time: float | None = None
        self.finish_time: float | None = None
        self.done = False
        self.aborted = False
        self.reaped = False              # state reclaimed; only AppRecord left
        self.runs: list[TaskRun] = []
        self.tasksets: dict[int, TaskSetManager] = {}
        self.stage_done: set[int] = set()
        self.current_job: Job | None = None
        self.job_index = 0
        self.job_start_time = 0.0

    @property
    def is_active(self) -> bool:
        """Still owed cluster time: pending or running (not terminal)."""
        return not self.done and not self.aborted

    def record(self) -> AppRecord:
        """The compact spill form; valid once done or aborted."""
        if self.is_active:
            raise RuntimeError(
                f"application {self.app_id} has not finished "
                f"(t={self._driver.ctx.sim.now:.1f}s)"
            )
        start = self.submit_time if self.submit_time is not None else 0.0
        end = (
            self.finish_time
            if self.finish_time is not None
            else self._driver.ctx.sim.now
        )
        return AppRecord(
            app_id=self.app_id,
            app_name=self.app.name,
            pool=self.pool,
            scheduler_name=self._driver.scheduler.name,
            submitted_at=start,
            finished_at=end,
            runtime_s=end - start,
            aborted=self.aborted,
            tasks=len(self.runs),
            tasks_succeeded=sum(1 for r in self.runs if r.metrics.succeeded),
            oom_task_failures=sum(
                1 for r in self.runs if r.metrics.failed_oom
            ),
            task_time_s=sum(r.metrics.duration for r in self.runs),
            queue_wait_s=sum(
                r.metrics.extras.get("queued_s", 0.0) for r in self.runs
            ),
        )

    def result(self) -> AppResult:
        """This app's :class:`AppResult`; valid once done or aborted."""
        if self.reaped:
            raise RuntimeError(
                f"application {self.app_id} was reclaimed: under "
                f"enable_reclamation() only the compact AppRecord survives "
                f"(use the record sink)"
            )
        if self.is_active:
            raise RuntimeError(
                f"application {self.app_id} has not finished "
                f"(t={self._driver.ctx.sim.now:.1f}s)"
            )
        start = self.submit_time if self.submit_time is not None else 0.0
        end = (
            self.finish_time
            if self.finish_time is not None
            else self._driver.ctx.sim.now
        )
        oom_failures = sum(1 for r in self.runs if r.metrics.failed_oom)
        return AppResult(
            app_name=self.app.name,
            scheduler_name=self._driver.scheduler.name,
            runtime_s=end - start,
            task_metrics=[r.metrics for r in self.runs],
            aborted=self.aborted,
            oom_task_failures=oom_failures,
            executor_kills=self._driver.executor_kills,
            monitor=self._driver.monitor,
            obs=self._driver.ctx.obs,
            app_id=self.app_id,
            pool=self.pool,
            submitted_at=start,
            finished_at=end,
        )


class Driver:
    """Runs applications on a simulated cluster (any number, concurrently)."""

    def __init__(
        self,
        ctx: SchedulerContext,
        scheduler: TaskScheduler,
        monitor: ClusterMonitor | None = None,
    ):
        self.ctx = ctx
        self.scheduler = scheduler
        self.monitor = monitor
        ctx.driver = self
        ctx.pools.mode = ctx.conf.scheduler_mode
        scheduler.attach(ctx)
        self.executors: dict[str, Executor] = {}
        self.all_runs: list[TaskRun] = []
        self.apps: dict[str, AppHandle] = {}
        self._app_seq = 0
        self.executor_kills = 0
        self._speculation = SpeculationLoop(
            ctx, self.active_tasksets, self.scheduler.revive
        )
        self._started = False            # executor fleet launched
        self._services_running = False   # monitor/speculation ticking
        self._scheduler_stopped = False  # scheduler.stop() happened (idle)
        # Cluster-dynamics engine, when the session runs with one (its
        # autoscaler control loop follows the service start/stop lifecycle).
        self.dynamics: "ClusterDynamics | None" = None
        # Nodes mid-departure: name -> (reason, deadline timer).  Their
        # executors are draining (no new tasks); a decommission leaves as
        # soon as its tasks finish, a preemption at the deadline regardless.
        self._draining: dict[str, tuple[str, "EventHandle"]] = {}
        # Service mode (off by default — see enable_reclamation): reap each
        # app's state at completion instead of retaining it for result().
        self._reclaim = False
        self._record_sink: "Callable[[AppRecord], None] | None" = None

    # -- public ------------------------------------------------------------------

    def enable_reclamation(
        self, record_sink: "Callable[[AppRecord], None] | None" = None
    ) -> None:
        """Switch to service mode: bounded memory over unbounded submissions.

        On each app's completion its :class:`AppHandle` spills to a compact
        :class:`AppRecord` (delivered to ``record_sink``, or dropped) and
        every per-app structure is reclaimed eagerly — handle task runs,
        the driver's app map, scheduling-pool shares, scheduler/TaskManager
        queues, and the observability layer's per-app counters, decisions,
        and spans.  ``all_runs`` stops accumulating entirely.  The default
        (retaining) mode is untouched: experiments that want full
        :class:`AppResult` fidelity simply never call this.
        """
        self._reclaim = True
        self._record_sink = record_sink

    def submit(
        self,
        app: Application,
        at: float | None = None,
        pool: str | None = None,
        weight: float | None = None,
        min_share: int | None = None,
    ) -> AppHandle:
        """Submit an application, now or at a future sim time.

        The first activation brings the cluster up (executors, monitor,
        speculation); later apps join the running fleet.  ``pool``/``weight``/
        ``min_share`` feed the fair-share layer when ``conf.scheduler_mode``
        is ``"fair"``; left as ``None`` they fall back to the application's
        own declared defaults.
        """
        app_id = f"{app.name}@{self._app_seq}"
        self._app_seq += 1
        handle = AppHandle(
            self,
            app,
            app_id,
            pool=app.pool if pool is None else pool,
            weight=app.weight if weight is None else weight,
            min_share=app.min_share if min_share is None else min_share,
        )
        # Fail fast on shares the fair comparator cannot order — at submit
        # time, not at the (possibly far-future) deferred activation.
        validate_share(handle.weight, handle.min_share)
        self.apps[app_id] = handle
        if at is None or at <= self.ctx.sim.now:
            self._activate(handle)
        else:
            self.ctx.sim.at(at, self._activate, handle)
        return handle

    def active_tasksets(self) -> list[TaskSetManager]:
        return [
            ts
            for handle in self.apps.values()
            if handle.is_active
            for ts in handle.tasksets.values()
            if ts.is_active()
        ]

    def _any_active(self) -> bool:
        return any(h.is_active for h in self.apps.values())

    # -- legacy single-app views (tests and tooling poke these) -------------------

    @property
    def _app_done(self) -> bool:
        """True when every submitted app finished normally (legacy view)."""
        return bool(self.apps) and all(h.done for h in self.apps.values())

    @property
    def _aborted(self) -> bool:
        return any(h.aborted for h in self.apps.values())

    @property
    def _tasksets(self) -> dict[int, TaskSetManager]:
        """All apps' tasksets merged by (globally unique) stage id."""
        merged: dict[int, TaskSetManager] = {}
        for handle in self.apps.values():
            merged.update(handle.tasksets)
        return merged

    # -- lifecycle ---------------------------------------------------------------

    def _activate(self, handle: AppHandle) -> None:
        handle.submitted = True
        handle.submit_time = self.ctx.sim.now
        self.ctx.pools.register(
            handle.app_id,
            pool=handle.pool,
            weight=handle.weight,
            min_share=handle.min_share,
        )
        self._ensure_services()
        self.ctx.trace.record(self.ctx.now, "app_submit", app=handle.app_id)
        self._submit_next_job(handle)

    def _ensure_services(self) -> None:
        """Bring the cluster up for the first app; wake it after idle."""
        if not self._started:
            for node in self.ctx.cluster:
                self._launch_executor(node.name)
            self._started = True
        elif not self._services_running:
            # Waking from idle: nodes whose executor died while nothing was
            # running never relaunched — bring them back now.
            for node in self.ctx.cluster:
                if node.name not in self.executors:
                    self._launch_executor(node.name)
        if not self._services_running:
            if self.monitor is not None:
                self.monitor.start()
            self._speculation.start()
            if self._scheduler_stopped:
                self.scheduler.resume()
                self._scheduler_stopped = False
            self._services_running = True
            if self.dynamics is not None:
                self.dynamics.on_services_start()

    def _stop_services(self, sample: bool) -> None:
        """Last active app ended: quiesce the periodic machinery."""
        self._speculation.stop()
        self.scheduler.stop()
        self._scheduler_stopped = True
        if self.monitor is not None:
            if sample:
                self.monitor.sample_now()
            self.monitor.stop()
        self._services_running = False
        if self.dynamics is not None:
            self.dynamics.on_services_stop()
        # Quiesce point: fold the simulation core's counters into the run's
        # metrics (delta-tracked, so repeated idle/wake cycles don't double
        # count), and snapshot trace/span ring health so silent drops surface
        # in the run report.
        self.ctx.obs.record_sim_counters(
            self.ctx.sim, self.ctx.cluster.fluid_resources()
        )
        self.ctx.obs.note_trace_state(self.ctx.trace)
        # Force any deferred release-compaction through (no-op unless apps
        # were reclaimed): idle memory is what's live, nothing tombstoned.
        self.ctx.obs.flush_released()

    def _finish_app(self, handle: AppHandle) -> None:
        handle.done = True
        handle.finish_time = self.ctx.now
        # release (not just deactivate): the share is also dropped from the
        # pool map, keeping it O(active apps) over an unbounded stream.  No
        # scheduling path consults a finished app's share; note_launch/
        # note_end no-op on missing ids (late kill notifications).
        self.ctx.pools.release(handle.app_id)
        self.scheduler.on_app_removed(handle.app_id)
        self._emit_app_span(handle, aborted=False)
        if not self._any_active():
            self._stop_services(sample=True)
        self.ctx.trace.record(self.ctx.now, "app_complete", app=handle.app_id)
        if self._reclaim:
            self._reap(handle)

    def _abort(self, handle: AppHandle) -> None:
        if handle.aborted:
            return
        handle.aborted = True
        handle.finish_time = self.ctx.now
        self.ctx.pools.release(handle.app_id)
        self._emit_app_span(handle, aborted=True)
        if not self._any_active():
            self._stop_services(sample=False)
        for ex in list(self.executors.values()):
            for run in list(ex.running):
                if run.taskset.app_id == handle.app_id:
                    run.kill(reason="app-aborted")
        self.scheduler.on_app_removed(handle.app_id)
        self.ctx.trace.record(self.ctx.now, "app_aborted", app=handle.app_id)
        if self._reclaim:
            self._reap(handle)

    def _reap(self, handle: AppHandle) -> None:
        """Tear down a terminal app's state (service mode).

        Spills the compact :class:`AppRecord` first, then releases every
        per-app structure: the handle's run/taskset/stage maps, the driver's
        app registry, the cached per-app metric names, and the observability
        layer's counters/decisions/spans (tombstoned there, compacted on the
        shared half-dead schedule).  Pools and scheduler state were already
        released on the finish/abort path.
        """
        record = handle.record()
        if self._record_sink is not None:
            self._record_sink(record)
        handle.reaped = True
        for job in handle.app.jobs:
            for stage in job.stages:
                if stage.shuffle_id is not None:
                    self.ctx.shuffle.release(stage.shuffle_id)
        handle.runs.clear()
        handle.tasksets.clear()
        handle.stage_done.clear()
        handle.current_job = None
        self.apps.pop(handle.app_id, None)
        for outcome in _TASK_METRIC:
            _APP_METRIC.pop((handle.app_id, outcome), None)
        self.ctx.obs.release_app(handle.app_id)

    # -- executors -----------------------------------------------------------------

    def _launch_executor(self, node_name: str) -> None:
        node = self.ctx.cluster.node(node_name)
        heap = self.scheduler.executor_memory_for(node_name)
        max_heap = node.spec.memory_mb - self.ctx.conf.node_reserved_mb
        heap = min(heap, max_heap)
        slots = self.scheduler.executor_slots_for(node_name)
        ex = Executor(self.ctx, node, heap, slots)
        # A node mid-departure relaunching its executor (OOM during the
        # warning window) comes back already draining.
        ex.draining = node_name in self._draining
        self.executors[node_name] = ex
        self.ctx.trace.record(
            self.ctx.now, "executor_up", node=node_name, heap_mb=heap, slots=slots
        )
        self.scheduler.on_executor_added(ex)

    def _fail_executor(self, executor: Executor) -> None:
        """The OS killed this JVM (severe memory overcommit).

        The machine survives: local shuffle files outlive the process when
        the external shuffle service is on, and a replacement executor is
        relaunched after ``executor_recovery_s`` while any app is active.
        """
        if not executor.alive:
            return
        self.executor_kills += 1
        self.ctx.obs.metrics.inc("executors.killed")
        self.ctx.trace.record(
            self.ctx.now, "executor_killed", node=executor.node.name
        )
        self.scheduler.on_executor_removed(executor)
        self.executors.pop(executor.node.name, None)
        executor.kill()
        if not self.ctx.conf.external_shuffle_service:
            self._handle_shuffle_loss(executor.node.name)
        if self._any_active():
            self.ctx.sim.after(
                self.ctx.conf.executor_recovery_s,
                self._relaunch_executor,
                executor.node.name,
            )

    def _relaunch_executor(self, node_name: str) -> None:
        if (
            not self._any_active()
            or node_name in self.executors
            or not self.ctx.cluster.has_node(node_name)  # departed meanwhile
        ):
            return
        self._launch_executor(node_name)

    # -- cluster membership (driven by repro.cluster.dynamics) --------------------

    def add_node(self, spec: NodeSpec) -> None:
        """A machine joins the live cluster (provisioning, spot capacity).

        Registers it with the topology and block manager and — when the
        executor fleet is up and running — launches its executor immediately.
        While the driver idles, the wake path in :meth:`_ensure_services`
        brings the executor up with the rest of the fleet.
        """
        self.ctx.cluster.add_node(spec)
        self.ctx.blocks.add_node(spec.name, spec.rack)
        self.ctx.obs.metrics.inc("cluster.node_joins")
        self.ctx.trace.record(self.ctx.now, "node_join", node=spec.name)
        self.scheduler.on_node_added(spec.name)
        if self._started and self._services_running:
            self._launch_executor(spec.name)

    def decommission_node(self, name: str, drain_s: float | None = None) -> None:
        """Graceful departure: drain running tasks, then leave.

        The node's executor stops accepting work immediately; the node is
        removed as soon as its running tasks finish, or after ``drain_s``
        (default ``conf.decommission_drain_s``) with stragglers killed.
        """
        self._check_departure(name)
        if drain_s is None:
            drain_s = self.ctx.conf.decommission_drain_s
        self.ctx.trace.record(
            self.ctx.now, "node_decommission", node=name, drain_s=drain_s
        )
        ex = self.executors.get(name)
        if ex is None or not ex.running or drain_s <= 0:
            self.remove_node(name, reason="decommission")
            return
        ex.draining = True
        self._draining[name] = (
            "decommission",
            self.ctx.sim.after(drain_s, self.remove_node, name, "decommission"),
        )

    def preempt_node(self, name: str, warning_s: float | None = None) -> None:
        """Spot preemption: a warning now, the machine gone at the deadline.

        Unlike a decommission, early drain does not save the node — the
        provider reclaims it at ``warning_s`` (default
        ``conf.preemption_warning_s``) no matter what; tasks still running
        then are killed and its shuffle outputs are lost.
        """
        self._check_departure(name)
        if warning_s is None:
            warning_s = self.ctx.conf.preemption_warning_s
        self.ctx.trace.record(
            self.ctx.now, "preemption_warning", node=name, warning_s=warning_s
        )
        if warning_s <= 0:
            self.remove_node(name, reason="preemption")
            return
        ex = self.executors.get(name)
        if ex is not None:
            ex.draining = True
        self._draining[name] = (
            "preemption",
            self.ctx.sim.after(warning_s, self.remove_node, name, "preemption"),
        )

    def remove_node(self, name: str, reason: str = "failure") -> None:
        """Hard departure: the machine leaves the cluster now.

        Running tasks are killed; the node's disks leave with it, so its map
        outputs are lost *even under the external shuffle service* (that
        only survives process death on a live machine) and recovered through
        the FetchFailed path; block replicas and scheduler state pinned to
        the node are dropped.
        """
        if not self.ctx.cluster.has_node(name):
            return
        self._check_driver_node(name)
        entry = self._draining.pop(name, None)
        if entry is not None and entry[1].pending:
            entry[1].cancel()
        self.ctx.obs.metrics.inc("cluster.node_removals")
        self.ctx.trace.record(
            self.ctx.now, "node_removed", node=name, reason=reason
        )
        ex = self.executors.pop(name, None)
        if ex is not None:
            self.scheduler.on_executor_removed(ex)
            ex.kill()
        self._handle_shuffle_loss(name)
        self.ctx.blocks.remove_node(name)
        self.ctx.cluster.remove_node(name)
        self.scheduler.on_node_removed(name)

    def _check_departure(self, name: str) -> None:
        if not self.ctx.cluster.has_node(name):
            raise KeyError(f"node {name!r} not in cluster")
        self._check_driver_node(name)
        if name in self._draining:
            raise ValueError(f"node {name!r} is already departing")

    def _check_driver_node(self, name: str) -> None:
        if name == self.ctx.driver_node:
            raise ValueError(
                f"cannot remove driver node {name!r} (the cluster master "
                f"and result sink live there)"
            )

    def _handle_shuffle_loss(self, node_name: str) -> None:
        """Spark's FetchFailed path: map output that lived only in the dead
        executor's local dirs is gone, so the producing map tasks re-run and
        consumer stages wait (their in-flight attempts are aborted)."""
        for handle in self.apps.values():
            if handle.is_active and handle.current_job is not None:
                self._handle_shuffle_loss_for(handle, node_name)

    def _handle_shuffle_loss_for(
        self, handle: AppHandle, node_name: str
    ) -> None:
        job = handle.current_job
        assert job is not None
        for stage in job.stages:
            if stage.shuffle_id is None:
                continue
            lost_mb = self.ctx.shuffle.unregister_node(stage.shuffle_id, node_name)
            if lost_mb <= 0:
                continue
            consumers = [
                c
                for c in job.children_of(stage)
                if c.stage_id not in handle.stage_done
            ]
            if not consumers:
                continue  # nobody needs this shuffle anymore
            ts = handle.tasksets.get(stage.stage_id)
            if ts is None:
                continue
            reopened = 0
            for st in ts.states:
                # Cumulative per-task success-node sets (recorded at attempt
                # end) replace the old scan over every run the driver ever
                # launched: O(1) per task instead of O(total attempts), and
                # independent of all_runs retention (service mode drops it).
                if st.success_nodes is not None and node_name in st.success_nodes:
                    ts.reopen_task(st.spec.index)
                    reopened += 1
            if reopened == 0:
                continue
            # Reopening can re-arm the stage for speculation (its
            # finished_count moved); wake the parked loop.
            self._speculation.notify_progress()
            self.ctx.trace.record(
                self.ctx.now,
                "shuffle_lost",
                stage=stage.template_id,
                node=node_name,
                tasks=reopened,
                mb=lost_mb,
            )
            handle.stage_done.discard(stage.stage_id)
            # Block the consumers and abort their in-flight attempts (they
            # would fetch data that no longer exists).
            for child in consumers:
                child_ts = handle.tasksets.get(child.stage_id)
                if child_ts is None or not child_ts.is_active():
                    continue
                child_ts.blocked = True
                for st in child_ts.states:
                    for run in list(st.running):
                        run.kill(reason="fetch-failure")
            self.scheduler.submit_taskset(ts, handle.app_id)

    # -- DAG scheduling ----------------------------------------------------------------

    def _submit_next_job(self, handle: AppHandle) -> None:
        if handle.job_index >= len(handle.app.jobs):
            self._finish_app(handle)
            return
        job = handle.app.jobs[handle.job_index]
        handle.job_index += 1
        handle.current_job = job
        handle.job_start_time = self.ctx.now
        self.ctx.trace.record(self.ctx.now, "job_start", job=job.name)
        for stage in job.roots():
            self._submit_stage(handle, stage)

    def _submit_stage(self, handle: AppHandle, stage: Stage) -> None:
        if stage.stage_id in handle.tasksets:
            return
        ts = TaskSetManager(self.ctx, stage, app_id=handle.app_id)
        handle.tasksets[stage.stage_id] = ts
        self.ctx.trace.record(
            self.ctx.now, "stage_submit", stage=stage.template_id, tasks=stage.num_tasks
        )
        self.scheduler.submit_taskset(ts, handle.app_id)

    def launch_task(
        self,
        ts: TaskSetManager,
        spec: TaskSpec,
        executor: Executor,
        locality: Locality,
        speculative: bool = False,
        extra_dispatch_delay: float = 0.0,
    ) -> TaskRun:
        attempt = ts.next_attempt_number(spec)
        run = TaskRun(
            self.ctx,
            executor,
            spec,
            ts,
            attempt,
            locality,
            speculative=speculative,
            extra_dispatch_delay=extra_dispatch_delay,
        )
        # Queue wait: runnable (stage submission or requeue) -> this launch.
        # Speculative copies are never "waiting" — the primary attempt runs.
        queued = (
            0.0
            if speculative
            else max(0.0, self.ctx.sim.now - ts.states[spec.index].ready_since)
        )
        run.metrics.extras["queued_s"] = queued
        ts.register_launch(spec, run)
        if not self._reclaim:
            # all_runs is the legacy whole-cluster view (tests/tooling);
            # service mode cannot afford an ever-growing list of attempts.
            self.all_runs.append(run)
        handle = self.apps.get(ts.app_id)
        if handle is not None:
            handle.runs.append(run)
        self.ctx.pools.note_launch(ts.app_id)
        self.ctx.obs.metrics.inc("tasks.launched")
        if ts.app_id:
            self.ctx.obs.metrics.inc(_app_metric(ts.app_id, "launched"))
        if not speculative:
            self.ctx.obs.windows.observe(
                "task.queue_wait_s", self.ctx.sim.now, queued
            )
        run.start()
        return run

    def task_ended(self, run: TaskRun) -> None:
        m = run.metrics
        outcome = (
            "succeeded"
            if m.succeeded
            else "oom" if m.failed_oom else "killed" if m.killed else "failed"
        )
        self.ctx.obs.metrics.inc(_TASK_METRIC[outcome])
        ts = run.taskset
        app_id = ts.app_id
        self.ctx.pools.note_end(app_id)
        if app_id:
            self.ctx.obs.metrics.inc(_app_metric(app_id, outcome))
        self._emit_task_span(run, outcome)
        handle = self.apps.get(app_id)
        stage_completed = False
        try:
            stage_completed = ts.on_attempt_ended(run)
        except TaskSetAborted:
            if handle is not None:
                self._abort(handle)
            return
        # A finish can cross a taskset's speculation quantile; wake the
        # parked loop before any dispatch side effects.
        self._speculation.notify_progress()
        # Scheduler bookkeeping (slot/kind accounting, metric recording) must
        # see this task as finished *before* stage completion can submit new
        # stages and trigger a dispatch round.
        self.scheduler.on_task_end(run, app_id or None)
        if stage_completed and handle is not None:
            self._on_stage_complete(handle, ts)
        # A decommissioning node leaves the moment its last task drains (a
        # preempted one stays until the provider's deadline regardless).
        node_name = run.executor.node.name
        entry = self._draining.get(node_name)
        if entry is not None and entry[0] == "decommission":
            ex = self.executors.get(node_name)
            if ex is not None and ex.alive and not ex.running:
                self.remove_node(node_name, reason="decommission")

    def _on_stage_complete(self, handle: AppHandle, ts: TaskSetManager) -> None:
        stage = ts.stage
        handle.stage_done.add(stage.stage_id)
        self.scheduler.taskset_finished(ts, handle.app_id)
        self.ctx.trace.record(self.ctx.now, "stage_complete", stage=stage.template_id)
        job = handle.current_job
        assert job is not None
        self._emit_stage_span(handle, ts)
        for child in job.children_of(stage):
            if child.stage_id in handle.tasksets:
                # Unblock consumers that were waiting on a shuffle re-run.
                child_ts = handle.tasksets[child.stage_id]
                if child_ts.blocked and all(
                    p.stage_id in handle.stage_done for p in child.parents
                ):
                    child_ts.blocked = False
                    self.scheduler.revive()
                continue
            if all(p.stage_id in handle.stage_done for p in child.parents):
                self._submit_stage(handle, child)
        if all(s.stage_id in handle.stage_done for s in job.stages):
            self.ctx.trace.record(self.ctx.now, "job_complete", job=job.name)
            self._emit_job_span(handle, job)
            self._submit_next_job(handle)

    # -- causal spans -------------------------------------------------------------
    #
    # Every task attempt, stage, job, and app emits one Span on completion,
    # parent-linked task -> stage -> job -> app, with the task's wall time
    # split into phase segments.  Span emission is pure observation: it
    # schedules no simulator events and touches no RNG, so golden decision
    # signatures are unaffected.

    def _emit_task_span(self, run: TaskRun, outcome: str) -> None:
        obs = self.ctx.obs
        if not obs.enabled:
            return
        m = run.metrics
        ts = run.taskset
        app_id = ts.app_id
        queued = m.extras.get("queued_s", 0.0)
        st = ts.states[m.index]
        first = st.first_launch if st.first_launch is not None else m.launch_time
        phases: list[tuple[str, float]] = []
        if queued > 0:
            phases.append(("queued", queued))
        if m.scheduler_delay > 0:
            phases.append(("sched_delay", m.scheduler_delay))
        if m.input_read_time > 0:
            phases.append(("input_read", m.input_read_time))
        if m.fetch_wait_time > 0:
            phases.append(("fetch", m.fetch_wait_time))
        if m.shuffle_disk_time > 0:
            phases.append(("shuffle_disk", m.shuffle_disk_time))
        if m.ser_time > 0:
            phases.append(("ser", m.ser_time))
        if m.compute_time > 0:
            phases.append(("compute", m.compute_time))
        if m.gc_time > 0:
            phases.append(("gc", m.gc_time))
        if m.output_time > 0:
            phases.append(("output", m.output_time))
        obs.record_span(
            Span(
                # Task keys recur across jobs (iteration N re-runs the same
                # stage template), so the stage id is part of the identity.
                span_id=f"task:{app_id}/s{m.stage_id}/{m.task_key}#a{m.attempt}",
                kind="task",
                name=m.task_key,
                start=m.launch_time - queued,
                end=m.finish_time,
                parent_id=f"stage:{app_id}/{m.stage_id}",
                phases=tuple(phases),
                attrs={
                    "app": app_id,
                    "node": m.node,
                    "attempt": m.attempt,
                    "speculative": m.speculative,
                    "status": outcome,
                    "locality": m.locality.name,
                    "core_rate": run.executor.node.core_rate,
                    "stage_id": m.stage_id,
                    "first_start": first,
                },
            ),
            self.ctx.trace,
        )
        obs.windows.observe("task.duration_s", self.ctx.now, m.duration)

    def _emit_stage_span(self, handle: AppHandle, ts: TaskSetManager) -> None:
        obs = self.ctx.obs
        if not obs.enabled:
            return
        stage = ts.stage
        obs.record_span(
            Span(
                span_id=f"stage:{handle.app_id}/{stage.stage_id}",
                kind="stage",
                name=stage.template_id,
                start=ts.submit_time,
                end=self.ctx.now,
                parent_id=f"job:{handle.app_id}/{handle.job_index - 1}",
                attrs={
                    "app": handle.app_id,
                    "stage_id": stage.stage_id,
                    "tasks": stage.num_tasks,
                    "parents": [
                        f"stage:{handle.app_id}/{p.stage_id}"
                        for p in stage.parents
                    ],
                },
            ),
            self.ctx.trace,
        )

    def _emit_job_span(self, handle: AppHandle, job: Job) -> None:
        obs = self.ctx.obs
        if not obs.enabled:
            return
        obs.record_span(
            Span(
                span_id=f"job:{handle.app_id}/{handle.job_index - 1}",
                kind="job",
                name=job.name,
                start=handle.job_start_time,
                end=self.ctx.now,
                parent_id=f"app:{handle.app_id}",
                attrs={"app": handle.app_id},
            ),
            self.ctx.trace,
        )

    def _emit_app_span(self, handle: AppHandle, aborted: bool) -> None:
        obs = self.ctx.obs
        if not obs.enabled:
            return
        start = handle.submit_time if handle.submit_time is not None else 0.0
        obs.record_span(
            Span(
                span_id=f"app:{handle.app_id}",
                kind="app",
                name=handle.app.name,
                start=start,
                end=self.ctx.now,
                attrs={
                    "app": handle.app_id,
                    "aborted": aborted,
                    "pool": handle.pool,
                },
            ),
            self.ctx.trace,
        )
        obs.windows.observe("app.runtime_s", self.ctx.now, self.ctx.now - start)
